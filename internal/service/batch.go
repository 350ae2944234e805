package service

import (
	"context"
	"fmt"
	"sync"
	"time"

	"seesaw/internal/sim"
)

// batchChunk bounds cells per submitted job at seesaw-served's default
// -max-cells, so a batch works against a daemon with default flags.
const batchChunk = 256

// batchPoll is how often a shipped batch polls each job's status.
const batchPoll = 250 * time.Millisecond

// A Batch collects cells as a caller registers them and ships them to a
// seesaw-served daemon as jobs of at most batchChunk cells. Callers that
// submit everything and then reduce in submission order — a sweep's
// grid, one evolve generation — thus reach the daemon as a handful of
// large jobs instead of hundreds of one-cell jobs filling its queue.
// A Batch ships once; register later cells on a new Batch.
type Batch struct {
	cl    *Client
	label string

	mu      sync.Mutex
	specs   []CellSpec
	cells   []*Cell
	flushed bool
}

// NewBatch starts an empty batch whose jobs go through cl under label.
func NewBatch(cl *Client, label string) *Batch {
	return &Batch{cl: cl, label: label}
}

// Cell is one registered cell's handle.
type Cell struct {
	b   *Batch // nil for a cell that failed at Submit
	rep *sim.Report
	err error
}

// Wait ships the cell's batch if it has not been shipped yet, then
// returns this cell's report or error.
func (c *Cell) Wait() (*sim.Report, error) {
	if c.b != nil {
		c.b.Flush()
	}
	return c.rep, c.err
}

// Submit registers one cell and returns its handle without blocking. A
// config the wire format cannot carry faithfully (SpecFromConfig
// proves the round trip) becomes an already-failed handle, so the caller
// degrades to partial results exactly like a failed local cell, never to
// a silently different simulation.
func (b *Batch) Submit(cfg sim.Config) *Cell {
	spec, err := SpecFromConfig(cfg)
	if err != nil {
		return &Cell{err: err}
	}
	c := &Cell{b: b}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.specs = append(b.specs, spec)
	b.cells = append(b.cells, c)
	return c
}

// Flush ships the registered cells and fills every handle; it is a
// no-op after the first call. Every chunk's job is submitted before any
// is awaited, so the whole batch is in flight at once. A job-level
// failure (submission refused, wait interrupted) fails only that
// chunk's cells.
func (b *Batch) Flush() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.flushed {
		return
	}
	b.flushed = true
	ctx := context.Background()
	type shipped struct {
		start, end int
		id         string
		err        error
	}
	var jobs []shipped
	for start := 0; start < len(b.specs); start += batchChunk {
		end := min(start+batchChunk, len(b.specs))
		st, err := b.cl.Submit(ctx, JobRequest{Label: b.label, Cells: b.specs[start:end]})
		jobs = append(jobs, shipped{start: start, end: end, id: st.ID, err: err})
	}
	for _, j := range jobs {
		st, err := JobStatus{}, j.err
		if err == nil {
			st, err = b.cl.Wait(ctx, j.id, batchPoll)
		}
		chunk := b.cells[j.start:j.end]
		if err != nil {
			for _, c := range chunk {
				c.err = err
			}
			continue
		}
		for _, r := range st.Results {
			if r.Index < 0 || r.Index >= len(chunk) {
				continue
			}
			c := chunk[r.Index]
			switch {
			case r.Report != nil:
				c.rep = r.Report
			case r.Error != "":
				c.err = fmt.Errorf("cluster: %s", r.Error)
			default:
				c.err = fmt.Errorf("cluster: cell %s: %s", r.Desc, r.Status)
			}
		}
		for _, c := range chunk {
			if c.rep != nil || c.err != nil {
				continue
			}
			// The job ended without this cell's result (canceled, say);
			// surface the job-level error.
			if st.Error != "" {
				c.err = fmt.Errorf("cluster: job %s: %s", j.id, st.Error)
			} else {
				c.err = fmt.Errorf("cluster: job %s %s without a result for this cell", j.id, st.State)
			}
		}
	}
}
