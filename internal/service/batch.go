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
// seesaw-served daemon as jobs of at most batchChunk cells. Nothing
// ships until a Wait on one of its cells, which ships every cell
// registered since the last shipment, so a cell nobody waits on never
// ships, and one Batch serves any number of shipments. Callers that
// submit everything and then reduce in submission order — a sweep's
// grid, each evolve generation — thus reach the daemon as a handful of
// large jobs instead of hundreds of one-cell jobs filling its queue.
type Batch struct {
	cl    *Client
	label string

	mu    sync.Mutex
	specs []CellSpec // the cells not shipped yet
	cells []*Cell
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

// Wait ships the cells registered since the batch's last shipment, if
// any, then returns this cell's report or error.
func (c *Cell) Wait() (*sim.Report, error) {
	if c.b != nil {
		c.b.ship()
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

// ship ships the cells registered since the last shipment and fills
// their handles. Every chunk's job is submitted before any is awaited,
// so the whole shipment is in flight at once. A job-level failure
// (submission refused, wait interrupted) fails only that chunk's cells.
func (b *Batch) ship() {
	b.mu.Lock()
	defer b.mu.Unlock()
	specs, cells := b.specs, b.cells
	b.specs, b.cells = nil, nil
	ctx := context.Background()
	type shipped struct {
		start, end int
		id         string
		err        error
	}
	var jobs []shipped
	for start := 0; start < len(specs); start += batchChunk {
		end := min(start+batchChunk, len(specs))
		st, err := b.cl.Submit(ctx, JobRequest{Label: b.label, Cells: specs[start:end]})
		jobs = append(jobs, shipped{start: start, end: end, id: st.ID, err: err})
	}
	for _, j := range jobs {
		st, err := JobStatus{}, j.err
		if err == nil {
			st, err = b.cl.Wait(ctx, j.id, batchPoll)
		}
		chunk := cells[j.start:j.end]
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
