package service

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"seesaw/internal/runner"
	"seesaw/internal/sim"
)

// Job states.
const (
	StateQueued   = "queued"
	StateRunning  = "running"
	StateDone     = "done"
	StateFailed   = "failed"
	StateCanceled = "canceled"
)

// Terminal reports whether a state is final.
func Terminal(state string) bool {
	return state == StateDone || state == StateFailed || state == StateCanceled
}

// Job is one batch of cells behind the /v1/jobs API: the configs its
// pool runs, its state machine, per-cell results and progress-event
// history. The Server drives it and its handlers serve it. Its mutex is
// a leaf: it is never held while calling out, so the server calls in
// while holding its own lock.
type Job struct {
	ID    string
	Label string

	cfgs   []sim.Config
	ctx    context.Context
	cancel context.CancelFunc
	// pool runs the cells once a dispatcher has claimed the job; its
	// counters are the job's PoolStats.
	pool atomic.Pointer[runner.Pool]

	mu       sync.Mutex
	state    string
	results  []CellResult
	done     int
	failed   int
	errMsg   string
	created  time.Time
	started  time.Time
	finished time.Time

	// events is the full progress history, so a stream attaching
	// mid-run (or after completion) replays everything before tailing
	// live. wake is closed by the next publish.
	events []Event
	wake   chan struct{}
}

// newJob builds a queued job over cfgs whose context derives from
// parent.
func newJob(parent context.Context, id, label string, cfgs []sim.Config) *Job {
	ctx, cancel := context.WithCancel(parent)
	j := &Job{
		ID: id, Label: label,
		cfgs: cfgs, ctx: ctx, cancel: cancel,
		state:   StateQueued,
		results: make([]CellResult, len(cfgs)),
		created: time.Now(),
		wake:    make(chan struct{}),
	}
	for i, cfg := range cfgs {
		j.results[i] = CellResult{Index: i, Desc: runner.Describe(cfg), Status: "pending"}
	}
	return j
}

// State returns the job's current state.
func (j *Job) State() string {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// publish appends one event to the history and wakes every stream
// waiting for it; each stream then reads what it has not sent from the
// history, so a slow reader never loses an event. Callers hold mu.
func (j *Job) publish(ev Event) {
	ev.Seq = len(j.events) + 1
	j.events = append(j.events, ev)
	close(j.wake)
	j.wake = make(chan struct{})
}

// setState transitions the job and publishes the change: a "state"
// event, or the final "done" event for a terminal state.
func (j *Job) setState(state string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.state = state
	typ := "state"
	if Terminal(state) {
		typ = "done"
		j.finished = time.Now()
	} else if state == StateRunning {
		j.started = time.Now()
	}
	j.publish(Event{Type: typ, State: state})
}

// completeCell records cell i's outcome and publishes its progress
// event, summarizing the metrics epoch series when the cell carried one.
// Each cell completes exactly once.
func (j *Job) completeCell(i int, rep *sim.Report, err error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	r := &j.results[i]
	ev := Event{Type: "cell", Index: i, Desc: r.Desc, Cells: len(j.results)}
	if err != nil {
		r.Status = "failed"
		r.Error = err.Error()
		j.failed++
		if j.errMsg == "" {
			j.errMsg = err.Error()
		}
		ev.Error = r.Error
	} else {
		r.Status = "done"
		r.Report = rep
		ev.OK = true
		if rep.Metrics != nil {
			ev.Refs = rep.Metrics.Refs
			ev.Epochs = len(rep.Metrics.Epochs)
		}
		ev.L1Hits, ev.L1Misses = rep.L1Hits, rep.L1Misses
	}
	j.done++
	ev.Completed = j.done
	j.publish(ev)
}

// outcome is the state a job whose cells have all settled ends in:
// canceled if its context was canceled, failed if any cell failed, done
// otherwise.
func (j *Job) outcome() string {
	j.mu.Lock()
	defer j.mu.Unlock()
	switch {
	case j.ctx.Err() != nil:
		return StateCanceled
	case j.failed > 0:
		return StateFailed
	}
	return StateDone
}

// since returns the events after the first seq, whether the job has
// ended, and a channel closed by the next publish. The history is
// append-only, so the returned slice stays valid without a copy.
func (j *Job) since(seq int) (evs []Event, ended bool, wake <-chan struct{}) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if seq < 0 {
		seq = 0
	}
	if seq < len(j.events) {
		evs = j.events[seq:]
	}
	return evs, Terminal(j.state), j.wake
}

// poolStats reads the job's pool counters (zero before it has a pool).
func (j *Job) poolStats() PoolStats {
	p := j.pool.Load()
	if p == nil {
		return PoolStats{}
	}
	return wireStats(p)
}

// Status snapshots the job for the API. withResults=false omits the
// per-cell reports (job listings).
func (j *Job) Status(withResults bool) JobStatus {
	j.mu.Lock()
	st := JobStatus{
		ID: j.ID, Label: j.Label, State: j.state,
		Cells: len(j.results), Completed: j.done, Failed: j.failed,
		Error: j.errMsg, Created: j.created,
	}
	if !j.started.IsZero() {
		t := j.started
		st.Started = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		st.Finished = &t
	}
	if withResults {
		st.Results = append([]CellResult(nil), j.results...)
	}
	j.mu.Unlock()
	// Read after the snapshot, so the counters already include every
	// cell the snapshot shows as settled.
	st.Pool = j.poolStats()
	return st
}

// wireStats converts a pool's counters to their wire form.
func wireStats(p *runner.Pool) PoolStats {
	st := p.Stats()
	return PoolStats{
		Submitted: st.Submitted, Runs: st.Runs, CacheHits: st.CacheHits,
		Retries: st.Retries, Failures: st.Failures,
		StoreHits: st.StoreHits, StorePuts: st.StorePuts,
		GroupPasses: st.GroupPasses, GroupAnswered: st.GroupAnswered,
	}
}

// add folds q's counters into p.
func (p *PoolStats) add(q PoolStats) {
	p.Submitted += q.Submitted
	p.Runs += q.Runs
	p.CacheHits += q.CacheHits
	p.Retries += q.Retries
	p.Failures += q.Failures
	p.StoreHits += q.StoreHits
	p.StorePuts += q.StorePuts
	p.GroupPasses += q.GroupPasses
	p.GroupAnswered += q.GroupAnswered
}
