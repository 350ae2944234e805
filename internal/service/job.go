package service

import (
	"context"
	"sync"
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

// Job is one batch of cells behind the /v1/jobs API: its state machine,
// per-cell results and progress-event history. The daemon's dispatcher
// and the cluster coordinator both drive it through the same methods,
// and MountJobs serves it. Its mutex is a leaf: it is never held while
// calling out, so backends may call in while holding their own locks.
type Job struct {
	ID    string
	Label string

	ctx    context.Context
	cancel context.CancelFunc
	// stats supplies the backend's scheduling outcomes for statuses.
	stats func() PoolStats

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

// NewJob builds a queued job over cfgs whose context derives from
// parent. stats reports its scheduling outcomes in every status.
func NewJob(parent context.Context, id, label string, cfgs []sim.Config, stats func() PoolStats) *Job {
	ctx, cancel := context.WithCancel(parent)
	j := &Job{
		ID: id, Label: label,
		ctx: ctx, cancel: cancel, stats: stats,
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

// Context is the job's cancellation scope; cells run under it.
func (j *Job) Context() context.Context { return j.ctx }

// Cancel cancels the job's context. The job reaches its terminal state
// once its cells settle (see CompleteCell).
func (j *Job) Cancel() { j.cancel() }

// Start moves a queued job to running.
func (j *Job) Start() { j.setState(StateRunning) }

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

// setState transitions the job and publishes the change.
func (j *Job) setState(state string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.setStateLocked(state)
}

func (j *Job) setStateLocked(state string) {
	if Terminal(j.state) {
		return // cancel/finish races: first terminal state wins
	}
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

// CompleteCell records cell i's outcome and publishes its progress
// event, summarizing the metrics epoch series when the cell carried one.
// The call that settles the last cell ends the job — canceled if its
// context was canceled, failed if any cell failed, done otherwise — and
// then cancels the job's context. Each cell completes exactly once.
func (j *Job) CompleteCell(i int, rep *sim.Report, err error) {
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
	if j.done < len(j.results) {
		return
	}
	switch {
	case j.ctx.Err() != nil:
		j.setStateLocked(StateCanceled)
	case j.failed > 0:
		j.setStateLocked(StateFailed)
	default:
		j.setStateLocked(StateDone)
	}
	j.cancel()
}

// Requeue publishes a "requeue" event: cell i's attempt failed with
// errMsg and the cell went back to the queue.
func (j *Job) Requeue(i int, errMsg string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.publish(Event{Type: "requeue", Index: i, Desc: j.results[i].Desc, Error: errMsg, Cells: len(j.results)})
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
	st.Pool = j.stats()
	return st
}
