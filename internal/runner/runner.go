// Package runner executes independent simulation cells on a bounded
// worker pool and reduces their results deterministically. Every figure,
// table, and sweep of the evaluation is a fan-out of independent
// sim.Config cells followed by an order-sensitive reduction into a
// stats.Table; the pool runs the fan-out on up to GOMAXPROCS workers
// while callers await futures in submission order, so the reduced output
// is byte-identical to a serial run of the same cells with the same seed
// (sim.Run is deterministic and shares no state between runs).
//
// Warmed cells fork a shared master: New runs every cell through
// LadderRun(nil, 0), so cells that agree on their warmup signature pay
// for one warmup between them, and a command that opens a store climbs
// that store's snapshot ladder the same way (LadderRun(store, n)).
// Forked and resumed reports are byte-identical to cold sim.RunContext
// runs, which stays the reference the tests compare against.
//
// Cells that run the same front end (generator, OS, page tables, TLBs
// and fault injector), those with equal machine.GroupKey, form a
// front-end group. A pool of two or more workers drains its queue a
// whole group at a time, oldest first: a worker answers the group's
// store hits, then runs the rest back to back, two or more of them
// under one machine.Group on the context it hands its RunFunc. The first
// to reach its measured phase runs the group's one pass, which hands
// back ends to idle worker slots, and every later cell takes its
// finished report (Stats.GroupPasses, Stats.GroupAnswered). A
// one-worker pool runs each cell inline and live, as sim.Run does.
//
// The pool also carries a keyed result cache: two submissions of an
// identical cell share one execution. Most figures compare against the
// same baseline-VIPT cells; cmd/seesaw-figures plans every figure on one
// pool before awaiting any cell, so each distinct cell runs exactly once
// and one front-end group's pass can answer cells of several figures.
// Cached reports are shared between callers and must be treated as
// immutable.
package runner

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"seesaw/internal/machine"
	"seesaw/internal/metrics"
	"seesaw/internal/sim"
)

// RunFunc executes one cell under a context. The context is how the
// pool's per-cell timeout and per-pool cancellation actually stop a
// cell: sim.RunContext polls it in the reference loop and unwinds, so a
// timed-out or abandoned cell releases its goroutine and simulation
// state instead of running to completion unobserved.
type RunFunc func(context.Context, sim.Config) (*sim.Report, error)

// ResultStore is the read-through persistence seam: a disk-backed,
// content-addressed store of finished reports (see internal/store). When
// attached with WithStore, the pool consults it before executing a cell
// and writes every freshly computed report back, so identical cells
// across processes, restarts, and users cost one execution ever.
type ResultStore interface {
	// Get returns the stored report for cfg, or false on any miss
	// (absent, corrupt, stale schema, or uncacheable config).
	Get(cfg sim.Config) (*sim.Report, bool)
	// Put persists a finished report for cfg. Implementations must be
	// safe for concurrent writers of the same key.
	Put(cfg sim.Config, r *sim.Report) error
}

// CellError is the typed failure of one cell: a panic somewhere under
// sim.Run, or a wall-clock timeout. Sweeps use it to degrade gracefully
// — the failing cell is reported with enough context to reproduce it
// (Describe carries workload, design, and seed) while the remaining
// cells complete. It is also the retry discriminator: only CellErrors
// are retried, since an ordinary error from the deterministic simulator
// would just reproduce.
type CellError struct {
	// Desc identifies the cell (Describe of its config).
	Desc string
	// Panic is the recovered panic value, nil for timeouts.
	Panic any
	// Stack is the goroutine stack captured at panic time.
	Stack string
	// Timeout is the exceeded budget, zero for panics.
	Timeout time.Duration
	// Attempts is how many executions were tried before giving up.
	Attempts int
}

// Error implements error.
func (e *CellError) Error() string {
	switch {
	case e.Panic != nil:
		return fmt.Sprintf("cell [%s] panicked after %d attempt(s): %v", e.Desc, e.Attempts, e.Panic)
	case e.Timeout > 0:
		return fmt.Sprintf("cell [%s] exceeded %v after %d attempt(s)", e.Desc, e.Timeout, e.Attempts)
	}
	return fmt.Sprintf("cell [%s] failed after %d attempt(s)", e.Desc, e.Attempts)
}

// Describe renders a one-line cell identity for failure reports: enough
// to re-run the exact cell from the command line. It shows the values
// the cell runs at, defaults applied, not the config's zero fields.
func Describe(cfg sim.Config) string {
	d := cfg.WithDefaults()
	return fmt.Sprintf("workload=%s design=%v l1=%dKB/%dw freq=%.2fGHz seed=%d refs=%d",
		d.Workload.Name, d.CacheKind, d.L1Size>>10, d.L1Ways,
		d.FreqGHz, d.Seed, d.Refs)
}

// Task is the handle to one asynchronously running cell. Awaiting tasks
// in submission order yields a deterministic reduction regardless of how
// workers interleave the executions.
type Task[T any] struct {
	done chan struct{}
	val  T
	err  error
}

// Wait blocks until the cell finishes and returns its result.
func (t *Task[T]) Wait() (T, error) {
	<-t.done
	return t.val, t.err
}

// Future is the handle to a submitted simulation cell.
type Future = Task[*sim.Report]

// Stats counts the pool's scheduling outcomes.
type Stats struct {
	// Submitted is the number of cells handed to Submit.
	Submitted uint64
	// Runs is the number of cells actually executed.
	Runs uint64
	// CacheHits is the number of submissions answered by a previously
	// submitted identical cell.
	CacheHits uint64
	// Retries is the number of re-executions after a CellError.
	Retries uint64
	// Failures is the number of cells that exhausted their attempts.
	Failures uint64
	// StoreHits is the number of cells answered by the attached
	// ResultStore without executing.
	StoreHits uint64
	// StorePuts is the number of freshly computed reports persisted to
	// the attached ResultStore.
	StorePuts uint64
	// RungResumes is the number of warmups the attached snapshot ladder
	// resumed from a stored rung (zero without WithLadderStats) — the
	// third evaluation source next to StoreHits and CacheHits.
	RungResumes uint64
	// RungRefsSkipped is the total warmup references those resumes
	// avoided re-simulating.
	RungRefsSkipped uint64
	// GroupPasses is the number of measured-phase passes run to the end
	// for a front-end group, at most one per group of two or more cells.
	GroupPasses uint64
	// GroupAnswered is the number of cells that took a report a group's
	// pass built instead of measuring, the cell that ran it excluded.
	GroupAnswered uint64
}

// Sources summarizes where the pool's answers came from, for one-line
// logs: the DeterministicSources counts plus how many group passes ran
// and how many cells they answered. Which cells share a pass depends on
// worker timing (a group starts once a worker takes it, whether or not
// its siblings are queued yet), so those two counts can differ between
// runs of the same cells.
func (s Stats) Sources() string {
	return fmt.Sprintf("%s; group passes %d, answered %d cells",
		s.DeterministicSources(), s.GroupPasses, s.GroupAnswered)
}

// DeterministicSources is the part of Sources that the cells alone
// determine: cells served by the disk store, by the in-memory duplicate
// cache, and by fresh execution, plus how many of the fresh warmups
// were shortened by ladder rungs. The evolutionary search logs one of
// these per generation, so dedup effectiveness is visible and the log
// stays byte-identical for a seed.
func (s Stats) DeterministicSources() string {
	return fmt.Sprintf("store %d, cached %d, fresh %d (rung resumes %d, %d warmup refs skipped)",
		s.StoreHits, s.CacheHits, s.Runs, s.RungResumes, s.RungRefsSkipped)
}

// Pool schedules independent cells onto at most Workers concurrent
// executions. The zero Pool is not usable; construct with New. A pool
// with one worker executes cells inline at submission time, restoring
// the exact serial execution order of the pre-pool harness. A larger
// pool queues cells by front-end group (see the package doc), and a
// worker takes a whole group off the queue, so a later cell with the
// same key starts a new group.
type Pool struct {
	workers int
	run     RunFunc
	timeout time.Duration
	retries int
	ctx     context.Context
	store   ResultStore
	ladder  *LadderStats

	mu    sync.Mutex
	cells map[string]*Future
	stats Stats
	// order records every distinct scheduled execution (cache hits are
	// excluded) in submission order, so MergedSeries reduces each cell's
	// metrics exactly once, deterministically.
	order []*Future
	// queue holds the groups with queued cells, oldest first; open
	// indexes its front-end groups by key. busy counts the worker slots
	// in use: goroutines draining the queue, each of which exits when
	// the queue empties, and slots lent to a group's pass (lend).
	queue []*group
	open  map[machine.GroupKey]*group
	busy  int
	// progress, when set, gets a live one-line status update as cells
	// complete; completed counts them.
	progress  io.Writer
	completed uint64
}

// group is one front-end group of queued jobs. A group without a key
// holds one trace, metrics or checker cell, or one Go task, and shares
// nothing.
type group struct {
	key   machine.GroupKey
	keyed bool
	jobs  []job
}

// job is one queued execution: a simulation cell, its future and its
// config, or a Go task, which computes and publishes its own result.
type job struct {
	f    *Future
	cfg  sim.Config
	task func()
}

// New returns a pool with the given worker count; workers <= 0 selects
// runtime.GOMAXPROCS(0). Its cells run through LadderRun(nil, 0): each
// distinct warmup signature is warmed once and every matching cell forks
// its measured phase from that master, which lives as long as the pool.
func New(workers int) *Pool {
	run, _ := LadderRun(nil, 0)
	return NewWithRunContext(workers, run)
}

// NewWithRunContext is New with the cell-execution function injected —
// the seam harness tests and the service layer use to stand in
// panicking, hanging, flaky, or counting cells for the simulator.
func NewWithRunContext(workers int, run RunFunc) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Pool{
		workers: workers,
		run:     run,
		ctx:     context.Background(),
		cells:   make(map[string]*Future),
		open:    make(map[machine.GroupKey]*group),
	}
}

// WithContext attaches a cancellation scope to every cell: when ctx is
// canceled, queued cells fail immediately with ctx's error and running
// cells unwind at sim.RunContext's next poll point. This is how the
// service layer cancels one job's whole fan-out without touching other
// jobs. Configure before the first Submit.
func (p *Pool) WithContext(ctx context.Context) *Pool {
	p.ctx = ctx
	return p
}

// WithStore attaches a read-through result store: a cell found in the
// store is returned without executing (Stats.StoreHits), and every
// freshly computed report is written back (Stats.StorePuts). Store
// lookups happen on the worker as it takes the cell's group, off the
// Submit path, so submission stays non-blocking and a stored cell never
// joins its group's pass. Configure before the first Submit.
func (p *Pool) WithStore(st ResultStore) *Pool {
	p.store = st
	return p
}

// WithLadderStats folds a snapshot ladder's counters into this pool's
// Stats snapshots: Stats().RungResumes / RungRefsSkipped report the
// ladder attached to the pool's RunFunc (see LadderRun, which returns
// the *LadderStats to pass here). Without it those fields stay zero.
// Configure before the first Submit.
func (p *Pool) WithLadderStats(ls *LadderStats) *Pool {
	p.ladder = ls
	return p
}

// WithTimeout bounds each cell execution attempt to d of wall-clock
// time per cell it runs; zero (the default) means unbounded. A group's
// pass does the work of every cell after it in the group, so an attempt
// of the i-th of a front-end group's n fresh cells that starts before
// any cell has claimed the pass gets (n-i)·d: the first runs the pass,
// and the cells it answers return at once. Every other attempt gets d,
// since it measures only its own cell. Configure before the first
// Submit.
func (p *Pool) WithTimeout(d time.Duration) *Pool {
	p.timeout = d
	return p
}

// WithRetries re-executes a cell up to n extra times after a CellError
// (panic or timeout), immediately. Ordinary simulation errors are never
// retried: the simulator is deterministic, so they would only
// reproduce. Configure before the first Submit.
func (p *Pool) WithRetries(n int) *Pool {
	if n < 0 {
		n = 0
	}
	p.retries = n
	return p
}

// WithProgress enables a live progress line on w (in-place, \r-updated):
// one update per completed cell execution. Call FinishProgress once the
// final future has been awaited to terminate the line. Configure before
// the first Submit.
func (p *Pool) WithProgress(w io.Writer) *Pool {
	p.progress = w
	return p
}

// noteDone updates the live progress line after one cell execution.
func (p *Pool) noteDone() {
	if p.progress == nil {
		return
	}
	p.mu.Lock()
	p.completed++
	done, st := p.completed, p.stats
	p.mu.Unlock()
	fmt.Fprintf(p.progress, "\rcells %d/%d done (cache hits %d, retries %d, failures %d) ",
		done, st.Submitted-st.CacheHits, st.CacheHits, st.Retries, st.Failures)
}

// FinishProgress terminates the progress line; a no-op when progress
// reporting is off.
func (p *Pool) FinishProgress() {
	if p.progress != nil {
		fmt.Fprintln(p.progress)
	}
}

// Workers returns the pool's concurrency bound.
func (p *Pool) Workers() int { return p.workers }

// Stats returns a snapshot of the scheduling counters, folding in the
// attached ladder's resume counters when WithLadderStats was used.
func (p *Pool) Stats() Stats {
	p.mu.Lock()
	st := p.stats
	p.mu.Unlock()
	if p.ladder != nil {
		c := p.ladder.Counters()
		st.RungResumes = c.RungHits
		st.RungRefsSkipped = c.ResumedRefs
	}
	return st
}

// Submit schedules one simulation and returns its future immediately.
// Identical configs share a single execution and report; identity is
// sim.Config.CanonicalKey, the same key the disk store addresses by, so
// the two caches never disagree about which cells are "the same". A
// config carrying a replay trace is never cached (the trace slice is not
// part of the key).
func (p *Pool) Submit(cfg sim.Config) *Future {
	key, cacheable := cfg.CanonicalKey()
	p.mu.Lock()
	p.stats.Submitted++
	if cacheable {
		if f, ok := p.cells[key]; ok {
			p.stats.CacheHits++
			p.mu.Unlock()
			return f
		}
	}
	f := &Future{done: make(chan struct{})}
	if cacheable {
		p.cells[key] = f
	}
	p.order = append(p.order, f)
	p.mu.Unlock()
	gk, keyed := cfg.GroupKey()
	enqueue(p, gk, keyed, job{f: f, cfg: cfg})
	return f
}

// fromStore answers j from the attached store, if it holds the cell and
// the pool is live, so the cell never joins its group's pass.
func (p *Pool) fromStore(j job) bool {
	if p.store == nil || p.ctx.Err() != nil {
		return false
	}
	rep, ok := p.store.Get(j.cfg)
	if !ok {
		return false
	}
	p.mu.Lock()
	p.stats.StoreHits++
	p.mu.Unlock()
	j.f.val = rep
	p.noteDone()
	close(j.f.done)
	return true
}

// guarded runs one cell under ctx (the pool's context, carrying the
// cell's group if it has one) with the pool's recovery, timeout, retry
// and cancellation policy, each attempt bounded by the budget the budget
// function returns as it starts, converting panics and overruns into a
// typed CellError on the future instead of killing the process.
func (p *Pool) guarded(ctx context.Context, cfg sim.Config, budget func() time.Duration) (*sim.Report, error) {
	if err := p.ctx.Err(); err != nil {
		return nil, err
	}
	var last error
	for attempt := 1; attempt <= p.retries+1; attempt++ {
		if err := p.ctx.Err(); err != nil {
			// The pool was canceled between attempts: surface the
			// cancellation, not a retriable CellError.
			return nil, err
		}
		p.mu.Lock()
		p.stats.Runs++
		p.mu.Unlock()
		rep, err := p.runOnce(ctx, cfg, budget())
		if err == nil {
			if p.store != nil {
				if perr := p.store.Put(cfg, rep); perr == nil {
					p.mu.Lock()
					p.stats.StorePuts++
					p.mu.Unlock()
				}
			}
			return rep, nil
		}
		var ce *CellError
		if !errors.As(err, &ce) {
			// A plain simulation error is deterministic; surface it
			// without burning retries.
			return nil, err
		}
		ce.Attempts = attempt
		last = err
		if attempt <= p.retries {
			p.mu.Lock()
			p.stats.Retries++
			p.mu.Unlock()
		}
	}
	p.mu.Lock()
	p.stats.Failures++
	p.mu.Unlock()
	return nil, last
}

// runOnce executes a single attempt under ctx, applying the wall-clock
// budget (zero for none). The budget is enforced by context: the attempt
// goroutine runs the cell under a deadline that sim.RunContext polls, so
// an overrunning cell unwinds and frees its goroutine and simulation
// state shortly after the timeout fires instead of leaking until
// process exit (the pre-context behaviour, pinned by
// TestTimeoutDoesNotLeak).
func (p *Pool) runOnce(ctx context.Context, cfg sim.Config, budget time.Duration) (*sim.Report, error) {
	if budget <= 0 {
		return p.runRecover(ctx, cfg)
	}
	ctx, cancel := context.WithTimeout(ctx, budget)
	type outcome struct {
		rep *sim.Report
		err error
	}
	ch := make(chan outcome, 1)
	go func() {
		r, e := p.runRecover(ctx, cfg)
		ch <- outcome{r, e}
	}()
	select {
	case o := <-ch:
		cancel()
		if errors.Is(o.err, context.DeadlineExceeded) {
			// The cell noticed its own deadline before we did.
			return nil, &CellError{Desc: Describe(cfg), Timeout: budget}
		}
		return o.rep, o.err
	case <-ctx.Done():
		// Cancel eagerly (not deferred) so the attempt goroutine's next
		// context poll unwinds it even though its result is dropped.
		cancel()
		if err := p.ctx.Err(); err != nil {
			return nil, err // pool canceled, not a per-cell timeout
		}
		return nil, &CellError{Desc: Describe(cfg), Timeout: budget}
	}
}

// runRecover executes the cell function, converting a panic anywhere
// beneath it into a CellError carrying the stack.
func (p *Pool) runRecover(ctx context.Context, cfg sim.Config) (rep *sim.Report, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &CellError{Desc: Describe(cfg), Panic: r, Stack: string(debug.Stack())}
		}
	}()
	return p.run(ctx, cfg)
}

// Go schedules an arbitrary cell (a cache-only replay, a coverage
// computation) on the same workers as the simulation cells. Tasks share
// the pool's concurrency bound but not its result cache, and each
// queues as a group of its own.
func Go[T any](p *Pool, fn func() (T, error)) *Task[T] {
	t := &Task[T]{done: make(chan struct{})}
	enqueue(p, machine.GroupKey{}, false, job{task: func() {
		t.val, t.err = fn()
		close(t.done)
	}})
	return t
}

// enqueue queues j in the front-end group of key when keyed. With one
// worker it runs inline, so submission order is execution order and no
// pass is shared.
func enqueue(p *Pool, key machine.GroupKey, keyed bool, j job) {
	if p.workers == 1 {
		p.runGroup([]job{j})
		return
	}
	p.mu.Lock()
	g := p.open[key]
	if !keyed || g == nil {
		g = &group{key: key, keyed: keyed}
		if keyed {
			p.open[key] = g
		}
		p.queue = append(p.queue, g)
	}
	g.jobs = append(g.jobs, j)
	start := p.busy < p.workers
	if start {
		p.busy++
	}
	p.mu.Unlock()
	if start {
		go p.work()
	}
}

// work drains the queue a whole group at a time, oldest first, and gives
// up its slot when the queue is empty.
func (p *Pool) work() {
	p.mu.Lock()
	for len(p.queue) > 0 {
		g := p.queue[0]
		p.queue[0] = nil
		p.queue = p.queue[1:]
		if g.keyed {
			delete(p.open, g.key)
		}
		p.mu.Unlock()
		p.runGroup(g.jobs)
		p.mu.Lock()
	}
	p.busy--
	p.mu.Unlock()
}

// lend runs fn on an idle worker slot, if the pool has one (busy <
// workers), and reports whether it did: a group's pass hands back ends
// to replay to idle slots this way. The slot counts against the worker
// bound until fn returns; then, if cells were queued meanwhile, it goes
// on as a worker.
func (p *Pool) lend(fn func()) bool {
	p.mu.Lock()
	idle := p.busy < p.workers
	if idle {
		p.busy++
	}
	p.mu.Unlock()
	if idle {
		go func() {
			fn()
			p.work()
		}()
	}
	return idle
}

// runGroup runs one front-end group's jobs back to back: store hits
// first, then the rest, which share one machine.Group when there are two
// or more. An attempt of job i of the n that run gets n-i cell budgets
// while the group's pass is unclaimed, and one after (see WithTimeout).
// The group's sharing counts fold into Stats before its last future
// resolves, so a caller that has awaited every future reads final Stats.
func (p *Pool) runGroup(jobs []job) {
	cells := jobs[:0]
	for _, j := range jobs {
		switch {
		case j.task != nil:
			j.task()
		case !p.fromStore(j):
			cells = append(cells, j)
		}
	}
	ctx := p.ctx
	var grp *machine.Group
	if len(cells) > 1 {
		cfgs := make([]sim.Config, len(cells))
		for i, j := range cells {
			cfgs[i] = j.cfg
		}
		grp = machine.NewGroup(p.lend, cfgs...)
		ctx = machine.WithGroup(ctx, grp)
	}
	for i, j := range cells {
		budget := func() time.Duration {
			if grp != nil && !grp.Claimed() {
				return p.timeout * time.Duration(len(cells)-i)
			}
			return p.timeout
		}
		j.f.val, j.f.err = p.guarded(ctx, j.cfg, budget)
		p.noteDone()
		if grp != nil && i == len(cells)-1 {
			passes, answered := grp.Counts()
			p.mu.Lock()
			p.stats.GroupPasses += uint64(passes)
			p.stats.GroupAnswered += uint64(answered)
			p.mu.Unlock()
		}
		close(j.f.done)
	}
}

// MergedSeries awaits every distinct executed cell in submission order
// and merges their metrics into one counters-only Series (per-epoch and
// per-core structure is per-run; see metrics.Series.Merge). Cells that
// failed, or ran without metrics enabled, contribute nothing; nil is
// returned when no cell recorded metrics. The submit-order reduction
// makes the totals independent of worker interleaving.
func (p *Pool) MergedSeries() *metrics.Series {
	p.mu.Lock()
	order := append([]*Future(nil), p.order...)
	p.mu.Unlock()
	var merged *metrics.Series
	for _, f := range order {
		rep, err := f.Wait()
		if err != nil || rep == nil || rep.Metrics == nil {
			continue
		}
		if merged == nil {
			merged = &metrics.Series{}
		}
		merged.Merge(rep.Metrics)
	}
	return merged
}
