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
// and fault injector), those with equal machine.StreamKey, form a
// stream group. A pool of two or more workers drains its queue group by
// group, oldest first, and passes each group of two or more cells one
// machine.Stream on the context it hands its RunFunc: the first member
// to reach its measured phase records its front end once, every member
// replays the recording into its own back end, and the pool drops it
// when the group drains (Stats.StreamsRecorded, Stats.StreamReplays). A
// one-worker pool runs each cell inline and live, as sim.Run does.
//
// Cells whose configs differ only in timing-only fields (the clock, the
// PIPT serial TLB latency and the scheduler's speculation policy, see
// machine.TimingKey) run the same functional simulation. When a worker
// takes a cell, it also takes the cell's queued timing siblings and runs
// them back to back under one machine.TimingGroup on their context: the
// first to reach its measured phase simulates it once for all of them
// and hands each later sibling its finished report
// (Stats.TimingPasses, Stats.TimingAnswered).
//
// The pool also carries a keyed result cache: two submissions of an
// identical cell share one execution. The evaluation re-runs the same
// baseline-VIPT cell once per figure that compares against it; with one
// pool shared across figures (as cmd/seesaw-figures does) each distinct
// cell runs exactly once. Cached reports are shared between callers and
// must be treated as immutable.
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
	// StreamsRecorded is the number of front ends recorded to the end
	// of their measured phase, at most one per stream group of two or
	// more cells.
	StreamsRecorded uint64
	// StreamReplays is the number of cells whose back end replayed a
	// recorded front end instead of running its own, the recording cell
	// included.
	StreamReplays uint64
	// TimingPasses is the number of measured phases run for a timing
	// group, at most one per group of two or more cells.
	TimingPasses uint64
	// TimingAnswered is the number of cells whose report a timing
	// sibling's pass assembled, so they measured nothing themselves.
	TimingAnswered uint64
}

// Sources summarizes where the pool's answers came from, for one-line
// logs: the DeterministicSources counts plus how many measured-phase
// streams were recorded and how many fresh cells replayed one, and how
// many timing-group passes ran and how many cells they answered. Which
// cells share a stream or a pass depends on worker timing, so those
// four counts can differ between runs of the same cells.
func (s Stats) Sources() string {
	return fmt.Sprintf("%s; streams recorded %d, replayed by %d cells; timing passes %d, answered %d cells",
		s.DeterministicSources(), s.StreamsRecorded, s.StreamReplays, s.TimingPasses, s.TimingAnswered)
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
// pool queues cells by stream group (see the package doc). A worker
// takes a cell together with its queued timing siblings. A group gets a
// stream only if another cell is still queued when a worker takes its
// first, and it leaves the queue with its last queued cell, so only
// about Workers streams are live; a later cell with the same key starts
// a new group.
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
	// indexes its stream groups by key. busy counts the worker
	// goroutines draining the queue; each exits when the queue empties.
	queue []*group
	open  map[machine.StreamKey]*group
	busy  int
	// progress, when set, gets a live one-line status update as cells
	// complete; completed counts them.
	progress  io.Writer
	completed uint64
}

// group is one stream group of queued cells. A group without a key
// holds one trace cell or Go task and never shares a stream.
type group struct {
	key   machine.StreamKey
	keyed bool
	jobs  []job
	// stream is set when the group's first cell starts with another
	// queued behind it; running counts members still executing.
	stream  *machine.Stream
	running int
}

// job is one queued execution: run computes the result, reading the
// group's stream and its timing group (nil for none), and done
// publishes it. The pool settles its counters between the two, so a
// caller that has awaited every future reads final Stats. tkey is a
// simulation cell's machine.TimingKey and cfg its config; tkey is empty
// for trace cells and Go tasks, which share no pass.
type job struct {
	run  func(*machine.Stream, *machine.TimingGroup)
	done func()
	tkey string
	cfg  sim.Config
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
		open:    make(map[machine.StreamKey]*group),
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
// lookups happen on the worker, off the Submit path, so submission stays
// non-blocking. Configure before the first Submit.
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
// time; zero (the default) means unbounded. Configure before the first
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
	sk, keyed := cfg.StreamKey()
	j := newJob(f, func(s *machine.Stream, tg *machine.TimingGroup) (*sim.Report, error) {
		rep, err := p.guarded(cfg, s, tg)
		p.noteDone()
		return rep, err
	})
	if tk, ok := cfg.TimingKey(); ok {
		j.tkey, j.cfg = tk, cfg
	}
	enqueue(p, sk, keyed, j)
	return f
}

// guarded runs one cell under the pool's store read-through, recovery,
// timeout, retry, and cancellation policy, converting panics and
// overruns into a typed CellError on the future instead of killing the
// process. The cell's stream and timing group, when it has them, ride
// on the context its RunFunc gets.
func (p *Pool) guarded(cfg sim.Config, s *machine.Stream, tg *machine.TimingGroup) (*sim.Report, error) {
	if err := p.ctx.Err(); err != nil {
		return nil, err
	}
	ctx := p.ctx
	if s != nil {
		ctx = machine.WithStream(ctx, s)
	}
	if tg != nil {
		ctx = machine.WithTimingGroup(ctx, tg)
	}
	if p.store != nil {
		if rep, ok := p.store.Get(cfg); ok {
			p.mu.Lock()
			p.stats.StoreHits++
			p.mu.Unlock()
			return rep, nil
		}
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
		rep, err := p.runOnce(ctx, cfg)
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

// runOnce executes a single attempt under ctx (the pool's context,
// carrying the cell's stream and timing group if it has them), applying
// the wall-clock budget. The budget is enforced by context: the attempt
// goroutine runs the cell under a deadline that sim.RunContext polls, so
// an overrunning cell unwinds and frees its goroutine and simulation
// state shortly after the timeout fires instead of leaking until
// process exit (the pre-context behaviour, pinned by
// TestTimeoutDoesNotLeak).
func (p *Pool) runOnce(ctx context.Context, cfg sim.Config) (*sim.Report, error) {
	if p.timeout <= 0 {
		return p.runRecover(ctx, cfg)
	}
	ctx, cancel := context.WithTimeout(ctx, p.timeout)
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
			return nil, &CellError{Desc: Describe(cfg), Timeout: p.timeout}
		}
		return o.rep, o.err
	case <-ctx.Done():
		// Cancel eagerly (not deferred) so the attempt goroutine's next
		// context poll unwinds it even though its result is dropped.
		cancel()
		if err := p.ctx.Err(); err != nil {
			return nil, err // pool canceled, not a per-cell timeout
		}
		return nil, &CellError{Desc: Describe(cfg), Timeout: p.timeout}
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

// Pair submits the baseline-VIPT and SEESAW variants of one config —
// the comparison shape every figure uses. Baseline futures dedupe across
// every figure that compares against the same baseline cell.
func (p *Pool) Pair(cfg sim.Config) (base, see *Future) {
	b := cfg
	b.CacheKind = sim.KindBaseline
	s := cfg
	s.CacheKind = sim.KindSeesaw
	return p.Submit(b), p.Submit(s)
}

// Go schedules an arbitrary cell (a cache-only replay, a coverage
// computation) on the same workers as the simulation cells. Tasks share
// the pool's concurrency bound but not its result cache, and each
// queues as a group of its own.
func Go[T any](p *Pool, fn func() (T, error)) *Task[T] {
	t := &Task[T]{done: make(chan struct{})}
	enqueue(p, machine.StreamKey{}, false, newJob(t, func(*machine.Stream, *machine.TimingGroup) (T, error) { return fn() }))
	return t
}

// newJob returns the job that completes t with fn's result.
func newJob[T any](t *Task[T], fn func(*machine.Stream, *machine.TimingGroup) (T, error)) job {
	return job{
		run:  func(s *machine.Stream, tg *machine.TimingGroup) { t.val, t.err = fn(s, tg) },
		done: func() { close(t.done) },
	}
}

// enqueue queues j in the stream group of key when keyed. With one
// worker it runs inline, so submission order is execution order and no
// stream or pass is shared.
func enqueue(p *Pool, key machine.StreamKey, keyed bool, j job) {
	if p.workers == 1 {
		j.run(nil, nil)
		j.done()
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

// work drains the queue, oldest group first, and exits when it is
// empty. It takes the oldest group's first cell together with that
// cell's queued timing siblings (group.take) and runs them back to back,
// under one timing group when there are two or more, whose counts fold
// into Stats after the last of them. The stream group gets its stream
// if a cell is still queued behind them; it leaves the queue with its
// last queued cell, and its stream's counts fold into Stats when its
// last member finishes.
func (p *Pool) work() {
	p.mu.Lock()
	defer p.mu.Unlock()
	for len(p.queue) > 0 {
		g := p.queue[0]
		batch := g.take()
		if g.keyed && g.stream == nil && len(g.jobs) > 0 {
			g.stream = machine.NewStream()
		}
		if len(g.jobs) == 0 {
			p.queue[0] = nil
			p.queue = p.queue[1:]
			if g.keyed {
				delete(p.open, g.key)
			}
		}
		g.running += len(batch)
		s := g.stream
		var tg *machine.TimingGroup
		if len(batch) > 1 {
			cfgs := make([]sim.Config, len(batch))
			for i, j := range batch {
				cfgs[i] = j.cfg
			}
			tg = machine.NewTimingGroup(cfgs...)
		}
		for i, j := range batch {
			p.mu.Unlock()
			j.run(s, tg)
			p.mu.Lock()
			if tg != nil && i == len(batch)-1 {
				passes, answered := tg.Counts()
				p.stats.TimingPasses += uint64(passes)
				p.stats.TimingAnswered += uint64(answered)
			}
			if g.running--; g.running == 0 && len(g.jobs) == 0 && s != nil {
				recorded, replays := s.Counts()
				if recorded {
					p.stats.StreamsRecorded++
				}
				p.stats.StreamReplays += uint64(replays)
			}
			j.done()
		}
	}
	p.busy--
}

// take removes the group's first queued cell and, for a simulation
// cell, every queued cell with its timing key, in queue order.
func (g *group) take() []job {
	first := g.jobs[0]
	batch := []job{first}
	rest := g.jobs[:0]
	for _, j := range g.jobs[1:] {
		if first.tkey != "" && j.tkey == first.tkey {
			batch = append(batch, j)
		} else {
			rest = append(rest, j)
		}
	}
	clear(g.jobs[len(rest):])
	g.jobs = rest
	return batch
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
