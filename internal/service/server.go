package service

import (
	"context"
	"fmt"
	"log"
	"net/http"
	"runtime"
	"sync"
	"time"

	"seesaw/internal/metrics"
	"seesaw/internal/runner"
	"seesaw/internal/sim"
	"seesaw/internal/store"
)

// Config sizes and wires one Server.
type Config struct {
	// QueueDepth bounds the job queue; a submission past it gets a
	// *BusyError, served as 429 + Retry-After (default 16).
	QueueDepth int
	// Workers is the per-job cell concurrency (0 = GOMAXPROCS).
	Workers int
	// JobConcurrency is how many jobs execute at once (default 1: jobs
	// are themselves parallel fan-outs, so one at a time keeps cell
	// latency predictable; raise it for many small jobs).
	JobConcurrency int
	// MaxCellsPerJob bounds one submission's batch (default 256).
	MaxCellsPerJob int
	// Store, when non-nil, is the shared content-addressed result store
	// every job's pool reads through — the cross-job, cross-restart
	// dedup layer. It also turns on the snapshot ladder: warmups resume
	// from the deepest rung persisted in the store and persist new rungs
	// as they climb, so the daemon warms from disk across restarts.
	Store *store.Store
	// SnapRungEvery, when positive, persists an intermediate snapshot
	// rung every N warmup references while climbing (0 = only the
	// warmup-boundary rung). Meaningful only with Store set.
	SnapRungEvery int
	// CellTimeout and Retries harden each job's pool (see runner).
	CellTimeout time.Duration
	Retries     int
	// Run is the cell-execution seam (default sim.RunContext); tests
	// inject counting or failing cells.
	Run runner.RunFunc
	// Logger receives request-level and job-level lines (default
	// log.Default).
	Logger *log.Logger
}

// Server is the simulation-as-a-service daemon core: a bounded job
// queue, a dispatcher pool, the job registry, and the HTTP API over
// them. Construct with New, serve Handler, stop with Drain or Close.
type Server struct {
	cfg   Config
	queue chan *Job

	rootCtx    context.Context
	rootCancel context.CancelFunc
	dispatch   sync.WaitGroup

	// cellRun executes one POST /v1/cells/run cell; it wraps the
	// configured run function with the server-wide cell concurrency
	// bound and, when no run function was injected, shares warmed
	// masters across requests — via the store's snapshot ladder when a
	// store is attached (runner.LadderRun), in memory otherwise
	// (runner.LadderRun(nil, 0)).
	cellRun runner.RunFunc
	cellSem chan struct{}
	// innerRun is the shared run function under cellRun's semaphore —
	// ladder- or shared-warmup-wrapped unless a test injected its own.
	// Job pools run on it too, so local jobs climb the same ladder.
	innerRun runner.RunFunc
	// ladderStats accumulates the snapshot ladder's counters when the
	// ladder is active; surfaced in /healthz.
	ladderStats *runner.LadderStats

	mu       sync.Mutex
	jobs     map[string]*Job
	order    []*Job // submission order for listings
	seq      int
	draining bool
	running  int
	queued   int
	// cellsRunning counts in-flight POST /v1/cells/run executions, which
	// the drain path must wait out like any queued job.
	cellsRunning int
	cellTotals   PoolStats
	// merged accumulates every finished job's counters-only metrics for
	// /metrics, alongside lifetime pool totals.
	merged     metrics.Series
	poolTotals PoolStats
	jobsDone   uint64
	jobsFailed uint64
	jobsCancel uint64
}

// New builds the server and starts its dispatchers.
func New(cfg Config) *Server {
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 16
	}
	if cfg.JobConcurrency <= 0 {
		cfg.JobConcurrency = 1
	}
	if cfg.MaxCellsPerJob <= 0 {
		cfg.MaxCellsPerJob = 256
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	injected := cfg.Run != nil
	if cfg.Run == nil {
		cfg.Run = sim.RunContext
	}
	if cfg.Logger == nil {
		cfg.Logger = log.Default()
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:        cfg,
		queue:      make(chan *Job, cfg.QueueDepth),
		rootCtx:    ctx,
		rootCancel: cancel,
		jobs:       make(map[string]*Job),
		cellSem:    make(chan struct{}, cfg.Workers),
	}
	// Cells run through one shared-warmup closure (unless a test
	// injected its own run function), so a cell finds the warmed master
	// an earlier job or request with its warmup signature left behind.
	inner := cfg.Run
	if !injected {
		if cfg.Store != nil {
			inner, s.ladderStats = runner.LadderRun(cfg.Store, cfg.SnapRungEvery)
		} else {
			inner, _ = runner.LadderRun(nil, 0)
		}
	}
	s.innerRun = inner
	s.cellRun = func(ctx context.Context, c sim.Config) (*sim.Report, error) {
		select {
		case s.cellSem <- struct{}{}:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		defer func() { <-s.cellSem }()
		return inner(ctx, c)
	}
	for i := 0; i < cfg.JobConcurrency; i++ {
		s.dispatch.Add(1)
		go s.dispatcher()
	}
	return s
}

// dispatcher executes queued jobs until the server shuts down. A job
// canceled while queued has already ended (see Cancel) and is skipped.
func (s *Server) dispatcher() {
	defer s.dispatch.Done()
	for {
		select {
		case <-s.rootCtx.Done():
			return
		case j := <-s.queue:
			s.mu.Lock()
			claimed := j.State() == StateQueued
			if claimed {
				s.queued--
				s.running++
				j.setState(StateRunning)
			}
			s.mu.Unlock()
			if claimed {
				s.runJob(j)
			}
		}
	}
}

// runJob executes one job's cells on a fresh pool (its own cancellation
// scope) over the shared store, awaiting futures in submission order so
// results and progress events are deterministic, then ends the job.
func (s *Server) runJob(j *Job) {
	pool := runner.NewWithRunContext(s.cfg.Workers, s.innerRun).
		WithContext(j.ctx).
		WithTimeout(s.cfg.CellTimeout).
		WithRetries(s.cfg.Retries)
	if s.cfg.Store != nil {
		pool.WithStore(s.cfg.Store)
	}
	j.pool.Store(pool)
	futs := make([]*runner.Future, len(j.cfgs))
	for i, cfg := range j.cfgs {
		futs[i] = pool.Submit(cfg)
	}
	for i, fut := range futs {
		rep, err := fut.Wait()
		j.completeCell(i, rep, err)
	}
	s.mu.Lock()
	final := s.endLocked(j)
	s.mu.Unlock()
	st := j.poolStats()
	s.cfg.Logger.Printf("service: job %s %s (cells=%d runs=%d store_hits=%d cache_hits=%d failures=%d group_passes=%d group_answered=%d)",
		j.ID, final, len(j.cfgs), st.Runs, st.StoreHits, st.CacheHits, st.Failures,
		st.GroupPasses, st.GroupAnswered)
}

// endLocked is the one place a job ends, once every cell has settled.
// It folds the job's pool counters into the server totals, counts its
// outcome and takes it off the queued or running gauge, and only then
// publishes the terminal state, so a client that has seen "done" finds
// the job in /metrics and /healthz. Callers hold s.mu.
func (s *Server) endLocked(j *Job) string {
	if p := j.pool.Load(); p != nil {
		s.merged.Merge(p.MergedSeries())
		s.poolTotals.add(wireStats(p))
	}
	if j.State() == StateQueued {
		s.queued--
	} else {
		s.running--
	}
	final := j.outcome()
	switch final {
	case StateDone:
		s.jobsDone++
	case StateFailed:
		s.jobsFailed++
	case StateCanceled:
		s.jobsCancel++
	}
	j.setState(final)
	j.cancel() // release the job's context
	return final
}

// Submit validates and enqueues a job, returning its id. It never
// blocks: a full queue returns a *BusyError (the HTTP layer's 429) and
// a draining server ErrDraining (503).
func (s *Server) Submit(req JobRequest) (string, error) {
	cfgs, err := req.Configs(s.cfg.MaxCellsPerJob)
	if err != nil {
		return "", err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return "", ErrDraining
	}
	s.seq++
	j := newJob(s.rootCtx, fmt.Sprintf("j%06d", s.seq), req.Label, cfgs)
	select {
	case s.queue <- j:
		s.jobs[j.ID] = j
		s.order = append(s.order, j)
		s.queued++
		return j.ID, nil
	default:
		s.seq--    // the id was never issued
		j.cancel() // release the unqueued job's context
		// Explicit backpressure: the queue is bounded by design. The
		// hint scales with how much work is ahead of the caller.
		backlog := s.queued + s.running
		return "", &BusyError{Reason: "service: job queue full", RetryAfter: time.Duration(1+backlog/2) * time.Second}
	}
}

// Workers returns the per-job cell concurrency with the default
// resolved: the number /healthz reports as workers.
func (s *Server) Workers() int { return s.cfg.Workers }

// Job returns one job, or ErrNotFound.
func (s *Server) Job(id string) (*Job, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return nil, ErrNotFound
	}
	return j, nil
}

// List returns every job in submission order.
func (s *Server) List() []*Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]*Job(nil), s.order...)
}

// Cancel cancels a job's context. A running job's cells unwind at the
// simulator's next poll point, and the job ends canceled once they have
// settled; until then it still reads running. A queued job ends at
// once: its cells settle with the context error before "done" is
// published, and the dispatcher that pops it later skips it (until
// then it keeps its slot in the bounded queue).
func (s *Server) Cancel(id string) (*Job, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return nil, ErrNotFound
	}
	j.cancel()
	if j.State() == StateQueued {
		for i := range j.cfgs {
			j.completeCell(i, nil, j.ctx.Err())
		}
		s.endLocked(j)
	}
	return j, nil
}

// Drain stops intake (submissions get 503) and waits until every queued
// and running job has finished, or ctx expires — in which case remaining
// jobs are canceled and the error reported. Close afterwards.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	tick := time.NewTicker(10 * time.Millisecond)
	defer tick.Stop()
	for {
		s.mu.Lock()
		idle := s.queued == 0 && s.running == 0 && s.cellsRunning == 0
		s.mu.Unlock()
		if idle {
			return nil
		}
		select {
		case <-ctx.Done():
			s.rootCancel() // cancel every job context
			return fmt.Errorf("service: drain deadline: %w", ctx.Err())
		case <-tick.C:
		}
	}
}

// Close cancels everything and stops the dispatchers.
func (s *Server) Close() {
	s.rootCancel()
	s.dispatch.Wait()
}

// Handler returns the HTTP API listed in the package doc.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /v1/jobs/{id}/stream", s.handleStream)
	mux.HandleFunc("POST /v1/cells/run", s.handleCellRun)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return mux
}

// healthBody is the GET /healthz payload. Workers is the cell
// concurrency, CellsRunning the POST /v1/cells/run load, and
// SchemaVersion the report schema this binary writes, so a client can
// tell whether its reports would compare with the daemon's.
type healthBody struct {
	Status        string                 `json:"status"` // "ok" or "draining"
	Queued        int                    `json:"queued"`
	Running       int                    `json:"running"`
	QueueDepth    int                    `json:"queue_depth"`
	Jobs          int                    `json:"jobs"`
	Workers       int                    `json:"workers"`
	CellsRunning  int                    `json:"cells_running"`
	SchemaVersion int                    `json:"schema_version"`
	Store         *store.Stats           `json:"store,omitempty"`
	Ladder        *runner.LadderCounters `json:"ladder,omitempty"`
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	h := healthBody{
		Status: "ok", Queued: s.queued, Running: s.running,
		QueueDepth: s.cfg.QueueDepth, Jobs: len(s.jobs),
		Workers: s.cfg.Workers, CellsRunning: s.cellsRunning,
		SchemaVersion: sim.SchemaVersion,
	}
	if s.draining {
		h.Status = "draining"
	}
	s.mu.Unlock()
	if s.cfg.Store != nil {
		st := s.cfg.Store.Stats()
		h.Store = &st
	}
	if s.ladderStats != nil {
		lc := s.ladderStats.Counters()
		h.Ladder = &lc
	}
	writeJSON(w, http.StatusOK, h)
}

// handleMetrics exposes the lifetime merged simulation counters plus
// server and store gauges in Prometheus text format, reusing the same
// snapshot writer as seesaw-sweep -prom.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	series := s.merged // counters-only merge: value copy is safe
	extras := []metrics.PromMetric{
		{Name: "seesaw_service_jobs_queued", Help: "jobs waiting in the bounded queue", Value: float64(s.queued)},
		{Name: "seesaw_service_jobs_running", Help: "jobs currently executing", Value: float64(s.running)},
		{Name: "seesaw_service_jobs_done_total", Help: "jobs finished clean", Value: float64(s.jobsDone)},
		{Name: "seesaw_service_jobs_failed_total", Help: "jobs with at least one failed cell", Value: float64(s.jobsFailed)},
		{Name: "seesaw_service_jobs_canceled_total", Help: "jobs canceled", Value: float64(s.jobsCancel)},
		{Name: "seesaw_service_cells_submitted_total", Help: "cells submitted across all jobs", Value: float64(s.poolTotals.Submitted)},
		{Name: "seesaw_service_cells_executed_total", Help: "cells actually simulated", Value: float64(s.poolTotals.Runs)},
		{Name: "seesaw_service_cache_hits_total", Help: "cells answered by in-job duplicate caching", Value: float64(s.poolTotals.CacheHits)},
		{Name: "seesaw_service_store_hits_total", Help: "cells answered by the content-addressed store", Value: float64(s.poolTotals.StoreHits)},
		{Name: "seesaw_service_store_puts_total", Help: "reports persisted to the store", Value: float64(s.poolTotals.StorePuts)},
		{Name: "seesaw_service_cell_failures_total", Help: "cells that exhausted retries", Value: float64(s.poolTotals.Failures)},
		{Name: "seesaw_service_group_passes_total", Help: "measured-phase passes run for a front-end group", Value: float64(s.poolTotals.GroupPasses)},
		{Name: "seesaw_service_group_answered_total", Help: "cells answered by a group's pass", Value: float64(s.poolTotals.GroupAnswered)},
		{Name: "seesaw_service_remote_cells_running", Help: "POST /v1/cells/run cells executing now", Value: float64(s.cellsRunning)},
		{Name: "seesaw_service_remote_cells_total", Help: "POST /v1/cells/run cells executed", Value: float64(s.cellTotals.Runs)},
		{Name: "seesaw_service_remote_store_hits_total", Help: "POST /v1/cells/run cells answered by the store", Value: float64(s.cellTotals.StoreHits)},
	}
	s.mu.Unlock()
	if s.cfg.Store != nil {
		st := s.cfg.Store.Stats()
		extras = append(extras,
			metrics.PromMetric{Name: "seesaw_store_hits_total", Help: "store lookups answered from disk", Value: float64(st.Hits)},
			metrics.PromMetric{Name: "seesaw_store_misses_total", Help: "store lookups missed", Value: float64(st.Misses)},
			metrics.PromMetric{Name: "seesaw_store_corrupt_total", Help: "corrupt entries dropped", Value: float64(st.Corrupt)},
			metrics.PromMetric{Name: "seesaw_store_stale_total", Help: "stale-schema entries dropped", Value: float64(st.Stale)},
		)
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	series.WritePrometheus(w, extras...)
}
