// Package cluster shards the simulation service across worker processes:
// a coordinator fronts N seesaw-served workers behind the same /v1/jobs
// API one daemon serves, engineered so that any worker can crash, hang,
// or be restarted mid-cell and the sweep still finishes with
// byte-identical merged tables.
//
// The moving parts:
//
//   - Leases. Every dispatched cell is covered by an expiring lease.
//     The worker streams heartbeat events while the cell runs (POST
//     /v1/cells/run); each heartbeat renews the lease. A crashed worker
//     resets the stream, a wedged worker stops heartbeating — either
//     way the lease's deadline passes, the dispatch is canceled, and
//     the cell is requeued exactly once per lease, capped by a per-cell
//     attempt budget with jittered exponential backoff.
//   - Health. Workers are registered (statically or via POST
//     /v1/cluster/workers, which seesaw-served -register drives) and
//     probed on a cadence; a consecutive-failure threshold evicts a
//     worker — its in-flight leases requeue, its queued work is
//     untouched — and a later successful probe readmits it. A worker
//     whose report schema differs from the coordinator's is refused:
//     mixed-version clusters cannot merge byte-identical tables.
//   - Routing. Warmup-signature affinity picks the worker for each
//     dispatch: cells sharing a machine.WarmupSignature go to the worker
//     already holding that warm master (the analogue of prefix-affinity
//     KV-cache routing in inference clusters), and cells without one, or
//     whose owner died, spill to the least-loaded worker.
//   - Admission. Job submissions pass a token bucket and a bound on
//     pending cells; past either the API answers 429 with a Retry-After
//     hint through the daemon's own /v1/jobs surface
//     (service.MountJobs), exactly like its bounded queue.
//   - The store. The content-addressed result store is the shared
//     read-through cache: the coordinator answers previously computed
//     cells without dispatching, duplicate cells piggyback on the one
//     in-flight lease, and a coordinator restarted mid-sweep resumes
//     from whatever the workers already persisted.
package cluster

import (
	"context"
	"errors"
	"fmt"
	"log"
	"math/rand"
	"sync"
	"time"

	"seesaw/internal/service"
	"seesaw/internal/store"
)

// Config sizes and wires one Coordinator.
type Config struct {
	// Store is the shared content-addressed result store (strongly
	// recommended: it is what makes re-dispatched and duplicate cells
	// free, and what lets a restarted coordinator resume a sweep).
	Store *store.Store
	// Workers are statically registered worker addresses (host:port);
	// more may register themselves at runtime.
	Workers []string
	// LeaseTTL is how long a dispatched cell may go without a heartbeat
	// before its lease expires and the cell requeues (default 10s).
	LeaseTTL time.Duration
	// MaxAttempts is the per-cell dispatch budget: a cell whose lease
	// fails this many times is reported failed (default 5).
	MaxAttempts int
	// BackoffBase/BackoffMax shape the jittered exponential delay before
	// a requeued cell redispatches (defaults 250ms / 8s); Seed seeds the
	// jitter stream.
	BackoffBase time.Duration
	BackoffMax  time.Duration
	Seed        int64
	// ProbeEvery and ProbeTimeout shape health checks (defaults 2s/1s);
	// EvictAfter is the consecutive-failure eviction threshold
	// (default 3).
	ProbeEvery   time.Duration
	ProbeTimeout time.Duration
	EvictAfter   int
	// RatePerSec admits this many job submissions per second through a
	// token bucket of capacity Burst (0 = unlimited).
	RatePerSec float64
	Burst      int
	// MaxCellsPerJob bounds one submission (default 4096) and
	// MaxQueuedCells the coordinator-wide pending queue (default 65536,
	// the backpressure bound behind 429).
	MaxCellsPerJob int
	MaxQueuedCells int
	// Logger receives dispatch, eviction, and lease-expiry lines.
	Logger *log.Logger
}

func (c Config) withDefaults() Config {
	if c.LeaseTTL <= 0 {
		c.LeaseTTL = 10 * time.Second
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 5
	}
	if c.BackoffBase <= 0 {
		c.BackoffBase = 250 * time.Millisecond
	}
	if c.BackoffMax <= 0 {
		c.BackoffMax = 8 * time.Second
	}
	if c.ProbeEvery <= 0 {
		c.ProbeEvery = 2 * time.Second
	}
	if c.ProbeTimeout <= 0 {
		c.ProbeTimeout = time.Second
	}
	if c.EvictAfter <= 0 {
		c.EvictAfter = 3
	}
	if c.Burst <= 0 {
		c.Burst = 4
	}
	if c.MaxCellsPerJob <= 0 {
		c.MaxCellsPerJob = 4096
	}
	if c.MaxQueuedCells <= 0 {
		c.MaxQueuedCells = 65536
	}
	if c.Logger == nil {
		c.Logger = log.Default()
	}
	return c
}

// Counters are the coordinator's lifetime scheduling outcomes; every
// requeue, eviction, and store hit is accounted here, which is what the
// chaos test audits against the per-job results.
type Counters struct {
	JobsAccepted    uint64 `json:"jobs_accepted"`
	JobsRateLimited uint64 `json:"jobs_rate_limited"`
	JobsQueueFull   uint64 `json:"jobs_queue_full"`

	CellsTotal    uint64 `json:"cells_total"`
	CellsDone     uint64 `json:"cells_done"`
	CellsFailed   uint64 `json:"cells_failed"`
	CellsCanceled uint64 `json:"cells_canceled"`

	StoreHits  uint64 `json:"store_hits"`
	DupHits    uint64 `json:"dup_hits"`
	RemoteRuns uint64 `json:"remote_runs"`

	LeasesGranted   uint64 `json:"leases_granted"`
	LeasesRenewed   uint64 `json:"leases_renewed"`
	LeasesExpired   uint64 `json:"leases_expired"`
	LeasesEvicted   uint64 `json:"leases_evicted"`
	DispatchErrors  uint64 `json:"dispatch_errors"`
	Requeues        uint64 `json:"requeues"`
	BudgetExhausted uint64 `json:"budget_exhausted"`

	WorkersRegistered uint64 `json:"workers_registered"`
	WorkersEvicted    uint64 `json:"workers_evicted"`
	WorkersReadmitted uint64 `json:"workers_readmitted"`

	AffinityHits       uint64 `json:"affinity_hits"`
	AffinityReassigned uint64 `json:"affinity_reassigned"`
}

// Coordinator is the cluster front end: the job registry, pending-cell
// queue, lease table, worker registry, and the scheduling loop over
// them. Construct with New, serve Handler, stop with Drain or Close.
type Coordinator struct {
	cfg    Config
	route  *affinity
	bucket *tokenBucket

	rootCtx    context.Context
	rootCancel context.CancelFunc
	bg         sync.WaitGroup
	wake       chan struct{}

	mu       sync.Mutex
	workers  map[string]*worker
	order    []string // worker registration order, for deterministic routing scans
	jobs     map[string]*cjob
	jobOrder []*cjob
	seq      int
	queue    []*unit
	leases   map[string]*lease
	leaseSeq int
	// dupWait holds, per canonical cell key with an in-flight lease, the
	// identical queued units waiting to share its result.
	dupWait  map[string][]*unit
	rng      *rand.Rand
	counters Counters
	draining bool
}

// New builds the coordinator, registers cfg.Workers, and starts the
// scheduler and health-monitor loops.
func New(cfg Config) *Coordinator {
	cfg = cfg.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	c := &Coordinator{
		cfg:        cfg,
		rootCtx:    ctx,
		rootCancel: cancel,
		wake:       make(chan struct{}, 1),
		workers:    make(map[string]*worker),
		jobs:       make(map[string]*cjob),
		leases:     make(map[string]*lease),
		dupWait:    make(map[string][]*unit),
		rng:        rand.New(rand.NewSource(cfg.Seed)),
		route:      newAffinity(),
	}
	if cfg.RatePerSec > 0 {
		c.bucket = newTokenBucket(cfg.RatePerSec, float64(cfg.Burst))
	}
	for _, addr := range cfg.Workers {
		c.Register(addr)
	}
	c.bg.Add(2)
	go c.schedulerLoop()
	go c.healthLoop()
	return c
}

// wakeUp nudges the scheduler without blocking.
func (c *Coordinator) wakeUp() {
	select {
	case c.wake <- struct{}{}:
	default:
	}
}

// Counters snapshots the lifetime scheduling counters.
func (c *Coordinator) Counters() Counters {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.counters
}

// Submit validates and enqueues one job, returning its id. Past the
// token bucket's rate or the MaxQueuedCells bound it returns a
// *service.BusyError (429 + Retry-After), and ErrDraining once Drain
// has begun.
func (c *Coordinator) Submit(req service.JobRequest) (string, error) {
	cfgs, err := req.Configs(c.cfg.MaxCellsPerJob)
	if err != nil {
		return "", err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.draining {
		return "", service.ErrDraining
	}
	if c.bucket != nil {
		if ok, retry := c.bucket.take(); !ok {
			c.counters.JobsRateLimited++
			return "", &service.BusyError{Reason: "cluster: job admission rate exceeded", RetryAfter: retry}
		}
	}
	if len(c.queue)+len(cfgs) > c.cfg.MaxQueuedCells {
		c.counters.JobsQueueFull++
		return "", &service.BusyError{Reason: "cluster: pending-cell queue full", RetryAfter: time.Second}
	}
	c.seq++
	j := &cjob{units: make([]*unit, len(cfgs))}
	j.Job = service.NewJob(c.rootCtx, fmt.Sprintf("c%06d", c.seq), req.Label, cfgs, j.poolStats)
	for i, cfg := range cfgs {
		u := &unit{job: j, index: i, spec: req.Cells[i], cfg: cfg}
		u.key, _ = cfg.CanonicalKey()
		if cfg.WarmupRefs > 0 && cfg.Trace == nil {
			u.sig, u.hasSig = cfg.WarmupSignature(), true
		}
		j.units[i] = u
		c.queue = append(c.queue, u)
	}
	c.jobs[j.ID] = j
	c.jobOrder = append(c.jobOrder, j)
	c.counters.JobsAccepted++
	c.counters.CellsTotal += uint64(len(cfgs))
	j.Start()
	c.wakeUp()
	return j.ID, nil
}

// Job returns one job, or service.ErrNotFound.
func (c *Coordinator) Job(id string) (*service.Job, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	j, ok := c.jobs[id]
	if !ok {
		return nil, service.ErrNotFound
	}
	return j.Job, nil
}

// List returns every job in submission order.
func (c *Coordinator) List() []*service.Job {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]*service.Job, len(c.jobOrder))
	for i, j := range c.jobOrder {
		out[i] = j.Job
	}
	return out
}

// Cancel cancels a job: queued cells complete as canceled at the next
// scheduler pass, leased cells have their dispatch canceled.
func (c *Coordinator) Cancel(id string) (*service.Job, error) {
	j, err := c.Job(id)
	if err != nil {
		return nil, err
	}
	j.Cancel()
	c.wakeUp()
	return j, nil
}

// Register adds (or refreshes) a worker by address. A new worker is
// probed before it is routed to; a known worker re-registering is
// scheduled for an immediate probe, which is how a restarted worker
// readmits quickly. A worker whose report schema version disagrees with
// the coordinator's is registered but held unhealthy.
func (c *Coordinator) Register(addr string) error {
	if addr == "" {
		return errors.New("empty worker address")
	}
	c.mu.Lock()
	w, known := c.workers[addr]
	if !known {
		w = newWorker(addr, c.cfg.ProbeTimeout)
		c.workers[addr] = w
		c.order = append(c.order, addr)
		c.counters.WorkersRegistered++
	}
	c.mu.Unlock()
	// Probe outside the lock; apply the result like the health loop does.
	h, err := w.client.probe(c.rootCtx)
	c.applyProbe(w, h, err)
	c.wakeUp()
	if !known {
		c.cfg.Logger.Printf("cluster: registered worker %s (healthy=%v)", addr, err == nil)
	}
	return nil
}

// Drain stops intake (submissions get 503) and waits until every job has
// reached a terminal state, or ctx expires — in which case remaining
// jobs are canceled.
func (c *Coordinator) Drain(ctx context.Context) error {
	c.mu.Lock()
	c.draining = true
	c.mu.Unlock()
	tick := time.NewTicker(10 * time.Millisecond)
	defer tick.Stop()
	for {
		c.mu.Lock()
		idle := true
		for _, j := range c.jobs {
			if !service.Terminal(j.State()) {
				idle = false
				break
			}
		}
		c.mu.Unlock()
		if idle {
			return nil
		}
		select {
		case <-ctx.Done():
			c.rootCancel()
			return fmt.Errorf("cluster: drain deadline: %w", ctx.Err())
		case <-tick.C:
		}
	}
}

// Close cancels every lease and job and stops the background loops.
func (c *Coordinator) Close() {
	c.rootCancel()
	c.bg.Wait()
}

// backoffDelay computes the jittered exponential requeue delay before
// dispatch attempt n+1, given n completed attempts. Callers hold mu.
func (c *Coordinator) backoffDelay(attempts int) time.Duration {
	d := c.cfg.BackoffBase
	for i := 1; i < attempts && d < c.cfg.BackoffMax; i++ {
		d *= 2
	}
	if d > c.cfg.BackoffMax {
		d = c.cfg.BackoffMax
	}
	return d/2 + time.Duration(c.rng.Int63n(int64(d)))
}
