// Package service turns the simulator into a long-lived job server: an
// HTTP JSON API fronting a bounded job queue with explicit backpressure,
// per-job cancellation, SSE progress streaming, Prometheus metrics, and
// graceful drain. Under it sits the content-addressed result store
// (internal/store), so identical cells across jobs, restarts, and users
// are answered from disk instead of recomputed — the batching/caching/
// backpressure shape of an inference-serving stack applied to
// design-space exploration.
//
// The API surface:
//
//	POST   /v1/jobs           submit a job (batch of cells); 202, 400 on
//	                          a bad job, 429 + Retry-After when the queue
//	                          is full, or 503 while draining
//	GET    /v1/jobs           list job summaries
//	GET    /v1/jobs/{id}      job status + (partial) results
//	GET    /v1/jobs/{id}/stream  SSE progress events (Last-Event-ID resume)
//	DELETE /v1/jobs/{id}      cancel the job's context
//	POST   /v1/cells/run      run one cell synchronously; 200 SSE with one
//	                          "result" event, 400 on a bad cell, or 503
//	                          while draining
//	GET    /healthz           liveness + queue/store snapshot
//	GET    /metrics           Prometheus text exposition
//
// Client and Batch are the Go side of /v1/jobs: seesaw-client,
// seesaw-sweep -cluster and seesaw-evolve -cluster run cells on a daemon
// through them.
package service

import (
	"fmt"
	"time"

	"seesaw/internal/faults"
	"seesaw/internal/metrics"
	"seesaw/internal/sim"
	"seesaw/internal/tft"
	"seesaw/internal/workload"
)

// CellSpec is the wire form of one simulation cell: a JSON-friendly
// view over sim.Config that names workloads and cache designs instead
// of embedding internal structs. Zero values select the simulator's
// defaults, exactly like the CLI flags they mirror.
type CellSpec struct {
	// Workload names a built-in profile (see workload.Names). Required.
	Workload string `json:"workload"`
	// Cache names a registered L1 design (see sim.DesignNames):
	// "seesaw" (default), "baseline", "pipt", "vespa", ...
	Cache string `json:"cache,omitempty"`
	// SizeKB is the L1 data-cache size in KB (default 32).
	SizeKB uint64 `json:"size_kb,omitempty"`
	// Ways overrides the default of 4 ways per 16KB.
	Ways int `json:"ways,omitempty"`
	// Partitions is the SEESAW partition count (0 = default).
	Partitions int `json:"partitions,omitempty"`
	// FreqGHz is the clock (default 1.33).
	FreqGHz float64 `json:"freq_ghz,omitempty"`
	// SerialTLBCycles (PIPT only) serializes the TLB lookup before the
	// cache access, adding this many cycles per access.
	SerialTLBCycles int `json:"serial_tlb_cycles,omitempty"`
	// SmallTLB replaces the TLB hierarchy with the reduced one a
	// serial-PIPT power budget affords.
	SmallTLB bool `json:"small_tlb,omitempty"`
	// CPU is "ooo" (default) or "inorder".
	CPU string `json:"cpu,omitempty"`
	// Refs is the number of references (0 = simulator default 200k).
	Refs int `json:"refs,omitempty"`
	// WarmupRefs prepends an OS-only warmup phase of this many references
	// before the measured phase (0 = none).
	WarmupRefs int `json:"warmup_refs,omitempty"`
	// Seed is the deterministic seed.
	Seed int64 `json:"seed,omitempty"`
	// Memhog fragments physical memory first, fraction in [0, 0.95].
	Memhog float64 `json:"memhog,omitempty"`
	// MemMB sizes simulated physical memory (0 = default).
	MemMB uint64 `json:"mem_mb,omitempty"`
	// WayPredict enables the MRU way predictor.
	WayPredict bool `json:"waypredict,omitempty"`
	// ICache models the L1 instruction caches and fetch stream.
	ICache bool `json:"icache,omitempty"`
	// Check runs the online invariant checker.
	Check bool `json:"check,omitempty"`
	// Faults names a fault-injection schedule (see faults.Schedules);
	// FaultEvery and FaultSeed tune it.
	Faults     string `json:"faults,omitempty"`
	FaultEvery int    `json:"fault_every,omitempty"`
	FaultSeed  int64  `json:"fault_seed,omitempty"`
	// EpochRefs enables the metrics layer with this epoch length; the
	// cell's report then carries the epoch time-series, and the job's
	// SSE progress events summarize it.
	EpochRefs int `json:"epoch_refs,omitempty"`

	// Design-space knobs the evolutionary search tunes (all 0/"" =
	// simulator default), so evolved genomes have a faithful wire form.
	// TFTEntries/TFTAssoc size the translation filter table.
	TFTEntries int `json:"tft_entries,omitempty"`
	TFTAssoc   int `json:"tft_assoc,omitempty"`
	// PromoteEvery / SplinterEvery / CtxSwitchEvery set the OS activity
	// cadences in references.
	PromoteEvery   int `json:"promote_every,omitempty"`
	SplinterEvery  int `json:"splinter_every,omitempty"`
	CtxSwitchEvery int `json:"ctx_switch_every,omitempty"`
	// SpecThreshold overrides the speculation counter heuristic's
	// trigger (0 = the paper's quarter-full rule).
	SpecThreshold int `json:"spec_threshold,omitempty"`
	// Sched pins the scheduler's speculation policy: "" (counter
	// heuristic), "always-fast", or "always-slow".
	Sched string `json:"sched,omitempty"`
}

// Config resolves the spec into a validated sim.Config. Errors name the
// offending field so a 400 response is actionable.
func (c CellSpec) Config() (sim.Config, error) {
	if c.Workload == "" {
		return sim.Config{}, fmt.Errorf("workload is required")
	}
	// Validate bounds MemBytes; a mem_mb too large to shift into bytes
	// would wrap around to an in-range value first.
	if c.MemMB<<20>>20 != c.MemMB {
		return sim.Config{}, fmt.Errorf("mem_mb %d overflows a byte count", c.MemMB)
	}
	p, err := workload.ByName(c.Workload)
	if err != nil {
		return sim.Config{}, err
	}
	// An empty Cache selects seesaw (the design under study), not the
	// simulator's zero-value default; every other spelling must resolve
	// against the design registry — unknown names are a typed 400, never
	// a silently-different design.
	kind := sim.KindSeesaw
	if c.Cache != "" {
		kind, err = sim.ParseCacheKind(c.Cache)
		if err != nil {
			return sim.Config{}, err
		}
	}
	cfg := sim.Config{
		Workload:           p,
		Seed:               c.Seed,
		Refs:               c.Refs,
		WarmupRefs:         c.WarmupRefs,
		CacheKind:          kind,
		L1Size:             c.SizeKB << 10,
		L1Ways:             c.Ways,
		Partitions:         c.Partitions,
		SerialTLBCycles:    c.SerialTLBCycles,
		SmallTLB:           c.SmallTLB,
		FreqGHz:            c.FreqGHz,
		CPUKind:            c.CPU,
		MemhogFraction:     c.Memhog,
		MemBytes:           c.MemMB << 20,
		WayPredict:         c.WayPredict,
		ICache:             c.ICache,
		CheckInvariants:    c.Check,
		TFT:                tft.Config{Entries: c.TFTEntries, Assoc: c.TFTAssoc},
		PromoteScanEvery:   c.PromoteEvery,
		SplinterEvery:      c.SplinterEvery,
		ContextSwitchEvery: c.CtxSwitchEvery,
		SpecFastThreshold:  c.SpecThreshold,
	}
	switch c.Sched {
	case "":
	case "always-fast":
		cfg.SchedulerAlwaysFast = true
	case "always-slow":
		cfg.SchedulerAlwaysSlow = true
	default:
		return sim.Config{}, fmt.Errorf("unknown sched policy %q (want always-fast or always-slow)", c.Sched)
	}
	if c.Faults != "" {
		cfg.Faults = &faults.Config{Schedule: c.Faults, Every: c.FaultEvery, Seed: c.FaultSeed}
	} else if c.FaultEvery != 0 || c.FaultSeed != 0 {
		return sim.Config{}, fmt.Errorf("fault_every/fault_seed need a faults schedule")
	}
	if c.EpochRefs > 0 {
		cfg.Metrics = &metrics.Config{EpochRefs: c.EpochRefs, EventCap: -1}
	}
	if err := cfg.Validate(); err != nil {
		return sim.Config{}, err
	}
	return cfg, nil
}

// SpecFromConfig maps a simulation cell onto the wire format, then
// proves the mapping exact: the spec is resolved back to a sim.Config
// and both must agree on CanonicalKey — the identity the daemon's
// duplicate suppression and the shared result store key on. A config
// the wire format cannot carry faithfully (trace replay, counters-only
// metrics, a co-runner) is an error here, never a silently-different
// simulation. seesaw-sweep and seesaw-evolve use it for -cluster
// dispatch.
func SpecFromConfig(cfg sim.Config) (CellSpec, error) {
	if cfg.Trace != nil {
		return CellSpec{}, fmt.Errorf("trace-replay cells cannot run on a remote daemon")
	}
	if cfg.Metrics != nil && cfg.Metrics.EpochRefs <= 0 {
		return CellSpec{}, fmt.Errorf("counters-only metrics have no wire form; use -prom with local sweeps")
	}
	cache := cfg.CacheKind.String()
	if _, err := sim.ParseCacheKind(cache); err != nil {
		return CellSpec{}, fmt.Errorf("cache kind %q has no wire name: %w", cache, err)
	}
	spec := CellSpec{
		Workload:        cfg.Workload.Name,
		Cache:           cache,
		SizeKB:          cfg.L1Size >> 10,
		Ways:            cfg.L1Ways,
		Partitions:      cfg.Partitions,
		FreqGHz:         cfg.FreqGHz,
		SerialTLBCycles: cfg.SerialTLBCycles,
		SmallTLB:        cfg.SmallTLB,
		CPU:             cfg.CPUKind,
		Refs:            cfg.Refs,
		WarmupRefs:      cfg.WarmupRefs,
		Seed:            cfg.Seed,
		Memhog:          cfg.MemhogFraction,
		MemMB:           cfg.MemBytes >> 20,
		WayPredict:      cfg.WayPredict,
		ICache:          cfg.ICache,
		Check:           cfg.CheckInvariants,
		TFTEntries:      cfg.TFT.Entries,
		TFTAssoc:        cfg.TFT.Assoc,
		PromoteEvery:    cfg.PromoteScanEvery,
		SplinterEvery:   cfg.SplinterEvery,
		CtxSwitchEvery:  cfg.ContextSwitchEvery,
		SpecThreshold:   cfg.SpecFastThreshold,
	}
	switch {
	case cfg.SchedulerAlwaysFast:
		spec.Sched = "always-fast"
	case cfg.SchedulerAlwaysSlow:
		spec.Sched = "always-slow"
	}
	if cfg.Faults != nil {
		spec.Faults = cfg.Faults.Schedule
		spec.FaultEvery = cfg.Faults.Every
		spec.FaultSeed = cfg.Faults.Seed
	}
	if cfg.Metrics != nil {
		spec.EpochRefs = cfg.Metrics.EpochRefs
	}
	back, err := spec.Config()
	if err != nil {
		return CellSpec{}, fmt.Errorf("cell has no wire form: %w", err)
	}
	wantKey, ok1 := cfg.CanonicalKey()
	gotKey, ok2 := back.CanonicalKey()
	if !ok1 || !ok2 || wantKey != gotKey {
		return CellSpec{}, fmt.Errorf("cell round-trips to a different simulation; run it locally")
	}
	return spec, nil
}

// JobRequest is the POST /v1/jobs body: a batch of cells executed as one
// job on the server's worker pool, deduplicated against every other
// job through the content-addressed store.
type JobRequest struct {
	// Label is an optional human tag echoed in statuses and listings.
	Label string `json:"label,omitempty"`
	// Cells is the batch; at least one, at most the server's
	// MaxCellsPerJob.
	Cells []CellSpec `json:"cells"`
}

// Configs validates the request against a per-job cell bound and
// resolves every cell. Its errors are the API's 400s.
func (r JobRequest) Configs(maxCells int) ([]sim.Config, error) {
	if len(r.Cells) == 0 {
		return nil, &badRequestError{"job has no cells"}
	}
	if len(r.Cells) > maxCells {
		return nil, &badRequestError{fmt.Sprintf("job has %d cells, limit %d", len(r.Cells), maxCells)}
	}
	cfgs := make([]sim.Config, len(r.Cells))
	for i, spec := range r.Cells {
		cfg, err := spec.Config()
		if err != nil {
			return nil, &badRequestError{fmt.Sprintf("cell %d: %v", i, err)}
		}
		cfgs[i] = cfg
	}
	return cfgs, nil
}

// CellResult is one cell's outcome inside a job status. While the job
// runs, completed cells appear here incrementally (partial results).
type CellResult struct {
	Index int `json:"index"`
	// Desc identifies the cell (workload, design, seed — runner.Describe).
	Desc string `json:"desc"`
	// Status is "pending", "done", or "failed".
	Status string `json:"status"`
	Error  string `json:"error,omitempty"`
	// Report is the full simulation report (null until done). Reports
	// loaded from the result store are byte-identical to freshly
	// computed ones (pinned by sim's round-trip golden test).
	Report *sim.Report `json:"report,omitempty"`
}

// PoolStats mirrors runner.Stats' per-job counters on the wire. The
// snapshot ladder is shared by every job on a daemon, so its counters
// are daemon lifetime totals and live on /healthz instead.
type PoolStats struct {
	Submitted uint64 `json:"submitted"`
	Runs      uint64 `json:"runs"`
	CacheHits uint64 `json:"cache_hits"`
	Retries   uint64 `json:"retries"`
	Failures  uint64 `json:"failures"`
	StoreHits uint64 `json:"store_hits"`
	StorePuts uint64 `json:"store_puts"`
	// GroupPasses counts front-end groups' passes and GroupAnswered the
	// cells that took a report a pass built (see runner.Stats).
	GroupPasses   uint64 `json:"group_passes"`
	GroupAnswered uint64 `json:"group_answered"`
}

// JobStatus is the GET /v1/jobs/{id} body.
type JobStatus struct {
	ID    string `json:"id"`
	Label string `json:"label,omitempty"`
	// State is "queued", "running", "done", "failed", or "canceled".
	State     string     `json:"state"`
	Cells     int        `json:"cells"`
	Completed int        `json:"completed"`
	Failed    int        `json:"failed"`
	Error     string     `json:"error,omitempty"`
	Created   time.Time  `json:"created"`
	Started   *time.Time `json:"started,omitempty"`
	Finished  *time.Time `json:"finished,omitempty"`
	// Pool reports the job's scheduling outcomes; StoreHits counts cells
	// served from the content-addressed store without executing.
	Pool    PoolStats    `json:"pool"`
	Results []CellResult `json:"results,omitempty"`
}

// Event is one SSE progress record on /v1/jobs/{id}/stream.
type Event struct {
	// Seq is the event's 1-based position in the job's history. It is
	// carried on the wire as the SSE "id:" line (not in the JSON data),
	// so a client that reconnects with Last-Event-ID: N resumes at event
	// N+1 instead of replaying or losing history.
	Seq int `json:"-"`
	// Type is "state" (job transition), "cell" (one cell finished), or
	// "done" (terminal; the job publishes nothing after it and the
	// stream ends).
	Type  string `json:"type"`
	State string `json:"state,omitempty"`
	// Cell-completion fields.
	Index int    `json:"index,omitempty"`
	Desc  string `json:"desc,omitempty"`
	OK    bool   `json:"ok,omitempty"`
	Error string `json:"error,omitempty"`
	// Progress counters, sourced from the cell report's metrics epoch
	// series when the cell enabled it (epoch_refs): references ticked,
	// epochs recorded, and the run's L1 hits/misses.
	Refs     uint64 `json:"refs,omitempty"`
	Epochs   int    `json:"epochs,omitempty"`
	L1Hits   uint64 `json:"l1_hits,omitempty"`
	L1Misses uint64 `json:"l1_misses,omitempty"`
	// Completed/Cells track overall job progress on every cell event.
	Completed int `json:"completed,omitempty"`
	Cells     int `json:"cells,omitempty"`
}
