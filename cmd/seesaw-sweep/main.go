// Command seesaw-sweep explores the L1 design space: it runs every
// combination of cache size, design (baseline VIPT / SEESAW with a range
// of partition counts / serial PIPT), and frequency over a workload set,
// and reports runtime and memory-hierarchy energy relative to the
// baseline VIPT of the same size — the tool a designer would use to pick
// the paper's "number of ways in each partition" (Section IV-B4).
//
// With -chaos it becomes a correctness harness instead: every cache
// design runs under every fault-injection schedule with the online
// invariant checker enabled, and violations are first-class results.
// Cells that panic or time out are reported and the sweep finishes with
// partial results and a non-zero exit, rather than dying.
//
// Examples:
//
//	seesaw-sweep -workloads redis,nutch -refs 50000
//	seesaw-sweep -sizes 64 -freqs 1.33,4.0 -csv
//	seesaw-sweep -parallel 8 -cell-timeout 5m -retries 1
//	seesaw-sweep -chaos -workloads redis,mcf -refs 6000 -fault-every 500
//	seesaw-sweep -faults mix -check -refs 20000
//	seesaw-sweep -cluster localhost:8080 -workloads redis,nutch
//
// With -warmup N every cell gets an OS-only warmup phase; cells that
// agree on their warmup signature fork one warmed machine instead of
// each re-simulating it, and with -store that machine climbs the
// store's snapshot ladder, so a rerun resumes each warmup from the
// deepest persisted rung. Tables are byte-identical to cold runs.
//
// With -cluster URL the cells run on the seesaw-served daemon at URL
// instead of in-process; the emitted table is byte-identical either way.
// Execution knobs that configure the local pool (-parallel,
// -cell-timeout, -retries, -store, -rung-every, -prom, -progress) belong
// to the daemon in that mode and are rejected.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"seesaw/internal/cliutil"
	"seesaw/internal/runner"
	"seesaw/internal/sim"
	"seesaw/internal/stats"
	"seesaw/internal/store"
	"seesaw/internal/workload"
)

// prof carries the -pprof/-cpuprofile/-memprofile state; every exit path
// stops it so profiles are flushed even on os.Exit.
var prof *cliutil.Profiling

type design struct {
	name       string
	kind       sim.CacheKind
	partitions int
	serialTLB  int
	smallTLB   bool
}

// sweepOptions carries everything sweepTable/chaosTable need, so tests
// can drive the sweeps without going through flag parsing.
type sweepOptions struct {
	profiles []workload.Profile
	sizesKB  []float64
	freqs    []float64
	refs     int
	seed     int64
	parallel int

	// warmup prepends an OS-only warmup phase of this many references to
	// every cell; cells that agree on their warmup signature fork from
	// one warmed machine instead of each re-simulating it.
	warmup int

	// metrics enables the observability layer in every cell (counters
	// only for sweeps — EventCap < 0); the pool's MergedSeries reduces
	// the per-cell counters for the -prom snapshot.
	metrics *sim.MetricsConfig
	// faults injects a schedule into every cell (nil = no injection);
	// chaosTable overrides the schedule name per row.
	faults *sim.FaultsConfig
	// check enables the online invariant checker in every cell.
	check bool
	// timeout and retries harden the pool: per-cell wall-clock budget
	// and re-execution attempts for panicking or timed-out cells.
	timeout time.Duration
	retries int
	// pool overrides the runner pool (tests inject failing cells).
	pool *runner.Pool
	// store is the content-addressed result store (-store DIR): completed
	// cells are persisted and reread on the next run, so an interrupted
	// sweep resumes instead of recomputing.
	store *store.Store
	// ladder and ladderStats are set with store: the cell function climbs
	// the store's snapshot ladder (resume warmup from the deepest
	// persisted rung, persist new rungs while climbing) instead of
	// warming every signature from zero.
	ladder      runner.RunFunc
	ladderStats *runner.LadderStats
	// clusterURL routes every cell to a seesaw-served daemon instead of
	// simulating locally; see cluster.go.
	clusterURL string
}

// newPool builds the hardened pool the sweep runs on: its warmed cells
// fork in-memory masters, or climb the store's ladder when one is open.
func (o sweepOptions) newPool() *runner.Pool {
	p := o.pool
	if p == nil {
		if o.ladder != nil {
			p = runner.NewWithRunContext(o.parallel, o.ladder).WithLadderStats(o.ladderStats)
		} else {
			p = runner.New(o.parallel)
		}
		p.WithTimeout(o.timeout).WithRetries(o.retries)
	}
	if o.store != nil {
		p.WithStore(o.store)
	}
	return p
}

// failure records one cell that did not produce a report.
type failure struct {
	cell string
	err  error
}

// sub pairs a submitted future with its cell identity for failure
// reporting.
type sub struct {
	fut  future
	desc string
}

// collector awaits futures in submission order, recording failures
// instead of aborting: the sweep degrades to partial results.
type collector struct {
	fails []failure
}

// wait returns the cell's report, or nil after recording its failure.
func (c *collector) wait(s sub) *sim.Report {
	r, err := s.fut.Wait()
	if err != nil {
		c.fails = append(c.fails, failure{cell: s.desc, err: err})
		return nil
	}
	return r
}

func main() {
	var (
		wls      = flag.String("workloads", "redis,nutch,olio,mcf", "comma-separated workloads")
		sizes    = flag.String("sizes", "32,64,128", "comma-separated L1 sizes in KB")
		freqs    = flag.String("freqs", "1.33", "comma-separated frequencies in GHz")
		refs     = flag.Int("refs", 50_000, "references per run")
		seed     = flag.Int64("seed", 42, "deterministic seed")
		csv      = flag.Bool("csv", false, "emit CSV")
		parallel = flag.Int("parallel", 0, "simulation cells to run concurrently (0 = GOMAXPROCS, 1 = serial)")

		warmup = flag.Int("warmup", 0,
			"OS-only warmup references prepended to every cell (0 = none); cells sharing a workload fork one warmed machine")
		rungEvery = flag.Int("rung-every", 0,
			"persist an intermediate snapshot rung every N warmup references while climbing the store's ladder (0 = only the warmup-boundary rung; requires -store)")

		chaos = flag.Bool("chaos", false,
			"chaos mode: every cache design under every fault schedule with the invariant checker on")
		faultsFlag = flag.String("faults", "",
			"inject a fault schedule into every cell: "+strings.Join(sim.FaultSchedules(), ", "))
		faultEvery = flag.Int("fault-every", 0, "references between injected faults (0 = schedule default)")
		faultSeed  = flag.Int64("fault-seed", 0, "fault injector seed (0 = derive per cell from -seed)")
		check      = flag.Bool("check", false, "run the online invariant checker in every cell")

		cellTimeout = flag.Duration("cell-timeout", 0, "wall-clock budget per cell, e.g. 5m (0 = unbounded); a cell that runs its group's pass gets one budget per cell it runs for")
		retries     = flag.Int("retries", 0, "re-execution attempts for panicking or timed-out cells")

		promOut  = flag.String("prom", "", "write a Prometheus text-format snapshot of the sweep's merged counters to `file` (- for stdout)")
		progress = flag.Bool("progress", false, "show a live per-cell progress line on stderr")
		storeDir = flag.String("store", "",
			"content-addressed result store `dir`: completed cells and warmup rungs are persisted and reused, so a killed sweep resumes where it stopped")
		clusterURL = flag.String("cluster", "",
			"run every cell on the seesaw-served daemon at `URL` instead of simulating locally")
	)
	prof = cliutil.RegisterProfiling(flag.CommandLine)
	flag.Parse()
	if err := prof.Start(); err != nil {
		fatal(err)
	}

	o := sweepOptions{
		refs: *refs, seed: *seed, parallel: *parallel, warmup: *warmup,
		check: *check, timeout: *cellTimeout, retries: *retries,
		clusterURL: *clusterURL,
	}
	if *rungEvery != 0 && *storeDir == "" {
		fatalUsage(fmt.Errorf("-rung-every needs -store"))
	}
	if *rungEvery < 0 {
		fatalUsage(fmt.Errorf("-rung-every must be positive"))
	}
	if *clusterURL != "" {
		// Local-pool knobs have no remote meaning: execution, the store
		// and its ladder live on the daemon (seesaw-served -workers,
		// -cell-timeout, -retries, -store, -rung-every). Reject rather
		// than silently ignore.
		for _, bad := range []struct {
			set  bool
			flag string
		}{
			{*promOut != "", "-prom"},
			{*progress, "-progress"},
			{*storeDir != "", "-store"},
			{*parallel != 0, "-parallel"},
			{*cellTimeout != 0, "-cell-timeout"},
			{*retries != 0, "-retries"},
		} {
			if bad.set {
				fatalUsage(fmt.Errorf("%s configures the local pool and cannot be combined with -cluster (set it on the seesaw-served daemon instead)", bad.flag))
			}
		}
	}
	if *promOut != "" {
		// Counters only: sweeps aggregate across cells, where per-run
		// event windows and epoch series have no meaningful merge.
		o.metrics = &sim.MetricsConfig{EventCap: -1}
	}
	if *storeDir != "" {
		st, err := store.Open(*storeDir)
		if err != nil {
			fatal(fmt.Errorf("-store: %w", err))
		}
		o.store = st
		// The store's snapshot ladder carries every warmup; its cell
		// function is created here and carried into every pool built
		// from o.
		o.ladder, o.ladderStats = runner.LadderRun(st, *rungEvery)
	}
	if *clusterURL == "" {
		// The sweep's closing lines (sharing summary, progress teardown,
		// store and ladder reports, -prom snapshot) read the pool after
		// the sweep, so build it up front.
		o.pool = o.newPool()
		if *progress {
			o.pool.WithProgress(os.Stderr)
		}
	}
	names, err := cliutil.SplitList(*wls)
	if err != nil {
		fatalUsage(fmt.Errorf("-workloads: %w", err))
	}
	for _, n := range names {
		p, err := workload.ByName(n)
		if err != nil {
			fatalUsage(err)
		}
		o.profiles = append(o.profiles, p)
	}
	if o.sizesKB, err = cliutil.ParseFloats(*sizes); err != nil {
		fatalUsage(fmt.Errorf("-sizes: %w", err))
	}
	if o.freqs, err = cliutil.ParseFloats(*freqs); err != nil {
		fatalUsage(fmt.Errorf("-freqs: %w", err))
	}
	if o.refs == 0 {
		o.refs = -1 // explicit -refs 0: run zero references, not the sim default
	}
	if *faultsFlag != "" {
		o.faults = &sim.FaultsConfig{Schedule: *faultsFlag, Every: *faultEvery, Seed: *faultSeed}
		if err := o.faults.Validate(); err != nil {
			fatalUsage(err)
		}
	} else if *chaos {
		// chaosTable fills the schedule per row; carry the knobs.
		o.faults = &sim.FaultsConfig{Every: *faultEvery, Seed: *faultSeed}
	} else if *faultEvery != 0 || *faultSeed != 0 {
		fatalUsage(fmt.Errorf("-fault-every/-fault-seed need -faults or -chaos"))
	}

	if *chaos {
		tb, fails, violations, err := chaosTable(o)
		if err != nil {
			fatal(err)
		}
		finishSweep(o, *promOut)
		writeTable(tb, *csv)
		reportFailures(fails)
		if violations > 0 {
			fmt.Fprintf(os.Stderr, "seesaw-sweep: %d invariant violation(s) — reproduce any cell with seesaw-sim -check -faults <schedule> -seed %d\n",
				violations, o.seed)
		}
		if violations > 0 || len(fails) > 0 {
			prof.Stop()
			os.Exit(1)
		}
		prof.Stop()
		return
	}

	tb, fails, err := sweepTable(o)
	if err != nil {
		fatal(err)
	}
	finishSweep(o, *promOut)
	writeTable(tb, *csv)
	reportFailures(fails)
	if len(fails) > 0 {
		prof.Stop()
		os.Exit(1)
	}
	if err := prof.Stop(); err != nil {
		fatal(err)
	}
}

// finishSweep terminates the live progress line, reports how much of the
// sweep the result store answered and where the pool's answers came
// from, and writes the -prom snapshot from the pool's merged per-cell
// counters.
func finishSweep(o sweepOptions, promOut string) {
	if o.pool == nil {
		return
	}
	o.pool.FinishProgress()
	st := o.pool.Stats()
	if o.store != nil {
		fmt.Fprintf(os.Stderr, "seesaw-sweep: store: %d cell(s) reused, %d computed and persisted\n",
			st.StoreHits, st.StorePuts)
	}
	if o.ladderStats != nil {
		c := o.ladderStats.Counters()
		fmt.Fprintf(os.Stderr, "seesaw-sweep: ladder: %d warmup(s), %d resumed from rungs, %d refs skipped, %d refs executed, %d rung(s) persisted, %d dropped\n",
			c.Warmups, c.RungHits, c.ResumedRefs, c.RunRefs, c.RungPuts, c.RungDrops)
	}
	fmt.Fprintf(os.Stderr, "seesaw-sweep: %d cells submitted to %d workers: %s\n",
		st.Submitted, o.pool.Workers(), st.Sources())
	if promOut == "" {
		return
	}
	if err := writeProm(o.pool, promOut); err != nil {
		fatal(fmt.Errorf("-prom: %w", err))
	}
}

// writeProm renders the sweep's merged counters in Prometheus text
// exposition format, with pool health (cells run, cache hits, retries,
// failures) appended as extra gauges.
func writeProm(pool *runner.Pool, path string) error {
	series := pool.MergedSeries()
	if series == nil {
		series = &sim.MetricsSeries{}
	}
	st := pool.Stats()
	extras := []sim.PromMetric{
		{Name: "seesaw_sweep_cells_submitted", Help: "cells submitted to the pool (including deduplicated resubmissions)", Value: float64(st.Submitted)},
		{Name: "seesaw_sweep_cells_executed", Help: "distinct cells actually simulated", Value: float64(st.Runs)},
		{Name: "seesaw_sweep_cache_hits", Help: "submissions satisfied by the duplicate-cell cache", Value: float64(st.CacheHits)},
		{Name: "seesaw_sweep_retries", Help: "cell re-executions after panics or timeouts", Value: float64(st.Retries)},
		{Name: "seesaw_sweep_failures", Help: "cells that exhausted retries without a report", Value: float64(st.Failures)},
	}
	if path == "-" {
		return series.WritePrometheus(os.Stdout, extras...)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	werr := series.WritePrometheus(f, extras...)
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	return werr
}

func writeTable(t *stats.Table, csv bool) {
	if csv {
		fmt.Print(t.CSV())
		return
	}
	t.WriteTo(os.Stdout)
}

// reportFailures summarizes failed cells on stderr with enough context
// (workload, design, seed) to re-run each one in isolation.
func reportFailures(fails []failure) {
	if len(fails) == 0 {
		return
	}
	fmt.Fprintf(os.Stderr, "seesaw-sweep: %d cell(s) failed; results above are partial:\n", len(fails))
	for _, f := range fails {
		fmt.Fprintf(os.Stderr, "  %s: %v\n", f.cell, f.err)
	}
}

// sweepTable runs the full sweep through a runner.Pool: every cell is
// submitted up front and results are reduced in submission order, so the
// table is byte-identical for any worker count. Failed cells are
// recorded and their rows marked, never fatal.
func sweepTable(o sweepOptions) (*stats.Table, []failure, error) {
	run := o.newSubmitter()
	// The design axis enumerates the registry in registration order. The
	// three seed designs keep their historical row shapes (SEESAW expands
	// into its partition variants, PIPT runs its reduced-TLB 4-way
	// point); any other registered design gets one row at its validator's
	// default geometry, so a new zoo member appears in the table for free.
	designsFor := func(ways int) []design {
		var ds []design
		for _, info := range sim.DesignInfos() {
			switch info.Name {
			case sim.KindBaseline:
				ds = append(ds, design{name: "VIPT (baseline)", kind: info.Name})
			case sim.KindSeesaw:
				for parts := 2; parts <= ways/2; parts *= 2 {
					ds = append(ds, design{
						name: fmt.Sprintf("SEESAW %dp x %dw", parts, ways/parts),
						kind: info.Name, partitions: parts,
					})
				}
			case sim.KindPIPT:
				ds = append(ds, design{name: "PIPT 4w (small TLB)", kind: info.Name, serialTLB: 2, smallTLB: true})
			default:
				ds = append(ds, design{name: info.Display, kind: info.Name})
			}
		}
		return ds
	}
	// Submit phase: cells[si][fi] holds the baseline references, then one
	// future per (design, workload). The pool dedupes the baseline design
	// against its reference runs.
	type cell struct {
		bases   []sub   // per workload
		designs [][]sub // [design][workload]
	}
	cells := make([][]cell, len(o.sizesKB))
	for si, szKB := range o.sizesKB {
		size := uint64(szKB) << 10
		ways := int(size / (16 << 10) * 4)
		designs := designsFor(ways)
		cells[si] = make([]cell, len(o.freqs))
		for fi, f := range o.freqs {
			c := cell{designs: make([][]sub, len(designs))}
			for _, p := range o.profiles {
				c.bases = append(c.bases, submit(run, o, p, sim.KindBaseline, size, ways, 0, f, 0, false))
			}
			for di, d := range designs {
				dw := ways
				if d.kind == sim.KindPIPT {
					dw = 4
				}
				for _, p := range o.profiles {
					c.designs[di] = append(c.designs[di],
						submit(run, o, p, d.kind, size, dw, d.partitions, f, d.serialTLB, d.smallTLB))
				}
			}
			cells[si][fi] = c
		}
	}
	// Reduce phase, in the exact order the serial tool emitted rows.
	t := stats.NewTable("L1 design-space sweep (improvements vs same-size baseline VIPT, avg across workloads)",
		"size", "freq", "design", "perf %", "energy %", "IPC")
	var col collector
	for si, szKB := range o.sizesKB {
		size := uint64(szKB) << 10
		ways := int(size / (16 << 10) * 4)
		designs := designsFor(ways)
		for fi, f := range o.freqs {
			c := cells[si][fi]
			bases := make([]*sim.Report, len(c.bases))
			for wi, s := range c.bases {
				bases[wi] = col.wait(s)
			}
			for di, d := range designs {
				var ps, es, ipc stats.Summary
				compared := 0
				for wi := range o.profiles {
					r := col.wait(c.designs[di][wi])
					if r == nil {
						continue
					}
					ipc.Add(r.IPC)
					if bases[wi] == nil {
						continue
					}
					ps.Add(stats.PctImprovement(float64(bases[wi].Cycles), float64(r.Cycles)))
					es.Add(stats.PctImprovement(bases[wi].EnergyTotalNJ, r.EnergyTotalNJ))
					compared++
				}
				perf, en := "failed", "failed"
				if compared > 0 {
					perf = fmt.Sprintf("%.2f", ps.Mean())
					en = fmt.Sprintf("%.2f", es.Mean())
				}
				ipcCell := "failed"
				if ipc.N() > 0 {
					ipcCell = fmt.Sprintf("%.3f", ipc.Mean())
				}
				t.AddRow(
					fmt.Sprintf("%.0fKB", szKB),
					fmt.Sprintf("%.2fGHz", f),
					d.name,
					perf, en, ipcCell,
				)
			}
		}
	}
	return t, col.fails, nil
}

// chaosTable is the -chaos sweep: every cache design under every fault
// schedule with the invariant checker forced on. Violations and failed
// cells are the results. Physical memory is pre-fragmented so promotion
// storms have base chunks to work on and compaction is exercised.
func chaosTable(o sweepOptions) (*stats.Table, []failure, uint64, error) {
	run := o.newSubmitter()
	// The design axis is the registry: every registered design runs under
	// every schedule, with the registry's chaos knob overrides (the
	// serial-PIPT point only means anything with its reduced TLB and 4
	// ways). A newly registered design joins the chaos matrix for free.
	designs := sim.DesignInfos()
	schedules := sim.FaultSchedules()
	every, fseed := 0, int64(0)
	if o.faults != nil {
		every, fseed = o.faults.Every, o.faults.Seed
	}
	// Submit phase: subs[si][di][wi].
	subs := make([][][]sub, len(schedules))
	for si, sched := range schedules {
		subs[si] = make([][]sub, len(designs))
		for di, d := range designs {
			for _, p := range o.profiles {
				cfg := sim.Config{
					Workload: p, Seed: o.seed, Refs: o.refs,
					CacheKind: d.Name, L1Size: 32 << 10,
					SerialTLBCycles: d.ChaosSerialTLB, SmallTLB: d.ChaosSmallTLB,
					L1Ways:  d.ChaosL1Ways,
					FreqGHz: 1.33, CPUKind: "ooo", MemBytes: 512 << 20,
					MemhogFraction:  0.4,
					WarmupRefs:      o.warmup,
					CheckInvariants: true,
					Metrics:         o.metrics,
					Faults:          &sim.FaultsConfig{Schedule: sched, Every: every, Seed: fseed},
				}
				subs[si][di] = append(subs[si][di], sub{run(cfg), runner.Describe(cfg) + " faults=" + sched})
			}
		}
	}
	// Reduce phase.
	t := stats.NewTable("Chaos sweep (fault schedules x designs, online invariant checking)",
		"schedule", "design", "cells", "faults", "checks", "violations", "failures")
	var col collector
	var totalViolations uint64
	for si, sched := range schedules {
		for di, d := range designs {
			var cellsOK, failed int
			var injected, checks, violations uint64
			for _, s := range subs[si][di] {
				r := col.wait(s)
				if r == nil {
					failed++
					continue
				}
				cellsOK++
				if r.Faults != nil {
					injected += r.Faults.Injected
				}
				if r.Check != nil {
					checks += r.Check.Checks
					violations += r.Check.Violations
				}
			}
			totalViolations += violations
			t.AddRow(sched, d.Display,
				fmt.Sprintf("%d", cellsOK),
				fmt.Sprintf("%d", injected),
				fmt.Sprintf("%d", checks),
				fmt.Sprintf("%d", violations),
				fmt.Sprintf("%d", failed),
			)
		}
	}
	return t, col.fails, totalViolations, nil
}

func submit(submit func(sim.Config) future, o sweepOptions, p workload.Profile, kind sim.CacheKind, size uint64, ways, parts int, freq float64, serialTLB int, smallTLB bool) sub {
	cfg := sim.Config{
		Workload: p, Seed: o.seed, Refs: o.refs,
		CacheKind: kind, L1Size: size, L1Ways: ways, Partitions: parts,
		SerialTLBCycles: serialTLB, SmallTLB: smallTLB,
		FreqGHz: freq, CPUKind: "ooo", MemBytes: 512 << 20,
		WarmupRefs:      o.warmup,
		CheckInvariants: o.check,
		Metrics:         o.metrics,
	}
	if o.faults != nil && o.faults.Schedule != "" {
		fc := *o.faults
		cfg.Faults = &fc
	}
	return sub{submit(cfg), runner.Describe(cfg)}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "seesaw-sweep:", err)
	prof.Stop()
	os.Exit(1)
}

// fatalUsage reports a configuration error: exit code 2, distinguishing
// "you asked for something impossible" from a failed run.
func fatalUsage(err error) {
	fmt.Fprintln(os.Stderr, "seesaw-sweep:", err)
	prof.Stop()
	os.Exit(2)
}
