package seesaw_test

// The benchmark harness: one benchmark per table and figure of the
// paper's evaluation, each invoking the same experiment generator the
// cmd/seesaw-figures tool uses (at benchmark-friendly scale), plus
// microbenchmarks of the hot simulator paths.
//
//	go test -bench=. -benchmem
//
// Benchmarks print their headline result via b.ReportMetric where one
// number summarizes the experiment (e.g. avg % improvement), so `go test
// -bench` output doubles as a quick-look reproduction of the paper.

import (
	"context"
	"strconv"
	"testing"

	"seesaw/internal/addr"
	"seesaw/internal/core"
	"seesaw/internal/experiments"
	"seesaw/internal/machine"
	"seesaw/internal/metrics"
	"seesaw/internal/runner"
	"seesaw/internal/sim"
	"seesaw/internal/stats"
	"seesaw/internal/tft"
	"seesaw/internal/workload"
)

// benchOpts keeps experiment benchmarks tractable: a representative
// workload subset and reduced reference counts.
func benchOpts() experiments.Options {
	return experiments.Options{
		Refs:      30_000,
		Seed:      42,
		Workloads: []string{"redis", "nutch", "olio", "mcf"},
	}
}

// runExperiment is the common body: regenerate the table b.N times.
func runExperiment(b *testing.B, id string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		tb, err := experiments.Run(id, benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		if len(tb.Rows) == 0 {
			b.Fatalf("%s produced no rows", id)
		}
	}
}

func BenchmarkFig02a_MPKIvsAssoc(b *testing.B)          { runExperiment(b, "fig2a") }
func BenchmarkFig02b_LatencyvsAssoc(b *testing.B)       { runExperiment(b, "fig2b") }
func BenchmarkFig02c_EnergyvsAssoc(b *testing.B)        { runExperiment(b, "fig2c") }
func BenchmarkFig03_SuperpageCoverage(b *testing.B)     { runExperiment(b, "fig3") }
func BenchmarkTable1_LookupAnatomy(b *testing.B)        { runExperiment(b, "table1") }
func BenchmarkTable2_SystemParams(b *testing.B)         { runExperiment(b, "table2") }
func BenchmarkTable3_CacheLatencies(b *testing.B)       { runExperiment(b, "table3") }
func BenchmarkFig07_RuntimeOoOPerWorkload(b *testing.B) { runExperiment(b, "fig7") }
func BenchmarkFig08_RuntimeOoOSweep(b *testing.B)       { runExperiment(b, "fig8") }
func BenchmarkFig09_RuntimeInOrderSweep(b *testing.B)   { runExperiment(b, "fig9") }
func BenchmarkFig10_EnergySweep(b *testing.B)           { runExperiment(b, "fig10") }
func BenchmarkFig11_EnergySplit(b *testing.B)           { runExperiment(b, "fig11") }
func BenchmarkFig12_Fragmentation(b *testing.B)         { runExperiment(b, "fig12") }
func BenchmarkFig13_TFTSizing(b *testing.B)             { runExperiment(b, "fig13") }
func BenchmarkFig14_PIPTAlternatives(b *testing.B)      { runExperiment(b, "fig14") }
func BenchmarkFig15_WayPrediction(b *testing.B)         { runExperiment(b, "fig15") }

func BenchmarkAblationInsertionPolicy(b *testing.B)  { runExperiment(b, "ablation-insertion") }
func BenchmarkAblationSchedulerPolicy(b *testing.B)  { runExperiment(b, "ablation-scheduler") }
func BenchmarkAblationTFTAssociativity(b *testing.B) { runExperiment(b, "ablation-tft-assoc") }
func BenchmarkAblationSnoopyCoherence(b *testing.B)  { runExperiment(b, "ablation-snoopy") }
func BenchmarkAblation1GSuperpages(b *testing.B)     { runExperiment(b, "ablation-1g") }
func BenchmarkExtICache(b *testing.B)                { runExperiment(b, "ext-icache") }
func BenchmarkAblationPartitionCount(b *testing.B)   { runExperiment(b, "ablation-partition") }
func BenchmarkAblationPrefetch(b *testing.B)         { runExperiment(b, "ablation-prefetch") }
func BenchmarkEnergyBreakdown(b *testing.B)          { runExperiment(b, "energy-breakdown") }
func BenchmarkAblationReplacement(b *testing.B)      { runExperiment(b, "ablation-replacement") }

// BenchmarkHeadline reports the paper's headline numbers as benchmark
// metrics: average % runtime improvement and % energy saving of SEESAW
// over baseline VIPT (64KB, 1.33GHz, OoO) across the bench workloads.
func BenchmarkHeadline(b *testing.B) {
	var perf, energy float64
	for i := 0; i < b.N; i++ {
		var ps, es stats.Summary
		for _, name := range benchOpts().Workloads {
			p, err := workload.ByName(name)
			if err != nil {
				b.Fatal(err)
			}
			cfg := sim.Config{
				Workload: p, Seed: 42, Refs: 30_000,
				CacheKind: sim.KindBaseline, L1Size: 64 << 10,
				FreqGHz: 1.33, CPUKind: "ooo", MemBytes: 512 << 20,
			}
			base, err := sim.Run(cfg)
			if err != nil {
				b.Fatal(err)
			}
			cfg.CacheKind = sim.KindSeesaw
			see, err := sim.Run(cfg)
			if err != nil {
				b.Fatal(err)
			}
			ps.Add(stats.PctImprovement(float64(base.Cycles), float64(see.Cycles)))
			es.Add(stats.PctImprovement(base.EnergyTotalNJ, see.EnergyTotalNJ))
		}
		perf, energy = ps.Mean(), es.Mean()
	}
	b.ReportMetric(perf, "%runtime-improvement")
	b.ReportMetric(energy, "%energy-saving")
}

// --- Runner scaling ------------------------------------------------------

// benchRunner regenerates fig7 with a fixed worker count; comparing the
// Serial and Parallel variants measures the pool's wall-clock win on
// multi-core machines (they coincide on a single-core host).
func benchRunner(b *testing.B, workers int) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		opts := benchOpts()
		opts.Parallel = workers
		tb, err := experiments.Run("fig7", opts)
		if err != nil {
			b.Fatal(err)
		}
		if len(tb.Rows) == 0 {
			b.Fatal("fig7 produced no rows")
		}
	}
}

func BenchmarkRunnerSerial(b *testing.B)   { benchRunner(b, 1) }
func BenchmarkRunnerParallel(b *testing.B) { benchRunner(b, 0) }

// BenchmarkRunnerSharedPoolDedup measures the cross-figure result cache:
// fig11 and energy-breakdown submit identical cells, so the second figure
// reduces straight from cache.
func BenchmarkRunnerSharedPoolDedup(b *testing.B) {
	for i := 0; i < b.N; i++ {
		opts := benchOpts()
		opts.Pool = runner.New(0)
		for _, id := range []string{"fig11", "energy-breakdown"} {
			if _, err := experiments.Run(id, opts); err != nil {
				b.Fatal(err)
			}
		}
		if st := opts.Pool.Stats(); st.CacheHits == 0 {
			b.Fatal("shared pool saw no cache hits")
		}
	}
}

// --- Microbenchmarks of the hot paths -----------------------------------

// seesawForBench builds a warmed SEESAW cache with a resident superpage
// line.
func seesawForBench(b *testing.B) (*core.Seesaw, addr.VAddr, addr.PAddr) {
	b.Helper()
	s, err := core.NewSeesaw(core.Config{
		SizeBytes: 32 << 10, Ways: 8, FreqGHz: 1.33, TFT: tft.DefaultConfig(),
	})
	if err != nil {
		b.Fatal(err)
	}
	va := addr.VAddr(0x4000_0000)
	pa := addr.Translate(va, 7, addr.Page2M)
	s.OnSuperpageTLBFill(va)
	s.Fill(pa, addr.Page2M, false, false)
	return s, va, pa
}

func BenchmarkSeesawFastPathAccess(b *testing.B) {
	s, va, pa := seesawForBench(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if r := s.Access(va, pa, addr.Page2M, false); !r.Hit {
			b.Fatal("unexpected miss")
		}
	}
}

func BenchmarkSeesawSlowPathAccess(b *testing.B) {
	s, _, _ := seesawForBench(b)
	vb := addr.VAddr(0x1234_5000)
	pb := addr.Translate(vb, 99, addr.Page4K)
	s.Fill(pb, addr.Page4K, false, false)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if r := s.Access(vb, pb, addr.Page4K, false); !r.Hit {
			b.Fatal("unexpected miss")
		}
	}
}

func BenchmarkSeesawCoherenceSnoop(b *testing.B) {
	s, _, pa := seesawForBench(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if r := s.Snoop(pa, core.SnoopPeek); !r.Hit {
			b.Fatal("unexpected snoop miss")
		}
	}
}

func BenchmarkBaselineAccess(b *testing.B) {
	v, err := core.NewBaselineVIPT(core.Config{SizeBytes: 32 << 10, Ways: 8, FreqGHz: 1.33})
	if err != nil {
		b.Fatal(err)
	}
	va := addr.VAddr(0x4000_0000)
	pa := addr.Translate(va, 7, addr.Page2M)
	v.Fill(pa, addr.Page2M, false, false)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if r := v.Access(va, pa, addr.Page2M, false); !r.Hit {
			b.Fatal("unexpected miss")
		}
	}
}

// BenchmarkMachineStepBatched measures the epoch-batched measured phase
// in isolation: one machine is built and warmed once, then every
// iteration resumes a snapshot of the warm state and runs the measured
// phase through the batched loop (pre-generated epochs, every L1 and
// CPU call through its interface). Comparing against
// BenchmarkSimulatorThroughput separates steady-state stepping speed
// from Build/Warmup overhead.
func BenchmarkMachineStepBatched(b *testing.B) {
	p, err := workload.ByName("redis")
	if err != nil {
		b.Fatal(err)
	}
	refs := 50_000
	cfg := machine.Config{
		Workload: p, Seed: 42, Refs: refs, WarmupRefs: 20_000,
		CacheKind: machine.KindSeesaw, L1Size: 64 << 10,
		FreqGHz: 1.33, CPUKind: "ooo", MemBytes: 256 << 20,
	}
	ctx := context.Background()
	m, err := machine.Build(cfg)
	if err != nil {
		b.Fatal(err)
	}
	if err := m.Warmup(ctx); err != nil {
		b.Fatal(err)
	}
	snap, err := m.Snapshot()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mm := snap.Resume()
		if err := mm.Measure(ctx); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(refs)*float64(b.N)/b.Elapsed().Seconds(), "refs/s")
}

// BenchmarkSimulatorThroughput measures whole-system simulation speed in
// references per second.
func BenchmarkSimulatorThroughput(b *testing.B) {
	p, err := workload.ByName("redis")
	if err != nil {
		b.Fatal(err)
	}
	refs := 50_000
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := sim.Config{
			Workload: p, Seed: int64(i + 1), Refs: refs,
			CacheKind: sim.KindSeesaw, L1Size: 64 << 10,
			FreqGHz: 1.33, CPUKind: "ooo", MemBytes: 256 << 20,
		}
		if _, err := sim.Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(refs)*float64(b.N)/b.Elapsed().Seconds(), "refs/s")
}

// --- Observability layer overhead ----------------------------------------

// benchMetricsSim runs one fixed whole-system simulation, with or
// without the metrics recorder, and reports references per second.
// Comparing the two variants bounds the cost of the nil-check-guarded
// emit sites sprinkled through the hot paths:
//
//	go test -bench 'BenchmarkMetrics' -benchmem
//
// The Disabled variant must allocate nothing on the metrics' account and
// run within ~1% of a build without the observability layer (the emit
// sites compile to a nil check each); the Enabled variant pays for the
// counter stores and the epoch samples.
func benchMetricsSim(b *testing.B, mcfg func() *sim.Config) {
	b.Helper()
	p, err := workload.ByName("redis")
	if err != nil {
		b.Fatal(err)
	}
	refs := 50_000
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := sim.Config{
			Workload: p, Seed: 42, Refs: refs,
			CacheKind: sim.KindSeesaw, L1Size: 64 << 10,
			FreqGHz: 1.33, CPUKind: "ooo", MemBytes: 256 << 20,
		}
		if m := mcfg(); m != nil {
			cfg.Metrics = m.Metrics
		}
		if _, err := sim.Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(refs)*float64(b.N)/b.Elapsed().Seconds(), "refs/s")
}

func BenchmarkMetricsDisabled(b *testing.B) {
	benchMetricsSim(b, func() *sim.Config { return nil })
}

func BenchmarkMetricsEnabled(b *testing.B) {
	benchMetricsSim(b, func() *sim.Config {
		return &sim.Config{Metrics: &metrics.Config{EpochRefs: 5_000}}
	})
}

// BenchmarkRecorderDisabledSites measures the raw cost of the disabled
// emit sites themselves — a nil Recorder's Add and Emit must be free of
// allocation and nearly free of time.
func BenchmarkRecorderDisabledSites(b *testing.B) {
	var rec *metrics.Recorder
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rec.Add(0, metrics.CtrRefs, 1)
		rec.Emit(0, metrics.EvTLBFill, uint64(i), 0, 0)
		rec.TickRef()
	}
}

// BenchmarkRecorderEnabledSites: the enabled counter store and ring
// write paths stay allocation-free too (epoch sampling, the only
// allocating step, is amortized across EpochRefs references).
func BenchmarkRecorderEnabledSites(b *testing.B) {
	rec := metrics.New(metrics.Config{EpochRefs: 1 << 30}, 4, 0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rec.Add(i&3, metrics.CtrRefs, 1)
		rec.Emit(i&3, metrics.EvTLBFill, uint64(i), 0, 0)
		rec.TickRef()
	}
}

// BenchmarkWorkloadGenerator measures trace-generation speed.
func BenchmarkWorkloadGenerator(b *testing.B) {
	p, err := workload.ByName("mongo")
	if err != nil {
		b.Fatal(err)
	}
	g := workload.NewGenerator(p, 42)
	g.BindDefault()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = g.Next(i % p.Threads)
	}
}

// sink prevents dead-code elimination in microbenches that need it.
var sink = strconv.IntSize
