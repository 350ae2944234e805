package machine

import (
	"bytes"
	"context"
	"runtime"
	"strings"
	"testing"

	"seesaw/internal/workload"
)

// stepToEnd drives a machine to the end of its measured phase one
// Step() at a time — the fully serial path, no epoch batching beyond
// whatever pending records already exist.
func stepToEnd(t *testing.T, m *Machine) []byte {
	t.Helper()
	total := m.Config().WarmupRefs + m.Config().Refs
	for m.globalRef < total {
		if err := m.Step(); err != nil {
			t.Fatal(err)
		}
	}
	r, err := m.Report()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := r.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestBatchedMatchesStepped pins the core batching contract: the
// epoch-batched Warmup/Measure loop produces a byte-identical report to
// driving the same machine one Step() at a time. Generation never reads
// execution state and execution stays in schedule order, so batching
// (and the lookahead pipeline behind it) must be observationally
// invisible.
func TestBatchedMatchesStepped(t *testing.T) {
	cfg := testConfig(t, KindSeesaw)
	batched, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := reportText(t, batched)

	stepped, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	got := stepToEnd(t, stepped)
	if !bytes.Equal(want, got) {
		t.Errorf("batched run differs from stepped run:\nbatched:\n%s\nstepped:\n%s", want, got)
	}
}

// parallelConfig is a 4-thread workload with the I-cache modeled, so
// epoch pre-generation runs five generator goroutines (4 app threads +
// the system thread) filling data and instruction streams concurrently.
func parallelConfig(t *testing.T) Config {
	t.Helper()
	p, err := workload.ByName("nutch")
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Workload:   p,
		Seed:       42,
		Refs:       30_000,
		WarmupRefs: 15_000,
		CacheKind:  KindSeesaw,
		L1Size:     32 << 10,
		FreqGHz:    1.33,
		CPUKind:    "ooo",
		MemBytes:   512 << 20,
		ICache:     true,
		TextHuge:   true,

		MemhogFraction:   0.4,
		PromoteScanEvery: 7_000,
		SplinterEvery:    9_000,
	}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	return cfg
}

// TestParallelGenDeterminism runs the same multi-threaded cell at
// GOMAXPROCS=1 and GOMAXPROCS=8 and requires byte-identical reports:
// the per-thread generator workers touch disjoint state and disjoint
// buffer slots, so scheduling must not be observable. Run under -race
// this also audits the worker/join discipline.
func TestParallelGenDeterminism(t *testing.T) {
	cfg := parallelConfig(t)
	reports := make([][]byte, 2)
	for i, procs := range []int{1, 8} {
		prev := runtime.GOMAXPROCS(procs)
		m, err := Build(cfg)
		if err != nil {
			runtime.GOMAXPROCS(prev)
			t.Fatal(err)
		}
		reports[i] = reportText(t, m)
		runtime.GOMAXPROCS(prev)
	}
	if !bytes.Equal(reports[0], reports[1]) {
		t.Errorf("reports differ across GOMAXPROCS:\nP=1:\n%s\nP=8:\n%s", reports[0], reports[1])
	}
}

// TestSnapshotMidEpochPending: a machine stopped at the warmup boundary
// with the first measured epoch already generated holds records the
// generator has advanced past, so Snapshot and Fork must refuse it
// rather than copy a desynced stream. A machine stopped inside a
// measured epoch is past the boundary, which Snapshot refuses first.
// Either refusal must leave the machine runnable: its continuation
// still matches a cold run byte for byte.
func TestSnapshotMidEpochPending(t *testing.T) {
	ctx := context.Background()
	cfg := testConfig(t, KindSeesaw)
	want := reportText(t, mustBuild(t, cfg))
	total := cfg.WarmupRefs + cfg.Refs

	// Batch the warmup with the measured phase as the lookahead bound:
	// the machine stops at the warmup boundary with the first measured
	// epoch already generated.
	atBoundary := mustBuild(t, cfg)
	if err := atBoundary.stepBatch(cfg.WarmupRefs, 0, total); err != nil {
		t.Fatal(err)
	}
	if _, err := atBoundary.Fork(cfg); err == nil || !strings.Contains(err.Error(), "pending") {
		t.Errorf("Fork with pre-generated records pending returned %v, want a pending-records error", err)
	}
	if _, err := atBoundary.Snapshot(); err == nil || !strings.Contains(err.Error(), "pending") {
		t.Errorf("Snapshot with pre-generated records pending returned %v, want a pending-records error", err)
	}

	// Execute 100 references of a ~4096-reference epoch, leaving the
	// rest pending.
	m := warmMaster(t, cfg)
	if err := m.stepBatch(100, cfg.WarmupRefs, total); err != nil {
		t.Fatal(err)
	}
	if m.batch.cur.empty() {
		t.Fatal("expected pending pre-generated records mid-epoch")
	}
	if _, err := m.Snapshot(); err == nil || !strings.Contains(err.Error(), "boundary") {
		t.Errorf("Snapshot inside a measured epoch returned %v, want a past-boundary error", err)
	}

	for name, mc := range map[string]*Machine{"boundary": atBoundary, "mid-epoch": m} {
		if err := mc.Measure(ctx); err != nil {
			t.Fatal(err)
		}
		r, err := mc.Report()
		if err != nil {
			t.Fatal(err)
		}
		var got bytes.Buffer
		if err := r.WriteText(&got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(want, got.Bytes()) {
			t.Errorf("%s: continuation after a refused copy differs from the cold run:\nwant:\n%s\ngot:\n%s", name, want, got.Bytes())
		}
	}
}

// mustBuild builds a machine for cfg.
func mustBuild(t *testing.T, cfg Config) *Machine {
	t.Helper()
	m, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestMeasuredStepAllocFree is the allocation regression gate: with
// every hook disabled, a measured-phase reference allocates nothing.
// The machine is warmed past its cold-start fills first so map growth
// and lazily sized scratch buffers have reached steady state.
func TestMeasuredStepAllocFree(t *testing.T) {
	p, err := workload.ByName("redis")
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Workload:   p,
		Seed:       42,
		Refs:       60_000,
		WarmupRefs: 10_000,
		CacheKind:  KindSeesaw,
		L1Size:     32 << 10,
		FreqGHz:    1.33,
		CPUKind:    "ooo",
		MemBytes:   512 << 20,

		// Cadenced OS activity off (negative disables; zero would take
		// the default): promotion scans and splinters legitimately
		// allocate page-table state, which is not what this test gates.
		ContextSwitchEvery: -1,
		PromoteScanEvery:   -1,
		SplinterEvery:      -1,
	}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	m, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := m.Warmup(ctx); err != nil {
		t.Fatal(err)
	}
	// Warm the measured-phase state: caches, TLBs, coherence directory.
	for i := 0; i < 20_000; i++ {
		if err := m.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if avg := testing.AllocsPerRun(5_000, func() {
		if err := m.Step(); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Errorf("measured Step allocates %.3f objects/ref with hooks disabled, want 0", avg)
	}
}
