package machine

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"seesaw/internal/faults"
	"seesaw/internal/metrics"
	"seesaw/internal/workload"
)

// testConfig is a small-but-real cell: fragmented memory, warmup
// cadences that actually fire during the warmup window, and enough
// measured references for every design to diverge if state were copied
// wrong.
func testConfig(t *testing.T, kind CacheKind) Config {
	t.Helper()
	p, err := workload.ByName("redis")
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Workload:   p,
		Seed:       42,
		Refs:       30_000,
		WarmupRefs: 20_000,
		CacheKind:  kind,
		L1Size:     32 << 10,
		FreqGHz:    1.33,
		CPUKind:    "ooo",
		MemBytes:   512 << 20,

		MemhogFraction:   0.4,
		PromoteScanEvery: 7_000,
		SplinterEvery:    9_000,
	}
	// Apply the registry's per-design knob overrides (the serial PIPT
	// point only makes sense with its reduced TLB and 4 ways), so the
	// battery exercises each design in its intended configuration.
	if d, ok := kind.design(); ok {
		cfg.SerialTLBCycles = d.ChaosSerialTLB
		cfg.SmallTLB = d.ChaosSmallTLB
		if d.ChaosL1Ways != 0 {
			cfg.L1Ways = d.ChaosL1Ways
		}
	}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	return cfg
}

// reportText runs a machine to completion and renders its report.
func reportText(t *testing.T, m *Machine) []byte {
	t.Helper()
	ctx := context.Background()
	if err := m.Warmup(ctx); err != nil {
		t.Fatal(err)
	}
	if err := m.Measure(ctx); err != nil {
		t.Fatal(err)
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

// warmMaster builds a machine with cfg's warmup signature and runs its
// warmup phase to the boundary.
func warmMaster(t *testing.T, cfg Config) *Machine {
	t.Helper()
	m, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Warmup(context.Background()); err != nil {
		t.Fatal(err)
	}
	return m
}

// warmSnapshot snapshots a warmMaster at its warmup boundary.
func warmSnapshot(t *testing.T, cfg Config) *Snapshot {
	t.Helper()
	snap, err := warmMaster(t, cfg).Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

// TestForkEqualsCold is the tentpole guarantee: a cell forked from a
// warmed machine's snapshot produces a byte-identical report to a cold
// run of the same config. The master is warmed as the baseline design,
// then forked into every registered design — exactly how a
// shared-warmup sweep uses it, and one leg of the zoo conformance
// battery (see zoo_test.go).
func TestForkEqualsCold(t *testing.T) {
	ctx := context.Background()
	master := warmSnapshot(t, testConfig(t, KindBaseline))
	for _, name := range DesignNames() {
		t.Run(name, func(t *testing.T) {
			cfg := testConfig(t, CacheKind(name))
			cold, err := Build(cfg)
			if err != nil {
				t.Fatal(err)
			}
			want := reportText(t, cold)

			forked, err := master.Fork(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := forked.Measure(ctx); err != nil {
				t.Fatal(err)
			}
			r, err := forked.Report()
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := r.WriteText(&buf); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(want, buf.Bytes()) {
				t.Errorf("forked report differs from cold run:\ncold:\n%s\nforked:\n%s", want, buf.Bytes())
			}
		})
	}
}

// TestForkWithHooksEqualsCold forks a cell that turns on metrics, the
// invariant checker, and fault injection — none of which exist on the
// warmed master — and checks it still matches the cold run bit for bit.
// All three hooks start fresh at the measured phase, exactly as in a
// cold run that deferred them through its own warmup.
func TestForkWithHooksEqualsCold(t *testing.T) {
	cfg := testConfig(t, KindSeesaw)
	cfg.CheckInvariants = true
	cfg.Metrics = &metrics.Config{EpochRefs: 5_000}
	cfg.Faults = &faults.Config{Schedule: "mix", Every: 6_000}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}

	cold, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := reportText(t, cold)

	master := warmSnapshot(t, testConfig(t, KindBaseline))
	forked, err := master.Fork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	got := reportText(t, forked)
	if !bytes.Equal(want, got) {
		t.Errorf("forked report with hooks differs from cold run:\ncold:\n%s\nforked:\n%s", want, got)
	}
	if forked.Hooks.Metrics == nil || forked.Hooks.Checker == nil || forked.Hooks.Injector == nil {
		t.Error("forked machine is missing hooks its config asked for")
	}
}

// TestWarmupZeroMatchesUnphased pins the compatibility contract: a
// WarmupRefs=0 run is the unphased simulator, so adding a warmup phase
// of zero references must not change a single byte.
func TestWarmupZeroMatchesUnphased(t *testing.T) {
	cfg := testConfig(t, KindSeesaw)
	cfg.WarmupRefs = 0
	m1, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a := reportText(t, m1)
	m2, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b := reportText(t, m2)
	if !bytes.Equal(a, b) {
		t.Error("two identical runs disagree — machine construction is nondeterministic")
	}
}

// TestSnapshotResume checks that a snapshot at the warmup boundary can
// seed multiple independent measured runs, each matching the original
// machine's own continuation byte for byte.
func TestSnapshotResume(t *testing.T) {
	ctx := context.Background()
	cfg := testConfig(t, KindSeesaw)
	m := warmMaster(t, cfg)
	snap, err := m.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	// The original continues to completion.
	if err := m.Measure(ctx); err != nil {
		t.Fatal(err)
	}
	r, err := m.Report()
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := r.WriteText(&want); err != nil {
		t.Fatal(err)
	}

	// Two resumes, both independent, both identical to the original.
	for i := 0; i < 2; i++ {
		got := reportText(t, snap.Resume())
		if !bytes.Equal(want.Bytes(), got) {
			t.Errorf("resume %d differs from the original machine's continuation", i)
		}
	}
}

// TestSnapshotWithHooks: machines carrying a metrics recorder, the
// invariant checker, and a fault injector snapshot and resume
// bit-identically, at the warmup boundary and mid-warmup. The snapshot
// carries no hook state (warmup never touches it): each resumed copy
// builds its own recorder, checker and injector when its measured phase
// starts, wired over the copy's own components.
func TestSnapshotWithHooks(t *testing.T) {
	ctx := context.Background()
	cfg := testConfig(t, KindSeesaw)
	cfg.CheckInvariants = true
	cfg.Metrics = &metrics.Config{EpochRefs: 5_000}
	cfg.Faults = &faults.Config{Schedule: "mix", Every: 6_000}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	want := reportText(t, mustBuild(t, cfg))

	m := mustBuild(t, cfg)
	for _, at := range []int{7_000, cfg.WarmupRefs} {
		if err := m.WarmupTo(ctx, at); err != nil {
			t.Fatal(err)
		}
		snap, err := m.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		re, again := snap.Resume(), snap.Resume()
		if got := reportText(t, re); !bytes.Equal(want, got) {
			t.Errorf("hooked resume at ref %d differs from the cold run:\nwant:\n%s\ngot:\n%s", at, want, got)
		}
		reportText(t, again)
		if re.Hooks.Metrics == nil || re.Hooks.Checker == nil || re.Hooks.Injector == nil {
			t.Fatal("resumed machine is missing hooks its config asked for")
		}
		if re.Hooks.Metrics == again.Hooks.Metrics || re.Hooks.Checker == again.Hooks.Checker ||
			re.Hooks.Injector == again.Hooks.Injector {
			t.Fatal("two machines resumed from one snapshot share hook state")
		}
	}
}

// TestSnapshotPastBoundary: once the measured phase has started, the
// caches, TLBs and hooks hold state a snapshot does not carry, so
// Snapshot refuses — and the refusal leaves the machine runnable to the
// same report as a cold run.
func TestSnapshotPastBoundary(t *testing.T) {
	ctx := context.Background()
	cfg := testConfig(t, KindSeesaw)
	want := reportText(t, mustBuild(t, cfg))

	m := warmMaster(t, cfg)
	for i := 0; i < 100; i++ {
		if err := m.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := m.Snapshot(); err == nil || !strings.Contains(err.Error(), "boundary") {
		t.Fatalf("Snapshot past the warmup boundary returned %v, want a boundary refusal", err)
	}
	if err := m.Measure(ctx); err != nil {
		t.Fatal(err)
	}
	r, err := m.Report()
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := r.WriteText(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, got.Bytes()) {
		t.Errorf("run after a refused snapshot differs from the cold run:\nwant:\n%s\ngot:\n%s", want, got.Bytes())
	}
}

// TestForkRejections: forking a snapshot taken off the warmup boundary
// or with a disagreeing warmup signature must fail loudly, never
// silently produce a wrong-state machine.
func TestForkRejections(t *testing.T) {
	cfg := testConfig(t, KindBaseline)
	m := mustBuild(t, cfg)
	// Not at the boundary yet.
	cold, err := m.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cold.Fork(cfg); err == nil || !strings.Contains(err.Error(), "boundary") {
		t.Errorf("fork before warmup: got err %v, want boundary refusal", err)
	}
	if err := m.Warmup(context.Background()); err != nil {
		t.Fatal(err)
	}
	snap, err := m.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	// Signature mismatch: different seed warms differently.
	bad := cfg
	bad.Seed = 43
	if _, err := snap.Fork(bad); err == nil || !strings.Contains(err.Error(), "signature") {
		t.Errorf("fork with different seed: got err %v, want signature refusal", err)
	}
	// Agreeing config forks fine.
	good := cfg
	good.CacheKind = KindSeesaw
	if _, err := snap.Fork(good); err != nil {
		t.Errorf("fork with agreeing signature: %v", err)
	}
}

// flipCtx is a context whose Err turns to context.Canceled from its
// (after+1)th call on: the reference loop polls once per epoch, so the
// cancel lands at a chosen poll.
type flipCtx struct {
	context.Context
	calls, after int
}

func (c *flipCtx) Err() error {
	if c.calls++; c.calls > c.after {
		return context.Canceled
	}
	return nil
}

// TestSnapshotAfterCanceledWarmup: a warmup canceled at its second
// poll stops one epoch in, with every drawn record executed, so the
// machine snapshots there; the snapshot resumes, finishes its warmup
// and measures to the cold run's report byte for byte.
func TestSnapshotAfterCanceledWarmup(t *testing.T) {
	ctx := context.Background()
	cfg := testConfig(t, KindSeesaw)
	want := reportText(t, mustBuild(t, cfg))

	m := mustBuild(t, cfg)
	if err := m.Warmup(&flipCtx{Context: ctx, after: 1}); err != context.Canceled {
		t.Fatalf("Warmup under a context canceled at its second poll returned %v, want context.Canceled", err)
	}
	if m.Ref() != epochRefs {
		t.Errorf("canceled warmup stopped at ref %d, want %d (one epoch)", m.Ref(), epochRefs)
	}
	snap, err := m.Snapshot()
	if err != nil {
		t.Fatalf("Snapshot after a canceled warmup: %v", err)
	}
	if got := reportText(t, snap.Resume()); !bytes.Equal(want, got) {
		t.Errorf("resume after a canceled warmup differs from the cold run:\nwant:\n%s\ngot:\n%s", want, got)
	}
}

// TestWarmupSignature spot-checks which fields the signature folds in:
// measured-phase parameters must not break sharing, warmup-shaping
// parameters must.
func TestWarmupSignature(t *testing.T) {
	base := testConfig(t, KindBaseline)
	same := base
	same.CacheKind = KindSeesaw
	same.Refs = 99_999
	same.ContextSwitchEvery = 123
	same.CheckInvariants = true
	if base.WarmupSignature() != same.WarmupSignature() {
		t.Error("measured-phase parameters changed the warmup signature")
	}
	for name, mut := range map[string]func(*Config){
		"seed":        func(c *Config) { c.Seed++ },
		"warmupRefs":  func(c *Config) { c.WarmupRefs++ },
		"memhog":      func(c *Config) { c.MemhogFraction = 0.2 },
		"promoteScan": func(c *Config) { c.PromoteScanEvery = 11_111 },
	} {
		d := base
		mut(&d)
		if base.WarmupSignature() == d.WarmupSignature() {
			t.Errorf("%s change did not change the warmup signature", name)
		}
	}
}

// TestReportRepeatable: a second Report after the measured phase equals
// the first, and leaves the first report's energy account as it was:
// each report finishes its own copy of the machine's account.
func TestReportRepeatable(t *testing.T) {
	m := mustBuild(t, testConfig(t, KindSeesaw))
	ctx := context.Background()
	if err := m.Warmup(ctx); err != nil {
		t.Fatal(err)
	}
	if err := m.Measure(ctx); err != nil {
		t.Fatal(err)
	}
	first, err := m.Report()
	if err != nil {
		t.Fatal(err)
	}
	before := reportJSON(t, first)
	second, err := m.Report()
	if err != nil {
		t.Fatal(err)
	}
	if got := reportJSON(t, second); !bytes.Equal(got, before) {
		t.Errorf("second report differs from the first:\nfirst:  %s\nsecond: %s", before, got)
	}
	if got := reportJSON(t, first); !bytes.Equal(got, before) {
		t.Error("the second Report changed the first report")
	}
}
