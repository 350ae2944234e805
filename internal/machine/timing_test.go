package machine

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"testing"

	"seesaw/internal/faults"
	"seesaw/internal/metrics"
	"seesaw/internal/workload"
)

// reportJSON renders a report for byte comparison.
func reportJSON(t *testing.T, r *Report) []byte {
	t.Helper()
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// coldJSON is a cold, solo run of cfg: what sim.Run reports.
func coldJSON(t *testing.T, cfg Config) []byte {
	t.Helper()
	m := mustBuild(t, cfg)
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
	return reportJSON(t, r)
}

// groupRun runs cfg as a member of g, as a pool cell would: Build,
// Warmup, Measure on the group's context, Report.
func groupRun(ctx context.Context, cfg Config, g *TimingGroup) (*Report, error) {
	m, err := Build(cfg)
	if err != nil {
		return nil, err
	}
	if err := m.Warmup(ctx); err != nil {
		return nil, err
	}
	if err := m.Measure(WithTimingGroup(ctx, g)); err != nil {
		return nil, err
	}
	return m.Report()
}

// checkGroup runs cfgs as one timing group, in order, and requires every
// member's report to equal its cold solo run and the first member's
// pass to have answered every other.
func checkGroup(t *testing.T, cfgs []Config) {
	t.Helper()
	g := NewTimingGroup(cfgs...)
	for i, cfg := range cfgs {
		r, err := groupRun(context.Background(), cfg, g)
		if err != nil {
			t.Fatalf("member %d: %v", i, err)
		}
		if got, want := reportJSON(t, r), coldJSON(t, cfg); !bytes.Equal(got, want) {
			t.Errorf("member %d (%.2f GHz, serial %d, fast %v, slow %v, threshold %d): group report differs from a solo run:\ngroup: %s\nsolo:  %s",
				i, cfg.FreqGHz, cfg.SerialTLBCycles, cfg.SchedulerAlwaysFast, cfg.SchedulerAlwaysSlow, cfg.SpecFastThreshold, got, want)
		}
	}
	if passes, answered := g.Counts(); passes != 1 || answered != len(cfgs)-1 {
		t.Errorf("counts = %d passes, %d answered; want 1 and %d", passes, answered, len(cfgs)-1)
	}
}

// clocks returns cfg at each of the paper's three clocks.
func clocks(cfg Config) []Config {
	var out []Config
	for _, f := range []float64{1.33, 2.8, 4.0} {
		c := cfg
		c.FreqGHz = f
		out = append(out, c)
	}
	return out
}

// TestTimingGroupEqualsSolo is the timing-group contract: cells that
// differ only in timing-only fields, run as one group, report byte for
// byte what solo runs report. It covers every registered design on
// both cores across the three clocks, the PIPT serial TLB latency, the
// scheduler's policies, way prediction, the prefetcher, the I-cache
// with text superpages, a co-runner with context switches, and a mix
// fault schedule under the checker with metrics on. testConfig's memhog
// and promotion/splinter cadences run in every case.
func TestTimingGroupEqualsSolo(t *testing.T) {
	type tc struct {
		name string
		cfgs []Config
	}
	var cases []tc
	for _, name := range DesignNames() {
		for _, kind := range []string{"ooo", "inorder"} {
			c := testConfig(t, CacheKind(name))
			c.CPUKind = kind
			cases = append(cases, tc{name + "/" + kind, clocks(c)})
		}
	}
	serial := func(n int) Config {
		c := testConfig(t, KindPIPT)
		c.SerialTLBCycles = n
		return c
	}
	sched := func(fast, slow bool, threshold int) Config {
		c := testConfig(t, KindSeesaw)
		c.SchedulerAlwaysFast, c.SchedulerAlwaysSlow, c.SpecFastThreshold = fast, slow, threshold
		return c
	}
	wp := func(kind CacheKind) []Config {
		c := testConfig(t, kind)
		c.WayPredict = true
		return clocks(c)
	}
	prefetch := testConfig(t, KindSeesaw)
	prefetch.Prefetch = true
	co, err := workload.ByName("mcf")
	if err != nil {
		t.Fatal(err)
	}
	corun := testConfig(t, KindSeesaw)
	corun.CoRunner = &co
	corun.ContextSwitchEvery = 8_000
	corun.CoRunSliceRefs = 500
	faulted := testConfig(t, KindSeesaw)
	faulted.CheckInvariants = true
	faulted.Faults = &faults.Config{Schedule: "mix", Every: 3_000}
	faulted.Metrics = &metrics.Config{EpochRefs: 5_000}
	cases = append(cases,
		tc{"pipt-serial-tlb", []Config{serial(1), serial(2), serial(4)}},
		tc{"seesaw-scheduler", []Config{
			sched(false, false, 0), sched(true, false, 0), sched(false, true, 0),
			sched(false, false, 1), sched(false, false, 100),
		}},
		tc{"baseline-waypred", wp(KindBaseline)},
		tc{"seesaw-waypred", wp(KindSeesaw)},
		tc{"prefetch", clocks(prefetch)},
		tc{"nutch-icache", clocks(nutchConfig(t))},
		tc{"corunner", clocks(corun)},
		tc{"faults-checked-metrics", clocks(faulted)},
	)
	for _, c := range cases {
		// A short measured phase still crosses every cadence above.
		for i := range c.cfgs {
			c.cfgs[i].Refs = 12_000
		}
		t.Run(c.name, func(t *testing.T) { checkGroup(t, c.cfgs) })
	}
}

// TestTimingGroupMismatch: a member whose config differs from the
// pass's outside the timing-only fields fails with a typed error
// instead of taking a report it did not earn, and the pass still
// answers the matching member.
func TestTimingGroupMismatch(t *testing.T) {
	lead := testConfig(t, KindSeesaw)
	sib := lead
	sib.FreqGHz = 4.0
	other := lead
	other.L1Size = 64 << 10
	other.L1Ways = 0
	g := NewTimingGroup(lead, sib, other)
	ctx := context.Background()
	if _, err := groupRun(ctx, lead, g); err != nil {
		t.Fatal(err)
	}
	_, err := groupRun(ctx, other, g)
	var mis *TimingMismatchError
	if !errors.As(err, &mis) {
		t.Fatalf("a member differing in L1Size returned %v, want a *TimingMismatchError", err)
	}
	r, err := groupRun(ctx, sib, g)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(reportJSON(t, r), coldJSON(t, sib)) {
		t.Error("the matching member's report differs from its solo run")
	}
	if passes, answered := g.Counts(); passes != 1 || answered != 1 {
		t.Errorf("counts = %d passes, %d answered; want 1 and 1", passes, answered)
	}
	k1, _ := lead.TimingKey()
	k2, _ := sib.TimingKey()
	if k1 != k2 {
		t.Error("configs differing only in FreqGHz have different timing keys")
	}
}

// TestAnsweredCellConstructsNothing: Build constructs neither half, so
// a cell a timing sibling's pass answers never allocates an OS, a TLB,
// an L1 or an LLC; and a cell replaying a sibling's recording of its
// front end builds only its back end, its OS half included.
func TestAnsweredCellConstructsNothing(t *testing.T) {
	ctx := context.Background()
	lead := testConfig(t, KindSeesaw)
	lead.WarmupRefs = 0
	sib := lead
	sib.FreqGHz = 4.0
	g := NewTimingGroup(lead, sib)
	if _, err := groupRun(ctx, lead, g); err != nil {
		t.Fatal(err)
	}
	m := mustBuild(t, sib)
	if m.fe != nil || m.be != nil {
		t.Fatal("Build constructed a half")
	}
	if err := m.Warmup(ctx); err != nil {
		t.Fatal(err)
	}
	if err := m.Measure(WithTimingGroup(ctx, g)); err != nil {
		t.Fatal(err)
	}
	r, err := m.Report()
	if err != nil {
		t.Fatal(err)
	}
	if m.fe != nil || m.be != nil {
		t.Error("an answered cell constructed a half of its machine")
	}
	if !bytes.Equal(reportJSON(t, r), coldJSON(t, sib)) {
		t.Error("the answered report differs from a solo run")
	}

	s := NewStream()
	other := lead
	other.CacheKind = KindBaseline
	if _, _, err := measureWith(ctx, lead, s); err != nil {
		t.Fatal(err)
	}
	f, got, err := measureWith(ctx, other, s)
	if err != nil {
		t.Fatal(err)
	}
	if f.fe != nil || f.be == nil {
		t.Errorf("a replaying cell built its front end (%v) or no back end (%v)", f.fe != nil, f.be == nil)
	}
	if !bytes.Equal(got, coldJSON(t, other)) {
		t.Error("the replayed report differs from a solo run")
	}
}
