package machine

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"testing"

	"seesaw/internal/metrics"
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

// TestTimingGroupEqualsSolo pins the live pass: cells that differ only
// in timing-only fields share one back end, and run as one group they
// report byte for byte what solo runs report. It covers every registered
// design on both cores across the three clocks, the PIPT serial TLB
// latency, the scheduler's policies, way prediction, the prefetcher, the
// I-cache with text superpages, a co-runner with context switches, and
// a mix fault schedule under the checker with metrics on. testConfig's
// memhog and promotion/splinter cadences run in every case.
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
	faulted := faultedConfig(t, KindSeesaw)
	faulted.CheckInvariants = true
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
		tc{"corunner", clocks(corunConfig(t, KindSeesaw))},
		tc{"faults-checked-metrics", clocks(faulted)},
	)
	for _, c := range cases {
		// A short measured phase still crosses every cadence above.
		for i := range c.cfgs {
			c.cfgs[i].Refs = 12_000
		}
		t.Run(c.name, func(t *testing.T) { checkGroups(t, c.cfgs, coldAll(t, c.cfgs), nil) })
	}
}

// TestTimingGroupMismatch: a member whose front end differs from the
// pass's fails with a typed error instead of taking a report it did not
// earn, while the pass still answers the members that share its front
// end, whether they differ in a timing-only field or in the back end.
func TestTimingGroupMismatch(t *testing.T) {
	lead := testConfig(t, KindSeesaw)
	sib := lead
	sib.FreqGHz = 4.0
	wide := lead
	wide.L1Size, wide.L1Ways = 64<<10, 0
	other := lead
	other.Seed++
	g := NewGroup(nil, lead, sib, wide, other)
	ctx := context.Background()
	if _, _, err := measureIn(ctx, lead, g); err != nil {
		t.Fatal(err)
	}
	_, _, err := measureIn(ctx, other, g)
	var mis *GroupMismatchError
	if !errors.As(err, &mis) {
		t.Fatalf("a member with another seed returned %v, want a *GroupMismatchError", err)
	}
	for _, c := range []Config{sib, wide} {
		_, got, err := measureIn(ctx, c, g)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, coldJSON(t, c)) {
			t.Errorf("the %dKB %.2f GHz member's report differs from its solo run", c.L1Size>>10, c.FreqGHz)
		}
	}
	if passes, answered := g.Counts(); passes != 1 || answered != 2 {
		t.Errorf("counts = %d passes, %d answered; want 1 and 2", passes, answered)
	}
	k1, _ := lead.GroupKey()
	k2, _ := sib.GroupKey()
	k3, _ := wide.GroupKey()
	if k1 != k2 || k1 != k3 {
		t.Error("configs differing only in FreqGHz or L1Size have different group keys")
	}
}

// TestAnsweredCellConstructsNothing: Build constructs neither half, so
// a cell a group's pass answers, a timing sibling of the member that
// ran it or a cell of another back end, never allocates an OS, a TLB,
// an L1 or an LLC.
func TestAnsweredCellConstructsNothing(t *testing.T) {
	ctx := context.Background()
	lead := testConfig(t, KindSeesaw)
	lead.WarmupRefs = 0
	sib := lead
	sib.FreqGHz = 4.0
	other := lead
	other.CacheKind = KindBaseline
	g := NewGroup(nil, lead, sib, other)
	if _, _, err := measureIn(ctx, lead, g); err != nil {
		t.Fatal(err)
	}
	for _, c := range []Config{sib, other} {
		m := mustBuild(t, c)
		if m.fe != nil || m.be != nil {
			t.Fatal("Build constructed a half")
		}
		if err := m.Warmup(ctx); err != nil {
			t.Fatal(err)
		}
		if err := m.Measure(WithGroup(ctx, g)); err != nil {
			t.Fatal(err)
		}
		r, err := m.Report()
		if err != nil {
			t.Fatal(err)
		}
		if m.fe != nil || m.be != nil {
			t.Errorf("an answered %s cell constructed a half of its machine", c.CacheKind)
		}
		if !bytes.Equal(reportJSON(t, r), coldJSON(t, c)) {
			t.Errorf("the answered %s report differs from a solo run", c.CacheKind)
		}
	}
}
