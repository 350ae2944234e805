package machine

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"seesaw/internal/coherence"
	"seesaw/internal/faults"
	"seesaw/internal/metrics"
	"seesaw/internal/tft"
	"seesaw/internal/trace"
	"seesaw/internal/workload"
)

// lendAlways lends every back end a pass offers to a goroutine of its
// own; lendNever replays them all on the pass's goroutine.
func lendAlways(run func()) bool { go run(); return true }
func lendNever(func()) bool      { return false }

// lenders are the lend callbacks every group test runs under.
var lenders = []struct {
	name string
	lend func(func()) bool
}{{"lend", lendAlways}, {"inline", lendNever}}

// measureIn runs cfg's machine to the end of its measured phase with g on
// Measure's context (ctx, if given, carries Measure's deadline or
// cancellation) and returns the machine and its report's JSON.
func measureIn(ctx context.Context, cfg Config, g *Group) (*Machine, []byte, error) {
	m, err := Build(cfg)
	if err != nil {
		return nil, nil, err
	}
	if err := m.Warmup(context.Background()); err != nil {
		return nil, nil, err
	}
	if err := m.Measure(WithGroup(ctx, g)); err != nil {
		return m, nil, err
	}
	r, err := m.Report()
	if err != nil {
		return m, nil, err
	}
	b, err := json.Marshal(r)
	return m, b, err
}

// coldAll is every cell's cold, solo report.
func coldAll(t *testing.T, cfgs []Config) [][]byte {
	t.Helper()
	out := make([][]byte, len(cfgs))
	for i, c := range cfgs {
		out[i] = coldJSON(t, c)
	}
	return out
}

// checkGroups runs cfgs one after another as a pool's worker would, the
// cells of each GroupKey under one Group with the given lend callback,
// and requires every report to equal cold[i], the cell's solo report.
// Each group's first cell runs its pass, which answers every other
// member; no cell that took its report holds a back end. Cells without a
// key share one group, which they never use: each measures live.
func checkGroups(t *testing.T, cfgs []Config, cold [][]byte, lend func(func()) bool) {
	t.Helper()
	members := map[GroupKey][]Config{}
	for _, c := range cfgs {
		k, _ := c.GroupKey()
		members[k] = append(members[k], c)
	}
	groups := map[GroupKey]*Group{}
	for k, cs := range members {
		groups[k] = NewGroup(lend, cs...)
	}
	for i, cfg := range cfgs {
		k, keyed := cfg.GroupKey()
		m, got, err := measureIn(context.Background(), cfg, groups[k])
		if err != nil {
			t.Fatalf("cell %d: %v", i, err)
		}
		if built := m.be != nil; built == keyed {
			t.Errorf("cell %d (%s): holds a back end %v, want %v", i, cfg.CacheKind, built, !keyed)
		}
		if string(got) != string(cold[i]) {
			t.Errorf("cell %d (%s %s, %dKB, %.2f GHz): group report differs from a solo run:\ngroup: %s\nsolo:  %s",
				i, cfg.CacheKind, cfg.CPUKind, cfg.L1Size>>10, cfg.FreqGHz, got, cold[i])
		}
	}
	for k, g := range groups {
		wantPasses, wantAnswered := 1, len(members[k])-1
		if k == (GroupKey{}) {
			wantPasses, wantAnswered = 0, 0
		}
		if passes, answered := g.Counts(); passes != wantPasses || answered != wantAnswered {
			t.Errorf("group of %d: %d passes, %d answered; want %d and %d", len(members[k]), passes, answered, wantPasses, wantAnswered)
		}
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

// atClocks is every config of cfgs at each of the three clocks.
func atClocks(cfgs ...Config) []Config {
	var out []Config
	for _, c := range cfgs {
		out = append(out, clocks(c)...)
	}
	return out
}

// Variants of testConfig that move the front end: a co-runner whose
// context switches fire mid-phase, heavier memhog with faster promotion
// and splinter cadences, and a mix fault schedule.
func corunConfig(t *testing.T, kind CacheKind) Config {
	t.Helper()
	co, err := workload.ByName("mcf")
	if err != nil {
		t.Fatal(err)
	}
	c := testConfig(t, kind)
	c.CoRunner = &co
	c.ContextSwitchEvery = 8_000
	c.CoRunSliceRefs = 500
	return c
}

func memhogConfig(t *testing.T, kind CacheKind) Config {
	c := testConfig(t, kind)
	c.MemhogFraction = 0.7
	c.PromoteScanEvery = 2_000
	c.SplinterEvery = 3_000
	return c
}

func faultedConfig(t *testing.T, kind CacheKind) Config {
	c := testConfig(t, kind)
	c.Faults = &faults.Config{Schedule: "mix", Every: 3_000}
	return c
}

// TestGroupEqualsSolo is the pass's contract: cells run as one group,
// the first running the pass and every other taking its report, report
// byte for byte what solo runs report, whether the pass lends its back
// ends or replays them all itself. Each case mixes back ends with timing
// siblings: every registered design on both cores at the three clocks;
// L1 sizes, TFT geometry, snoopy coherence, prefetch and way prediction
// varied; the PIPT serial TLB latency; the scheduler's policies; a
// four-thread workload with the I-cache and text superpages; a
// co-runner; memhog with promotions and splinters; a fault schedule;
// and, under the invariant checker and metrics, cells that share only a
// live pass with their timing siblings.
func TestGroupEqualsSolo(t *testing.T) {
	type tc struct {
		name string
		cfgs []Config
	}
	var designs []Config
	for _, name := range DesignNames() {
		for _, cpuKind := range []string{"ooo", "inorder"} {
			c := testConfig(t, CacheKind(name))
			c.CPUKind = cpuKind
			designs = append(designs, clocks(c)...)
		}
	}
	var variants []Config
	for _, kind := range []CacheKind{KindSeesaw, KindBaseline} {
		for _, vary := range []func(*Config){
			func(c *Config) {},
			func(c *Config) { c.L1Size, c.L1Ways = 64<<10, 0 },
			func(c *Config) { c.L1Size, c.L1Ways = 128<<10, 0 },
			func(c *Config) { c.TFT = tft.Config{Entries: 64, Assoc: 4} },
			func(c *Config) { c.CoherenceMode = coherence.Snoopy },
		} {
			c := testConfig(t, kind)
			vary(&c)
			variants = append(variants, c)
		}
	}
	variants = append(variants, clocks(variants[1])[1:]...) // the 64KB seesaw at the faster clocks too
	serial := func(n int, prefetch bool) Config {
		c := testConfig(t, KindPIPT)
		c.SerialTLBCycles, c.Prefetch = n, prefetch
		return c
	}
	sched := func(fast, slow bool, threshold int) Config {
		c := testConfig(t, KindSeesaw)
		c.SchedulerAlwaysFast, c.SchedulerAlwaysSlow, c.SpecFastThreshold = fast, slow, threshold
		return c
	}
	with := func(kind CacheKind, vary func(*Config)) Config {
		c := testConfig(t, kind)
		vary(&c)
		return c
	}
	wp := func(c *Config) { c.WayPredict = true }
	prefetch := func(c *Config) { c.Prefetch = true }
	nutchBase := nutchConfig(t)
	nutchBase.CacheKind = KindBaseline
	checked := func(kind CacheKind) Config {
		c := faultedConfig(t, kind)
		c.CheckInvariants = true
		return c
	}
	metered := faultedConfig(t, KindSeesaw)
	metered.Metrics = &metrics.Config{EpochRefs: 5_000}
	cases := []tc{
		{"designs", designs},
		{"variants", variants},
		{"pipt-serial-tlb", []Config{serial(1, false), serial(2, false), serial(4, false), serial(1, true), serial(4, true)}},
		{"seesaw-scheduler", []Config{
			sched(false, false, 0), sched(true, false, 0), sched(false, true, 0),
			sched(false, false, 1), sched(false, false, 100), testConfig(t, KindBaseline),
		}},
		{"waypred", atClocks(with(KindBaseline, wp), with(KindSeesaw, wp))},
		{"prefetch", atClocks(with(KindSeesaw, prefetch), testConfig(t, KindSeesaw))},
		{"nutch-icache", atClocks(nutchConfig(t), nutchBase)},
		{"corunner", atClocks(corunConfig(t, KindSeesaw), corunConfig(t, KindBaseline))},
		{"memhog", atClocks(memhogConfig(t, KindSeesaw), memhogConfig(t, KindVespa))},
		{"faults", atClocks(faultedConfig(t, KindSeesaw), faultedConfig(t, KindVespa))},
		{"faults-checked-metrics", append(atClocks(checked(KindSeesaw)), checked(KindVespa), metered)},
	}
	for _, c := range cases {
		// A short measured phase still crosses every cadence above.
		for i := range c.cfgs {
			c.cfgs[i].Refs = 12_000
		}
		t.Run(c.name, func(t *testing.T) {
			cold := coldAll(t, c.cfgs)
			for _, l := range lenders {
				t.Run(l.name, func(t *testing.T) { checkGroups(t, c.cfgs, cold, l.lend) })
			}
		})
	}
}

// TestReplayEqualsCold pins the recording pass without timing siblings:
// cells that differ in their back end, each its own back end of one
// member, replay the first cell's recorded front end and report byte
// for byte what solo runs report, the back ends replayed on lent
// goroutines. The cases: every registered design on both cores, with L1
// sizes, TFT geometries, snoopy coherence, prefetch and way prediction
// varied; a four-thread workload with the I-cache and text superpages;
// a co-runner whose context switches fire mid-phase; heavier memhog
// with faster promotion and splinter cadences; a fault schedule; and,
// under the invariant checker and metrics, cells that group only with
// their timing siblings, so each here runs a live pass of its own.
func TestReplayEqualsCold(t *testing.T) {
	var designs []Config
	for _, name := range DesignNames() {
		for _, cpuKind := range []string{"ooo", "inorder"} {
			c := testConfig(t, CacheKind(name))
			c.CPUKind = cpuKind
			designs = append(designs, c)
		}
	}
	for _, kind := range []CacheKind{KindSeesaw, KindBaseline} {
		for _, vary := range []func(*Config){
			func(c *Config) { c.L1Size, c.L1Ways = 64<<10, 0 },
			func(c *Config) { c.L1Size, c.L1Ways = 128<<10, 0 },
			func(c *Config) { c.TFT = tft.Config{Entries: 64, Assoc: 4} },
			func(c *Config) { c.CoherenceMode = coherence.Snoopy },
			func(c *Config) { c.Prefetch = true },
			func(c *Config) { c.WayPredict = true },
		} {
			c := testConfig(t, kind)
			vary(&c)
			designs = append(designs, c)
		}
	}
	nutchBase := nutchConfig(t)
	nutchBase.CacheKind = KindBaseline
	checked := func(kind CacheKind) Config {
		c := faultedConfig(t, kind)
		c.CheckInvariants = true
		return c
	}
	metered := faultedConfig(t, KindSeesaw)
	metered.Metrics = &metrics.Config{EpochRefs: 5_000}
	for _, tc := range []struct {
		name string
		cfgs []Config
	}{
		{"designs", designs},
		{"nutch-icache", []Config{nutchConfig(t), nutchBase}},
		{"corunner", []Config{corunConfig(t, KindSeesaw), corunConfig(t, KindBaseline)}},
		{"memhog", []Config{memhogConfig(t, KindSeesaw), memhogConfig(t, KindVespa)}},
		{"faults", []Config{faultedConfig(t, KindSeesaw), faultedConfig(t, KindVespa)}},
		{"faults-checked", []Config{checked(KindSeesaw), checked(KindVespa), metered}},
	} {
		t.Run(tc.name, func(t *testing.T) { checkGroups(t, tc.cfgs, coldAll(t, tc.cfgs), lendAlways) })
	}
}

// TestStreamMismatchFails: a group member whose front end differs from
// the pass's (another seed, another profile whose generator state
// happens to be equal, or another memhog fraction) fails with a typed
// error before it runs a reference, and constructs nothing.
func TestStreamMismatchFails(t *testing.T) {
	profileOf := func(name string) workload.Profile {
		p, err := workload.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	seed := testConfig(t, KindSeesaw)
	seed.Seed++
	// omnet and xalanc have one thread each and equal region sizes, so at
	// reference 0 their generator states are equal.
	omnet, xalanc := testConfig(t, KindSeesaw), testConfig(t, KindSeesaw)
	omnet.WarmupRefs, xalanc.WarmupRefs = 0, 0
	omnet.Workload, xalanc.Workload = profileOf("omnet"), profileOf("xalanc")
	hog := testConfig(t, KindBaseline)
	hog.MemhogFraction = 0.6
	for _, tc := range []struct {
		name         string
		pass, victim Config
	}{
		{"seed", testConfig(t, KindSeesaw), seed},
		{"profile", omnet, xalanc},
		{"memhog", testConfig(t, KindSeesaw), hog},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := NewGroup(nil, tc.pass, tc.victim)
			if _, _, err := measureIn(context.Background(), tc.pass, g); err != nil {
				t.Fatal(err)
			}
			m := mustBuild(t, tc.victim)
			ctx := context.Background()
			if err := m.Warmup(ctx); err != nil {
				t.Fatal(err)
			}
			err := m.Measure(WithGroup(ctx, g))
			var mis *GroupMismatchError
			if !errors.As(err, &mis) {
				t.Fatalf("Measure in a group of another front end returned %v, want a *GroupMismatchError", err)
			}
			if m.Ref() != m.Config().WarmupRefs || m.be != nil {
				t.Errorf("a refused member left the machine at ref %d (boundary %d), with a back end %v", m.Ref(), m.Config().WarmupRefs, m.be != nil)
			}
		})
	}
}

// TestStreamKeyKeepsOSFields: the front end reads the OS fields of the
// warmup signature that the generator never reads. Machines that differ
// only in memhog, the promotion or splinter cadence, or the co-runner's
// slice length reach their warmup boundary with equal generator state,
// yet each has its own GroupKey, and in one group with the base each
// fails with a *GroupMismatchError.
func TestStreamKeyKeepsOSFields(t *testing.T) {
	base := corunConfig(t, KindSeesaw)
	var variants []Config
	for _, vary := range []func(*Config){
		func(c *Config) { c.MemhogFraction = 0.6 },
		func(c *Config) { c.PromoteScanEvery = 3_000 },
		func(c *Config) { c.SplinterEvery = 4_000 },
		func(c *Config) { c.CoRunSliceRefs = 900 },
	} {
		c := base
		vary(&c)
		variants = append(variants, c)
	}
	key, _ := base.GroupKey()
	want := warmMaster(t, base).fe.gen.State()
	g := NewGroup(nil, append([]Config{base}, variants...)...)
	if _, _, err := measureIn(context.Background(), base, g); err != nil {
		t.Fatal(err)
	}
	for i, cfg := range variants {
		if k, _ := cfg.GroupKey(); k == key {
			t.Errorf("variant %d: group key equals the base's", i)
		}
		if got := warmMaster(t, cfg).fe.gen.State(); !got.Equal(want) {
			t.Errorf("variant %d: generator state at the boundary differs from the base's", i)
		}
		var mis *GroupMismatchError
		if _, _, err := measureIn(context.Background(), cfg, g); !errors.As(err, &mis) {
			t.Errorf("variant %d: joining the base's group returned %v, want a *GroupMismatchError", i, err)
		}
	}
	if passes, answered := g.Counts(); passes != 1 || answered != 0 {
		t.Errorf("counts = %d passes, %d answered; want the base's pass, answering nobody", passes, answered)
	}
}

// TestGroupKey pins what a pass may share. Below the recording cap a
// cell's key is its front end's, shared with every back end; above it,
// without and with the I-cache, and for metrics and checker cells, whose
// hooks watch a live machine, the key is the timing key, shared only
// with timing siblings. A trace replay has no key.
func TestGroupKey(t *testing.T) {
	sized := func(refs int, icache bool) Config {
		c := testConfig(t, KindSeesaw)
		c.Refs, c.ICache = refs, icache
		return c
	}
	perRef := func(icache bool) int { return recordingBytes(sized(1, icache)) }
	under, underI := maxRecordingBytes/perRef(false), maxRecordingBytes/perRef(true)
	if under != 986_895 || underI != 508_400 {
		t.Fatalf("the cap falls at %d and %d references, want 986895 and 508400", under, underI)
	}
	traced := testConfig(t, KindSeesaw)
	traced.WarmupRefs, traced.Trace = 0, []trace.Record{{}}
	metered := testConfig(t, KindSeesaw)
	metered.Metrics = &metrics.Config{EpochRefs: 5_000}
	checked := testConfig(t, KindSeesaw)
	checked.CheckInvariants = true
	for _, tc := range []struct {
		name  string
		cfg   Config
		keyed bool
		// frontEnd: the key is shared with another design's cell (a
		// front-end key), not only with another clock's (a timing key).
		frontEnd bool
	}{
		{"under", sized(under, false), true, true},
		{"over", sized(under+1, false), true, false},
		{"under-icache", sized(underI, true), true, true},
		{"over-icache", sized(underI+1, true), true, false},
		{"trace", traced, false, false},
		{"metrics", metered, true, false},
		{"checker", checked, true, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			key, ok := tc.cfg.GroupKey()
			if ok != tc.keyed {
				t.Fatalf("keyed = %v, want %v", ok, tc.keyed)
			}
			if !ok {
				return
			}
			other, clock := tc.cfg, tc.cfg
			other.CacheKind = KindBaseline
			clock.FreqGHz = 4
			if k, _ := clock.GroupKey(); k != key {
				t.Error("a timing sibling has another key")
			}
			if k, _ := other.GroupKey(); (k == key) != tc.frontEnd {
				t.Errorf("another design shares the key %v, want %v", k == key, tc.frontEnd)
			}
			plain := tc.cfg
			plain.Metrics, plain.CheckInvariants = nil, false
			if k, _ := plain.GroupKey(); k == key && (tc.cfg.Metrics != nil || tc.cfg.CheckInvariants) {
				t.Error("the cell without metrics or the checker shares the key")
			}
		})
	}
}

// gate is a context whose Err, counted across goroutines, lets polls
// before the nth through; the nth closes reached, waits for release and
// answers with fail's outcome, as does every later poll (nil fail lets
// them through). If hold is set, poll hold closes holding and waits
// until poll n arrives, then goes on. Measure polls Err once per epoch.
type gate struct {
	context.Context
	n, hold int
	polls   atomic.Int32
	holding chan struct{}
	reached chan struct{}
	release chan struct{}
	fail    func() error
}

func newGate(n int, fail func() error) *gate {
	return &gate{Context: context.Background(), n: n, holding: make(chan struct{}),
		reached: make(chan struct{}), release: make(chan struct{}), fail: fail}
}

func (g *gate) Err() error {
	switch p := int(g.polls.Add(1)); {
	case p == g.hold:
		close(g.holding)
		<-g.reached
		return nil
	case p < g.n:
		return nil
	case p == g.n:
		close(g.reached)
		<-g.release
	}
	if g.fail == nil {
		return nil
	}
	return g.fail()
}

// epochs counts the epochs of cfg's measured phase: the polls its pass
// makes while recording, and each replay makes.
func epochs(cfg Config) int {
	n := 0
	for g, end := cfg.WarmupRefs, cfg.WarmupRefs+cfg.Refs; g < end; n++ {
		g += min(epochRefs-g%epochRefs, end-g)
	}
	return n
}

// TestStreamFollowerBehindRecorder: a member that arrives while the pass
// is two epochs into its recording does not wait for it: it measures
// live and reports what a solo run does, as does the member running the
// pass, whose report for the latecomer is never taken.
func TestStreamFollowerBehindRecorder(t *testing.T) {
	rcfg, fcfg := nutchConfig(t), nutchConfig(t)
	fcfg.CacheKind = KindBaseline
	g := NewGroup(nil, rcfg, fcfg)
	gt := newGate(3, nil)
	var rep []byte
	var err error
	done := make(chan struct{})
	go func() {
		defer close(done)
		_, rep, err = measureIn(gt, rcfg, g)
	}()
	<-gt.reached
	m, late, lerr := measureIn(context.Background(), fcfg, g)
	close(gt.release)
	<-done
	if err != nil || lerr != nil {
		t.Fatalf("pass: %v, latecomer: %v", err, lerr)
	}
	if m.be == nil {
		t.Error("the latecomer took a report instead of measuring live")
	}
	for i, got := range [][]byte{rep, late} {
		cfg := []Config{rcfg, fcfg}[i]
		if want := coldJSON(t, cfg); string(got) != string(want) {
			t.Errorf("member %d (%s): report differs from a solo run", i, cfg.CacheKind)
		}
	}
	if passes, answered := g.Counts(); passes != 1 || answered != 0 {
		t.Errorf("counts = %d passes, %d answered; want 1 and 0", passes, answered)
	}
}

// waitGoroutines polls until at most want goroutines run, failing after
// a generous deadline.
func waitGoroutines(t *testing.T, want int) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > want; {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("leaked goroutines: %d running, want <= %d\n%s", runtime.NumGoroutine(), want, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestStreamRecorderFailure: a pass that is canceled, times out or
// panics, while recording its front end or inside a replay lent to
// another goroutine, answers nobody: every other member measures live
// and reports what a solo run does, and no lent goroutine outlives the
// pass. The gate fails every poll from the failing one on, so in the
// lent cases the pass's own replay fails too.
func TestStreamRecorderFailure(t *testing.T) {
	rcfg := testConfig(t, KindSeesaw)
	cfgs := []Config{testConfig(t, KindBaseline), testConfig(t, KindVespa)}
	cold := coldAll(t, cfgs)
	recorded := epochs(rcfg)
	for _, where := range []string{"", "lent-"} {
		for _, tc := range []struct {
			name string
			fail func() error
		}{
			{"canceled", func() error { return context.Canceled }},
			{"timeout", func() error { return context.DeadlineExceeded }},
			{"panic", func() error { panic("pass fault") }},
		} {
			t.Run(where+tc.name, func(t *testing.T) {
				before := runtime.NumGoroutine()
				// While recording, the third poll fails. In a replay, the
				// pass holds its own first replay epoch and lends one back
				// end, whose first poll fails.
				gt := newGate(3, tc.fail)
				lend := lendNever
				if where == "lent-" {
					gt = newGate(recorded+2, tc.fail)
					gt.hold = recorded + 1
					var lent atomic.Bool
					lend = func(run func()) bool {
						if lent.Swap(true) {
							return false
						}
						go func() { <-gt.holding; run() }()
						return true
					}
				}
				close(gt.release)
				g := NewGroup(lend, append([]Config{rcfg}, cfgs...)...)
				err := func() (err error) {
					defer func() {
						if r := recover(); r != nil {
							err = fmt.Errorf("the pass panicked: %v", r)
						}
					}()
					_, _, err = measureIn(gt, rcfg, g)
					return err
				}()
				if err == nil {
					t.Fatal("the failing pass finished")
				}
				for i, cfg := range cfgs {
					m, got, err := measureIn(context.Background(), cfg, g)
					if err != nil {
						t.Fatalf("member %d: %v", i, err)
					}
					if m.be == nil {
						t.Errorf("member %d took a report from a failed pass", i)
					}
					if string(got) != string(cold[i]) {
						t.Errorf("member %d (%s): report differs from a solo run", i, cfg.CacheKind)
					}
				}
				if passes, answered := g.Counts(); passes != 0 || answered != 0 {
					t.Errorf("counts = %d passes, %d answered; want none", passes, answered)
				}
				waitGoroutines(t, before)
			})
		}
	}
}

// TestPassFailureStaysInItsBackEnd: a failure that belongs to one cell
// fails only that cell. Siblings that Validate rejects, one of another
// geometry and one of another clock, never join the pass, which answers
// every valid member; their Builds fail as they do alone. And a panic
// replaying another cell's back end, on the pass's goroutine or on a
// lent one, drops only that back end: the pass keeps its own report,
// the dropped back end's member measures live, and the remaining back
// end is answered, each equal to its solo run, with no lent goroutine
// left behind.
func TestPassFailureStaysInItsBackEnd(t *testing.T) {
	ctx := context.Background()
	t.Run("invalid-siblings", func(t *testing.T) {
		pass, other := testConfig(t, KindSeesaw), testConfig(t, KindVespa)
		geometry, clock := pass, pass
		geometry.L1Size, geometry.L1Ways = 48<<10, 0
		clock.FreqGHz = -1
		for _, c := range []Config{geometry, clock} {
			if c.Validate() == nil {
				t.Fatalf("the %dKB %.2f GHz sibling validates", c.L1Size>>10, c.FreqGHz)
			}
		}
		cold := coldAll(t, []Config{pass, other})
		for _, l := range lenders {
			t.Run(l.name, func(t *testing.T) {
				g := NewGroup(l.lend, pass, geometry, clock, other)
				for i, c := range []Config{pass, other} {
					_, got, err := measureIn(ctx, c, g)
					if err != nil {
						t.Fatalf("member %d: %v", i, err)
					}
					if string(got) != string(cold[i]) {
						t.Errorf("member %d (%s): report differs from a solo run", i, c.CacheKind)
					}
				}
				for _, c := range []Config{geometry, clock} {
					if _, _, err := measureIn(ctx, c, g); err == nil || err.Error() != c.Validate().Error() {
						t.Errorf("the %dKB %.2f GHz sibling returned %v, want its Validate error", c.L1Size>>10, c.FreqGHz, err)
					}
				}
				if passes, answered := g.Counts(); passes != 1 || answered != 1 {
					t.Errorf("counts = %d passes, %d answered; want 1 and 1", passes, answered)
				}
			})
		}
	})
	rcfg := testConfig(t, KindSeesaw)
	cfgs := []Config{rcfg, testConfig(t, KindBaseline), testConfig(t, KindVespa)}
	cold := coldAll(t, cfgs)
	e := epochs(rcfg)
	for _, where := range []string{"inline", "lent"} {
		t.Run(where+"-panic", func(t *testing.T) {
			before := runtime.NumGoroutine()
			var panicked atomic.Bool
			panicOnce := func() error {
				if !panicked.Swap(true) {
					panic("back-end fault")
				}
				return nil
			}
			// Inline, the pass records (e polls), replays its own back end
			// (e more) and panics at the first poll of the baseline's. Lent,
			// the pass holds its own first replay epoch and lends the
			// baseline's back end, whose first poll panics.
			gt := newGate(2*e+1, panicOnce)
			lend := lendNever
			if where == "lent" {
				gt = newGate(e+2, panicOnce)
				gt.hold = e + 1
				var lent atomic.Bool
				lend = func(run func()) bool {
					if lent.Swap(true) {
						return false
					}
					go func() { <-gt.holding; run() }()
					return true
				}
			}
			close(gt.release)
			g := NewGroup(lend, cfgs...)
			_, got, err := measureIn(gt, rcfg, g)
			if err != nil {
				t.Fatalf("the pass failed: %v", err)
			}
			if !panicked.Load() {
				t.Fatal("no replay panicked")
			}
			if string(got) != string(cold[0]) {
				t.Error("the pass's own report differs from a solo run")
			}
			for i, c := range cfgs[1:] {
				m, got, err := measureIn(ctx, c, g)
				if err != nil {
					t.Fatalf("member %d: %v", i+1, err)
				}
				if live := m.be != nil; live != (i == 0) {
					t.Errorf("member %d (%s) measured live %v, want %v", i+1, c.CacheKind, live, i == 0)
				}
				if string(got) != string(cold[i+1]) {
					t.Errorf("member %d (%s): report differs from a solo run", i+1, c.CacheKind)
				}
			}
			if passes, answered := g.Counts(); passes != 1 || answered != 1 {
				t.Errorf("counts = %d passes, %d answered; want 1 and 1", passes, answered)
			}
			waitGoroutines(t, before)
		})
	}
}
