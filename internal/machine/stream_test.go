package machine

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"seesaw/internal/coherence"
	"seesaw/internal/faults"
	"seesaw/internal/metrics"
	"seesaw/internal/tft"
	"seesaw/internal/workload"
)

// measureWith runs cfg's machine to the end of its measured phase with
// s on Measure's context (ctx, if given, carries Measure's deadline or
// cancellation) and returns the machine and its report's JSON.
func measureWith(ctx context.Context, cfg Config, s *Stream) (*Machine, []byte, error) {
	m, err := Build(cfg)
	if err != nil {
		return nil, nil, err
	}
	if err := m.Warmup(context.Background()); err != nil {
		return nil, nil, err
	}
	if err := m.Measure(WithStream(ctx, s)); err != nil {
		return m, nil, err
	}
	r, err := m.Report()
	if err != nil {
		return m, nil, err
	}
	b, err := json.Marshal(r)
	return m, b, err
}

// checkShared runs cfgs one after another as a pool's workers would,
// each front-end group (equal StreamKey) sharing one stream, and
// requires every report to be JSON-equal to the cell's cold solo run.
// Every group records its stream once and replays it into each member;
// a cell without a key (metrics, the checker) never attaches one.
func checkShared(t *testing.T, cfgs []Config) {
	t.Helper()
	streams := map[StreamKey]*Stream{}
	members := map[StreamKey]int{}
	for i, cfg := range cfgs {
		key, keyed := cfg.StreamKey()
		s := streams[key]
		if s == nil {
			s = NewStream()
			if keyed {
				streams[key] = s
			}
		}
		m, got, err := measureWith(context.Background(), cfg, s)
		if err != nil {
			t.Fatalf("cell %d: %v", i, err)
		}
		if attached := m.stream == s; attached != keyed {
			t.Errorf("cell %d (%s): attached the stream %v, want %v", i, cfg.CacheKind, attached, keyed)
		}
		members[key]++
		if want := coldJSON(t, cfg); string(got) != string(want) {
			t.Errorf("cell %d (%s %s, %dKB): shared report differs from a solo run:\nshared: %s\nsolo:   %s",
				i, cfg.CacheKind, cfg.CPUKind, cfg.L1Size>>10, got, want)
		}
	}
	for key, s := range streams {
		if rec, n := s.Counts(); !rec || n != members[key] {
			t.Errorf("stream counts = %v/%d, want recorded once and replayed by all %d members", rec, n, members[key])
		}
	}
}

// TestReplayEqualsCold is the front-end contract: cells that share one
// recorded front end, the first recording it and every member replaying
// it into its own back end, report byte for byte what solo runs report.
// The cases: every registered design on both cores, with L1 sizes, TFT
// geometries, snoopy coherence, prefetch and way prediction varied; a
// four-thread workload with the I-cache and text superpages; a
// co-runner whose context switches fire mid-phase; heavier memhog with
// faster promotion and splinter cadences; a fault schedule; and, under
// the invariant checker and metrics, cells that never share.
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
	co, err := workload.ByName("mcf")
	if err != nil {
		t.Fatal(err)
	}
	corun := func(kind CacheKind) Config {
		c := testConfig(t, kind)
		c.CoRunner = &co
		c.ContextSwitchEvery = 8_000
		c.CoRunSliceRefs = 500
		return c
	}
	memhog := func(kind CacheKind) Config {
		c := testConfig(t, kind)
		c.MemhogFraction = 0.7
		c.PromoteScanEvery = 2_000
		c.SplinterEvery = 3_000
		return c
	}
	faulted := func(kind CacheKind) Config {
		c := testConfig(t, kind)
		c.Faults = &faults.Config{Schedule: "mix", Every: 3_000}
		return c
	}
	checked := func(kind CacheKind) Config {
		c := faulted(kind)
		c.CheckInvariants = true
		return c
	}
	metered := faulted(KindSeesaw)
	metered.Metrics = &metrics.Config{EpochRefs: 5_000}
	for _, tc := range []struct {
		name string
		cfgs []Config
	}{
		{"designs", designs},
		{"nutch-icache", []Config{nutchConfig(t), nutchBase}},
		{"corunner", []Config{corun(KindSeesaw), corun(KindBaseline)}},
		{"memhog", []Config{memhog(KindSeesaw), memhog(KindVespa)}},
		{"faults", []Config{faulted(KindSeesaw), faulted(KindVespa)}},
		{"faults-checked", []Config{checked(KindSeesaw), checked(KindVespa), metered}},
	} {
		t.Run(tc.name, func(t *testing.T) { checkShared(t, tc.cfgs) })
	}
}

// TestStreamMismatchFails: a recording of another front end — another
// seed, another profile whose generator state happens to be equal, or
// another memhog fraction — fails the cell with a typed error before it
// runs a reference.
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
		name             string
		recorder, victim Config
	}{
		{"seed", testConfig(t, KindSeesaw), seed},
		{"profile", omnet, xalanc},
		{"memhog", testConfig(t, KindSeesaw), hog},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := NewStream()
			if _, _, err := measureWith(context.Background(), tc.recorder, s); err != nil {
				t.Fatal(err)
			}
			m := mustBuild(t, tc.victim)
			ctx := context.Background()
			if err := m.Warmup(ctx); err != nil {
				t.Fatal(err)
			}
			err := m.Measure(WithStream(ctx, s))
			var mis *StreamMismatchError
			if !errors.As(err, &mis) {
				t.Fatalf("Measure with a foreign stream returned %v, want a *StreamMismatchError", err)
			}
			if m.Ref() != m.Config().WarmupRefs || m.stream != nil {
				t.Errorf("a refused stream left the machine at ref %d (boundary %d), attached %v", m.Ref(), m.Config().WarmupRefs, m.stream != nil)
			}
		})
	}
}

// TestStreamKeyKeepsOSFields: the front end reads the OS fields of the
// warmup signature that the generator never reads. Machines that differ
// only in memhog, the promotion or splinter cadence, or the co-runner's
// slice length reach their warmup boundary with equal generator state,
// yet each has its own front-end key, and a recording of the base's
// front end fails every one of them with a *StreamMismatchError.
func TestStreamKeyKeepsOSFields(t *testing.T) {
	co, err := workload.ByName("mcf")
	if err != nil {
		t.Fatal(err)
	}
	base := testConfig(t, KindSeesaw)
	base.CoRunner = &co
	base.ContextSwitchEvery = 8_000
	base.CoRunSliceRefs = 500
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
	key, _ := base.StreamKey()
	want := warmMaster(t, base).fe.gen.State()
	s := NewStream()
	if _, _, err := measureWith(context.Background(), base, s); err != nil {
		t.Fatal(err)
	}
	for i, cfg := range variants {
		if k, _ := cfg.StreamKey(); k == key {
			t.Errorf("variant %d: front-end key equals the base's", i)
		}
		if got := warmMaster(t, cfg).fe.gen.State(); !got.Equal(want) {
			t.Errorf("variant %d: generator state at the boundary differs from the base's", i)
		}
		var mis *StreamMismatchError
		if _, _, err := measureWith(context.Background(), cfg, s); !errors.As(err, &mis) {
			t.Errorf("variant %d: replaying the base's recording returned %v, want a *StreamMismatchError", i, err)
		}
	}
	if rec, n := s.Counts(); !rec || n != 1 {
		t.Errorf("stream counts = %v/%d, want recorded and replayed by the base alone", rec, n)
	}
}

// gate is a context whose Err pauses before the machine's nth measured
// epoch: it signals reached, waits for release, and then answers with
// fail's outcome (nil lets the machine go on). Measure polls Err once
// per epoch, so a gated recorder stops with its first n-1 epochs
// published.
type gate struct {
	context.Context
	n       int
	polls   int
	reached chan struct{}
	release chan struct{}
	fail    func() error
}

func newGate(n int, fail func() error) *gate {
	return &gate{Context: context.Background(), n: n, reached: make(chan struct{}), release: make(chan struct{}), fail: fail}
}

func (g *gate) Err() error {
	if g.polls++; g.polls != g.n {
		return nil
	}
	close(g.reached)
	<-g.release
	if g.fail == nil {
		return nil
	}
	return g.fail()
}

// awaitReplays blocks until n machines have attached to s.
func awaitReplays(s *Stream, n int) {
	for {
		if _, got := s.Counts(); got >= n {
			return
		}
		runtime.Gosched()
	}
}

// TestStreamFollowerBehindRecorder: a member that attaches while the
// recording is two epochs in follows behind the recorder and reports
// what a solo run does, as does the recorder.
func TestStreamFollowerBehindRecorder(t *testing.T) {
	rcfg, fcfg := nutchConfig(t), nutchConfig(t)
	fcfg.CacheKind = KindBaseline
	s := NewStream()
	g := newGate(3, nil)
	var wg sync.WaitGroup
	var rep [2][]byte
	var errs [2]error
	wg.Add(2)
	go func() {
		defer wg.Done()
		_, rep[0], errs[0] = measureWith(g, rcfg, s)
	}()
	<-g.reached
	go func() {
		defer wg.Done()
		_, rep[1], errs[1] = measureWith(context.Background(), fcfg, s)
	}()
	awaitReplays(s, 2)
	close(g.release)
	wg.Wait()
	for i, cfg := range []Config{rcfg, fcfg} {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if want := coldJSON(t, cfg); string(rep[i]) != string(want) {
			t.Errorf("member %d (%s): report differs from a solo run", i, cfg.CacheKind)
		}
	}
	if rec, n := s.Counts(); !rec || n != 2 {
		t.Errorf("stream counts = %v/%d, want recorded once and replayed by both", rec, n)
	}
}

// TestStreamRecorderFailure: a recorder that is canceled, times out or
// panics with two epochs published abandons the recording. The member
// following behind it catches its own front end up and goes on live,
// and a member that arrives afterwards measures live from the start;
// both report what solo runs do.
func TestStreamRecorderFailure(t *testing.T) {
	for _, tc := range []struct {
		name string
		fail func() error
	}{
		{"canceled", func() error { return context.Canceled }},
		{"timeout", func() error { return context.DeadlineExceeded }},
		{"panic", func() error { panic("recorder fault") }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rcfg := testConfig(t, KindSeesaw)
			cfgs := []Config{testConfig(t, KindBaseline), testConfig(t, KindVespa)}
			s := NewStream()
			g := newGate(3, tc.fail)
			done := make(chan error, 1)
			go func() {
				defer func() {
					if r := recover(); r != nil {
						done <- fmt.Errorf("recorder panicked: %v", r)
					}
				}()
				_, _, err := measureWith(g, rcfg, s)
				done <- err
			}()
			<-g.reached
			var follower []byte
			var ferr error
			followed := make(chan struct{})
			go func() {
				defer close(followed)
				_, follower, ferr = measureWith(context.Background(), cfgs[0], s)
			}()
			awaitReplays(s, 2)
			close(g.release)
			if err := <-done; err == nil {
				t.Fatal("the gated recorder finished")
			}
			<-followed
			m, late, err := measureWith(context.Background(), cfgs[1], s)
			if ferr != nil || err != nil {
				t.Fatalf("follower: %v, late member: %v", ferr, err)
			}
			if m.stream != nil {
				t.Error("a member arriving after the recording was abandoned attached it")
			}
			for i, got := range [][]byte{follower, late} {
				if want := coldJSON(t, cfgs[i]); string(got) != string(want) {
					t.Errorf("member %d (%s): report differs from a solo run", i, cfgs[i].CacheKind)
				}
			}
			if rec, n := s.Counts(); rec || n != 2 {
				t.Errorf("stream counts = %v/%d, want unrecorded, attached by the recorder and its follower", rec, n)
			}
		})
	}
}
