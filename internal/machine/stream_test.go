package machine

import (
	"bytes"
	"context"
	"errors"
	"testing"

	"seesaw/internal/faults"
	"seesaw/internal/workload"
)

// replayText runs cfg's machine to the end of its measured phase with s
// on Measure's context and renders its report.
func replayText(t *testing.T, cfg Config, s *Stream) []byte {
	t.Helper()
	m := mustBuild(t, cfg)
	ctx := context.Background()
	if err := m.Warmup(ctx); err != nil {
		t.Fatal(err)
	}
	if err := m.Measure(WithStream(ctx, s)); err != nil {
		t.Fatal(err)
	}
	if m.stream != s {
		t.Fatal("Measure did not attach the stream on its context")
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

// TestReplayEqualsCold is the stream contract: cells that share one
// recorded stream, the first recording it from its own generator and
// the rest replaying it, report byte for byte what cold runs that
// generate live report. Each case shares one stream across its cells:
// every registered design; a four-thread workload with the I-cache,
// text superpages, memhog and promote/splinter cadences; a co-runner
// whose context switches draw from their own generators mid-phase; and
// a fault schedule under the invariant checker.
func TestReplayEqualsCold(t *testing.T) {
	var designs []Config
	for _, name := range DesignNames() {
		designs = append(designs, testConfig(t, CacheKind(name)))
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
	faulted := func(kind CacheKind) Config {
		c := testConfig(t, kind)
		c.CheckInvariants = true
		c.Faults = &faults.Config{Schedule: "mix", Every: 3_000}
		return c
	}
	for _, tc := range []struct {
		name string
		cfgs []Config
	}{
		{"designs", designs},
		{"nutch-icache", []Config{nutchConfig(t), nutchBase}},
		{"corunner", []Config{corun(KindSeesaw), corun(KindBaseline)}},
		{"faults-checked", []Config{faulted(KindSeesaw), faulted(KindVespa)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := NewStream()
			for _, cfg := range tc.cfgs {
				want := reportText(t, mustBuild(t, cfg))
				if got := replayText(t, cfg, s); !bytes.Equal(want, got) {
					t.Errorf("%s: replayed report differs from the cold run:\ncold:\n%s\nreplayed:\n%s", cfg.CacheKind, want, got)
				}
			}
			if rec, n := s.Counts(); !rec || n != len(tc.cfgs) {
				t.Errorf("stream counts = %v/%d, want recorded once and replayed by all %d cells", rec, n, len(tc.cfgs))
			}
		})
	}
}

// TestStreamMismatchFails: a stream recorded from another generator
// state, or from another profile whose generator state happens to be
// equal, fails the cell with a typed error before it runs a reference.
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
	for _, tc := range []struct {
		name             string
		recorder, victim Config
	}{
		{"seed", testConfig(t, KindSeesaw), seed},
		{"profile", omnet, xalanc},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := NewStream()
			replayText(t, tc.recorder, s)
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

// TestStreamKeyIgnoresOSFields: the stream key leaves out the warmup
// signature fields the generator never reads. Machines that differ
// only in memhog, the promotion or splinter cadence, or the co-runner's
// slice length share a key and reach their warmup boundary with equal
// generator state, so one stream serves all of them, and each replayed
// report equals its cold run.
func TestStreamKeyIgnoresOSFields(t *testing.T) {
	co, err := workload.ByName("mcf")
	if err != nil {
		t.Fatal(err)
	}
	base := testConfig(t, KindSeesaw)
	base.CoRunner = &co
	base.ContextSwitchEvery = 8_000
	base.CoRunSliceRefs = 500
	variants := []Config{base}
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
	want := warmMaster(t, base).gen.State()
	s := NewStream()
	for i, cfg := range variants {
		if k, _ := cfg.StreamKey(); k != key {
			t.Errorf("variant %d: stream key %+v, want %+v", i, k, key)
		}
		if cfg.WarmupSignature() == base.WarmupSignature() && i > 0 {
			t.Errorf("variant %d: warmup signature should differ from the base's", i)
		}
		if got := warmMaster(t, cfg).gen.State(); !got.Equal(want) {
			t.Errorf("variant %d: generator state at the boundary differs from the base's", i)
		}
		if cold, replayed := reportText(t, mustBuild(t, cfg)), replayText(t, cfg, s); !bytes.Equal(cold, replayed) {
			t.Errorf("variant %d: replayed report differs from the cold run:\ncold:\n%s\nreplayed:\n%s", i, cold, replayed)
		}
	}
	if rec, n := s.Counts(); !rec || n != len(variants) {
		t.Errorf("stream counts = %v/%d, want recorded once and replayed by all %d cells", rec, n, len(variants))
	}
}
