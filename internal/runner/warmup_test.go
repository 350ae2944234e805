package runner

import (
	"bytes"
	"testing"

	"seesaw/internal/sim"
)

// TestSharedWarmupMatchesCold: the same warmed cells submitted to a
// New pool, which forks every cell from a shared warmed master, and run
// cold through sim.RunContext produce byte-identical report text. The
// cells span every registered design on one warmup signature (one
// shared master), a second seed (a second master), and a WarmupRefs ==
// 0 cell that must take the plain sim.RunContext path untouched. The
// warmup runs on memhog-fragmented memory and crosses the promote and
// splinter cadences several times, so the master carries promoted and
// splintered mappings into every fork.
func TestSharedWarmupMatchesCold(t *testing.T) {
	warm := func(wl string, seed int64, kind sim.CacheKind) sim.Config {
		c := testConfig(t, wl, seed)
		c.CacheKind = kind
		c.WarmupRefs = 20_000
		c.Refs = 3_000
		c.MemhogFraction = 0.5
		c.PromoteScanEvery = 6_000
		c.SplinterEvery = 7_000
		return c
	}
	var cfgs []sim.Config
	for _, d := range sim.DesignNames() {
		cfgs = append(cfgs, warm("redis", 42, sim.CacheKind(d)))
	}
	cfgs = append(cfgs,
		warm("redis", 7, sim.KindSeesaw),
		testConfig(t, "mcf", 42), // WarmupRefs == 0: passthrough path
	)
	collect := func(p *Pool) [][]byte {
		futs := make([]*Future, len(cfgs))
		for i, c := range cfgs {
			futs[i] = p.Submit(c)
		}
		out := make([][]byte, len(futs))
		for i, f := range futs {
			r, err := f.Wait()
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := r.WriteText(&buf); err != nil {
				t.Fatal(err)
			}
			out[i] = buf.Bytes()
		}
		return out
	}
	cold := collect(NewWithRunContext(1, sim.RunContext))
	shared := collect(New(4))
	for i := range cold {
		if !bytes.Equal(cold[i], shared[i]) {
			t.Errorf("cell %d (%s): shared-warmup report differs from cold run\n--- cold ---\n%s--- shared ---\n%s",
				i, cfgs[i].CacheKind, cold[i], shared[i])
		}
	}
}

// TestSharedWarmupReusesMaster: cells agreeing on a warmup signature pay
// for one warmup, not one per cell — the pool's run count still shows
// every cell executed (forks are real runs, not cache hits).
func TestSharedWarmupReusesMaster(t *testing.T) {
	p := New(1)
	var futs []*Future
	for _, kind := range []sim.CacheKind{sim.KindBaseline, sim.KindSeesaw, sim.KindPIPT} {
		c := testConfig(t, "redis", 42)
		c.CacheKind = kind
		c.WarmupRefs = 10_000
		c.Refs = 2_000
		futs = append(futs, p.Submit(c))
	}
	for _, f := range futs {
		if _, err := f.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	if s := p.Stats(); s.Runs != 3 {
		t.Errorf("Runs = %d, want 3 (every fork is a run)", s.Runs)
	}
}
