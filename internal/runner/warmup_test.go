package runner

import (
	"bytes"
	"testing"

	"seesaw/internal/sim"
)

// TestSharedWarmupMatchesCold: the same warmed cells submitted to a
// shared-warmup pool and run cold through an ordinary pool produce
// byte-identical report text. The cells span all three cache designs on
// one warmup signature (one shared master), a second seed (a second
// master), and a WarmupRefs == 0 cell that must take the plain
// sim.RunContext path untouched.
func TestSharedWarmupMatchesCold(t *testing.T) {
	warm := func(wl string, seed int64, kind sim.CacheKind) sim.Config {
		c := testConfig(t, wl, seed)
		c.CacheKind = kind
		c.WarmupRefs = 20_000
		c.Refs = 3_000
		return c
	}
	cfgs := []sim.Config{
		warm("redis", 42, sim.KindBaseline),
		warm("redis", 42, sim.KindSeesaw),
		warm("redis", 42, sim.KindPIPT),
		warm("redis", 7, sim.KindSeesaw),
		testConfig(t, "mcf", 42), // WarmupRefs == 0: passthrough path
	}
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
	cold := collect(New(1))
	shared := collect(NewWithRunContext(4, sharedWarmup()))
	for i := range cold {
		if !bytes.Equal(cold[i], shared[i]) {
			t.Errorf("cell %d: shared-warmup report differs from cold run\n--- cold ---\n%s--- shared ---\n%s",
				i, cold[i], shared[i])
		}
	}
}

// TestSharedWarmupReusesMaster: cells agreeing on a warmup signature pay
// for one warmup, not one per cell — the pool's run count still shows
// every cell executed (forks are real runs, not cache hits).
func TestSharedWarmupReusesMaster(t *testing.T) {
	p := NewWithRunContext(1, sharedWarmup())
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

// sharedWarmup is the in-memory shared-warmup cell function: the ladder
// with no store.
func sharedWarmup() RunFunc {
	run, _ := LadderRun(nil, 0)
	return run
}
