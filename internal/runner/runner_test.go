package runner

import (
	"sync"
	"testing"

	"seesaw/internal/sim"
	"seesaw/internal/trace"
	"seesaw/internal/workload"
)

func testConfig(t testing.TB, wl string, seed int64) sim.Config {
	t.Helper()
	p, err := workload.ByName(wl)
	if err != nil {
		t.Fatal(err)
	}
	return sim.Config{
		Workload: p, Seed: seed, Refs: 5_000,
		CacheKind: sim.KindSeesaw, L1Size: 32 << 10,
		FreqGHz: 1.33, CPUKind: "ooo", MemBytes: 256 << 20,
	}
}

// TestParallelMatchesSerial: the same cells submitted to a many-worker
// pool and a one-worker pool produce identical reports, awaited in
// submission order.
func TestParallelMatchesSerial(t *testing.T) {
	cfgs := []sim.Config{
		testConfig(t, "redis", 42),
		testConfig(t, "mcf", 42),
		testConfig(t, "nutch", 7),
		testConfig(t, "olio", 0),
	}
	cfgs[1].CacheKind = sim.KindBaseline

	collect := func(p *Pool) []*sim.Report {
		futs := make([]*Future, len(cfgs))
		for i, c := range cfgs {
			futs[i] = p.Submit(c)
		}
		out := make([]*sim.Report, len(futs))
		for i, f := range futs {
			r, err := f.Wait()
			if err != nil {
				t.Fatal(err)
			}
			out[i] = r
		}
		return out
	}
	serial := collect(New(1))
	parallel := collect(New(8))
	for i := range serial {
		s, p := serial[i], parallel[i]
		if s.Cycles != p.Cycles || s.L1Misses != p.L1Misses || s.EnergyTotalNJ != p.EnergyTotalNJ {
			t.Errorf("cell %d: serial %d/%d/%.3f vs parallel %d/%d/%.3f",
				i, s.Cycles, s.L1Misses, s.EnergyTotalNJ, p.Cycles, p.L1Misses, p.EnergyTotalNJ)
		}
	}
}

// TestCacheHit: a resubmitted identical cell runs once and both futures
// share the report.
func TestCacheHit(t *testing.T) {
	p := New(2)
	cfg := testConfig(t, "redis", 42)
	a, err := p.Submit(cfg).Wait()
	if err != nil {
		t.Fatal(err)
	}
	b, err := p.Submit(cfg).Wait()
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("identical cells must share one report")
	}
	st := p.Stats()
	if st.Submitted != 2 || st.Runs != 1 || st.CacheHits != 1 {
		t.Errorf("stats = %+v, want 2 submitted / 1 run / 1 hit", st)
	}
}

// TestCacheKeyDiscriminates: different seeds and designs are different
// cells.
func TestCacheKeyDiscriminates(t *testing.T) {
	p := New(2)
	a := p.Submit(testConfig(t, "redis", 42))
	b := p.Submit(testConfig(t, "redis", 43))
	c := testConfig(t, "redis", 42)
	c.CacheKind = sim.KindBaseline
	d := p.Submit(c)
	for _, f := range []*Future{a, b, d} {
		if _, err := f.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	if st := p.Stats(); st.Runs != 3 || st.CacheHits != 0 {
		t.Errorf("stats = %+v, want 3 distinct runs", st)
	}
}

// TestTraceCellsNotCached: configs replaying an explicit trace bypass
// the cache (the trace contents are not part of the key).
func TestTraceCellsNotCached(t *testing.T) {
	p := New(2)
	cfg := testConfig(t, "redis", 42)
	g := workload.NewGenerator(cfg.Workload, cfg.Seed)
	g.BindDefault()
	recs := make([]trace.Record, 1000)
	for i := range recs {
		recs[i] = g.Next(0)
	}
	cfg.Trace = recs
	a := p.Submit(cfg)
	b := p.Submit(cfg)
	if _, err := a.Wait(); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Wait(); err != nil {
		t.Fatal(err)
	}
	if st := p.Stats(); st.Runs != 2 || st.CacheHits != 0 {
		t.Errorf("stats = %+v, want 2 uncached runs", st)
	}
}

// TestGoTasks: arbitrary cells share the pool's workers and reduce in
// submission order.
func TestGoTasks(t *testing.T) {
	p := New(4)
	tasks := make([]*Task[int], 16)
	for i := range tasks {
		i := i
		tasks[i] = Go(p, func() (int, error) { return i * i, nil })
	}
	for i, tk := range tasks {
		v, err := tk.Wait()
		if err != nil {
			t.Fatal(err)
		}
		if v != i*i {
			t.Errorf("task %d = %d, want %d", i, v, i*i)
		}
	}
}

// TestConcurrentSubmit hammers one pool from many goroutines — the race
// gate for the cache and counters (run under -race).
func TestConcurrentSubmit(t *testing.T) {
	p := New(4)
	cfg := testConfig(t, "redis", 42)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < 4; k++ {
				c := cfg
				c.Seed = int64(1 + (g+k)%3) // a few distinct cells, many dupes
				if _, err := p.Submit(c).Wait(); err != nil {
					t.Error(err)
				}
			}
		}(g)
	}
	wg.Wait()
	st := p.Stats()
	if st.Runs != 3 {
		t.Errorf("runs = %d, want 3 distinct cells", st.Runs)
	}
	if st.Submitted != 32 || st.CacheHits != 29 {
		t.Errorf("stats = %+v, want 32 submitted / 29 hits", st)
	}
}
