package runner

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"sync"
	"testing"

	"seesaw/internal/coherence"
	"seesaw/internal/machine"
	"seesaw/internal/sim"
)

// reportBytes renders a report as text.
func reportBytes(t *testing.T, r *sim.Report) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := r.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// streamGrid is three front-end groups of three designs each,
// interleaved, plus a singleton after the second design. The first
// group is warmed, so its pass forks a LadderRun master.
func streamGrid(t *testing.T) []sim.Config {
	kinds := []sim.CacheKind{sim.KindBaseline, sim.KindSeesaw, sim.KindVespa}
	groups := make([][]sim.Config, 3)
	for k, kind := range kinds {
		warm := testConfig(t, "redis", 42)
		warm.WarmupRefs = 10_000
		warm.MemhogFraction = 0.3
		warm.PromoteScanEvery = 4_000
		icache := testConfig(t, "nutch", 7)
		icache.ICache = true
		groups[0] = append(groups[0], warm)
		groups[1] = append(groups[1], icache)
		groups[2] = append(groups[2], testConfig(t, "mcf", 42))
		for g := range groups {
			groups[g][k].CacheKind = kind
		}
	}
	single := testConfig(t, "olio", 3)

	var cfgs []sim.Config
	for k := range kinds {
		for g := range groups {
			cfgs = append(cfgs, groups[g][k])
		}
		if k == 1 {
			cfgs = append(cfgs, single)
		}
	}
	return cfgs
}

// TestStreamGroupsMatchCold: a two-worker pool over the stream grid
// returns the reports serial cold runs compute. Each group runs one
// pass, which records its front end and answers the group's two other
// cells; the singleton measures live and shares nothing, as does every
// cell of a one-worker pool.
func TestStreamGroupsMatchCold(t *testing.T) {
	cfgs := streamGrid(t)
	submit := func(p *Pool) []*Future {
		futs := make([]*Future, len(cfgs))
		for i, c := range cfgs {
			futs[i] = p.Submit(c)
		}
		return futs
	}
	p := New(2)
	futs := submit(p)
	// A one-worker pool of plain sim.RunContext runs each cell inline,
	// cold and generating live.
	serial := NewWithRunContext(1, sim.RunContext)
	cold := submit(serial)
	for i, f := range futs {
		got, err := f.Wait()
		if err != nil {
			t.Fatalf("cell %d: %v", i, err)
		}
		want, err := cold[i].Wait()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(reportBytes(t, want), reportBytes(t, got)) {
			t.Errorf("cell %d (%s %s): pooled report differs from a cold run", i, cfgs[i].Workload.Name, cfgs[i].CacheKind)
		}
	}
	st := p.Stats()
	if st.GroupPasses != 3 || st.GroupAnswered != 6 {
		t.Errorf("group passes %d, answered %d cells; want 3 and 6 (one per group, none for the singleton)",
			st.GroupPasses, st.GroupAnswered)
	}
	if st.Runs != 10 {
		t.Errorf("Runs = %d, want 10", st.Runs)
	}
	if st := serial.Stats(); st.GroupPasses != 0 || st.GroupAnswered != 0 {
		t.Errorf("a one-worker pool ran %d passes answering %d cells, want none", st.GroupPasses, st.GroupAnswered)
	}
}

// TestOneBatchOneStats: the stream grid, submitted as one batch to each
// of 20 fresh two-worker pools, reads the same sharing counts on every
// pool, since the batch forms its groups before any cell runs.
func TestOneBatchOneStats(t *testing.T) {
	cfgs := streamGrid(t)
	for n := 0; n < 20; n++ {
		p := New(2)
		futs := make([]*Future, len(cfgs))
		for i, c := range cfgs {
			futs[i] = p.Submit(c)
		}
		for i, f := range futs {
			if _, err := f.Wait(); err != nil {
				t.Fatalf("pool %d, cell %d: %v", n, i, err)
			}
		}
		if st := p.Stats(); st.GroupPasses != 3 || st.GroupAnswered != 6 {
			t.Fatalf("pool %d: group passes %d, answered %d cells; want 3 and 6", n, st.GroupPasses, st.GroupAnswered)
		}
	}
}

// TestStreamGroupCancel: canceling the pool while a group drains fails
// the group's cells that have not started with the cancellation, while
// every cell that started keeps a report equal to a cold run. The first
// cell to start cancels the pool and runs the group's pass to completion
// (its run function drops the cancellation but keeps the group), so the
// only failures are the cells behind it.
func TestStreamGroupCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	inner, _ := LadderRun(nil, 0)
	var (
		mu      sync.Mutex
		started = map[string]bool{}
	)
	p := NewWithRunContext(2, func(ctx context.Context, cfg sim.Config) (*sim.Report, error) {
		key, _ := cfg.CanonicalKey()
		mu.Lock()
		started[key] = true
		mu.Unlock()
		cancel() // the group's first cell cancels the pool as it starts
		return inner(context.WithoutCancel(ctx), cfg)
	}).WithContext(ctx)
	// One group: the cells differ only in back-end fields (the design,
	// the coherence mode, prefetch), so each is distinct but all run the
	// same front end.
	var cfgs []sim.Config
	for i := 0; i < 8; i++ {
		c := testConfig(t, "redis", 42)
		c.CacheKind = []sim.CacheKind{sim.KindBaseline, sim.KindSeesaw}[i%2]
		c.CoherenceMode = []coherence.Mode{coherence.Directory, coherence.Snoopy}[i/2%2]
		c.Prefetch = i >= 4
		cfgs = append(cfgs, c)
	}
	futs := make([]*Future, len(cfgs))
	for i, c := range cfgs {
		futs[i] = p.Submit(c)
	}
	ran, failed := 0, 0
	for i, f := range futs {
		rep, err := f.Wait()
		switch {
		case err == nil:
			ran++
			cold, cerr := sim.Run(cfgs[i])
			if cerr != nil {
				t.Fatal(cerr)
			}
			if !bytes.Equal(reportBytes(t, cold), reportBytes(t, rep)) {
				t.Errorf("cell %d: report differs from a cold run", i)
			}
		case errors.Is(err, context.Canceled):
			failed++
		default:
			t.Errorf("cell %d failed with %v, want context.Canceled", i, err)
		}
	}
	mu.Lock()
	n := len(started)
	mu.Unlock()
	if ran != n || failed != len(cfgs)-n || failed == 0 {
		t.Errorf("%d cells started, %d completed, %d failed: want every started cell completed and the queued rest failed", n, ran, failed)
	}
	if st := p.Stats(); st.GroupPasses != 1 || st.GroupAnswered != 0 {
		t.Errorf("group passes %d, answered %d cells; want 1 and 0", st.GroupPasses, st.GroupAnswered)
	}
}

// TestFiguresShapedPoolMatchesSerial: a run function shaped like the
// figures' cell function (Build, Warmup, Measure on the pool's context,
// Report) on a two-worker pool, where each group's pass answers its
// other cells and lends back ends to the idle worker, returns exactly
// what a one-worker pool of cold sim.RunContext cells returns, over a
// figures-shaped grid: designs by clock by core, a fragmented-memory
// point per design, and a serial-PIPT point with the reduced TLBs at two
// clocks.
func TestFiguresShapedPoolMatchesSerial(t *testing.T) {
	run := func(ctx context.Context, cfg sim.Config) (*sim.Report, error) {
		m, err := machine.Build(cfg)
		if err != nil {
			return nil, err
		}
		if err := m.Warmup(ctx); err != nil {
			return nil, err
		}
		if err := m.Measure(ctx); err != nil {
			return nil, err
		}
		return m.Report()
	}
	cell := func() sim.Config {
		c := testConfig(t, "astar", 42)
		c.Refs, c.MemBytes = 2_000, 64<<20
		return c
	}
	var cfgs []sim.Config
	for _, kind := range []sim.CacheKind{sim.KindBaseline, sim.KindSeesaw} {
		for _, freq := range []float64{1.33, 4} {
			for _, cpu := range []string{"ooo", "inorder"} {
				c := cell()
				c.CacheKind, c.FreqGHz, c.CPUKind = kind, freq, cpu
				cfgs = append(cfgs, c)
			}
		}
		c := cell()
		c.CacheKind, c.L1Size, c.MemhogFraction, c.PromoteScanEvery = kind, 64<<10, 0.5, 500
		cfgs = append(cfgs, c)
	}
	for _, freq := range []float64{1.33, 2.8} {
		c := cell()
		c.CacheKind, c.L1Size, c.L1Ways, c.SerialTLBCycles, c.SmallTLB, c.FreqGHz = sim.KindPIPT, 128<<10, 8, 2, true, freq
		cfgs = append(cfgs, c)
	}
	submit := func(p *Pool) []*Future {
		futs := make([]*Future, len(cfgs))
		for i, c := range cfgs {
			futs[i] = p.Submit(c)
		}
		return futs
	}
	p := NewWithRunContext(2, run)
	futs := submit(p)
	cold := submit(NewWithRunContext(1, sim.RunContext))
	for i, f := range futs {
		got, err := f.Wait()
		if err != nil {
			t.Fatalf("cell %d: %v", i, err)
		}
		want, err := cold[i].Wait()
		if err != nil {
			t.Fatal(err)
		}
		g, _ := json.Marshal(got)
		w, _ := json.Marshal(want)
		if !bytes.Equal(g, w) {
			t.Errorf("cell %d (%s %s %dKB %.2f GHz %s): pooled report differs from a cold run",
				i, cfgs[i].Workload.Name, cfgs[i].CacheKind, cfgs[i].L1Size>>10, cfgs[i].FreqGHz, cfgs[i].CPUKind)
		}
	}
	if st := p.Stats(); st.GroupPasses == 0 || st.GroupAnswered == 0 {
		t.Errorf("group passes %d, answered %d: the grid shared nothing", st.GroupPasses, st.GroupAnswered)
	}
}
