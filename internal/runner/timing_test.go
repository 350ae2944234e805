package runner

import (
	"bytes"
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"seesaw/internal/machine"
	"seesaw/internal/sim"
)

// cellShaped is a cell function shaped like bench's figures-all cell:
// the four machine phases called directly, so a group reaches the
// machine only through Measure's context.
func cellShaped(ctx context.Context, cfg sim.Config) (*sim.Report, error) {
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

// shortConfig is testConfig small enough for the race stress gate.
func shortConfig(t *testing.T, wl string, seed int64) sim.Config {
	c := testConfig(t, wl, seed)
	c.Refs = 2_000
	c.MemBytes = 128 << 20
	return c
}

// timingCells returns two timing groups of two clocks each, one of them
// warmed, plus a singleton, submitted interleaved.
func timingCells(t *testing.T) []sim.Config {
	warm := shortConfig(t, "redis", 42)
	warm.WarmupRefs = 3_000
	base := shortConfig(t, "mcf", 42)
	base.CacheKind = sim.KindBaseline
	var cfgs []sim.Config
	for _, f := range []float64{1.33, 4.0} {
		for _, c := range []sim.Config{warm, base} {
			c.FreqGHz = f
			cfgs = append(cfgs, c)
		}
		if f == 1.33 {
			cfgs = append(cfgs, shortConfig(t, "redis", 3))
		}
	}
	return cfgs
}

// TestTimingGroupsMatchCold: a two-worker pool over two groups of timing
// siblings and a singleton, through a figures-shaped run function,
// returns the reports a serial pool of cold runs computes, and each
// group's first cell answers the other.
func TestTimingGroupsMatchCold(t *testing.T) {
	cfgs := timingCells(t)
	serial := NewWithRunContext(1, sim.RunContext)
	p := NewWithRunContext(2, cellShaped)
	futs := make([]*Future, len(cfgs))
	for i, c := range cfgs {
		futs[i] = p.Submit(c)
	}
	for i, f := range futs {
		got, err := f.Wait()
		if err != nil {
			t.Fatalf("cell %d: %v", i, err)
		}
		want, err := serial.Submit(cfgs[i]).Wait()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(reportBytes(t, want), reportBytes(t, got)) {
			t.Errorf("cell %d (%s %s %.2f GHz): pooled report differs from a cold run",
				i, cfgs[i].Workload.Name, cfgs[i].CacheKind, cfgs[i].FreqGHz)
		}
	}
	if st := p.Stats(); st.GroupPasses != 2 || st.GroupAnswered != 2 || st.Runs != 5 {
		t.Errorf("group passes %d, answered %d, runs %d; want 2, 2 and 5", st.GroupPasses, st.GroupAnswered, st.Runs)
	}
	if st := serial.Stats(); st.GroupPasses != 0 || st.GroupAnswered != 0 {
		t.Errorf("a one-worker pool ran %d group passes answering %d cells, want none", st.GroupPasses, st.GroupAnswered)
	}
}

// stallCtx blocks its first poll until the underlying context ends;
// onStall runs as the poll blocks. Passed to Measure, it stalls the
// first measured epoch, after Measure has claimed the group's pass.
type stallCtx struct {
	context.Context
	stalled bool
	onStall func()
}

func (c *stallCtx) Err() error {
	if !c.stalled {
		c.stalled = true
		c.onStall()
		<-c.Done()
	}
	return c.Context.Err()
}

// TestPoolTimingLeaderFails: the 1.33 GHz cell claims its group's pass
// and then stalls mid-phase. Timed out, having overrun its whole budget
// of one cell budget per cell of the group, it leaves its siblings
// measuring live, so their reports equal cold runs; canceled with the
// pool, it leaves them failing with the pool's error. A sibling measures
// within its one budget: on a 2-vCPU host, under -race beside the
// service package's race tests, about 17 ms and 60 ms at worst, so the
// budget is 400 ms.
func TestPoolTimingLeaderFails(t *testing.T) {
	var cfgs []sim.Config
	for _, f := range []float64{1.33, 2.8, 4.0} {
		c := shortConfig(t, "redis", 42)
		c.FreqGHz = f
		cfgs = append(cfgs, c)
	}
	for _, tc := range []struct {
		name    string
		timeout time.Duration
		cancel  bool
	}{
		{"timed-out", 400 * time.Millisecond, false},
		{"canceled", 0, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			p := NewWithRunContext(2, func(ctx context.Context, cfg sim.Config) (*sim.Report, error) {
				if cfg.FreqGHz != 1.33 {
					return cellShaped(ctx, cfg)
				}
				m, err := machine.Build(cfg)
				if err != nil {
					return nil, err
				}
				onStall := func() {}
				if tc.cancel {
					onStall = cancel
				}
				if err := m.Measure(&stallCtx{Context: ctx, onStall: onStall}); err != nil {
					return nil, err
				}
				return m.Report()
			}).WithContext(ctx).WithTimeout(tc.timeout)
			futs := make([]*Future, len(cfgs))
			for i, c := range cfgs {
				futs[i] = p.Submit(c)
			}
			_, err := futs[0].Wait()
			var ce *CellError
			switch {
			case tc.cancel && !errors.Is(err, context.Canceled):
				t.Errorf("canceled leader returned %v, want context.Canceled", err)
			case !tc.cancel && (!errors.As(err, &ce) || ce.Timeout != 3*tc.timeout):
				t.Errorf("timed-out leader returned %v, want a timeout CellError after three cell budgets", err)
			}
			for i, f := range futs[1:] {
				rep, err := f.Wait()
				if tc.cancel {
					if !errors.Is(err, context.Canceled) {
						t.Errorf("sibling %d of a canceled leader returned %v, want context.Canceled", i+1, err)
					}
					continue
				}
				if err != nil {
					t.Fatalf("sibling %d: %v", i+1, err)
				}
				cold, err := sim.Run(cfgs[i+1])
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(reportBytes(t, cold), reportBytes(t, rep)) {
					t.Errorf("sibling %d measured live but differs from a cold run", i+1)
				}
			}
			if st := p.Stats(); st.GroupPasses != 0 || st.GroupAnswered != 0 {
				t.Errorf("group passes %d, answered %d after a failed pass; want none", st.GroupPasses, st.GroupAnswered)
			}
		})
	}
}

// TestPassBudgetCoversGroup: a two-cell group whose pass takes one and a
// half cell budgets finishes without a CellError: the pass's attempt has
// a budget for both cells, and the cell it answers returns at once.
func TestPassBudgetCoversGroup(t *testing.T) {
	const budget = 300 * time.Millisecond
	var cfgs []sim.Config
	for _, kind := range []sim.CacheKind{sim.KindSeesaw, sim.KindBaseline} {
		c := shortConfig(t, "redis", 42)
		c.CacheKind = kind
		cfgs = append(cfgs, c)
	}
	var calls atomic.Int32
	p := NewWithRunContext(2, func(ctx context.Context, cfg sim.Config) (*sim.Report, error) {
		if calls.Add(1) == 1 {
			select { // the pass is slow
			case <-time.After(budget * 3 / 2):
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		return cellShaped(ctx, cfg)
	}).WithTimeout(budget)
	futs := []*Future{p.Submit(cfgs[0]), p.Submit(cfgs[1])}
	for i, f := range futs {
		rep, err := f.Wait()
		if err != nil {
			t.Fatalf("cell %d: %v", i, err)
		}
		cold, err := sim.Run(cfgs[i])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(reportBytes(t, cold), reportBytes(t, rep)) {
			t.Errorf("cell %d differs from a cold run", i)
		}
	}
	if st := p.Stats(); st.GroupPasses != 1 || st.GroupAnswered != 1 {
		t.Errorf("group passes %d, answered %d; want 1 and 1", st.GroupPasses, st.GroupAnswered)
	}
}

// TestLiveSiblingGetsOneBudget: the group budget goes only to attempts
// that may still run the group's pass. The 1.33 GHz cell claims the pass
// and stalls past its three cell budgets; its retry and both attempts of
// each sibling, which measure live once the pass is claimed and stall
// too, time out after one budget each.
func TestLiveSiblingGetsOneBudget(t *testing.T) {
	const budget = 40 * time.Millisecond
	var cfgs []sim.Config
	for _, f := range []float64{1.33, 2.8, 4.0} {
		c := shortConfig(t, "redis", 42)
		c.FreqGHz = f
		cfgs = append(cfgs, c)
	}
	p := NewWithRunContext(2, func(ctx context.Context, cfg sim.Config) (*sim.Report, error) {
		m, err := machine.Build(cfg)
		if err != nil {
			return nil, err
		}
		if err := m.Measure(&stallCtx{Context: ctx, onStall: func() {}}); err != nil {
			return nil, err
		}
		return m.Report()
	}).WithTimeout(budget).WithRetries(1)
	futs := make([]*Future, len(cfgs))
	for i, c := range cfgs {
		futs[i] = p.Submit(c)
	}
	for i, f := range futs {
		_, err := f.Wait()
		var ce *CellError
		if !errors.As(err, &ce) || ce.Timeout != budget || ce.Attempts != 2 {
			t.Errorf("cell %d returned %v, want a timeout CellError after two attempts of one budget each", i, err)
		}
	}
	if st := p.Stats(); st.GroupPasses != 0 || st.GroupAnswered != 0 || st.Runs != 6 {
		t.Errorf("group passes %d, answered %d, runs %d; want 0, 0 and 6", st.GroupPasses, st.GroupAnswered, st.Runs)
	}
}

// TestInvalidCellFailsAlone: a sweep-shaped group with a geometry its
// design rejects fails only that cell, with its Validate error, while
// the pass answers the valid cells with their cold reports.
func TestInvalidCellFailsAlone(t *testing.T) {
	var cfgs []sim.Config
	for _, c := range []struct {
		kind sim.CacheKind
		kb   uint64
	}{{sim.KindSeesaw, 32}, {sim.KindSeesaw, 48}, {sim.KindBaseline, 32}} {
		cfg := shortConfig(t, "redis", 42)
		cfg.CacheKind, cfg.L1Size, cfg.L1Ways = c.kind, c.kb<<10, 0
		cfgs = append(cfgs, cfg)
	}
	invalid := cfgs[1].Validate()
	if invalid == nil {
		t.Fatal("the 48KB SEESAW cell validates")
	}
	p := NewWithRunContext(2, cellShaped)
	futs := make([]*Future, len(cfgs))
	for i, c := range cfgs {
		futs[i] = p.Submit(c)
	}
	for i, f := range futs {
		rep, err := f.Wait()
		if i == 1 {
			if err == nil || err.Error() != invalid.Error() {
				t.Errorf("the invalid cell returned %v, want %v", err, invalid)
			}
			continue
		}
		if err != nil {
			t.Fatalf("cell %d: %v", i, err)
		}
		cold, err := sim.Run(cfgs[i])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(reportBytes(t, cold), reportBytes(t, rep)) {
			t.Errorf("cell %d differs from a cold run", i)
		}
	}
	if st := p.Stats(); st.GroupPasses != 1 || st.GroupAnswered != 1 {
		t.Errorf("group passes %d, answered %d; want 1 and 1", st.GroupPasses, st.GroupAnswered)
	}
}

// TestStoreHitsSkipPass: a stored cell of a three-cell group is answered
// from the store before the group's pass starts, so the pass serves the
// other two cells alone: one of them runs it and it answers the other.
func TestStoreHitsSkipPass(t *testing.T) {
	var cfgs []sim.Config
	for _, kind := range []sim.CacheKind{sim.KindSeesaw, sim.KindBaseline, sim.KindVespa} {
		c := shortConfig(t, "redis", 42)
		c.CacheKind = kind
		cfgs = append(cfgs, c)
	}
	stored, err := sim.Run(cfgs[1])
	if err != nil {
		t.Fatal(err)
	}
	st := &fakeStore{m: make(map[string]*sim.Report)}
	if err := st.Put(cfgs[1], stored); err != nil {
		t.Fatal(err)
	}
	p := NewWithRunContext(2, cellShaped).WithStore(st)
	futs := make([]*Future, len(cfgs))
	for i, c := range cfgs {
		futs[i] = p.Submit(c)
	}
	for i, f := range futs {
		rep, err := f.Wait()
		if err != nil {
			t.Fatalf("cell %d: %v", i, err)
		}
		if i == 1 && rep != stored {
			t.Error("the stored cell was not answered from the store")
		}
	}
	if s := p.Stats(); s.StoreHits != 1 || s.GroupPasses != 1 || s.GroupAnswered != 1 || s.Runs != 2 {
		t.Errorf("store hits %d, group passes %d, answered %d, runs %d; want 1, 1, 1 and 2",
			s.StoreHits, s.GroupPasses, s.GroupAnswered, s.Runs)
	}
}

// TestLendCountsAgainstWorkers: a slot lent to a pass counts against the
// worker bound, so a cell whose batch starts while every slot is taken
// waits in the queue; returning the slot starts a worker that runs it,
// while the task holding the other slot still blocks.
func TestLendCountsAgainstWorkers(t *testing.T) {
	p := NewWithRunContext(2, cellShaped)
	started, hold := make(chan struct{}), make(chan struct{})
	defer close(hold)
	task := Go(p, func() (struct{}, error) { close(started); <-hold; return struct{}{}, nil })
	go task.Wait() // the first Wait starts the task's batch
	<-started
	back := make(chan struct{})
	if !p.lend(func() { <-back }) {
		t.Fatal("the pool did not lend its idle slot")
	}
	if p.lend(func() {}) {
		t.Fatal("the pool lent a slot past its worker bound")
	}
	f := p.Submit(shortConfig(t, "redis", 42))
	p.start() // as a Wait would, without blocking
	p.mu.Lock()
	busy, queued := p.busy, len(p.queue)
	p.mu.Unlock()
	if busy != 2 || queued != 1 {
		t.Fatalf("%d slots busy and %d groups queued, want 2 and 1", busy, queued)
	}
	close(back)
	if _, err := f.Wait(); err != nil {
		t.Fatal(err)
	}
}
