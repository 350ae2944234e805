package runner

import (
	"bytes"
	"context"
	"errors"
	"testing"
	"time"

	"seesaw/internal/machine"
	"seesaw/internal/sim"
)

// cellShaped is a cell function shaped like bench's figures-all cell:
// the four machine phases called directly, so a timing group reaches
// the machine only through Measure's context.
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

// TestTimingGroupsMatchCold: a two-worker pool over two timing groups
// and a singleton, through a figures-shaped run function, returns the
// reports a serial pool of cold runs computes, and each group's first
// cell answers the other.
func TestTimingGroupsMatchCold(t *testing.T) {
	cfgs := timingCells(t)
	serial := NewWithRunContext(1, sim.RunContext)
	p := NewWithRunContext(2, cellShaped)
	release := holdWorkers(p)
	futs := make([]*Future, len(cfgs))
	for i, c := range cfgs {
		futs[i] = p.Submit(c)
	}
	release()
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
	if st := p.Stats(); st.TimingPasses != 2 || st.TimingAnswered != 2 || st.Runs != 5 {
		t.Errorf("timing passes %d, answered %d, runs %d; want 2, 2 and 5", st.TimingPasses, st.TimingAnswered, st.Runs)
	}
	if st := serial.Stats(); st.TimingPasses != 0 || st.TimingAnswered != 0 {
		t.Errorf("a one-worker pool ran %d timing passes answering %d cells, want none", st.TimingPasses, st.TimingAnswered)
	}
}

// stallCtx blocks its first poll until the underlying context ends;
// onStall runs as the poll blocks. Passed to Measure, it stalls the
// first measured epoch, after Measure has claimed the timing group's
// pass.
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
// and then fails mid-phase. Timed out, it leaves its siblings measuring
// live, so their reports equal cold runs; canceled with the pool, it
// leaves them failing with the pool's error.
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
		{"timed-out", 100 * time.Millisecond, false},
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
			release := holdWorkers(p)
			futs := make([]*Future, len(cfgs))
			for i, c := range cfgs {
				futs[i] = p.Submit(c)
			}
			release()
			_, err := futs[0].Wait()
			var ce *CellError
			switch {
			case tc.cancel && !errors.Is(err, context.Canceled):
				t.Errorf("canceled leader returned %v, want context.Canceled", err)
			case !tc.cancel && (!errors.As(err, &ce) || ce.Timeout == 0):
				t.Errorf("timed-out leader returned %v, want a timeout CellError", err)
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
			if st := p.Stats(); st.TimingPasses != 0 || st.TimingAnswered != 0 {
				t.Errorf("timing passes %d, answered %d after a failed pass; want none", st.TimingPasses, st.TimingAnswered)
			}
		})
	}
}
