package runner

import (
	"bytes"
	"context"
	"errors"
	"sync"
	"testing"

	"seesaw/internal/sim"
)

// holdWorkers occupies both workers of a two-worker pool with tasks
// that block until the returned release is called. They are the oldest
// groups, so the workers take them first, and every cell submitted
// before release waits in the queue: the groups are complete before any
// cell starts.
func holdWorkers(p *Pool) (release func()) {
	gate := make(chan struct{})
	for i := 0; i < 2; i++ {
		Go(p, func() (struct{}, error) { <-gate; return struct{}{}, nil })
	}
	return func() { close(gate) }
}

// reportBytes renders a report as text.
func reportBytes(t *testing.T, r *sim.Report) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := r.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestStreamGroupsMatchCold: a two-worker pool over three stream groups
// of three cells each, submitted interleaved, plus a singleton, returns
// the reports serial cold runs compute. Each group records its stream
// exactly once and all of its cells replay it; the singleton generates
// live and records nothing, as does every cell of a one-worker pool.
// The first group is warmed, so its cells fork a LadderRun master and
// replay from the boundary.
func TestStreamGroupsMatchCold(t *testing.T) {
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
	submit := func(p *Pool) []*Future {
		futs := make([]*Future, len(cfgs))
		for i, c := range cfgs {
			futs[i] = p.Submit(c)
		}
		return futs
	}
	p := New(2)
	release := holdWorkers(p)
	futs := submit(p)
	release()
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
	if st.StreamsRecorded != 3 || st.StreamReplays != 9 {
		t.Errorf("streams recorded %d, replayed by %d cells; want 3 and 9 (one per group, none for the singleton)",
			st.StreamsRecorded, st.StreamReplays)
	}
	if st.Runs != 10 {
		t.Errorf("Runs = %d, want 10", st.Runs)
	}
	if st := serial.Stats(); st.StreamsRecorded != 0 || st.StreamReplays != 0 {
		t.Errorf("a one-worker pool recorded %d streams and replayed %d cells, want none", st.StreamsRecorded, st.StreamReplays)
	}
}

// TestStreamGroupCancel: canceling the pool while a group drains fails
// the group's queued cells with the cancellation and never starts them,
// while every cell that started keeps a report equal to a cold run. The
// first cell to start cancels the pool; started cells run to completion
// (their run function drops the cancellation but keeps the stream), so
// the only failures are the queued ones.
func TestStreamGroupCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	inner, _ := LadderRun(nil, 0)
	var (
		mu      sync.Mutex
		started = map[int]bool{}
	)
	p := NewWithRunContext(2, func(ctx context.Context, cfg sim.Config) (*sim.Report, error) {
		mu.Lock()
		started[cfg.ContextSwitchEvery] = true
		mu.Unlock()
		cancel() // the group's first cell cancels the pool as it starts
		return inner(context.WithoutCancel(ctx), cfg)
	}).WithContext(ctx)
	release := holdWorkers(p)
	// One group: the cells differ only in a measured-phase cadence, so
	// each is distinct but all draw the same records.
	var cfgs []sim.Config
	for i := 0; i < 8; i++ {
		c := testConfig(t, "redis", 42)
		c.ContextSwitchEvery = 1_000 + i
		cfgs = append(cfgs, c)
	}
	futs := make([]*Future, len(cfgs))
	for i, c := range cfgs {
		futs[i] = p.Submit(c)
	}
	release()
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
	if st := p.Stats(); st.StreamsRecorded != 1 || st.StreamReplays != uint64(ran) {
		t.Errorf("streams recorded %d, replayed by %d cells; want 1 and %d", st.StreamsRecorded, st.StreamReplays, ran)
	}
}
