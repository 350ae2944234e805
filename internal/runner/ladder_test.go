package runner

import (
	"bytes"
	"context"
	"errors"
	"sync"
	"testing"

	"seesaw/internal/sim"
	"seesaw/internal/store"
)

// ladderConfig is a warmed cell for ladder tests.
func ladderConfig(t testing.TB, kind sim.CacheKind, seed int64) sim.Config {
	t.Helper()
	c := testConfig(t, "redis", seed)
	c.CacheKind = kind
	c.WarmupRefs = 20_000
	c.Refs = 3_000
	return c
}

func openLadderStore(t *testing.T) *store.Store {
	t.Helper()
	s, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// runCell executes one cell through a RunFunc and renders its report.
func runCell(t *testing.T, run RunFunc, cfg sim.Config) []byte {
	t.Helper()
	r, err := run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := r.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestLadderMatchesCold is the ladder's correctness contract: reports
// produced via rungs — persisted by one ladder, resumed by a fresh one
// sharing only the store directory — are byte-identical to cold runs.
func TestLadderMatchesCold(t *testing.T) {
	s := openLadderStore(t)
	cfgs := []sim.Config{
		ladderConfig(t, sim.KindBaseline, 42),
		ladderConfig(t, sim.KindSeesaw, 42),
		ladderConfig(t, sim.KindPIPT, 42),
	}
	cold := make([][]byte, len(cfgs))
	for i, c := range cfgs {
		cold[i] = runCell(t, sim.RunContext, c)
	}

	// First ladder: cold store, so it warms from zero and persists rungs.
	first, fs := LadderRun(s, 6_000)
	for i, c := range cfgs {
		if got := runCell(t, first, c); !bytes.Equal(cold[i], got) {
			t.Errorf("cell %d: first-ladder report differs from cold", i)
		}
	}
	fc := fs.Counters()
	if fc.Warmups != 1 || fc.RungHits != 0 {
		t.Errorf("first ladder counters = %+v, want one cold warmup", fc)
	}
	// Rungs at 6000, 12000, 18000, and the 20000 boundary.
	if fc.RungPuts != 4 {
		t.Errorf("RungPuts = %d, want 4", fc.RungPuts)
	}

	// Second ladder: same store, fresh in-memory state — the warmup must
	// resume from the boundary rung and execute zero warmup references.
	second, ss := LadderRun(s, 6_000)
	for i, c := range cfgs {
		if got := runCell(t, second, c); !bytes.Equal(cold[i], got) {
			t.Errorf("cell %d: resumed-ladder report differs from cold", i)
		}
	}
	sc := ss.Counters()
	if sc.RungHits != 1 || sc.ResumedRefs != 20_000 || sc.RunRefs != 0 {
		t.Errorf("second ladder counters = %+v, want a full-depth resume", sc)
	}
	if sc.RungPuts != 0 {
		t.Errorf("second ladder rewrote %d rungs resuming from the boundary", sc.RungPuts)
	}
}

// TestLadderResumesPartialRung: a ladder interrupted mid-warmup leaves
// its completed rungs behind; the next ladder resumes from the deepest
// one and only executes the remainder.
func TestLadderResumesPartialRung(t *testing.T) {
	s := openLadderStore(t)
	cfg := ladderConfig(t, sim.KindSeesaw, 43)

	// Cancel the context partway through the climb: rungs persisted
	// before the cancellation survive.
	ctx, cancel := context.WithCancel(context.Background())
	var once sync.Once
	cancelStore := &cancelAfterPut{SnapshotStore: s, n: 2, then: func() { once.Do(cancel) }}
	interrupted, is := LadderRun(cancelStore, 5_000)
	if _, err := interrupted(ctx, cfg); !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted ladder returned %v, want context.Canceled", err)
	}
	if c := is.Counters(); c.RungPuts != 2 {
		t.Fatalf("interrupted ladder persisted %d rungs, want 2", c.RungPuts)
	}

	// The retry resumes at 10_000 and runs only the remaining half.
	retry, rs := LadderRun(s, 5_000)
	want := runCell(t, sim.RunContext, cfg)
	if got := runCell(t, retry, cfg); !bytes.Equal(want, got) {
		t.Error("retried ladder report differs from cold")
	}
	c := rs.Counters()
	if c.RungHits != 1 || c.ResumedRefs != 10_000 || c.RunRefs != uint64(cfg.WarmupRefs-10_000) {
		t.Errorf("retry counters = %+v, want resume at 10000", c)
	}
}

// cancelAfterPut wraps a SnapshotStore and fires a callback after the
// n-th successful PutSnapshot — simulating a crash mid-climb.
type cancelAfterPut struct {
	SnapshotStore
	mu   sync.Mutex
	n    int
	then func()
}

func (c *cancelAfterPut) PutSnapshot(prefix string, refs int, data []byte) error {
	err := c.SnapshotStore.PutSnapshot(prefix, refs, data)
	if err == nil {
		c.mu.Lock()
		c.n--
		fire := c.n == 0
		c.mu.Unlock()
		if fire {
			c.then()
		}
	}
	return err
}

// TestLadderDropsBadRung: a corrupt stored rung is dropped and the
// warmup falls back to cold, still producing the right report.
func TestLadderDropsBadRung(t *testing.T) {
	s := openLadderStore(t)
	cfg := ladderConfig(t, sim.KindSeesaw, 44)
	if err := s.PutSnapshot(cfg.PrefixHash(), cfg.WarmupRefs, []byte("not a snapshot")); err != nil {
		t.Fatal(err)
	}
	run, rs := LadderRun(s, 0)
	want := runCell(t, sim.RunContext, cfg)
	if got := runCell(t, run, cfg); !bytes.Equal(want, got) {
		t.Error("ladder report after dropping a bad rung differs from cold")
	}
	c := rs.Counters()
	if c.RungDrops != 1 || c.RungHits != 0 {
		t.Errorf("counters = %+v, want one dropped rung and no hits", c)
	}
	// The bad rung is gone and replaced by a genuine boundary rung.
	if data, refs, ok := s.DeepestSnapshot(cfg.PrefixHash(), cfg.WarmupRefs); !ok || refs != cfg.WarmupRefs || len(data) < 64 {
		t.Errorf("boundary rung after fallback: refs=%d ok=%v len=%d", refs, ok, len(data))
	}
}

// TestLadderPassthrough: no-warmup and trace cells bypass the ladder
// entirely — no rungs written, reports identical to plain runs.
func TestLadderPassthrough(t *testing.T) {
	s := openLadderStore(t)
	cfg := testConfig(t, "mcf", 42) // WarmupRefs == 0
	run, rs := LadderRun(s, 1_000)
	want := runCell(t, sim.RunContext, cfg)
	if got := runCell(t, run, cfg); !bytes.Equal(want, got) {
		t.Error("passthrough report differs")
	}
	if c := rs.Counters(); c != (LadderCounters{}) {
		t.Errorf("passthrough moved ladder counters: %+v", c)
	}
	if n := s.SnapLen(); n != 0 {
		t.Errorf("passthrough wrote %d rungs", n)
	}
}
