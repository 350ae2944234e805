package runner

import (
	"bytes"
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

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

// blockFirstLookup is a SnapshotStore with no rungs whose first
// DeepestSnapshot call announces itself on entered and then blocks
// until release closes, holding that cell's climb in place.
type blockFirstLookup struct {
	entered, release chan struct{}
	once             sync.Once
}

func (b *blockFirstLookup) DeepestSnapshot(string, int) ([]byte, int, bool) {
	first := false
	b.once.Do(func() { first = true })
	if first {
		close(b.entered)
		<-b.release
	}
	return nil, 0, false
}

func (b *blockFirstLookup) PutSnapshot(string, int, []byte) error { return nil }
func (b *blockFirstLookup) DropSnapshot(string, int)              {}

// TestLadderCanceledClimbSparesWaiters: cell A climbs a signature's
// warmup and is canceled mid-climb while cell B, same signature, other
// design, live context, waits on that climb. A's cancellation is A's
// alone: B must warm on its own and return the cold run's report, not
// A's context error.
func TestLadderCanceledClimbSparesWaiters(t *testing.T) {
	st := &blockFirstLookup{entered: make(chan struct{}), release: make(chan struct{})}
	run, _ := LadderRun(st, 0)
	cfgA := ladderConfig(t, sim.KindBaseline, 45)
	cfgB := ladderConfig(t, sim.KindSeesaw, 45)
	want := runCell(t, sim.RunContext, cfgB)

	ctxA, cancelA := context.WithCancel(context.Background())
	errA := make(chan error, 1)
	go func() {
		_, err := run(ctxA, cfgA)
		errA <- err
	}()
	<-st.entered // A holds the signature's entry

	type result struct {
		rep *sim.Report
		err error
	}
	resB := make(chan result, 1)
	go func() {
		r, err := run(context.Background(), cfgB)
		resB <- result{r, err}
	}()
	waitOnceWaiters(t, 2) // A climbing, B queued behind it
	cancelA()
	close(st.release)

	if err := <-errA; !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled cell A returned %v, want context.Canceled", err)
	}
	b := <-resB
	if b.err != nil {
		t.Fatalf("cell B inherited A's failure: %v", b.err)
	}
	var got bytes.Buffer
	if err := b.rep.WriteText(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, got.Bytes()) {
		t.Errorf("cell B's report differs from the cold run:\nwant:\n%s\ngot:\n%s", want, got.Bytes())
	}
}

// waitOnceWaiters blocks until n goroutines sit inside a sync.Once —
// here, a warm entry's climber plus the cells queued behind it.
func waitOnceWaiters(t *testing.T, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	buf := make([]byte, 1<<20)
	for {
		stacks := buf[:runtime.Stack(buf, true)]
		if bytes.Count(stacks, []byte("sync.(*Once).doSlow")) >= n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("fewer than %d goroutines reached the warm entry's sync.Once", n)
		}
		time.Sleep(time.Millisecond)
	}
}
