package evolve

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"

	"seesaw/internal/runner"
	"seesaw/internal/store"
)

// testOptions is a tiny-but-real search: two workloads, fragmented
// memory, a few generations — small enough for the determinism tests to
// run the whole search several times.
func testOptions(log *bytes.Buffer) Options {
	return Options{
		Seed:        7,
		Population:  6,
		Generations: 3,
		Scenario: Scenario{
			Workloads:  []string{"redis", "mcf"},
			Frag:       0.6,
			Seed:       42,
			Refs:       6_000,
			WarmupRefs: 4_000,
		},
		Log: log,
	}
}

// newLocalEvaluator builds the evaluation stack the searches under test
// share with production: a laddered shared-warmup pool, optionally
// store-backed.
func newLocalEvaluator(st *store.Store) PoolEvaluator {
	var run runner.RunFunc
	var ls *runner.LadderStats
	if st != nil {
		run, ls = runner.LadderRun(st, 0)
	} else {
		run, ls = runner.LadderRun(nil, 0)
	}
	pool := runner.NewWithRunContext(2, run).WithLadderStats(ls)
	if st != nil {
		pool.WithStore(st)
	}
	return PoolEvaluator{Pool: pool}
}

func runSearch(t *testing.T, opts Options, ev Evaluator) *Result {
	t.Helper()
	s, err := New(opts, ev)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestSearchDeterminism is the core reproducibility contract: two
// in-process runs with the same seed produce byte-identical generation
// logs and identical fronts.
func TestSearchDeterminism(t *testing.T) {
	var log1, log2 bytes.Buffer
	res1 := runSearch(t, testOptions(&log1), newLocalEvaluator(nil))
	res2 := runSearch(t, testOptions(&log2), newLocalEvaluator(nil))
	if log1.String() != log2.String() {
		t.Fatalf("generation logs differ:\n--- run 1\n%s--- run 2\n%s", log1.String(), log2.String())
	}
	if !frontsEqual(res1.Front, res2.Front) {
		t.Fatalf("fronts differ:\n%v\n%v", res1.Front, res2.Front)
	}
	if len(res1.Front) == 0 {
		t.Fatal("empty front")
	}
	if res1.Default.Genome.Key() != DefaultGenome().Key() {
		t.Fatalf("default genome missing from result: %+v", res1.Default)
	}
}

func frontsEqual(a, b []Candidate) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Genome != b[i].Genome || a[i].Obj != b[i].Obj || a[i].Score != b[i].Score {
			return false
		}
	}
	return true
}

// TestSearchResume kills a search at every generation boundary in turn
// and resumes it from the checkpoint, requiring the identical front.
// The resumed search shares the first run's store, so re-running the
// interrupted generation costs store hits, not fresh simulations.
func TestSearchResume(t *testing.T) {
	var wantLog bytes.Buffer
	wantStore, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	wantOpts := testOptions(&wantLog)
	wantOpts.Checkpoint = wantStore
	want := runSearch(t, wantOpts, newLocalEvaluator(wantStore))

	for stopAfter := 1; stopAfter <= 2; stopAfter++ {
		st, err := store.Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		// Phase 1: the full search, killed (context-canceled) after
		// stopAfter completed generations. The checkpoint left behind
		// is the one a SIGKILL mid-generation leaves, since checkpoints
		// are written at generation start.
		runPartialSearch(t, st, stopAfter)

		var resumeLog bytes.Buffer
		ropts := testOptions(&resumeLog)
		ropts.Checkpoint = st
		s, err := New(ropts, newLocalEvaluator(st))
		if err != nil {
			t.Fatal(err)
		}
		if !s.resumed {
			t.Fatalf("stopAfter=%d: search did not resume from checkpoint", stopAfter)
		}
		got, err := s.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if !frontsEqual(got.Front, want.Front) {
			t.Fatalf("stopAfter=%d: resumed front differs\nwant %v\ngot  %v", stopAfter, want.Front, got.Front)
		}
	}
}

// runPartialSearch runs the standard test search against st but cancels
// it once `gens` generations have completed, leaving the checkpoint a
// kill at that point would leave.
func runPartialSearch(t *testing.T, st *store.Store, gens int) {
	t.Helper()
	opts := testOptions(&bytes.Buffer{})
	opts.Checkpoint = st
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := 0
	opts.Log = writerFunc(func(p []byte) (int, error) {
		done++
		if done >= gens {
			cancel() // aborts at the next generation's context check
		}
		return len(p), nil
	})
	s, err := New(opts, newLocalEvaluator(st))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(ctx); err == nil {
		t.Fatalf("partial search (gens=%d) ran to completion", gens)
	}
}

type writerFunc func([]byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }

// TestWarmStoreRerunIsFree re-runs an identical search against the
// first run's store: the second search must perform zero fresh
// simulations — every cell, baseline included, is a store hit.
func TestWarmStoreRerunIsFree(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	first := runSearch(t, testOptions(&bytes.Buffer{}), newLocalEvaluator(st))

	ev := newLocalEvaluator(st)
	second := runSearch(t, testOptions(&bytes.Buffer{}), ev)
	if !frontsEqual(first.Front, second.Front) {
		t.Fatal("warm-store re-run produced a different front")
	}
	if stats := ev.Pool.Stats(); stats.Runs != 0 {
		t.Fatalf("warm-store re-run performed %d fresh simulations, want 0", stats.Runs)
	}
}

// TestSearchBeatsDefault pins the headline acceptance: on the
// fragmented scenario the search finds a genome strictly Pareto-
// dominating the paper default.
func TestSearchBeatsDefault(t *testing.T) {
	var log bytes.Buffer
	opts := testOptions(&log)
	opts.Generations = 4
	res := runSearch(t, opts, newLocalEvaluator(nil))
	if !res.BestDominatesDefault {
		t.Fatalf("no evaluated genome dominates the paper default\nfront: %+v\ndefault: %+v\nlog:\n%s",
			res.Front, res.Default, log.String())
	}
}

// TestGenerationLogHasSources checks the dedup-visibility satellite:
// every generation line carries the evaluation-source counters.
func TestGenerationLogHasSources(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var log bytes.Buffer
	runSearch(t, testOptions(&log), newLocalEvaluator(st))
	lines := strings.Split(strings.TrimSpace(log.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("want 3 generation lines, got %d:\n%s", len(lines), log.String())
	}
	for _, l := range lines {
		if !strings.Contains(l, "store ") || !strings.Contains(l, "fresh ") || !strings.Contains(l, "rung resumes") {
			t.Fatalf("generation line missing source counters: %s", l)
		}
	}
}

// TestMutationBoundedAndValid: mutants stay on the menus and validate;
// the operator prunes geometry-impossible steps instead of emitting
// them.
func TestMutationBoundedAndValid(t *testing.T) {
	opts := testOptions(&bytes.Buffer{})
	s, err := New(opts, newLocalEvaluator(nil))
	if err != nil {
		t.Fatal(err)
	}
	g := DefaultGenome()
	for i := 0; i < 500; i++ {
		g = s.mutate(g)
		if err := g.onMenus(); err != nil {
			t.Fatal(err)
		}
		if err := g.validate(opts.withDefaults().Scenario); err != nil {
			t.Fatalf("mutation produced invalid genome %s: %v", g.Key(), err)
		}
	}
}

// TestGenomeNormalization: the speculation threshold collapses to 0
// under non-counter policies so equivalent genomes share a key.
func TestGenomeNormalization(t *testing.T) {
	g := DefaultGenome()
	g.Sched = "always-fast"
	g.SpecThreshold = 8
	if n := g.normalize(); n.SpecThreshold != 0 {
		t.Fatalf("normalize kept threshold %d under %s", n.SpecThreshold, n.Sched)
	}
}

// TestCheckpointFingerprintGuards: a checkpoint from different options
// is not resumed.
func TestCheckpointFingerprintGuards(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	opts := testOptions(&bytes.Buffer{})
	opts.Checkpoint = st
	opts.CheckpointName = "shared"
	runSearch(t, opts, newLocalEvaluator(st))

	other := opts
	other.Seed = 99 // different trajectory
	s, err := New(other, newLocalEvaluator(st))
	if err != nil {
		t.Fatal(err)
	}
	if s.resumed {
		t.Fatal("resumed a checkpoint written by a different search")
	}
}

// TestRetiredCheckpointSchemaIgnored: a checkpoint stamped with the
// retired schema 1 is not resumed, and the restarted search against the
// same store reaches the same front without a single fresh simulation —
// the store, not the checkpoint, is what holds the evaluated cells.
func TestRetiredCheckpointSchemaIgnored(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	opts := testOptions(&bytes.Buffer{})
	opts.Checkpoint = st
	opts.CheckpointName = "retired"
	first := runSearch(t, opts, newLocalEvaluator(st))

	blob, ok := st.GetCheckpoint("retired")
	if !ok {
		t.Fatal("search left no checkpoint")
	}
	var ck checkpointState
	if err := json.Unmarshal(blob, &ck); err != nil {
		t.Fatal(err)
	}
	ck.Schema = 1
	if blob, err = json.Marshal(ck); err != nil {
		t.Fatal(err)
	}
	if err := st.PutCheckpoint("retired", blob); err != nil {
		t.Fatal(err)
	}

	ev := newLocalEvaluator(st)
	second := runSearch(t, opts, ev)
	if second.Resumed {
		t.Fatal("resumed a checkpoint stamped with the retired schema 1")
	}
	if !frontsEqual(first.Front, second.Front) {
		t.Fatal("restarted search produced a different front")
	}
	if stats := ev.Pool.Stats(); stats.Runs != 0 {
		t.Fatalf("restarted search performed %d fresh simulations, want 0", stats.Runs)
	}
}
