package experiments

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"seesaw/internal/runner"
	"seesaw/internal/sim"
	"seesaw/internal/workload"
)

// tinyOpts keeps experiment smoke tests fast.
func tinyOpts() Options {
	return Options{Refs: 8_000, Seed: 7, Workloads: []string{"redis", "mcf"}}
}

func TestRegistryCoversEveryExperiment(t *testing.T) {
	want := []string{
		"fig2a", "fig2b", "fig2c", "fig3",
		"table1", "table2", "table3",
		"fig7", "fig8", "fig9", "fig10", "fig11", "fig12", "fig13", "fig14", "fig15",
		"ablation-insertion", "ablation-scheduler", "ablation-tft-assoc", "ablation-snoopy",
		"ablation-1g", "ext-icache", "ablation-partition", "ablation-prefetch",
		"ablation-replacement", "energy-breakdown", "evolve-best",
		"vespa-vs-seesaw",
	}
	ids := IDs()
	have := map[string]bool{}
	for _, id := range ids {
		have[id] = true
	}
	for _, w := range want {
		if !have[w] {
			t.Errorf("experiment %q missing from registry", w)
		}
	}
	if len(ids) != len(want) {
		t.Errorf("registry has %d entries, want %d: %v", len(ids), len(want), ids)
	}
}

func TestRunUnknownID(t *testing.T) {
	if _, err := Run("fig99", tinyOpts()); err == nil {
		t.Error("unknown id must error")
	}
}

// TestAllExperimentsProduceTables smoke-runs every registered experiment
// at tiny scale and sanity-checks table structure.
func TestAllExperimentsProduceTables(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment sweep in -short mode")
	}
	for _, id := range IDs() {
		id := id
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			tb, err := Run(id, tinyOpts())
			if err != nil {
				t.Fatalf("%s: %v", id, err)
			}
			if len(tb.Rows) == 0 {
				t.Fatalf("%s: empty table", id)
			}
			if len(tb.Headers) < 2 {
				t.Fatalf("%s: missing headers", id)
			}
			out := tb.String()
			if len(out) == 0 || !strings.Contains(out, tb.Headers[0]) {
				t.Fatalf("%s: unrenderable table", id)
			}
		})
	}
}

func TestTableIIIMatchesPaperAnchors(t *testing.T) {
	tb, err := TableIII()
	if err != nil {
		t.Fatal(err)
	}
	// Rows: (32KB,64KB,128KB) x (1.33,2.80,4.00); columns: size, assoc,
	// freq, tft, base, super.
	wantBase := []string{"2", "4", "5", "5", "9", "13", "14", "30", "42"}
	wantSuper := []string{"1", "2", "3", "1", "2", "3", "2", "3", "4"}
	if len(tb.Rows) != 9 {
		t.Fatalf("Table III has %d rows, want 9", len(tb.Rows))
	}
	for i, row := range tb.Rows {
		if row[4] != wantBase[i] || row[5] != wantSuper[i] {
			t.Errorf("row %d: base/super = %s/%s, want %s/%s",
				i, row[4], row[5], wantBase[i], wantSuper[i])
		}
	}
}

func TestTableIReflectsHardwareBehaviour(t *testing.T) {
	tb, err := TableI()
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 4 {
		t.Fatalf("Table I has %d rows, want 4", len(tb.Rows))
	}
	// Row 1 (2MB/TFT hit): 1 cycle, 4 ways. Rows 3-4: 2 cycles, 8 ways.
	if tb.Rows[0][3] != "1" || tb.Rows[0][4] != "4" {
		t.Errorf("fast row = %v", tb.Rows[0])
	}
	for _, i := range []int{2, 3} {
		if tb.Rows[i][3] != "2" || tb.Rows[i][4] != "8" {
			t.Errorf("slow row %d = %v", i, tb.Rows[i])
		}
	}
}

func TestFig2bMonotoneRows(t *testing.T) {
	tb, err := Fig2b()
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tb.Rows {
		prev := 0.0
		for _, cell := range row[1:] {
			v, err := strconv.ParseFloat(cell, 64)
			if err != nil {
				t.Fatalf("bad cell %q", cell)
			}
			if v <= prev {
				t.Errorf("latency row %v not increasing", row)
			}
			prev = v
		}
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.Refs != 100_000 || o.Seed != 42 || len(o.Workloads) != 16 {
		t.Errorf("defaults = %+v", o)
	}
	if o.Pool == nil {
		t.Error("withDefaults must provide a pool")
	}
	if _, err := profilesFor([]string{"nope"}); err == nil {
		t.Error("unknown workload must error")
	}
}

// TestOptionsExplicitZero: Seed 0 and Refs 0 are valid explicit choices;
// the Set flags keep withDefaults from silently replacing them.
func TestOptionsExplicitZero(t *testing.T) {
	o := Options{SeedSet: true, RefsSet: true}.withDefaults()
	if o.Seed != 0 {
		t.Errorf("explicit seed 0 replaced with %d", o.Seed)
	}
	if o.Refs != 0 {
		t.Errorf("explicit refs 0 replaced with %d", o.Refs)
	}
	// baseConfig must carry explicit zero refs past sim's own defaulting.
	p, err := workload.ByName("redis")
	if err != nil {
		t.Fatal(err)
	}
	cfg := baseConfig(o, p, sim.KindBaseline, 64<<10, 1.33, "ooo")
	if cfg.Refs >= 0 {
		t.Errorf("explicit zero refs not encoded as sentinel: %d", cfg.Refs)
	}
	r, err := sim.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.L1Hits+r.L1Misses != 0 {
		t.Errorf("zero-ref run touched the cache: %d hits, %d misses", r.L1Hits, r.L1Misses)
	}
	// Seed 0 must actually be seed 0: it differs from the default seed 42.
	zero := baseConfig(o, p, sim.KindBaseline, 64<<10, 1.33, "ooo")
	zero.Refs = 5_000
	def := zero
	def.Seed = 42
	rz, err := sim.Run(zero)
	if err != nil {
		t.Fatal(err)
	}
	rd, err := sim.Run(def)
	if err != nil {
		t.Fatal(err)
	}
	if rz.Cycles == rd.Cycles && rz.L1Misses == rd.L1Misses {
		t.Error("seed 0 produced the same run as seed 42; explicit zero likely dropped")
	}
}

// TestParallelMatchesSerialTables: representative figures render
// byte-identical tables whether the cells run serially or on many
// workers — the determinism guarantee the whole harness rests on.
func TestParallelMatchesSerialTables(t *testing.T) {
	for _, id := range []string{"fig7", "fig12", "ablation-snoopy"} {
		id := id
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			render := func(workers int) string {
				o := tinyOpts()
				o.Pool = runner.New(workers)
				tb, err := Run(id, o)
				if err != nil {
					t.Fatal(err)
				}
				return tb.String()
			}
			serial := render(1)
			concurrent := render(4)
			if serial != concurrent {
				t.Errorf("%s: parallel table differs from serial:\n--- serial ---\n%s\n--- parallel ---\n%s",
					id, serial, concurrent)
			}
		})
	}
}

// TestSharedPoolDedupesAcrossFigures: fig11 and energy-breakdown compare
// against the same (64KB, 1.33GHz, OoO) cells; a shared pool runs each
// distinct cell once.
func TestSharedPoolDedupesAcrossFigures(t *testing.T) {
	o := tinyOpts()
	o.Pool = runner.New(2)
	for _, id := range []string{"fig11", "energy-breakdown"} {
		if _, err := Run(id, o); err != nil {
			t.Fatal(err)
		}
	}
	st := o.Pool.Stats()
	if st.CacheHits == 0 {
		t.Errorf("shared pool saw no cache hits across identical figures: %+v", st)
	}
	if st.Runs+st.CacheHits != st.Submitted {
		t.Errorf("stats don't balance: %+v", st)
	}
	// The two figures submit identical cell sets, so the second is served
	// entirely from cache.
	if st.Runs != st.Submitted/2 {
		t.Errorf("expected full dedup of the second figure: %+v", st)
	}
}

// TestPlansDoNotWait: a plan submits its cells and returns without
// awaiting any. On a two-worker pool whose cells block until released,
// planning every experiment returns while no cell has finished; once
// the cells are released, every render returns its table. A plan that
// awaits a cell fails the test at the deadline instead of hanging it.
func TestPlansDoNotWait(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment sweep in -short mode")
	}
	release := make(chan struct{})
	var finished atomic.Int64
	o := tinyOpts()
	o.Pool = runner.NewWithRunContext(2, func(ctx context.Context, cfg sim.Config) (*sim.Report, error) {
		select {
		case <-release:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		defer finished.Add(1)
		return sim.RunContext(ctx, cfg)
	})
	done := make(chan error, 1)
	var planned []*Planned
	go func() {
		for _, id := range IDs() {
			p, err := Plan(id, o)
			if err != nil {
				done <- fmt.Errorf("%s: %w", id, err)
				return
			}
			planned = append(planned, p)
		}
		done <- nil
	}()
	select {
	case err := <-done:
		if err != nil {
			close(release)
			t.Fatal(err)
		}
	case <-time.After(20 * time.Second):
		close(release)
		t.Fatal("planning every experiment did not return: a plan awaits a cell")
	}
	if n := finished.Load(); n != 0 {
		t.Errorf("%d cells finished before any was released", n)
	}
	close(release)
	for i, p := range planned {
		tb, err := p.Render()
		if err != nil {
			t.Fatalf("%s: %v", IDs()[i], err)
		}
		if len(tb.Rows) == 0 {
			t.Errorf("%s: empty table", IDs()[i])
		}
	}
}

// TestPlannedBatchMatchesRun: planning every experiment on one pool and
// rendering them in id order, as seesaw-figures does, gives tables
// byte-identical to Run of each experiment on a fresh pool.
func TestPlannedBatchMatchesRun(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment sweep in -short mode")
	}
	o := tinyOpts()
	o.Pool = runner.New(2)
	var planned []*Planned
	for _, id := range IDs() {
		p, err := Plan(id, o)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		planned = append(planned, p)
	}
	for i, id := range IDs() {
		got, err := planned[i].Render()
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		fresh := tinyOpts()
		fresh.Pool = runner.New(2)
		want, err := Run(id, fresh)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if got.String() != want.String() {
			t.Errorf("%s: batch table differs from Run:\n--- batch ---\n%s\n--- run ---\n%s", id, got, want)
		}
	}
}
