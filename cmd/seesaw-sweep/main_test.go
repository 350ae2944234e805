package main

import (
	"context"
	"errors"
	"strings"
	"testing"

	"seesaw/internal/cliutil"
	"seesaw/internal/runner"
	"seesaw/internal/sim"
	"seesaw/internal/workload"
)

func testSweepOptions(t *testing.T, parallel int) sweepOptions {
	t.Helper()
	var profiles []workload.Profile
	for _, n := range []string{"redis", "mcf"} {
		p, err := workload.ByName(n)
		if err != nil {
			t.Fatal(err)
		}
		profiles = append(profiles, p)
	}
	return sweepOptions{
		profiles: profiles,
		sizesKB:  []float64{32, 64},
		freqs:    []float64{1.33},
		refs:     5_000,
		seed:     42,
		parallel: parallel,
	}
}

// TestSweepParallelMatchesSerial: the sweep table is byte-identical for
// any worker count — cells are reduced in submission order.
func TestSweepParallelMatchesSerial(t *testing.T) {
	serialTb, fails, err := sweepTable(testSweepOptions(t, 1))
	if err != nil {
		t.Fatal(err)
	}
	if len(fails) != 0 {
		t.Fatalf("serial sweep reported failures: %v", fails)
	}
	parallelTb, fails, err := sweepTable(testSweepOptions(t, 4))
	if err != nil {
		t.Fatal(err)
	}
	if len(fails) != 0 {
		t.Fatalf("parallel sweep reported failures: %v", fails)
	}
	serial, parallel := serialTb.String(), parallelTb.String()
	if serial != parallel {
		t.Errorf("parallel sweep differs from serial:\n--- serial ---\n%s\n--- parallel ---\n%s",
			serial, parallel)
	}
	if !strings.Contains(serial, "VIPT (baseline)") || !strings.Contains(serial, "SEESAW") {
		t.Errorf("sweep table missing expected designs:\n%s", serial)
	}
	// The matrix enumerates the registry, so every registered design —
	// including post-enum arrivals like VESPA — must have a row.
	for _, d := range sim.DesignInfos() {
		if d.Name == sim.KindBaseline || d.Name == sim.KindSeesaw || d.Name == sim.KindPIPT {
			continue
		}
		if !strings.Contains(serial, d.Display) {
			t.Errorf("sweep table missing registered design %q (%s):\n%s", d.Name, d.Display, serial)
		}
	}
}

// TestSweepDegradesGracefullyOnPanickingCell: with one design/workload
// combination panicking inside the run function, the sweep still
// produces the full table — the poisoned rows read "failed", every other
// row carries real numbers, and the failure is reported with enough
// context to identify the cell.
func TestSweepDegradesGracefullyOnPanickingCell(t *testing.T) {
	o := testSweepOptions(t, 4)
	o.refs = 2_000
	poisoned := 0
	o.pool = runner.NewWithRunContext(4, func(_ context.Context, cfg sim.Config) (*sim.Report, error) {
		if cfg.Workload.Name == "mcf" && cfg.CacheKind == sim.KindPIPT {
			poisoned++
			panic("injected: simulator bug in this one cell")
		}
		// A fast stand-in for sim.Run: deterministic numbers per cell.
		kindBump := map[sim.CacheKind]uint64{
			sim.KindBaseline: 0, sim.KindSeesaw: 10, sim.KindPIPT: 20, sim.KindVespa: 30,
		}
		return &sim.Report{
			Cycles:        1000 + uint64(cfg.L1Size>>10) + kindBump[cfg.CacheKind],
			EnergyTotalNJ: 5000,
			IPC:           1.5,
		}, nil
	})
	tb, fails, err := sweepTable(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(fails) == 0 {
		t.Fatal("poisoned cells produced no recorded failures")
	}
	for _, f := range fails {
		if !strings.Contains(f.cell, "mcf") {
			t.Errorf("failure %q does not identify the poisoned cell", f.cell)
		}
		var ce *runner.CellError
		if !errors.As(f.err, &ce) {
			t.Errorf("failure is not a typed CellError: %v", f.err)
		}
	}
	out := tb.String()
	// PIPT rows lost one of two workloads, so they still average over the
	// surviving one; every row must exist and the table must carry real
	// numbers elsewhere.
	if !strings.Contains(out, "PIPT 4w (small TLB)") {
		t.Errorf("table dropped the design with the failing cell:\n%s", out)
	}
	if !strings.Contains(out, "VIPT (baseline)") {
		t.Errorf("table missing baseline rows:\n%s", out)
	}
}

// TestSweepRowAllFailedMarked: when every workload of a row fails, the
// row stays in the table marked "failed" rather than vanishing.
func TestSweepRowAllFailedMarked(t *testing.T) {
	o := testSweepOptions(t, 2)
	o.pool = runner.NewWithRunContext(2, func(_ context.Context, cfg sim.Config) (*sim.Report, error) {
		if cfg.CacheKind == sim.KindPIPT {
			panic("PIPT model is broken today")
		}
		return &sim.Report{Cycles: 1000, EnergyTotalNJ: 1, IPC: 1}, nil
	})
	tb, fails, err := sweepTable(o)
	if err != nil {
		t.Fatal(err)
	}
	// Two sizes x two workloads of PIPT cells all fail.
	if len(fails) != 4 {
		t.Fatalf("failures = %d, want 4: %v", len(fails), fails)
	}
	if !strings.Contains(tb.String(), "failed") {
		t.Errorf("all-failed row not marked in table:\n%s", tb.String())
	}
}

// TestChaosTableCleanAtSeed is the acceptance run in miniature: every
// fault schedule crossed with every design under the invariant checker
// must inject faults and report zero violations.
func TestChaosTableCleanAtSeed(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos sweep is a multi-cell run")
	}
	var profiles []workload.Profile
	p, err := workload.ByName("redis")
	if err != nil {
		t.Fatal(err)
	}
	profiles = append(profiles, p)
	o := sweepOptions{
		profiles: profiles,
		refs:     2_000,
		seed:     42,
		parallel: 4,
	}
	tb, fails, violations, err := chaosTable(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(fails) != 0 {
		t.Fatalf("chaos cells failed: %v", fails)
	}
	if violations != 0 {
		t.Fatalf("chaos sweep found %d violations at seed:\n%s", violations, tb.String())
	}
	out := tb.String()
	for _, want := range []string{"splinter", "shootdown", "mix", "SEESAW", "VIPT (baseline)", "PIPT (small TLB)"} {
		if !strings.Contains(out, want) {
			t.Errorf("chaos table missing %q:\n%s", want, out)
		}
	}
	// Count rows as a sanity bound: schedules x 3 designs.
	if rows := strings.Count(out, "\n"); rows < 6 {
		t.Errorf("suspiciously small chaos table:\n%s", out)
	}
}

// TestSweepListParsing: the flag lists reject stray commas with a clear
// error instead of silently mis-parsing.
func TestSweepListParsing(t *testing.T) {
	for _, bad := range []string{"32,,64", "32,64,", ",32", " , "} {
		if _, err := cliutil.ParseFloats(bad); err == nil {
			t.Errorf("ParseFloats(%q) must reject empty entries", bad)
		}
		if _, err := cliutil.SplitList(bad); err == nil {
			t.Errorf("SplitList(%q) must reject empty entries", bad)
		}
	}
	vals, err := cliutil.ParseFloats(" 32, 64 ")
	if err != nil || len(vals) != 2 || vals[0] != 32 || vals[1] != 64 {
		t.Errorf("ParseFloats(\" 32, 64 \") = %v, %v", vals, err)
	}
	if _, err := cliutil.ParseFloats("32,abc"); err == nil {
		t.Error("ParseFloats must reject non-numeric entries")
	}
}
