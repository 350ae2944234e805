package sim

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"seesaw/internal/faults"
	"seesaw/internal/metrics"
	"seesaw/internal/tft"
)

// -update regenerates the golden report files instead of comparing:
//
//	go test ./internal/sim -run TestGoldenReport -update
var updateGolden = flag.Bool("update", false, "rewrite the golden report files")

// goldenConfig is seesaw-sim's default invocation for one cache kind:
// redis, seed 42, 200k references, 32KB L1 at 1.33GHz on the OoO core
// with a 16-entry TFT. The golden files pin the full text report this
// produces, so any change to simulation results, statistics, energy
// accounting, or report formatting shows up as a readable diff.
func goldenConfig(t *testing.T, kind CacheKind) Config {
	t.Helper()
	cfg := Config{
		Workload:  mustProfile(t, "redis"),
		Seed:      42,
		Refs:      200_000,
		CacheKind: kind,
		L1Size:    32 << 10,
		FreqGHz:   1.33,
		CPUKind:   "ooo",
		TFT:       tft.Config{Entries: 16},
	}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	return cfg
}

// TestGoldenReport locks down the default-seed seesaw-sim report for
// every registered cache design, byte for byte, plus the lookup variants
// the designs share code for: way-predicted baseline and SEESAW lookups
// and SEESAW's 4way-8way insertion policy. Two more pin the clock: SEESAW
// at 4 GHz, and Fig 14's serial PIPT cell (128KB, 8 ways, a 2-cycle
// serial TLB and the reduced TLBs) at 2.8 GHz. A design registered without
// a golden fails here with the -update hint. A legitimate behaviour
// change is recorded by re-running with -update and reviewing the diff.
func TestGoldenReport(t *testing.T) {
	type goldenCase struct {
		name   string
		kind   CacheKind
		mutate func(*Config)
	}
	var cases []goldenCase
	for _, name := range DesignNames() {
		cases = append(cases, goldenCase{name, CacheKind(name), func(*Config) {}})
	}
	cases = append(cases,
		goldenCase{"baseline_waypredict", KindBaseline, func(c *Config) { c.WayPredict = true }},
		goldenCase{"seesaw_waypredict", KindSeesaw, func(c *Config) { c.WayPredict = true }},
		goldenCase{"seesaw_4way-8way", KindSeesaw, func(c *Config) { c.Policy = FourEightWay }},
		goldenCase{"seesaw_4ghz", KindSeesaw, func(c *Config) { c.FreqGHz = 4 }},
		goldenCase{"pipt_128k_2.8ghz", KindPIPT, func(c *Config) {
			c.L1Size, c.L1Ways, c.SerialTLBCycles, c.SmallTLB, c.FreqGHz = 128<<10, 8, 2, true, 2.8
		}},
	)
	for _, k := range cases {
		t.Run(k.name, func(t *testing.T) {
			cfg := goldenConfig(t, k.kind)
			k.mutate(&cfg)
			if err := cfg.Validate(); err != nil {
				t.Fatal(err)
			}
			r, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := r.WriteText(&buf); err != nil {
				t.Fatal(err)
			}
			compareGolden(t, filepath.Join("testdata", "golden", "report_"+k.name+".txt"), buf.Bytes())
		})
	}
}

// TestGoldenChaosReport pins one fault-injected run per registered cache
// design: the shootdown schedule with the invariant checker on. Beyond
// the report numbers it asserts the run stays violation-free, so the
// golden diff doubles as a chaos regression gate.
func TestGoldenChaosReport(t *testing.T) {
	for _, name := range DesignNames() {
		t.Run(name, func(t *testing.T) {
			cfg := goldenConfig(t, CacheKind(name))
			cfg.Refs = 20_000
			cfg.MemhogFraction = 0.4
			cfg.CheckInvariants = true
			cfg.Faults = &faults.Config{Schedule: "shootdown", Every: 500}
			r, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if r.Check == nil || r.Check.Checks == 0 {
				t.Fatal("chaos golden run performed no invariant checks")
			}
			if r.Check.Violations != 0 {
				t.Fatalf("chaos golden run found %d violations", r.Check.Violations)
			}
			if r.Faults == nil || r.Faults.Injected == 0 {
				t.Fatal("chaos golden run injected no faults")
			}
			var buf bytes.Buffer
			if err := r.WriteText(&buf); err != nil {
				t.Fatal(err)
			}
			compareGolden(t, filepath.Join("testdata", "golden", "chaos_"+name+".txt"), buf.Bytes())
		})
	}
}

// TestGoldenReportMetricsInvisible: enabling the observability layer must
// not perturb the simulation — the report with metrics on differs from
// the golden file only by the added "metrics:" line.
func TestGoldenReportMetricsInvisible(t *testing.T) {
	cfg := goldenConfig(t, KindSeesaw)
	cfg.Metrics = &metrics.Config{EpochRefs: 10_000}
	r, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := r.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	golden, err := os.ReadFile(filepath.Join("testdata", "golden", "report_seesaw.txt"))
	if err != nil {
		t.Fatal(err)
	}
	got := buf.Bytes()
	var stripped []byte
	for _, line := range bytes.SplitAfter(got, []byte("\n")) {
		if bytes.HasPrefix(line, []byte("metrics:")) {
			continue
		}
		stripped = append(stripped, line...)
	}
	if !bytes.Equal(stripped, golden) {
		t.Errorf("metrics-enabled report diverges beyond the metrics line:\n--- got (stripped) ---\n%s\n--- golden ---\n%s",
			stripped, golden)
	}
	if bytes.Equal(got, stripped) {
		t.Error("metrics-enabled report is missing its metrics: line")
	}
}

// compareGolden diffs got against the golden file, rewriting it under
// -update.
func compareGolden(t *testing.T, path string, got []byte) {
	t.Helper()
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (regenerate with -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("report diverges from %s (re-run with -update if intended):\n--- got ---\n%s\n--- want ---\n%s",
			path, got, want)
	}
}
