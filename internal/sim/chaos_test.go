package sim

import (
	"testing"

	"seesaw/internal/faults"
)

// chaosCfg is quickCfg plus the invariant checker and aggressive OS
// background activity, so splinters, promotions, and context switches
// all land mid-run.
func chaosCfg(t *testing.T, kind CacheKind) Config {
	cfg := quickCfg(t, "redis", kind)
	cfg.Refs = 4_000
	cfg.ContextSwitchEvery = 1_000
	cfg.PromoteScanEvery = 400
	cfg.SplinterEvery = 300
	cfg.MemhogFraction = 0.3 // leave base chunks so promotion has work
	cfg.CheckInvariants = true
	if kind == KindPIPT {
		cfg.SerialTLBCycles = 2
	}
	return cfg
}

// TestMidRunSplinterPromoteAllKinds interleaves splinters and promotion
// scans with accesses on every cache design and asserts the invariant
// checker finds nothing: translations stay fresh, invlpgs reach every
// TLB/TFT, promotion sweeps leave no stale lines.
func TestMidRunSplinterPromoteAllKinds(t *testing.T) {
	for _, kind := range []CacheKind{KindBaseline, KindSeesaw, KindPIPT} {
		t.Run(kind.String(), func(t *testing.T) {
			r, err := Run(chaosCfg(t, kind))
			if err != nil {
				t.Fatal(err)
			}
			if r.Splinters == 0 {
				t.Error("no splinter ever fired mid-run")
			}
			if r.Promotions == 0 {
				t.Error("no promotion ever fired mid-run")
			}
			if r.Check == nil || r.Check.Checks == 0 {
				t.Fatal("invariant checker never ran")
			}
			if r.Check.Violations != 0 {
				t.Fatalf("%d invariant violations: %v", r.Check.Violations, r.Check.Sample)
			}
		})
	}
}

// TestFaultScheduleMixCleanOnAllKinds runs the full fault mix under the
// checker on every design: injected splinters, shootdown bursts, forced
// context switches, promotion storms, and memory-pressure spikes must
// all leave the system coherent.
func TestFaultScheduleMixCleanOnAllKinds(t *testing.T) {
	for _, kind := range []CacheKind{KindBaseline, KindSeesaw, KindPIPT} {
		t.Run(kind.String(), func(t *testing.T) {
			cfg := chaosCfg(t, kind)
			cfg.Refs = 3_000
			cfg.Faults = &faults.Config{Schedule: "mix", Every: 250}
			r, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if r.Faults == nil || r.Faults.Injected == 0 {
				t.Fatal("no faults injected")
			}
			if r.Check.Violations != 0 {
				t.Fatalf("fault mix broke invariants (%d): %v", r.Check.Violations, r.Check.Sample)
			}
		})
	}
}

// TestFaultedRunIsDeterministic: two runs of the same faulted, checked
// configuration must agree bit-for-bit on every headline number.
func TestFaultedRunIsDeterministic(t *testing.T) {
	cfg := chaosCfg(t, KindSeesaw)
	cfg.Faults = &faults.Config{Schedule: "mix", Every: 250}
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Cycles != b.Cycles || a.L1Hits != b.L1Hits || a.L1Misses != b.L1Misses {
		t.Fatalf("faulted run diverged: %d/%d/%d vs %d/%d/%d",
			a.Cycles, a.L1Hits, a.L1Misses, b.Cycles, b.L1Hits, b.L1Misses)
	}
	if *a.Faults != *b.Faults {
		t.Fatalf("fault stream diverged: %+v vs %+v", *a.Faults, *b.Faults)
	}
	if a.Check.Checks != b.Check.Checks || a.Check.Violations != b.Check.Violations {
		t.Fatalf("checker diverged: %d/%d vs %d/%d",
			a.Check.Checks, a.Check.Violations, b.Check.Checks, b.Check.Violations)
	}
}

// TestCheckerCatchesDroppedTFTInvalidation is the mutation test: with
// the TFT side of invlpg deliberately suppressed, splinters leave stale
// TFT entries behind, and the checker must catch them — either as an
// entry surviving the invlpg or as a later stale fast-path endorsement.
func TestCheckerCatchesDroppedTFTInvalidation(t *testing.T) {
	cfg := chaosCfg(t, KindSeesaw)
	cfg.ContextSwitchEvery = -1 // context switches flush the TFT and would hide the bug
	cfg.Faults = &faults.Config{Schedule: "splinter", Every: 200, DropTFTInvalidate: true}

	r, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.Faults.Splinters == 0 {
		t.Fatal("no splinter fault injected; mutation never exercised")
	}
	caught := r.Check.ByKind["tft-entry-survived"] + r.Check.ByKind["tft-stale-hit"]
	if caught == 0 {
		t.Fatalf("broken TFT invalidation not caught; report %+v", r.Check)
	}

	// The clean twin — same schedule with the invalidation intact —
	// passes every check.
	cfg.Faults = &faults.Config{Schedule: "splinter", Every: 200}
	clean, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if clean.Check.Violations != 0 {
		t.Fatalf("intact protocol flagged (%d): %v", clean.Check.Violations, clean.Check.Sample)
	}
	if clean.TFT.Invalidations == 0 {
		t.Error("clean twin recorded no TFT invalidations despite splinter faults")
	}
}

// TestTFTCountersSurfaceInReport: a run with context switches and
// splinters must surface non-zero TFT fill and flush counters.
func TestTFTCountersSurfaceInReport(t *testing.T) {
	r, err := Run(chaosCfg(t, KindSeesaw))
	if err != nil {
		t.Fatal(err)
	}
	if r.TFT.Fills == 0 {
		t.Error("TFT.Fills = 0")
	}
	if r.TFT.Flushes == 0 {
		t.Error("TFT.Flushes = 0 despite context switches")
	}
}

// TestValidateRejectsImpossibleConfigs covers the error paths commands
// turn into exit code 2.
func TestValidateRejectsImpossibleConfigs(t *testing.T) {
	base := quickCfg(t, "redis", KindSeesaw)
	bad := []struct {
		name   string
		mutate func(*Config)
	}{
		{"vipt-constraint", func(c *Config) { c.L1Size = 256 << 10; c.L1Ways = 4 }},
		{"unknown-cpu", func(c *Config) { c.CPUKind = "vliw" }},
		{"memhog-range", func(c *Config) { c.MemhogFraction = 1.2 }},
		{"scheduler-conflict", func(c *Config) { c.SchedulerAlwaysFast = true; c.SchedulerAlwaysSlow = true }},
		{"bad-fault-schedule", func(c *Config) { c.Faults = &faults.Config{Schedule: "meteor"} }},
		{"pipt-waypredict", func(c *Config) { c.CacheKind = KindPIPT; c.WayPredict = true }},
		{"coherence-domain", func(c *Config) { c.Workload.Threads = 32; c.ICache = true }},
		{"trace-heap1g", func(c *Config) {
			c.Trace = generateTrace(t, "redis", c.Seed, 1000)
			c.Heap1G = true
			c.MemBytes = 4 << 30
		}},
	}
	for _, tc := range bad {
		t.Run(tc.name, func(t *testing.T) {
			cfg := base
			tc.mutate(&cfg)
			if err := cfg.Validate(); err == nil {
				t.Fatal("Validate accepted an impossible config")
			}
			if _, err := Run(cfg); err == nil {
				t.Fatal("Run accepted an impossible config")
			}
		})
	}
	if err := base.Validate(); err != nil {
		t.Fatalf("Validate rejected the known-good config: %v", err)
	}
}
