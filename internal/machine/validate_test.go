package machine

import (
	"context"
	"errors"
	"testing"

	"seesaw/internal/core"
	"seesaw/internal/tft"
	"seesaw/internal/trace"
	"seesaw/internal/workload"
)

// TestValidateTypedErrors pins the knob-combination rules a mutator
// prunes on: each rejected config must come back as a *ConfigError
// carrying the expected stable Rule, and each legal neighbour must pass.
func TestValidateTypedErrors(t *testing.T) {
	base := func() Config { return testConfig(t, KindSeesaw) }
	cases := []struct {
		name string
		mut  func(*Config)
		rule Rule // "" = must validate cleanly
	}{
		{"default-ok", func(c *Config) {}, ""},
		{"partitions-not-pow2", func(c *Config) { c.Partitions = 3 }, core.RulePartitionsNotPow2},
		{"partitions-negative", func(c *Config) { c.Partitions = -2 }, core.RulePartitionsNotPow2},
		{"partitions-exceed-ways", func(c *Config) { c.Partitions = 16 }, core.RulePartitionsExceedWays},
		{"partitions-2-ok", func(c *Config) { c.Partitions = 2 }, ""},
		{"tft-entries-negative", func(c *Config) { c.TFT = tft.Config{Entries: -1} }, core.RuleTFTEntriesNegative},
		{"tft-assoc-exceeds-entries", func(c *Config) { c.TFT = tft.Config{Entries: 4, Assoc: 8} }, core.RuleTFTAssocInvalid},
		{"tft-assoc-negative", func(c *Config) { c.TFT = tft.Config{Entries: 16, Assoc: -1} }, core.RuleTFTAssocInvalid},
		{"tft-entries-not-divisible", func(c *Config) { c.TFT = tft.Config{Entries: 18, Assoc: 4} }, core.RuleTFTEntriesNotDivisible},
		{"tft-sets-not-pow2", func(c *Config) { c.TFT = tft.Config{Entries: 24, Assoc: 2} }, core.RuleTFTSetsNotPow2},
		// The Fig 13 study points: direct-mapped TFTs index MOD
		// entries, so non-power-of-two set counts are legal there.
		{"tft-12-direct-mapped-ok", func(c *Config) { c.TFT = tft.Config{Entries: 12, Assoc: 1} }, ""},
		{"tft-20-direct-mapped-ok", func(c *Config) { c.TFT = tft.Config{Entries: 20, Assoc: 1} }, ""},
		{"tft-32x4-ok", func(c *Config) { c.TFT = tft.Config{Entries: 32, Assoc: 4} }, ""},
		{"spec-threshold-negative", func(c *Config) { c.SpecFastThreshold = -1 }, core.RuleSpecThresholdNegative},
		{"spec-threshold-ok", func(c *Config) { c.SpecFastThreshold = 8 }, ""},
		{"scheduler-contradiction", func(c *Config) { c.SchedulerAlwaysFast, c.SchedulerAlwaysSlow = true, true }, core.RuleSchedulerContradiction},
		{"memhog-range", func(c *Config) { c.MemhogFraction = 0.99 }, core.RuleMemhogRange},
		{"mem-bytes-not-2mb", func(c *Config) { c.MemBytes = 3 << 19 }, core.RuleMemBytesRange},
		{"mem-bytes-past-32gb", func(c *Config) { c.MemBytes = 32<<30 + 2<<20 }, core.RuleMemBytesRange},
		{"mem-bytes-32gb-ok", func(c *Config) { c.MemBytes = 32 << 30 }, ""},
		{"trace-heap1g", func(c *Config) {
			c.Trace, c.WarmupRefs, c.Heap1G = []trace.Record{{VA: 0x5555_5540_0000}}, 0, true
		}, core.RuleTraceHeap1G},
		{"trace-ok", func(c *Config) { c.Trace, c.WarmupRefs = []trace.Record{{VA: 0x5555_5540_0000}}, 0 }, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := base()
			tc.mut(&cfg)
			err := cfg.Validate()
			if tc.rule == "" {
				if err != nil {
					t.Fatalf("Validate() = %v, want nil", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("Validate() = nil, want rule %s", tc.rule)
			}
			var cerr *ConfigError
			if !errors.As(err, &cerr) {
				t.Fatalf("Validate() = %v (%T), want *ConfigError", err, err)
			}
			if cerr.Rule != tc.rule {
				t.Fatalf("Validate() rule = %s, want %s (err: %v)", cerr.Rule, tc.rule, cerr)
			}
			if cerr.Field == "" || cerr.Value == "" || cerr.Detail == "" {
				t.Fatalf("ConfigError incompletely populated: %+v", cerr)
			}
		})
	}
}

// TestSpecFastThresholdKnob proves the override reaches the scheduler:
// a threshold of 1 speculates fast almost immediately, a huge threshold
// never does, and the two must produce different timing on a fragmented
// SEESAW run. Threshold 0 must reproduce the paper's quarter-full rule
// byte-for-byte.
func TestSpecFastThresholdKnob(t *testing.T) {
	run := func(threshold int) []byte {
		cfg := testConfig(t, KindSeesaw)
		cfg.SpecFastThreshold = threshold
		m, err := Build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return reportText(t, m)
	}
	zero := run(0)
	eager := run(1)
	never := run(1 << 20)
	if string(eager) == string(never) {
		t.Fatal("threshold 1 and 1<<20 produced identical reports; knob not wired")
	}
	// The Sandybridge 2MB L1 TLB has 16 entries, so 0 and the explicit
	// quarter-full value must agree exactly.
	quarter := run(16 / 4)
	if string(zero) != string(quarter) {
		t.Fatal("threshold 0 does not reproduce the explicit quarter-full rule")
	}
}

// TestValidateCatchesBuildPanics keeps the recover path: geometry the
// constructors reject must still surface as an error, typed or not.
func TestValidateCatchesBuildPanics(t *testing.T) {
	p, err := workload.ByName("redis")
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Workload: p, CacheKind: KindSeesaw, L1Size: 32 << 10, L1Ways: 7}
	if err := cfg.Validate(); err == nil {
		t.Fatal("7-way 32KB SEESAW validated; want error")
	}
	if _, err := Build(cfg); err == nil {
		t.Fatal("Build accepted config Validate rejects")
	}
}

// TestValidatedConfigBuilds is the contract the evolutionary mutator
// relies on: any config Validate accepts must Build and run without
// panicking.
func TestValidatedConfigBuilds(t *testing.T) {
	cfg := testConfig(t, KindSeesaw)
	cfg.TFT = tft.Config{Entries: 24, Assoc: 1}
	cfg.Partitions = 2
	cfg.SpecFastThreshold = 4
	cfg.Refs = 2_000
	cfg.WarmupRefs = 1_000
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	m, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Warmup(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := m.Measure(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Report(); err != nil {
		t.Fatal(err)
	}
}
