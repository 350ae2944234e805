package core

import "fmt"

// Rule identifies, machine-readably, which configuration constraint a
// ConfigError reports. The values are stable API: the evolutionary
// search's mutation operators (internal/evolve) switch on them to prune
// geometry-impossible genomes instead of crashing a worker, and tests
// pin them, so renaming one is a breaking change.
//
// The rules are named only here, so design descriptors (see
// registry.go) can report typed geometry rejections; internal/machine
// and internal/sim alias the Rule and ConfigError types, and every
// caller names the values as core.Rule….
type Rule string

const (
	// RulePartitionsNotPow2: the partition count of a way-partitioned
	// design must be a positive power of two (the partition selector is
	// an address-bit decoder).
	RulePartitionsNotPow2 Rule = "partitions-not-power-of-two"
	// RulePartitionsExceedWays: more partitions than ways leaves some
	// partitions with no ways at all.
	RulePartitionsExceedWays Rule = "partitions-exceed-ways"
	// RuleWaysNotDivisible: ways must divide evenly into partitions so
	// every partition has the same width.
	RuleWaysNotDivisible Rule = "ways-not-divisible-into-partitions"
	// RuleTFTEntriesNegative: a negative TFT entry count is not a
	// geometry (0 means "paper default").
	RuleTFTEntriesNegative Rule = "tft-entries-negative"
	// RuleTFTAssocInvalid: TFT associativity must lie in [0, Entries]
	// (0 and 1 both mean direct-mapped).
	RuleTFTAssocInvalid Rule = "tft-assoc-exceeds-entries"
	// RuleTFTEntriesNotDivisible: a set-associative TFT needs Entries
	// divisible by Assoc so every set has the same width.
	RuleTFTEntriesNotDivisible Rule = "tft-entries-not-divisible-by-assoc"
	// RuleTFTSetsNotPow2: a set-associative TFT's set count
	// (Entries/Assoc) must be a power of two. Direct-mapped TFTs are
	// exempt: they index with the paper's MOD-entries hash, which is
	// what makes the Fig 13 12- and 20-entry study points valid.
	RuleTFTSetsNotPow2 Rule = "tft-sets-not-power-of-two"
	// RuleSpecThresholdNegative: the speculation threshold is an entry
	// count; negative values are not meaningful (0 = paper default).
	RuleSpecThresholdNegative Rule = "spec-threshold-negative"
	// RuleSchedulerContradiction: the scheduler cannot be pinned both
	// always-fast and always-slow.
	RuleSchedulerContradiction Rule = "scheduler-contradiction"
	// RuleMemhogRange: the memhog fraction must lie in [0, 0.95].
	RuleMemhogRange Rule = "memhog-out-of-range"
	// RuleMemBytesRange: simulated memory must be a whole number of 2MB
	// regions and at most 32GB, the paper's testbed; the dense physical
	// memory model allocates host memory in proportion to it.
	RuleMemBytesRange Rule = "mem-bytes-out-of-range"
	// RuleTraceWarmup: warmup needs online generation, so a replay
	// trace cannot carry a warmup phase.
	RuleTraceWarmup Rule = "trace-with-warmup"
	// RuleUnknownDesign: the named cache design is not in the registry.
	// Unknown names are a hard rejection, never a silent fallback to the
	// baseline.
	RuleUnknownDesign Rule = "unknown-design"
	// RuleCoherenceDomain: the coherence directory tracks sharers in a
	// 64-bit mask, so the L1s of every core (the workload's threads plus
	// the system thread, doubled by the instruction caches) must number
	// at most 64.
	RuleCoherenceDomain Rule = "coherence-domain-too-large"
	// RuleTraceHeap1G: a trace records heap addresses against the
	// default 2MB-rounded region layout, but a 1GB heap is mapped at the
	// next 1GB boundary, so a replay would touch unmapped addresses.
	RuleTraceHeap1G Rule = "trace-with-heap1g"
)

// ConfigError is the typed, machine-readable form of a configuration
// rejection: which field, which value, and which rule it broke.
// sim.Config.Validate returns one (as error) for every knob combination
// it can attribute to a single constraint; callers unwrap it with
// errors.As. Errors surfaced from deeper constructors (SRAM latency
// tables, CPU models) remain plain errors.
type ConfigError struct {
	// Field names the offending Config field, e.g. "Partitions" or
	// "TFT.Assoc".
	Field string
	// Value is the rejected value, rendered.
	Value string
	// Rule is the stable machine-readable rule identifier.
	Rule Rule
	// Detail explains the constraint for humans.
	Detail string
}

// Error implements error.
func (e *ConfigError) Error() string {
	return fmt.Sprintf("sim: invalid config: %s=%s violates %s: %s", e.Field, e.Value, e.Rule, e.Detail)
}

// configErr builds a ConfigError.
func configErr(field string, value any, rule Rule, format string, args ...any) *ConfigError {
	return &ConfigError{
		Field:  field,
		Value:  fmt.Sprint(value),
		Rule:   rule,
		Detail: fmt.Sprintf(format, args...),
	}
}

// isPow2 reports whether n is a positive power of two.
func isPow2(n int) bool { return n > 0 && n&(n-1) == 0 }

// partitionRules is the shared geometry validator of the
// way-partitioned designs (SEESAW, VESPA): Partitions == 0 means "use
// the design default" and is always legal; an explicit count must be a
// power of two that divides the ways evenly.
func partitionRules(c Config) *ConfigError {
	if c.Partitions == 0 {
		return nil
	}
	switch {
	case !isPow2(c.Partitions):
		return configErr("Partitions", c.Partitions, RulePartitionsNotPow2,
			"partition count must be a positive power of two")
	case c.Partitions > c.Ways:
		return configErr("Partitions", c.Partitions, RulePartitionsExceedWays,
			"%d partitions over %d ways leaves empty partitions", c.Partitions, c.Ways)
	case c.Ways%c.Partitions != 0:
		return configErr("Partitions", c.Partitions, RuleWaysNotDivisible,
			"%d ways do not divide into %d equal partitions", c.Ways, c.Partitions)
	}
	return nil
}
