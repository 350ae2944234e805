package machine

import (
	"fmt"

	"seesaw/internal/coherence"
	"seesaw/internal/core"
)

// Rule identifies, machine-readably, which configuration constraint a
// ConfigError reports. The type and its values live in internal/core
// (core.Rule…), so a rule is named in one file; the type is aliased here
// because this package's Config.Validate is where callers meet it.
type Rule = core.Rule

// ConfigError is the typed, machine-readable form of a configuration
// rejection: which field, which value, and which rule it broke (see
// core.ConfigError). sim.Config.Validate returns one (as error) for
// every knob combination it can attribute to a single constraint;
// callers unwrap it with errors.As. Errors surfaced from deeper
// constructors (SRAM latency tables, CPU models) remain plain errors.
type ConfigError = core.ConfigError

// configErr builds a ConfigError.
func configErr(field string, value any, rule Rule, format string, args ...any) *ConfigError {
	return &ConfigError{
		Field:  field,
		Value:  fmt.Sprint(value),
		Rule:   rule,
		Detail: fmt.Sprintf(format, args...),
	}
}

// maxMemBytes caps simulated physical memory at the paper's 32GB
// testbed. The physical memory model is dense, so host memory grows with
// MemBytes; the cap bounds what a config arriving from outside can ask
// for.
const maxMemBytes = 32 << 30

// validateKnobs applies the single-constraint knob checks — the ones a
// design-space mutator needs typed answers for — to a defaults-applied
// config: the machine-level knobs first, then the selected design's own
// registered geometry rules. Geometry that only a constructor can judge
// (SRAM table coverage, set counts) is still probed by Validate's
// constructor round-trip afterwards.
func (d Config) validateKnobs() *ConfigError {
	if d.MemhogFraction < 0 || d.MemhogFraction > 0.95 {
		return configErr("MemhogFraction", d.MemhogFraction, core.RuleMemhogRange,
			"memhog fraction outside [0, 0.95]")
	}
	if d.MemBytes%(2<<20) != 0 || d.MemBytes > maxMemBytes {
		return configErr("MemBytes", d.MemBytes, core.RuleMemBytesRange,
			"simulated memory must be a multiple of 2MB and at most %d bytes", uint64(maxMemBytes))
	}
	if d.SchedulerAlwaysFast && d.SchedulerAlwaysSlow {
		return configErr("SchedulerAlwaysFast", true, core.RuleSchedulerContradiction,
			"scheduler cannot be both always-fast and always-slow")
	}
	if d.SpecFastThreshold < 0 {
		return configErr("SpecFastThreshold", d.SpecFastThreshold, core.RuleSpecThresholdNegative,
			"speculation threshold is a TLB entry count (0 = paper default)")
	}
	// The coherence domain holds one data L1 per core (the workload's
	// threads plus the system thread) and, when modeled, one I-cache each.
	l1s := d.Workload.Threads + 1
	if d.ICache {
		l1s *= 2
	}
	if l1s > coherence.MaxL1s {
		return configErr("Workload.Threads", d.Workload.Threads, core.RuleCoherenceDomain,
			"%d threads plus the system thread give %d coherent L1s (I-caches=%v); the directory tracks at most %d",
			d.Workload.Threads, l1s, d.ICache, coherence.MaxL1s)
	}
	if d.Trace != nil && d.WarmupRefs > 0 {
		return configErr("WarmupRefs", d.WarmupRefs, core.RuleTraceWarmup,
			"warmup requires online generation, not a trace replay")
	}
	if d.Trace != nil && d.Heap1G {
		return configErr("Heap1G", d.Heap1G, core.RuleTraceHeap1G,
			"a trace records heap addresses in the default 2MB-rounded layout; a 1GB heap maps elsewhere")
	}
	dsg, ok := d.CacheKind.design()
	if !ok {
		return configErr("CacheKind", d.CacheKind.String(), core.RuleUnknownDesign,
			"no registered design is named %q (have %v)", d.CacheKind.String(), core.SortedDesignNames())
	}
	if dsg.Validate != nil {
		if cerr := dsg.Validate(d.l1cfg()); cerr != nil {
			return cerr
		}
	}
	if t := d.TFT; true {
		if t.Entries < 0 {
			return configErr("TFT.Entries", t.Entries, core.RuleTFTEntriesNegative,
				"TFT entry count cannot be negative (0 = paper default)")
		}
		if t.Assoc < 0 || t.Assoc > t.Entries {
			return configErr("TFT.Assoc", t.Assoc, core.RuleTFTAssocInvalid,
				"TFT associativity must lie in [0, %d]", t.Entries)
		}
		if t.Assoc > 1 {
			if t.Entries%t.Assoc != 0 {
				return configErr("TFT.Entries", t.Entries, core.RuleTFTEntriesNotDivisible,
					"%d entries do not divide into %d-way sets", t.Entries, t.Assoc)
			}
			if sets := t.Entries / t.Assoc; !isPow2(sets) {
				return configErr("TFT.Entries", t.Entries, core.RuleTFTSetsNotPow2,
					"%d entries / %d ways = %d sets, not a power of two", t.Entries, t.Assoc, sets)
			}
		}
	}
	return nil
}

// isPow2 reports whether n is a positive power of two.
func isPow2(n int) bool { return n > 0 && n&(n-1) == 0 }
