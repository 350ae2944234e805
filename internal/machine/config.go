// Package machine owns the simulated machine: construction and wiring
// of physical memory, the OS memory manager and page tables, per-core
// TLB hierarchies, TFTs, L1 data/instruction caches, the coherent LLC,
// and CPU timing models, plus the optional fault/check/metrics hooks.
// Build constructs a Machine from a Config; Step advances it one memory
// reference; Warmup and Measure drive the two execution phases; and
// Snapshot/Resume/Fork copy the warmed OS image — the only state warmup
// changes — so sweeps can share it across many measured design points
// (see snapshot.go).
//
// internal/sim re-exports Config and Report and keeps the one-call
// Run/RunContext orchestration; everything about how the machine is put
// together lives here.
package machine

import (
	"fmt"

	"seesaw/internal/cache"
	"seesaw/internal/core"
	"seesaw/internal/cpu"
	"seesaw/internal/energy"
	"seesaw/internal/faults"
	"seesaw/internal/metrics"
	"seesaw/internal/tft"
	"seesaw/internal/trace"
	"seesaw/internal/workload"

	"seesaw/internal/coherence"
)

// CacheKind names the L1 design under test. Valid values are the
// design registry's names (core.DesignNames); the zero value selects
// the baseline. The registry is the only place a design is named or
// dispatched: the machine builds every core's L1 through the design's
// descriptor and calls it through core.L1Cache.
type CacheKind string

const (
	// KindBaseline is the conventional VIPT L1.
	KindBaseline CacheKind = "baseline"
	// KindSeesaw is the paper's design.
	KindSeesaw CacheKind = "seesaw"
	// KindPIPT is the serial physically-indexed alternative (Fig 14).
	KindPIPT CacheKind = "pipt"
	// KindVespa is the authors' precursor design: superpage-aware VIPT
	// with the page size taken from the TLB instead of a TFT.
	KindVespa CacheKind = "vespa"
)

// String implements fmt.Stringer. The zero value renders as "baseline"
// so the canonical keys of defaulted and explicit spellings agree (and
// match the keys the int-enum encoding produced).
func (k CacheKind) String() string {
	if k == "" {
		return string(KindBaseline)
	}
	return string(k)
}

// design resolves the registry descriptor, treating "" as baseline.
// The bool is false for names no registered design claims.
func (k CacheKind) design() (*core.Design, bool) {
	return core.LookupDesign(k.String())
}

// ParseCacheKind resolves a design name against the registry. Unknown
// names are rejected with a typed *ConfigError (rule "unknown-design")
// rather than silently falling back to the baseline; the empty string
// is the baseline, as everywhere else.
func ParseCacheKind(name string) (CacheKind, error) {
	k := CacheKind(name)
	if _, ok := k.design(); !ok {
		return "", configErr("CacheKind", k.String(), core.RuleUnknownDesign,
			"no registered design is named %q (have %v)", k.String(), core.SortedDesignNames())
	}
	return CacheKind(k.String()), nil
}

// DesignNames returns the registered design names in the registry's
// canonical order — what -cache flags and wire specs accept.
func DesignNames() []string { return core.DesignNames() }

// DesignInfo is the slice of registry metadata the harness layers key
// off when enumerating the zoo: menus (evolve filters on Speculates),
// sweep matrices (Display labels, chaos knob overrides), and docs. It
// deliberately omits the builder/codec hooks — those stay behind the
// machine boundary.
type DesignInfo struct {
	Name       CacheKind
	Display    string
	UsesTFT    bool
	Speculates bool
	// Chaos knob overrides the chaos sweep applies to this design's
	// cells (0/false = none).
	ChaosSerialTLB int
	ChaosSmallTLB  bool
	ChaosL1Ways    int
}

// DesignInfos returns every registered design's metadata in
// registration order.
func DesignInfos() []DesignInfo {
	ds := core.Designs()
	infos := make([]DesignInfo, len(ds))
	for i, d := range ds {
		infos[i] = DesignInfo{
			Name:           CacheKind(d.Name),
			Display:        d.Display,
			UsesTFT:        d.UsesTFT,
			Speculates:     d.Speculates,
			ChaosSerialTLB: d.ChaosSerialTLB,
			ChaosSmallTLB:  d.ChaosSmallTLB,
			ChaosL1Ways:    d.ChaosL1Ways,
		}
	}
	return infos
}

// Config describes one simulation.
type Config struct {
	Workload workload.Profile
	Seed     int64
	// Refs is the number of measured memory references to replay (0
	// defaults to 200k). A negative value means an explicit zero: replay
	// nothing and report an empty timeline — the escape hatch callers
	// whose own zero value must mean "default" (experiments.Options, cmd
	// flags) use to express a genuine zero.
	Refs int
	// WarmupRefs prepends an OS-only warmup phase of this many
	// references before the measured phase: the workload generator and
	// the OS (promotion scans, splinters, buddy allocator) advance, but
	// no cache, TLB, or CPU state is touched and nothing is measured.
	// All periodic OS activity is keyed on the global reference index,
	// so WarmupRefs=0 reproduces the unphased simulator exactly. Runs
	// that agree on every warmup-affecting field (see WarmupSignature)
	// pass through identical warmup states, which is what lets a sweep
	// fork many measured cells from one warmed snapshot.
	WarmupRefs int
	// Trace, when non-nil, replays these pre-recorded references (e.g.
	// from cmd/seesaw-tracegen) instead of generating them online. The
	// trace must have been produced from the same Workload profile and
	// seed-independent region layout, since addresses are interpreted
	// against this run's mappings. Refs is clamped to the trace length.
	// Traces cannot be combined with WarmupRefs.
	Trace []trace.Record

	CacheKind CacheKind
	L1Size    uint64
	L1Ways    int
	// Partitions: 0 = SEESAW default (4-way partitions).
	Partitions int
	Policy     core.InsertionPolicy
	WayPredict bool
	// Replacement selects the L1 victim policy (LRU default, SRRIP for
	// the replacement ablation).
	Replacement cache.Replacement
	TFT         tft.Config
	// SerialTLBCycles applies to PIPT only.
	SerialTLBCycles int
	// SmallTLB replaces the normal TLB hierarchy with the reduced one a
	// serial PIPT design forces (translation on the critical path must
	// resolve in one cycle) — the Fig 14 trade-off.
	SmallTLB bool

	FreqGHz float64
	// CPUKind is "ooo" (Sandybridge-like) or "inorder" (Atom-like).
	CPUKind string
	// SchedulerAlwaysFast / SchedulerAlwaysSlow override the paper's
	// counter-gated speculation policy (ablation).
	SchedulerAlwaysFast bool
	SchedulerAlwaysSlow bool
	// SpecFastThreshold overrides the counter heuristic's trigger: the
	// scheduler speculates the fast hit latency when the 2MB L1 TLB
	// holds at least this many valid entries. 0 selects the paper's
	// quarter-full rule (superpage-TLB entries / 4); the override only
	// matters under the default counter policy (neither
	// SchedulerAlwaysFast nor SchedulerAlwaysSlow set). This is one of
	// the design-space knobs cmd/seesaw-evolve tunes.
	SpecFastThreshold int

	CoherenceMode coherence.Mode

	// MemBytes is simulated physical memory (default 1GB; 4GB when
	// Heap1G is set): a multiple of 2MB, at most 32GB.
	MemBytes uint64
	// Heap1G backs the workload's heap with explicit 1GB superpages
	// (hugetlbfs-style) instead of transparent 2MB pages — the paper's
	// "generalizes readily to 1GB superpages" extension.
	Heap1G bool
	// ICache models the private 32KB L1 instruction caches (Table II)
	// and the instruction-fetch stream, using the same design
	// (baseline/SEESAW) as the data cache — the paper's proposed
	// instruction-side application of SEESAW.
	ICache bool
	// TextHuge maps the text region with transparent 2MB pages (Linux's
	// hugepage-text); without it code is 4KB-backed and SEESAW-I has no
	// fast-path opportunities on fetches.
	TextHuge bool
	// MemhogFraction fragments physical memory before the workload maps
	// its footprint (Fig 3, Fig 12).
	MemhogFraction float64
	// THP disables transparent superpages entirely when false.
	THPOff bool

	// OS activity (in references; 0 disables).
	ContextSwitchEvery int
	PromoteScanEvery   int
	SplinterEvery      int

	// Prefetch enables a next-line L1 prefetcher: every demand miss also
	// fetches the following line (within the same 4KB frame, as hardware
	// prefetchers do). Prefetches run off the critical path; their
	// fills and coherence traffic are fully modeled. Used to check that
	// SEESAW's benefits survive a prefetcher's higher hit rates.
	Prefetch bool

	// Faults, when non-nil, injects a deterministic fault schedule into
	// the run: mid-run splinters, invlpg bursts, forced context
	// switches, promotion storms, and memory-pressure spikes (see
	// internal/faults). The injector draws from its own seeded RNG, so a
	// faulted run replays the same workload as its clean twin.
	Faults *faults.Config
	// CheckInvariants enables the online invariant checker (see
	// internal/check): after every reference the TLB/TFT/cache/directory
	// state is audited against page-table ground truth, and violations
	// are reported in Report.Check. Roughly doubles runtime; intended
	// for chaos sweeps and debugging, not performance measurement.
	CheckInvariants bool

	// Metrics, when non-nil, enables the observability layer (see
	// internal/metrics): per-core counters sampled into an epoch
	// time-series plus a bounded structured event ring that the fault
	// injector and invariant checker annotate. Report.Metrics carries
	// the result. Nil — the default — costs one nil check per emit site
	// and zero allocations.
	Metrics *metrics.Config

	// CoRunner, when non-nil, makes context switches real: every
	// ContextSwitchEvery references each application core switches to a
	// second process (ASID 2) running this profile for CoRunSliceRefs
	// references, then switches back. TLBs are ASID-tagged and keep the
	// application's entries across the switch; the TFT is not, and is
	// flushed (Section IV-C3). The co-runner's time is part of the
	// measured timeline, as in the paper's traces ("instructions of
	// other applications running in parallel").
	CoRunner       *workload.Profile
	CoRunSliceRefs int

	Prices energy.Prices
}

// WithDefaults returns the config with every zero value filled in: the
// values a machine built from it runs at, as Machine.Config reports.
func (c Config) WithDefaults() Config {
	if c.Refs == 0 {
		c.Refs = 200_000
	} else if c.Refs < 0 {
		c.Refs = 0
	}
	if c.Trace != nil && c.Refs > len(c.Trace) {
		c.Refs = len(c.Trace)
	}
	if c.WarmupRefs < 0 {
		c.WarmupRefs = 0
	}
	if c.L1Size == 0 {
		c.L1Size = 32 << 10
	}
	if c.L1Ways == 0 {
		c.L1Ways = int(c.L1Size / (16 << 10) * 4) // 4 ways per 16KB, as Table III
	}
	if c.FreqGHz == 0 {
		c.FreqGHz = 1.33
	}
	if c.CPUKind == "" {
		c.CPUKind = "ooo"
	}
	if c.MemBytes == 0 {
		c.MemBytes = 1 << 30
		if c.Heap1G {
			c.MemBytes = 4 << 30
		}
	}
	if c.TFT.Entries == 0 {
		c.TFT = tft.DefaultConfig()
	}
	if c.Prices == (energy.Prices{}) {
		c.Prices = energy.DefaultPrices()
	}
	if c.ContextSwitchEvery == 0 {
		c.ContextSwitchEvery = 100_000
	}
	if c.PromoteScanEvery == 0 {
		c.PromoteScanEvery = 50_000
	}
	if c.CoRunner != nil && c.CoRunSliceRefs == 0 {
		c.CoRunSliceRefs = 2_000
	}
	return c
}

// l1cfg renders the defaults-applied config's data-cache geometry.
func (c Config) l1cfg() core.Config {
	return core.Config{
		SizeBytes: c.L1Size, Ways: c.L1Ways, Partitions: c.Partitions,
		FreqGHz: c.FreqGHz, TFT: c.TFT, Policy: c.Policy,
		WayPredict: c.WayPredict, SerialTLBCycles: c.SerialTLBCycles,
		Replacement: c.Replacement,
	}
}

// il1cfg renders the instruction cache's geometry: the Table II private
// 32KB 8-way L1I with the design's own default partition split.
func (c Config) il1cfg() core.Config {
	icfg := c.l1cfg()
	icfg.SizeBytes = 32 << 10
	icfg.Ways = 8
	icfg.Partitions = 0
	return icfg
}

// DesignAreaBytes is the design's extra SRAM beyond the L1 storage
// array (SEESAW's TFT; zero for designs without side structures), from
// the registry's area hook — the evolve search's area objective.
func (c Config) DesignAreaBytes() uint64 {
	d := c.WithDefaults()
	dsg, ok := d.CacheKind.design()
	if !ok || dsg.AreaBytes == nil {
		return 0
	}
	return dsg.AreaBytes(d.l1cfg())
}

// Validate reports configuration errors — impossible cache geometries,
// unknown CPU kinds, contradictory scheduler overrides, bad fault
// schedules — as errors instead of letting Build panic deep inside a
// constructor. Build calls it first, so callers get a typed error either
// way; commands call it up front to exit with a usage error.
//
// Rejections attributable to a single knob combination come back as a
// *ConfigError carrying a stable Rule identifier (unwrap with
// errors.As); the design-space mutator in internal/evolve uses those to
// prune geometry-impossible genomes. Errors from deeper constructors
// stay untyped.
func (c Config) Validate() (err error) {
	// Constructors validate their own inputs and return errors, but a
	// few deep paths (SRAM latency tables, geometry math) panic on
	// inputs no caller should produce; surface those as errors too.
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("sim: invalid config: %v", r)
		}
	}()
	d := c.WithDefaults()
	if cerr := d.validateKnobs(); cerr != nil {
		return cerr
	}
	if _, err := cpu.New(d.CPUKind); err != nil {
		return err
	}
	// validateKnobs established the design exists and passed its
	// single-knob rules; the constructor round-trip catches what only
	// geometry math can judge.
	dsg, _ := d.CacheKind.design()
	if _, err = dsg.New(d.l1cfg()); err != nil {
		return err
	}
	if d.ICache {
		if _, err = dsg.New(d.il1cfg()); err != nil {
			return err
		}
	}
	if d.Faults != nil {
		if err := d.Faults.Validate(); err != nil {
			return err
		}
	}
	return nil
}
