// Package core implements the paper's contribution: the SEESAW
// (Set-Enhanced Superpage-Aware) L1 data cache, alongside the baseline
// VIPT cache it improves on, the serial PIPT design alternative it is
// compared against in Fig 14, and the authors' precursor VESPA.
//
// Every design embeds one skeleton (skeleton.go): the storage array, the
// timing, the way predictor, a one-partition and a whole-set lookup,
// and the fill, snoop and sweep paths. A design keeps only its
// constructor constraints and its Access decision, the choice of which
// lookup to run. Lookups report their latency in cycles, how many ways
// they probed, and their energy, so the simulator can account
// performance and energy exactly as the paper's Tables I/III describe.
package core

import (
	"fmt"

	"seesaw/internal/addr"
	"seesaw/internal/cache"
	"seesaw/internal/sram"
	"seesaw/internal/tft"
	"seesaw/internal/waypred"
)

// AccessResult describes one CPU-side L1 lookup.
type AccessResult struct {
	// Hit reports whether the line was found (the caller fetches from
	// the next level and calls Fill otherwise).
	Hit bool
	// State is the MOESI state of the hit line (Invalid on a miss); the
	// simulator uses it to detect stores that need a coherence upgrade.
	State cache.State
	// Cycles is the L1 lookup latency (TLB/L2/walk penalties are
	// accounted separately by the TLB hierarchy). It is
	// LookupCycles(FastPath, Reprobe) of the cache that served it.
	Cycles int
	// FastPath reports a partition-only lookup (a SEESAW TFT hit or a
	// VESPA superpage access). For baseline and PIPT caches it is always
	// false.
	FastPath bool
	// Reprobe reports a way misprediction: the predicted way missed and
	// the lookup's scope (partition or set) was probed a second time,
	// doubling its latency.
	Reprobe bool
	// WaysProbed counts ways read by this lookup.
	WaysProbed int
	// EnergyNJ is the lookup energy.
	EnergyNJ float64
	// Superpage reports the access touched superpage-backed memory.
	Superpage bool
	// TFTHit reports the TFT predicted a superpage (SEESAW only).
	TFTHit bool
}

// FillResult describes a line installation after a miss.
type FillResult struct {
	// Victim is the displaced line, if any.
	Victim cache.Victim
	// VictimPA is the physical line address of the victim (valid iff
	// Victim.Valid).
	VictimPA addr.PAddr
	// Writeback reports the victim was dirty.
	Writeback bool
	// EnergyNJ is the installation energy (victim selection + write).
	EnergyNJ float64
}

// ProbeResult describes a coherence lookup (invalidation or probe).
type ProbeResult struct {
	Hit        bool
	State      cache.State
	WaysProbed int
	EnergyNJ   float64
}

// SnoopOp is the action a coherence probe applies on a hit.
type SnoopOp int

const (
	// SnoopPeek only observes (directory consistency checks).
	SnoopPeek SnoopOp = iota
	// SnoopInvalidate removes the line (store by another core).
	SnoopInvalidate
	// SnoopDowngrade demotes M/E to O/S (load by another core); the
	// line stays resident.
	SnoopDowngrade
)

// L1Cache is an L1 design as the CPU models, the coherence layer and
// the machine see it. Every registered design implements it by
// embedding the skeleton, which supplies every method but Name and
// Access.
type L1Cache interface {
	// Name identifies the design for reports.
	Name() string
	// Access performs a CPU-side lookup; store marks intent to write
	// (a hit on a non-writable state still counts as a hit here — the
	// coherence layer upgrades it).
	Access(va addr.VAddr, pa addr.PAddr, psize addr.PageSize, store bool) AccessResult
	// Fill installs pa after a miss. store selects Modified vs
	// Exclusive/Shared; shared reports other caches hold the line.
	Fill(pa addr.PAddr, psize addr.PageSize, store, shared bool) FillResult
	// Snoop performs a coherence lookup with the given operation.
	Snoop(pa addr.PAddr, op SnoopOp) ProbeResult
	// UpgradeToModified marks a resident line Modified (store hit after
	// coherence permission is granted). It is a no-op if absent.
	UpgradeToModified(pa addr.PAddr)
	// EvictFrames sweeps out every line of the sweep's 4KB frames
	// (superpage promotion).
	EvictFrames(s *cache.FrameSweep) []cache.Victim
	// FastCycles and SlowCycles expose the two possible hit latencies;
	// for designs without a fast path they are equal. The OoO
	// scheduler's speculation logic needs both.
	FastCycles() int
	SlowCycles() int
	// LookupCycles is the latency of one lookup outcome class: a
	// partition-only (fastPath) or whole-set lookup, probed once or,
	// after a way misprediction, twice. A timing model prices an
	// AccessResult at another clock by asking a cache built at that
	// clock for its FastPath/Reprobe class.
	LookupCycles(fastPath, reprobe bool) int
	// Storage exposes the underlying array for stats.
	Storage() *cache.Cache
	// Predictor exposes the way predictor (nil when disabled).
	Predictor() *waypred.MRU
}

// Config describes an L1 data cache design point.
type Config struct {
	SizeBytes uint64
	Ways      int
	// Partitions is the way-partition count of SEESAW and VESPA (0 =
	// Ways/4); baseline and PIPT designs ignore it and use one
	// partition.
	Partitions int
	// FreqGHz converts SRAM nanoseconds to cycles.
	FreqGHz float64
	// TFT configures SEESAW's filter table; zero value = paper default.
	TFT tft.Config
	// Policy selects SEESAW's insertion policy (default FourWay).
	Policy InsertionPolicy
	// SerialTLBCycles, for PIPT only: cycles of TLB lookup serialized
	// before the cache access (VIPT designs overlap this).
	SerialTLBCycles int
	// WayPredict enables the MRU way predictor (Fig 15): correct
	// predictions read one way; mispredictions pay a second probe of the
	// relevant scope (the whole set for baseline, the partition for
	// SEESAW fast-path accesses).
	WayPredict bool
	// Replacement selects the victim policy (LRU, the paper's choice,
	// or SRRIP for the replacement ablation).
	Replacement cache.Replacement
}

// InsertionPolicy selects how SEESAW picks insertion victims
// (Section IV-B1).
type InsertionPolicy int

const (
	// FourWay (the paper's choice): every line — base page or superpage
	// — inserts into the partition its *physical* address names, with
	// partition-local LRU. Correct under page-size aliasing and makes
	// coherence lookups partition-filterable.
	FourWay InsertionPolicy = iota
	// FourEightWay (the ablation): superpages insert into their
	// partition; base pages use global LRU across the whole set.
	// Coherence probes must then search the full set.
	FourEightWay
)

func (p InsertionPolicy) String() string {
	if p == FourWay {
		return "4way"
	}
	return "4way-8way"
}

// timing bundles the precomputed latency/energy numbers of a design.
type timing struct {
	fastCycles  int
	slowCycles  int
	eFull       float64 // full-set probe energy
	ePart       float64 // partition probe energy
	eOne        float64 // single-way probe energy (way prediction)
	eFill       float64 // line install energy (one-way write)
	eVictimFull float64 // victim-selection overhead, global scope
	eVictimPart float64 // victim-selection overhead, partition scope
}

func newTiming(cfg Config, partitions int) (timing, error) {
	var t timing
	slowNS, err := sram.Latency(cfg.SizeBytes, cfg.Ways)
	if err != nil {
		return t, err
	}
	t.slowCycles = sram.Cycles(slowNS, cfg.FreqGHz)
	t.fastCycles = t.slowCycles
	wpp := cfg.Ways / partitions
	if partitions > 1 {
		fastNS, err := sram.ProbeLatency(cfg.SizeBytes, wpp, cfg.Ways)
		if err != nil {
			return t, err
		}
		t.fastCycles = sram.Cycles(fastNS, cfg.FreqGHz)
	}
	if t.eFull, err = sram.ProbeEnergy(cfg.SizeBytes, cfg.Ways, cfg.Ways); err != nil {
		return t, err
	}
	if partitions > 1 {
		if t.ePart, err = sram.ProbeEnergy(cfg.SizeBytes, wpp, cfg.Ways); err != nil {
			return t, err
		}
	} else {
		t.ePart = t.eFull
	}
	if t.eOne, err = sram.ProbeEnergy(cfg.SizeBytes, 1, cfg.Ways); err != nil {
		return t, err
	}
	// A fill writes one way; we charge the direct-mapped access energy
	// of the array as the write cost, plus an LRU victim-selection
	// overhead proportional to the replacement scope (the reason the
	// paper's 4way policy also saves installation energy).
	if t.eFill, err = sram.Energy(cfg.SizeBytes, 1); err != nil {
		return t, err
	}
	t.eVictimFull = t.eFull * 0.15
	t.eVictimPart = t.ePart * 0.15
	return t, nil
}

func validateFreq(cfg Config) error {
	if cfg.FreqGHz <= 0 {
		return fmt.Errorf("core: non-positive frequency %v", cfg.FreqGHz)
	}
	return nil
}
