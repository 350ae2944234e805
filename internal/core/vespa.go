package core

import (
	"fmt"

	"seesaw/internal/addr"
	"seesaw/internal/cache"
)

// VespaStats counts VESPA's lookup split: superpage-backed accesses ride
// the full-index fast path, base-page accesses pay the associative
// search.
type VespaStats struct {
	Accesses      uint64
	SuperAccesses uint64 // superpage-backed: single-partition fast probes
	SuperHits     uint64
	SuperMisses   uint64
	BaseAccesses  uint64 // base pages: full-set slow probes

	// Coherence lookups pay only the partition cost under the 4way
	// policy, as in SEESAW.
	CoherenceProbes uint64

	// PromotionSweeps counts EvictRange sweeps from page promotions;
	// SweptLines the lines they evicted.
	PromotionSweeps uint64
	SweptLines      uint64
}

// Vespa is the authors' precursor design (per PAPERS.md): a
// superpage-aware VIPT cache. Accesses to 2MB-backed data may use
// virtual index bits beyond the 4KB page offset — those bits equal the
// physical ones inside a superpage — so they index the full cache and
// probe a single partition's ways. Base-page accesses are restricted to
// the page-offset index bits and search the whole set.
//
// Unlike SEESAW there is no TFT: the page size is taken from the TLB
// (the simulator's Access already carries the translation's ground
// truth), so VESPA pays no filter-table SRAM and never mispredicts —
// but it also has no way to accelerate an access whose translation has
// not resolved, which is the gap SEESAW's TFT closes. In this model the
// difference shows up through fragmentation: when the OS splinters
// superpages, VESPA's fast-path share collapses with the superpage
// reference share.
type Vespa struct {
	cfg  Config
	geom addr.CacheGeometry
	c    *cache.Cache
	t    timing

	Stats VespaStats
}

// NewVespa builds a VESPA cache. Partitions defaults to Ways/4 (the
// same split SEESAW uses) when zero.
func NewVespa(cfg Config) (*Vespa, error) {
	if err := validateFreq(cfg); err != nil {
		return nil, err
	}
	if cfg.WayPredict {
		return nil, fmt.Errorf("core: VESPA does not model way prediction")
	}
	if cfg.Partitions == 0 {
		cfg.Partitions = cfg.Ways / 4
		if cfg.Partitions < 1 {
			cfg.Partitions = 1
		}
	}
	geom, err := addr.NewCacheGeometry(cfg.SizeBytes, cfg.Ways, cfg.Partitions)
	if err != nil {
		return nil, err
	}
	if !geom.VIPTIndexInsidePageOffset(addr.Page4K) {
		return nil, fmt.Errorf("core: %v violates the VIPT constraint for 4KB pages", geom)
	}
	// Superpage accesses index with VA bits up to the partition index;
	// those must still be 2MB page-offset bits or VA != PA there.
	if !geom.PartitionIndexKnown(addr.Page2M) {
		return nil, fmt.Errorf("core: %v partition index exceeds the 2MB page offset", geom)
	}
	t, err := newTiming(cfg, cfg.Partitions)
	if err != nil {
		return nil, err
	}
	return &Vespa{cfg: cfg, geom: geom, c: cache.NewWithPolicy(geom, cfg.Replacement), t: t}, nil
}

// Name implements L1Cache.
func (v *Vespa) Name() string {
	return fmt.Sprintf("VESPA-%dKB-%dw/%dp", v.cfg.SizeBytes>>10, v.cfg.Ways, v.cfg.Partitions)
}

// Geometry exposes the partitioned geometry.
func (v *Vespa) Geometry() addr.CacheGeometry { return v.geom }

// Access implements L1Cache: superpage-backed accesses (the TLB's page
// size is ground truth here — no filter table) index the full cache and
// probe one partition at the fast latency; base-page accesses search
// the whole set at the baseline latency.
func (v *Vespa) Access(va addr.VAddr, pa addr.PAddr, psize addr.PageSize, store bool) AccessResult {
	v.Stats.Accesses++
	set := v.geom.SetIndexV(va)
	tag := v.geom.TagP(pa)
	if psize.IsSuper() {
		v.Stats.SuperAccesses++
		part := v.geom.PartitionIndexV(va)
		way, hit := v.c.Access(set, part, tag)
		res := AccessResult{
			Hit: hit, Cycles: v.t.fastCycles, FastPath: true,
			WaysProbed: v.geom.WaysPerPartition(), EnergyNJ: v.t.ePart,
			Superpage: true,
		}
		if hit {
			res.State = v.c.StateOf(set, way)
			v.Stats.SuperHits++
		} else {
			v.Stats.SuperMisses++
		}
		return res
	}
	v.Stats.BaseAccesses++
	way, hit := v.c.Access(set, cache.AnyPartition, tag)
	res := AccessResult{
		Hit: hit, Cycles: v.t.slowCycles,
		WaysProbed: v.cfg.Ways, EnergyNJ: v.t.eFull,
	}
	if hit {
		res.State = v.c.StateOf(set, way)
	}
	return res
}

// insertPartition picks the insertion scope per the configured policy,
// exactly as SEESAW does: every line's location stays derivable from
// its PA under the 4way policy.
func (v *Vespa) insertPartition(pa addr.PAddr, psize addr.PageSize) int {
	if v.cfg.Policy == FourEightWay && !psize.IsSuper() {
		return cache.AnyPartition
	}
	return v.geom.PartitionIndexP(pa)
}

// Fill implements L1Cache.
func (v *Vespa) Fill(pa addr.PAddr, psize addr.PageSize, store, shared bool) FillResult {
	set := v.geom.SetIndexP(pa)
	part := v.insertPartition(pa, psize)
	vic := v.c.Insert(set, part, v.geom.TagP(pa), fillState(store, shared))
	eVictim := v.t.eVictimPart
	if part == cache.AnyPartition {
		eVictim = v.t.eVictimFull
	}
	r := FillResult{Victim: vic, EnergyNJ: v.t.eFill + eVictim}
	if vic.Valid {
		r.VictimPA = v.geom.LineFromSetTag(set, vic.Tag)
		r.Writeback = vic.State.Dirty()
	}
	return r
}

// Snoop implements L1Cache. Coherence lookups carry physical addresses,
// so under the 4way policy the partition is always known and every
// probe pays only the partition cost.
func (v *Vespa) Snoop(pa addr.PAddr, op SnoopOp) ProbeResult {
	v.Stats.CoherenceProbes++
	set := v.geom.SetIndexP(pa)
	tag := v.geom.TagP(pa)
	if v.cfg.Policy == FourWay {
		part := v.geom.PartitionIndexP(pa)
		way, hit := v.c.Probe(set, part, tag)
		res := ProbeResult{Hit: hit, WaysProbed: v.geom.WaysPerPartition(), EnergyNJ: v.t.ePart}
		if hit {
			res.State = v.c.StateOf(set, way)
			snoopApply(v.c, set, way, op)
		}
		return res
	}
	way, hit := v.c.Probe(set, cache.AnyPartition, tag)
	res := ProbeResult{Hit: hit, WaysProbed: v.cfg.Ways, EnergyNJ: v.t.eFull}
	if hit {
		res.State = v.c.StateOf(set, way)
		snoopApply(v.c, set, way, op)
	}
	return res
}

// UpgradeToModified implements L1Cache.
func (v *Vespa) UpgradeToModified(pa addr.PAddr) {
	if set, way, ok := v.c.FindLine(pa); ok {
		v.c.SetState(set, way, cache.Modified)
	}
}

// EvictRange implements L1Cache (promotion sweeps).
func (v *Vespa) EvictRange(lo, hi addr.PAddr) []cache.Victim {
	victims := v.c.EvictRange(lo, hi)
	v.Stats.PromotionSweeps++
	v.Stats.SweptLines += uint64(len(victims))
	return victims
}

// FastCycles implements L1Cache.
func (v *Vespa) FastCycles() int { return v.t.fastCycles }

// SlowCycles implements L1Cache.
func (v *Vespa) SlowCycles() int { return v.t.slowCycles }

// Storage implements L1Cache.
func (v *Vespa) Storage() *cache.Cache { return v.c }

var _ L1Cache = (*Vespa)(nil)
