package core

import (
	"fmt"

	"seesaw/internal/addr"
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
}

// Vespa is the authors' precursor design (per PAPERS.md): a
// superpage-aware VIPT cache. Its lookup rule: probe only the VA-named
// partition when the TLB says the page is a superpage, otherwise search
// the whole set. Accesses to 2MB-backed data may use virtual index bits
// beyond the 4KB page offset — those bits equal the physical ones
// inside a superpage — so they index the full cache and probe a single
// partition's ways.
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
	skeleton

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
	cfg = defaultPartitions(cfg)
	k, err := newSkeleton(cfg, cfg.Partitions, viptIndex, superIndex)
	if err != nil {
		return nil, err
	}
	return &Vespa{skeleton: k}, nil
}

// Name implements L1Cache.
func (v *Vespa) Name() string {
	return fmt.Sprintf("VESPA-%dKB-%dw/%dp", v.cfg.SizeBytes>>10, v.cfg.Ways, v.cfg.Partitions)
}

// Access implements L1Cache: superpage-backed accesses (the TLB's page
// size is ground truth here — no filter table) index the full cache and
// probe one partition at the fast latency; base-page accesses search
// the whole set at the baseline latency.
func (v *Vespa) Access(va addr.VAddr, pa addr.PAddr, psize addr.PageSize, store bool) (res AccessResult) {
	v.Stats.Accesses++
	set := v.geom.SetIndexV(va)
	tag := v.geom.TagP(pa)
	if psize.IsSuper() {
		v.Stats.SuperAccesses++
		v.lookupPartition(&res, set, v.geom.PartitionIndexV(va), tag)
		if res.Hit {
			v.Stats.SuperHits++
		} else {
			v.Stats.SuperMisses++
		}
		res.Superpage = true
		return
	}
	v.Stats.BaseAccesses++
	v.lookupSet(&res, set, tag)
	return
}
