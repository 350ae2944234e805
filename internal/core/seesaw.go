package core

import (
	"fmt"

	"seesaw/internal/addr"
	"seesaw/internal/tft"
)

// SeesawStats counts the Table I lookup cases and the Fig 13 TFT-miss
// taxonomy.
type SeesawStats struct {
	// Accesses splits CPU-side lookups.
	Accesses           uint64
	SuperAccesses      uint64 // accesses to superpage-backed data
	FastHits           uint64 // TFT hit, cache hit (Table I row 1)
	FastMisses         uint64 // TFT hit, cache miss (Table I row 2)
	SuperTFTMissHits   uint64 // superpage access, TFT miss, cache hit
	SuperTFTMissMisses uint64 // superpage access, TFT miss, cache miss
	BaseAccesses       uint64 // base-page accesses (always slow)

	TFTFlushes uint64
}

// Seesaw is the SEESAW L1 data cache (Section IV): a VIPT cache whose
// sets are way-partitioned, with a TFT predicting superpage-backed
// regions. Its lookup rule: probe only the VA-named partition when the
// TFT predicts a superpage, otherwise search the whole set. Under the
// 4way insertion policy every coherence lookup probes a single
// partition too.
type Seesaw struct {
	skeleton
	f *tft.TFT

	Stats SeesawStats
}

// NewSeesaw builds a SEESAW cache. Partitions defaults to Ways/4 (the
// paper's 4-way partitions) when zero.
func NewSeesaw(cfg Config) (*Seesaw, error) {
	if err := validateFreq(cfg); err != nil {
		return nil, err
	}
	cfg = defaultPartitions(cfg)
	k, err := newSkeleton(cfg, cfg.Partitions, viptIndex, superIndex)
	if err != nil {
		return nil, err
	}
	return &Seesaw{skeleton: k, f: tft.New(cfg.TFT)}, nil
}

// MustNewSeesaw panics on error.
func MustNewSeesaw(cfg Config) *Seesaw {
	s, err := NewSeesaw(cfg)
	if err != nil {
		panic(err)
	}
	return s
}

// Name implements L1Cache.
func (s *Seesaw) Name() string {
	return fmt.Sprintf("SEESAW-%dKB-%dw/%dp", s.cfg.SizeBytes>>10, s.cfg.Ways, s.cfg.Partitions)
}

// TFT exposes the filter table (stats, Fig 13).
func (s *Seesaw) TFT() *tft.TFT { return s.f }

// Access implements L1Cache, realizing Table I:
//
//   - The TFT is probed in parallel with the (speculative) partition
//     lookup using the VA's partition-index bits.
//   - TFT hit: the access completes after the single partition probe —
//     fast latency, partition energy — whether it hits or misses.
//   - TFT miss (base page, or superpage the TFT forgot): the remaining
//     partitions are probed too — slow latency, full energy.
func (s *Seesaw) Access(va addr.VAddr, pa addr.PAddr, psize addr.PageSize, store bool) (res AccessResult) {
	s.Stats.Accesses++
	set := s.geom.SetIndexV(va)
	tag := s.geom.TagP(pa)
	super := psize.IsSuper()
	if super {
		s.Stats.SuperAccesses++
	} else {
		s.Stats.BaseAccesses++
	}
	if s.f.Lookup(va) {
		// The TFT can only hold regions that were superpage-backed when
		// a 2MB translation was filled; a hit licenses the fast path.
		part := s.geom.PartitionIndexV(va)
		s.lookupPartition(&res, set, part, tag)
		if res.Hit {
			s.Stats.FastHits++
		} else {
			s.Stats.FastMisses++
		}
		res.Superpage = super
		res.TFTHit = true
		return
	}
	// TFT miss: the speculative partition probe is followed by the
	// remaining partitions — equivalent to a full-set search at the
	// baseline's latency and energy (Table I rows 3-4).
	s.lookupSet(&res, set, tag)
	if super {
		if res.Hit {
			s.Stats.SuperTFTMissHits++
		} else {
			s.Stats.SuperTFTMissMisses++
		}
	}
	res.Superpage = super
	return
}

// OnSuperpageTLBFill is the TFT fill hook (Fig 5 steps 6-8): wire it to
// tlb.Hierarchy.OnL1SuperFill. va is any address in the filled 2MB page.
func (s *Seesaw) OnSuperpageTLBFill(va addr.VAddr) { s.f.Fill(va) }

// InvalidatePage is the TFT side of invlpg: executed when the OS
// splinters or unmaps a 2MB page (Section IV-C2).
func (s *Seesaw) InvalidatePage(va addr.VAddr) { s.f.Invalidate(va) }

// ContextSwitch flushes the TFT (it carries no ASIDs; Section IV-C3).
func (s *Seesaw) ContextSwitch() {
	s.f.Flush()
	s.Stats.TFTFlushes++
}
