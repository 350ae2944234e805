package core

import (
	"fmt"

	"seesaw/internal/addr"
	"seesaw/internal/cache"
	"seesaw/internal/tft"
	"seesaw/internal/waypred"
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

	// Coherence lookups all pay only the partition cost under the 4way
	// policy.
	CoherenceProbes uint64

	// PromotionSweeps counts EvictRange sweeps from page promotions;
	// SweptLines the lines they evicted.
	PromotionSweeps uint64
	SweptLines      uint64

	TFTFlushes uint64
}

// Seesaw is the SEESAW L1 data cache (Section IV): a VIPT cache whose sets
// are way-partitioned, with a TFT predicting superpage-backed regions so
// that superpage accesses (and, via the 4way insertion policy, all
// coherence lookups) probe a single partition.
type Seesaw struct {
	cfg  Config
	geom addr.CacheGeometry
	c    *cache.Cache
	f    *tft.TFT
	t    timing
	wp   *waypred.MRU // nil unless cfg.WayPredict

	Stats SeesawStats
}

// NewSeesaw builds a SEESAW cache. Partitions defaults to Ways/4 (the
// paper's 4-way partitions) when zero.
func NewSeesaw(cfg Config) (*Seesaw, error) {
	if err := validateFreq(cfg); err != nil {
		return nil, err
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
	// The partition index bits must be page-offset bits of a 2MB page,
	// or the whole design premise collapses.
	if !geom.PartitionIndexKnown(addr.Page2M) {
		return nil, fmt.Errorf("core: %v partition index exceeds the 2MB page offset", geom)
	}
	t, err := newTiming(cfg, cfg.Partitions)
	if err != nil {
		return nil, err
	}
	s := &Seesaw{cfg: cfg, geom: geom, c: cache.NewWithPolicy(geom, cfg.Replacement), f: tft.New(cfg.TFT), t: t}
	if cfg.WayPredict {
		s.wp = waypred.NewMRU(geom.Sets())
	}
	return s, nil
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

// Geometry exposes the partitioned geometry.
func (s *Seesaw) Geometry() addr.CacheGeometry { return s.geom }

// Access implements L1Cache, realizing Table I:
//
//   - The TFT is probed in parallel with the (speculative) partition
//     lookup using the VA's partition-index bits.
//   - TFT hit: the access completes after the single partition probe —
//     fast latency, partition energy — whether it hits or misses.
//   - TFT miss (base page, or superpage the TFT forgot): the remaining
//     partitions are probed too — slow latency, full energy.
//
// The lookups fill the named result in place, so the 40-byte result is
// not copied back through each helper on the per-reference path.
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
		s.fastLookup(&res, set, part, tag)
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
	s.slowLookup(&res, set, tag)
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

// fastLookup probes a single partition (TFT hit path), optionally through
// the way predictor: SEESAW presents the right partition to the
// predictor, so a misprediction only costs a re-probe of that partition
// (Section IV-B2).
func (s *Seesaw) fastLookup(res *AccessResult, set, part int, tag uint64) {
	wpp := s.geom.WaysPerPartition()
	if s.wp != nil {
		if pred, ok := s.wp.Predict(set); ok && s.c.PartitionOfWay(pred) == part {
			if s.c.ProbeWay(set, pred, tag) {
				s.c.Touch(set, pred)
				s.wp.Feedback(set, pred, true, pred)
				*res = AccessResult{
					Hit: true, State: s.c.StateOf(set, pred),
					Cycles: s.t.fastCycles, FastPath: true,
					WaysProbed: 1, EnergyNJ: s.t.eOne,
				}
				return
			}
			way, hit := s.c.Access(set, part, tag)
			feedbackWay := -1
			*res = AccessResult{
				Hit: hit, Cycles: 2 * s.t.fastCycles, FastPath: true,
				WaysProbed: 1 + wpp, EnergyNJ: s.t.eOne + s.t.ePart,
			}
			if hit {
				feedbackWay = way
				res.State = s.c.StateOf(set, way)
			}
			s.wp.Feedback(set, feedbackWay, true, pred)
			return
		}
	}
	way, hit := s.c.Access(set, part, tag)
	*res = AccessResult{
		Hit: hit, Cycles: s.t.fastCycles, FastPath: true,
		WaysProbed: wpp, EnergyNJ: s.t.ePart,
	}
	if hit {
		res.State = s.c.StateOf(set, way)
		if s.wp != nil {
			s.wp.Feedback(set, way, false, 0)
		}
	}
}

// slowLookup searches the whole set (TFT miss / base page), optionally
// through the way predictor.
func (s *Seesaw) slowLookup(res *AccessResult, set int, tag uint64) {
	if s.wp != nil {
		if pred, ok := s.wp.Predict(set); ok {
			if s.c.ProbeWay(set, pred, tag) {
				s.c.Touch(set, pred)
				s.wp.Feedback(set, pred, true, pred)
				*res = AccessResult{
					Hit: true, State: s.c.StateOf(set, pred),
					Cycles:     s.t.slowCycles,
					WaysProbed: 1, EnergyNJ: s.t.eOne,
				}
				return
			}
			way, hit := s.c.Access(set, cache.AnyPartition, tag)
			feedbackWay := -1
			*res = AccessResult{
				Hit: hit, Cycles: 2 * s.t.slowCycles,
				WaysProbed: 1 + s.cfg.Ways, EnergyNJ: s.t.eOne + s.t.eFull,
			}
			if hit {
				feedbackWay = way
				res.State = s.c.StateOf(set, way)
			}
			s.wp.Feedback(set, feedbackWay, true, pred)
			return
		}
	}
	way, hit := s.c.Access(set, cache.AnyPartition, tag)
	*res = AccessResult{
		Hit: hit, Cycles: s.t.slowCycles,
		WaysProbed: s.cfg.Ways, EnergyNJ: s.t.eFull,
	}
	if hit {
		res.State = s.c.StateOf(set, way)
		if s.wp != nil {
			s.wp.Feedback(set, way, false, 0)
		}
	}
}

// Predictor exposes the way predictor (nil when disabled).
func (s *Seesaw) Predictor() *waypred.MRU { return s.wp }

// insertPartition picks the insertion scope per the configured policy.
func (s *Seesaw) insertPartition(pa addr.PAddr, psize addr.PageSize) int {
	if s.cfg.Policy == FourEightWay && !psize.IsSuper() {
		return cache.AnyPartition
	}
	return s.geom.PartitionIndexP(pa)
}

// Fill implements L1Cache: the 4way policy inserts into the partition the
// physical address names with partition-local LRU (for superpages the VA
// names the same partition), keeping every line's location derivable from
// its PA.
func (s *Seesaw) Fill(pa addr.PAddr, psize addr.PageSize, store, shared bool) FillResult {
	set := s.geom.SetIndexP(pa)
	part := s.insertPartition(pa, psize)
	v := s.c.Insert(set, part, s.geom.TagP(pa), fillState(store, shared))
	if s.wp != nil {
		s.wp.Feedback(set, v.Way, false, 0) // the filled way becomes MRU
	}
	eVictim := s.t.eVictimPart
	if part == cache.AnyPartition {
		eVictim = s.t.eVictimFull
	}
	r := FillResult{Victim: v, EnergyNJ: s.t.eFill + eVictim}
	if v.Valid {
		r.VictimPA = s.geom.LineFromSetTag(set, v.Tag)
		r.Writeback = v.State.Dirty()
	}
	return r
}

// Snoop implements L1Cache. Coherence lookups carry physical addresses,
// so under the 4way policy the partition is always known: every probe —
// superpage or base page — pays only the partition cost (Section IV-C1).
// Under the 4way-8way ablation base pages may sit anywhere, so the full
// set is searched.
func (s *Seesaw) Snoop(pa addr.PAddr, op SnoopOp) ProbeResult {
	s.Stats.CoherenceProbes++
	set := s.geom.SetIndexP(pa)
	tag := s.geom.TagP(pa)
	if s.cfg.Policy == FourWay {
		part := s.geom.PartitionIndexP(pa)
		way, hit := s.c.Probe(set, part, tag)
		res := ProbeResult{Hit: hit, WaysProbed: s.geom.WaysPerPartition(), EnergyNJ: s.t.ePart}
		if hit {
			res.State = s.c.StateOf(set, way)
			snoopApply(s.c, set, way, op)
		}
		return res
	}
	way, hit := s.c.Probe(set, cache.AnyPartition, tag)
	res := ProbeResult{Hit: hit, WaysProbed: s.cfg.Ways, EnergyNJ: s.t.eFull}
	if hit {
		res.State = s.c.StateOf(set, way)
		snoopApply(s.c, set, way, op)
	}
	return res
}

// UpgradeToModified implements L1Cache.
func (s *Seesaw) UpgradeToModified(pa addr.PAddr) {
	if set, way, ok := s.c.FindLine(pa); ok {
		s.c.SetState(set, way, cache.Modified)
	}
}

// EvictRange implements L1Cache; SEESAW uses it for the promotion sweep
// (Section IV-C2), done under cover of the OS's 150-200 cycle TLB
// invalidation instruction.
func (s *Seesaw) EvictRange(lo, hi addr.PAddr) []cache.Victim {
	victims := s.c.EvictRange(lo, hi)
	s.Stats.PromotionSweeps++
	s.Stats.SweptLines += uint64(len(victims))
	return victims
}

// FastCycles implements L1Cache.
func (s *Seesaw) FastCycles() int { return s.t.fastCycles }

// SlowCycles implements L1Cache.
func (s *Seesaw) SlowCycles() int { return s.t.slowCycles }

// Storage implements L1Cache.
func (s *Seesaw) Storage() *cache.Cache { return s.c }

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
