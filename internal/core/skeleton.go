package core

import (
	"fmt"

	"seesaw/internal/addr"
	"seesaw/internal/cache"
	"seesaw/internal/waypred"
)

// SharedStats counts the events every design's shared methods see.
type SharedStats struct {
	// CoherenceProbes counts Snoop lookups.
	CoherenceProbes uint64
	// PromotionSweeps counts EvictFrames sweeps from page promotions;
	// SweptLines the lines they evicted.
	PromotionSweeps uint64
	SweptLines      uint64
}

// skeleton is the L1 every design embeds: the storage array over a
// way-partitioned geometry, the precomputed timing, the optional way
// predictor, the two lookups a design's Access chooses between, and
// every other L1Cache method. A design adds only its constructor
// constraints, its Name and its Access decision.
//
// An unpartitioned design (the baseline VIPT and PIPT caches) is the
// one-partition case of the same code: partition 0 is then the whole
// set, newTiming(cfg, 1) sets ePart = eFull, and fastCycles equals
// slowCycles, so the partitioned fill, snoop and lookup give exactly the
// whole-set victims, ways probed, latencies and energies.
type skeleton struct {
	cfg  Config // Partitions holds the geometry's partition count
	geom addr.CacheGeometry
	c    *cache.Cache
	t    timing
	wp   *waypred.MRU // nil unless cfg.WayPredict
	// serialTLB is PIPT's TLB latency, serialized before every lookup
	// (zero for the VIPT designs, which overlap it).
	serialTLB int

	Shared SharedStats
}

// geometryRule rejects a geometry a design cannot index.
type geometryRule func(addr.CacheGeometry) error

// viptIndex is the VIPT constraint: the set index must sit inside the
// 4KB page offset, so the VA names the set before translation.
func viptIndex(g addr.CacheGeometry) error {
	if !g.VIPTIndexInsidePageOffset(addr.Page4K) {
		return fmt.Errorf("core: %v violates the VIPT constraint for 4KB pages", g)
	}
	return nil
}

// superIndex requires the partition index bits to be 2MB page-offset
// bits, so a superpage access's VA names its partition; otherwise the
// partition-only lookup has no premise.
func superIndex(g addr.CacheGeometry) error {
	if !g.PartitionIndexKnown(addr.Page2M) {
		return fmt.Errorf("core: %v partition index exceeds the 2MB page offset", g)
	}
	return nil
}

// newSkeleton builds the storage, timing and (when cfg.WayPredict) way
// predictor of a cache whose cfg.Ways split into the given number of
// partitions, after checking the geometry against rules in order.
func newSkeleton(cfg Config, partitions int, rules ...geometryRule) (skeleton, error) {
	geom, err := addr.NewCacheGeometry(cfg.SizeBytes, cfg.Ways, partitions)
	if err != nil {
		return skeleton{}, err
	}
	for _, rule := range rules {
		if err := rule(geom); err != nil {
			return skeleton{}, err
		}
	}
	t, err := newTiming(cfg, partitions)
	if err != nil {
		return skeleton{}, err
	}
	cfg.Partitions = partitions
	k := skeleton{cfg: cfg, geom: geom, c: cache.NewWithPolicy(geom, cfg.Replacement), t: t}
	if cfg.WayPredict {
		k.wp = waypred.NewMRU(geom.Sets())
	}
	return k, nil
}

// defaultPartitions fills a zero Partitions with the paper's 4-way
// partitions: Ways/4, at least one.
func defaultPartitions(cfg Config) Config {
	if cfg.Partitions == 0 {
		cfg.Partitions = max(cfg.Ways/4, 1)
	}
	return cfg
}

// lookupPartition probes a single partition of set at the fast latency
// and partition energy, optionally through the way predictor. The
// design presents the right partition to the predictor, so a
// misprediction only costs a re-probe of that partition (Section
// IV-B2). The result is filled in place, so the 40-byte AccessResult
// is not copied back through the call on the per-reference path.
func (k *skeleton) lookupPartition(res *AccessResult, set, part int, tag uint64) {
	wpp := k.geom.WaysPerPartition()
	if k.wp != nil {
		if pred, ok := k.wp.Predict(set); ok && k.c.PartitionOfWay(pred) == part {
			if k.c.ProbeWay(set, pred, tag) {
				k.c.Touch(set, pred)
				k.wp.Feedback(set, pred, true, pred)
				*res = AccessResult{
					Hit: true, State: k.c.StateOf(set, pred),
					Cycles: k.t.fastCycles, FastPath: true,
					WaysProbed: 1, EnergyNJ: k.t.eOne,
				}
				return
			}
			way, hit := k.c.Access(set, part, tag)
			feedbackWay := -1
			*res = AccessResult{
				Hit: hit, Cycles: 2 * k.t.fastCycles, FastPath: true, Reprobe: true,
				WaysProbed: 1 + wpp, EnergyNJ: k.t.eOne + k.t.ePart,
			}
			if hit {
				feedbackWay = way
				res.State = k.c.StateOf(set, way)
			}
			k.wp.Feedback(set, feedbackWay, true, pred)
			return
		}
	}
	way, hit := k.c.Access(set, part, tag)
	*res = AccessResult{
		Hit: hit, Cycles: k.t.fastCycles, FastPath: true,
		WaysProbed: wpp, EnergyNJ: k.t.ePart,
	}
	if hit {
		res.State = k.c.StateOf(set, way)
		if k.wp != nil {
			k.wp.Feedback(set, way, false, 0)
		}
	}
}

// lookupSet searches the whole set at the slow latency and full-set
// energy. With way prediction a predicted way is probed first: a
// correct prediction saves energy, not latency (the TLB still gates the
// tag compare); a misprediction pays a second probe of the whole set,
// which is where Fig 15's WP slowdowns come from.
func (k *skeleton) lookupSet(res *AccessResult, set int, tag uint64) {
	if k.wp != nil {
		if pred, ok := k.wp.Predict(set); ok {
			if k.c.ProbeWay(set, pred, tag) {
				k.c.Touch(set, pred)
				k.wp.Feedback(set, pred, true, pred)
				*res = AccessResult{
					Hit: true, State: k.c.StateOf(set, pred),
					Cycles:     k.t.slowCycles,
					WaysProbed: 1, EnergyNJ: k.t.eOne,
				}
				return
			}
			way, hit := k.c.Access(set, cache.AnyPartition, tag)
			feedbackWay := -1
			*res = AccessResult{
				Hit: hit, Cycles: 2 * k.t.slowCycles, Reprobe: true,
				WaysProbed: 1 + k.cfg.Ways, EnergyNJ: k.t.eOne + k.t.eFull,
			}
			if hit {
				feedbackWay = way
				res.State = k.c.StateOf(set, way)
			}
			k.wp.Feedback(set, feedbackWay, true, pred)
			return
		}
	}
	way, hit := k.c.Access(set, cache.AnyPartition, tag)
	*res = AccessResult{
		Hit: hit, Cycles: k.t.slowCycles,
		WaysProbed: k.cfg.Ways, EnergyNJ: k.t.eFull,
	}
	if hit {
		res.State = k.c.StateOf(set, way)
		if k.wp != nil {
			k.wp.Feedback(set, way, false, 0)
		}
	}
}

// insertPartition picks the insertion scope per the configured policy:
// under 4way every line goes to the partition its physical address
// names; under 4way-8way base pages may go anywhere in the set.
func (k *skeleton) insertPartition(pa addr.PAddr, psize addr.PageSize) int {
	if k.cfg.Policy == FourEightWay && !psize.IsSuper() {
		return cache.AnyPartition
	}
	return k.geom.PartitionIndexP(pa)
}

// Fill implements L1Cache: the 4way policy inserts into the partition
// the physical address names with partition-local LRU (for superpages
// the VA names the same partition), keeping every line's location
// derivable from its PA; victim selection costs energy in proportion to
// its scope.
func (k *skeleton) Fill(pa addr.PAddr, psize addr.PageSize, store, shared bool) FillResult {
	set := k.geom.SetIndexP(pa)
	part := k.insertPartition(pa, psize)
	v := k.c.Insert(set, part, k.geom.TagP(pa), fillState(store, shared))
	if k.wp != nil {
		k.wp.Feedback(set, v.Way, false, 0) // the filled way becomes MRU
	}
	eVictim := k.t.eVictimPart
	if part == cache.AnyPartition {
		eVictim = k.t.eVictimFull
	}
	r := FillResult{Victim: v, EnergyNJ: k.t.eFill + eVictim}
	if v.Valid {
		r.VictimPA = k.geom.LineFromSetTag(set, v.Tag)
		r.Writeback = v.State.Dirty()
	}
	return r
}

// Snoop implements L1Cache. Coherence lookups carry physical addresses,
// so under the 4way policy the partition is always known: every probe,
// superpage or base page, pays only the partition cost (Section
// IV-C1). Under the 4way-8way ablation base pages may sit anywhere, so
// the whole set is searched.
func (k *skeleton) Snoop(pa addr.PAddr, op SnoopOp) ProbeResult {
	k.Shared.CoherenceProbes++
	set := k.geom.SetIndexP(pa)
	part, ways, energy := cache.AnyPartition, k.cfg.Ways, k.t.eFull
	if k.cfg.Policy == FourWay {
		part, ways, energy = k.geom.PartitionIndexP(pa), k.geom.WaysPerPartition(), k.t.ePart
	}
	way, hit := k.c.Probe(set, part, k.geom.TagP(pa))
	res := ProbeResult{Hit: hit, WaysProbed: ways, EnergyNJ: energy}
	if hit {
		res.State = k.c.StateOf(set, way)
		snoopApply(k.c, set, way, op)
	}
	return res
}

// UpgradeToModified implements L1Cache.
func (k *skeleton) UpgradeToModified(pa addr.PAddr) {
	if set, way, ok := k.c.FindLine(pa); ok {
		k.c.SetState(set, way, cache.Modified)
	}
}

// EvictFrames implements L1Cache: the promotion sweep (Section IV-C2),
// done under cover of the OS's 150-200 cycle TLB invalidation
// instruction.
func (k *skeleton) EvictFrames(s *cache.FrameSweep) []cache.Victim {
	victims := k.c.EvictFrames(s)
	k.Shared.PromotionSweeps++
	k.Shared.SweptLines += uint64(len(victims))
	return victims
}

// FastCycles implements L1Cache.
func (k *skeleton) FastCycles() int { return k.serialTLB + k.t.fastCycles }

// SlowCycles implements L1Cache.
func (k *skeleton) SlowCycles() int { return k.serialTLB + k.t.slowCycles }

// LookupCycles implements L1Cache: the probed scope's latency, once or
// twice, after the serialized TLB lookup (PIPT only).
func (k *skeleton) LookupCycles(fastPath, reprobe bool) int {
	n := k.t.slowCycles
	if fastPath {
		n = k.t.fastCycles
	}
	if reprobe {
		n *= 2
	}
	return k.serialTLB + n
}

// Storage implements L1Cache.
func (k *skeleton) Storage() *cache.Cache { return k.c }

// Predictor implements L1Cache.
func (k *skeleton) Predictor() *waypred.MRU { return k.wp }

// Geometry exposes the (possibly one-partition) geometry.
func (k *skeleton) Geometry() addr.CacheGeometry { return k.geom }

// fillState picks the MOESI state for a newly installed line.
func fillState(store, shared bool) cache.State {
	switch {
	case store:
		return cache.Modified
	case shared:
		return cache.Shared
	default:
		return cache.Exclusive
	}
}

// snoopApply applies a snoop operation to a hit line.
func snoopApply(c *cache.Cache, set, way int, op SnoopOp) {
	switch op {
	case SnoopPeek:
	case SnoopInvalidate:
		c.SetState(set, way, cache.Invalid)
	case SnoopDowngrade:
		switch c.StateOf(set, way) {
		case cache.Modified:
			c.SetState(set, way, cache.Owned)
		case cache.Exclusive:
			c.SetState(set, way, cache.Shared)
		}
	}
}
