package core

import (
	"fmt"

	"seesaw/internal/addr"
	"seesaw/internal/cache"
	"seesaw/internal/waypred"
)

// BaselineVIPT is the conventional virtually-indexed, physically-tagged
// L1: the set index comes from page-offset bits (identical in VA and PA),
// every lookup probes all ways, and coherence probes also pay the full
// associativity — the costs SEESAW attacks.
type BaselineVIPT struct {
	cfg  Config
	geom addr.CacheGeometry
	c    *cache.Cache
	t    timing
	wp   *waypred.MRU // nil unless cfg.WayPredict
}

// NewBaselineVIPT builds a baseline VIPT L1.
func NewBaselineVIPT(cfg Config) (*BaselineVIPT, error) {
	if err := validateFreq(cfg); err != nil {
		return nil, err
	}
	geom, err := addr.NewCacheGeometry(cfg.SizeBytes, cfg.Ways, 1)
	if err != nil {
		return nil, err
	}
	if !geom.VIPTIndexInsidePageOffset(addr.Page4K) {
		return nil, fmt.Errorf("core: %v violates the VIPT constraint for 4KB pages", geom)
	}
	t, err := newTiming(cfg, 1)
	if err != nil {
		return nil, err
	}
	b := &BaselineVIPT{cfg: cfg, geom: geom, c: cache.NewWithPolicy(geom, cfg.Replacement), t: t}
	if cfg.WayPredict {
		b.wp = waypred.NewMRU(geom.Sets())
	}
	return b, nil
}

// MustNewBaselineVIPT panics on error.
func MustNewBaselineVIPT(cfg Config) *BaselineVIPT {
	b, err := NewBaselineVIPT(cfg)
	if err != nil {
		panic(err)
	}
	return b
}

// Name implements L1Cache.
func (b *BaselineVIPT) Name() string {
	return fmt.Sprintf("VIPT-%dKB-%dw", b.cfg.SizeBytes>>10, b.cfg.Ways)
}

// Access implements L1Cache: index with the VA (free under VIPT), compare
// physical tags across all ways. With way prediction enabled a predicted
// way is probed first: correct predictions save energy (not latency — the
// TLB still gates the tag compare); mispredictions pay a second full
// probe, which is where Fig 15's WP slowdowns come from.
func (b *BaselineVIPT) Access(va addr.VAddr, pa addr.PAddr, psize addr.PageSize, store bool) AccessResult {
	set := b.geom.SetIndexV(va)
	tag := b.geom.TagP(pa)
	res := AccessResult{
		Cycles:     b.t.slowCycles,
		WaysProbed: b.cfg.Ways,
		EnergyNJ:   b.t.eFull,
		Superpage:  psize.IsSuper(),
	}
	if b.wp != nil {
		if pred, ok := b.wp.Predict(set); ok {
			if b.c.ProbeWay(set, pred, tag) {
				b.c.Touch(set, pred)
				b.wp.Feedback(set, pred, true, pred)
				res.Hit = true
				res.State = b.c.StateOf(set, pred)
				res.WaysProbed = 1
				res.EnergyNJ = b.t.eOne
				return res
			}
			// Misprediction: sequential second probe of the full set.
			way, hit := b.c.Access(set, cache.AnyPartition, tag)
			feedbackWay := -1
			if hit {
				feedbackWay = way
				res.State = b.c.StateOf(set, way)
			}
			b.wp.Feedback(set, feedbackWay, true, pred)
			res.Hit = hit
			res.Cycles = 2 * b.t.slowCycles
			res.WaysProbed = 1 + b.cfg.Ways
			res.EnergyNJ = b.t.eOne + b.t.eFull
			return res
		}
	}
	way, hit := b.c.Access(set, cache.AnyPartition, tag)
	if hit {
		res.State = b.c.StateOf(set, way)
		if b.wp != nil {
			b.wp.Feedback(set, way, false, 0)
		}
	}
	res.Hit = hit
	return res
}

// Predictor exposes the way predictor (nil when disabled).
func (b *BaselineVIPT) Predictor() *waypred.MRU { return b.wp }

// Fill implements L1Cache with global LRU across the set.
func (b *BaselineVIPT) Fill(pa addr.PAddr, psize addr.PageSize, store, shared bool) FillResult {
	set := b.geom.SetIndexP(pa)
	v := b.c.Insert(set, cache.AnyPartition, b.geom.TagP(pa), fillState(store, shared))
	if b.wp != nil {
		b.wp.Feedback(set, v.Way, false, 0) // the filled way becomes MRU
	}
	r := FillResult{Victim: v, EnergyNJ: b.t.eFill + b.t.eVictimFull}
	if v.Valid {
		r.VictimPA = b.geom.LineFromSetTag(set, v.Tag)
		r.Writeback = v.State.Dirty()
	}
	return r
}

// Snoop implements L1Cache: coherence probes pay the full associativity.
func (b *BaselineVIPT) Snoop(pa addr.PAddr, op SnoopOp) ProbeResult {
	set := b.geom.SetIndexP(pa)
	way, hit := b.c.Probe(set, cache.AnyPartition, b.geom.TagP(pa))
	res := ProbeResult{Hit: hit, WaysProbed: b.cfg.Ways, EnergyNJ: b.t.eFull}
	if hit {
		res.State = b.c.StateOf(set, way)
		snoopApply(b.c, set, way, op)
	}
	return res
}

// UpgradeToModified implements L1Cache.
func (b *BaselineVIPT) UpgradeToModified(pa addr.PAddr) {
	if set, way, ok := b.c.FindLine(pa); ok {
		b.c.SetState(set, way, cache.Modified)
	}
}

// EvictRange implements L1Cache.
func (b *BaselineVIPT) EvictRange(lo, hi addr.PAddr) []cache.Victim {
	return b.c.EvictRange(lo, hi)
}

// FastCycles implements L1Cache; the baseline has a single hit latency.
func (b *BaselineVIPT) FastCycles() int { return b.t.slowCycles }

// SlowCycles implements L1Cache.
func (b *BaselineVIPT) SlowCycles() int { return b.t.slowCycles }

// Storage implements L1Cache.
func (b *BaselineVIPT) Storage() *cache.Cache { return b.c }

// PIPT is the physically-indexed alternative of Fig 14: associativity can
// be lowered (more sets), but the TLB lookup serializes before the cache
// access, adding SerialTLBCycles to every hit.
type PIPT struct {
	cfg  Config
	geom addr.CacheGeometry
	c    *cache.Cache
	t    timing
}

// NewPIPT builds a PIPT L1; unlike VIPT there is no set-count constraint.
func NewPIPT(cfg Config) (*PIPT, error) {
	if err := validateFreq(cfg); err != nil {
		return nil, err
	}
	if cfg.WayPredict {
		return nil, fmt.Errorf("core: PIPT does not model way prediction")
	}
	geom, err := addr.NewCacheGeometry(cfg.SizeBytes, cfg.Ways, 1)
	if err != nil {
		return nil, err
	}
	t, err := newTiming(cfg, 1)
	if err != nil {
		return nil, err
	}
	if cfg.SerialTLBCycles <= 0 {
		cfg.SerialTLBCycles = 1
	}
	return &PIPT{cfg: cfg, geom: geom, c: cache.NewWithPolicy(geom, cfg.Replacement), t: t}, nil
}

// MustNewPIPT panics on error.
func MustNewPIPT(cfg Config) *PIPT {
	p, err := NewPIPT(cfg)
	if err != nil {
		panic(err)
	}
	return p
}

// Name implements L1Cache.
func (p *PIPT) Name() string {
	return fmt.Sprintf("PIPT-%dKB-%dw", p.cfg.SizeBytes>>10, p.cfg.Ways)
}

// Access implements L1Cache: physical indexing, so the TLB must finish
// first; its latency is added serially.
func (p *PIPT) Access(va addr.VAddr, pa addr.PAddr, psize addr.PageSize, store bool) AccessResult {
	set := p.geom.SetIndexP(pa)
	way, hit := p.c.Access(set, cache.AnyPartition, p.geom.TagP(pa))
	res := AccessResult{
		Hit:        hit,
		Cycles:     p.cfg.SerialTLBCycles + p.t.slowCycles,
		WaysProbed: p.cfg.Ways,
		EnergyNJ:   p.t.eFull,
		Superpage:  psize.IsSuper(),
	}
	if hit {
		res.State = p.c.StateOf(set, way)
	}
	return res
}

// Fill implements L1Cache.
func (p *PIPT) Fill(pa addr.PAddr, psize addr.PageSize, store, shared bool) FillResult {
	set := p.geom.SetIndexP(pa)
	v := p.c.Insert(set, cache.AnyPartition, p.geom.TagP(pa), fillState(store, shared))
	r := FillResult{Victim: v, EnergyNJ: p.t.eFill + p.t.eVictimFull}
	if v.Valid {
		r.VictimPA = p.geom.LineFromSetTag(set, v.Tag)
		r.Writeback = v.State.Dirty()
	}
	return r
}

// Snoop implements L1Cache.
func (p *PIPT) Snoop(pa addr.PAddr, op SnoopOp) ProbeResult {
	set := p.geom.SetIndexP(pa)
	way, hit := p.c.Probe(set, cache.AnyPartition, p.geom.TagP(pa))
	res := ProbeResult{Hit: hit, WaysProbed: p.cfg.Ways, EnergyNJ: p.t.eFull}
	if hit {
		res.State = p.c.StateOf(set, way)
		snoopApply(p.c, set, way, op)
	}
	return res
}

// UpgradeToModified implements L1Cache.
func (p *PIPT) UpgradeToModified(pa addr.PAddr) {
	if set, way, ok := p.c.FindLine(pa); ok {
		p.c.SetState(set, way, cache.Modified)
	}
}

// EvictRange implements L1Cache.
func (p *PIPT) EvictRange(lo, hi addr.PAddr) []cache.Victim {
	return p.c.EvictRange(lo, hi)
}

// FastCycles implements L1Cache.
func (p *PIPT) FastCycles() int { return p.cfg.SerialTLBCycles + p.t.slowCycles }

// SlowCycles implements L1Cache.
func (p *PIPT) SlowCycles() int { return p.cfg.SerialTLBCycles + p.t.slowCycles }

// Storage implements L1Cache.
func (p *PIPT) Storage() *cache.Cache { return p.c }

// ensure interface compliance.
var (
	_ L1Cache = (*BaselineVIPT)(nil)
	_ L1Cache = (*PIPT)(nil)
	_ L1Cache = (*Seesaw)(nil)
)
