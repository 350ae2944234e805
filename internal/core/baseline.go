package core

import (
	"fmt"

	"seesaw/internal/addr"
)

// BaselineVIPT is the conventional virtually-indexed, physically-tagged
// L1. Its lookup rule: search the whole set at the VA index (the set
// index comes from page-offset bits, identical in VA and PA). Every
// lookup and every coherence probe pays the full associativity — the
// costs SEESAW attacks.
type BaselineVIPT struct {
	skeleton
}

// NewBaselineVIPT builds a baseline VIPT L1.
func NewBaselineVIPT(cfg Config) (*BaselineVIPT, error) {
	if err := validateFreq(cfg); err != nil {
		return nil, err
	}
	k, err := newSkeleton(cfg, 1, viptIndex)
	if err != nil {
		return nil, err
	}
	return &BaselineVIPT{k}, nil
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

// Access implements L1Cache: index with the VA (free under VIPT),
// compare physical tags across all ways.
func (b *BaselineVIPT) Access(va addr.VAddr, pa addr.PAddr, psize addr.PageSize, store bool) (res AccessResult) {
	b.lookupSet(&res, b.geom.SetIndexV(va), b.geom.TagP(pa))
	res.Superpage = psize.IsSuper()
	return
}

// PIPT is the physically-indexed alternative of Fig 14. Its lookup
// rule: search the whole set at the PA index, after the TLB lookup,
// which adds SerialTLBCycles to every hit. Associativity can be lowered
// (more sets), since no VIPT constraint applies.
type PIPT struct {
	skeleton
}

// NewPIPT builds a PIPT L1; unlike VIPT there is no set-count constraint.
func NewPIPT(cfg Config) (*PIPT, error) {
	if err := validateFreq(cfg); err != nil {
		return nil, err
	}
	if cfg.WayPredict {
		return nil, fmt.Errorf("core: PIPT does not model way prediction")
	}
	k, err := newSkeleton(cfg, 1)
	if err != nil {
		return nil, err
	}
	k.serialTLB = max(cfg.SerialTLBCycles, 1)
	return &PIPT{k}, nil
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
func (p *PIPT) Access(va addr.VAddr, pa addr.PAddr, psize addr.PageSize, store bool) (res AccessResult) {
	p.lookupSet(&res, p.geom.SetIndexP(pa), p.geom.TagP(pa))
	res.Cycles += p.serialTLB
	res.Superpage = psize.IsSuper()
	return
}

// ensure interface compliance.
var (
	_ L1Cache = (*BaselineVIPT)(nil)
	_ L1Cache = (*PIPT)(nil)
	_ L1Cache = (*Seesaw)(nil)
	_ L1Cache = (*Vespa)(nil)
)
