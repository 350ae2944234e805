package tlb

import (
	"fmt"

	"seesaw/internal/addr"
	"seesaw/internal/metrics"
	"seesaw/internal/pagetable"
)

// Source identifies where a translation was resolved.
type Source int

const (
	// SourceL1 means an L1 TLB hit (fully overlapped with VIPT cache
	// indexing, so it adds no cycles to the access).
	SourceL1 Source = iota
	// SourceL2 means an L2 TLB hit.
	SourceL2
	// SourceWalk means a page-table walk.
	SourceWalk
	// SourceFault means the address is unmapped.
	SourceFault
)

func (s Source) String() string {
	switch s {
	case SourceL1:
		return "L1"
	case SourceL2:
		return "L2"
	case SourceWalk:
		return "walk"
	case SourceFault:
		return "fault"
	}
	return fmt.Sprintf("Source(%d)", int(s))
}

// Result is the outcome of a hierarchy translation.
type Result struct {
	PA     addr.PAddr
	Size   addr.PageSize
	Source Source
	// ExtraCycles is the translation latency beyond the L1 TLB lookup
	// that VIPT already overlaps with cache indexing: 0 on an L1 hit,
	// the L2 latency on an L2 hit, L2 latency + walk cycles on a walk.
	ExtraCycles int
	// FilledL1Super reports that this translation filled the 2MB L1 TLB
	// — the event that also fills the TFT (Fig 5 steps 6-8).
	FilledL1Super bool
}

// HierarchyConfig sizes a core's TLB hierarchy.
type HierarchyConfig struct {
	// L1 per-size configurations; typical Sandybridge: 128-entry 4KB,
	// 16-entry 2MB. A nil slice entry disables that level.
	L1 []Config
	// L2 unified configuration; nil disables the L2 TLB.
	L2 *Config
	// L2LatencyCycles is charged on L1 misses that reach the L2.
	L2LatencyCycles int
}

// SandybridgeTLBs returns the paper's out-of-order configuration (Table
// II): split L1s, 128-entry 4KB and 16-entry 2MB, 4-way; no unified L2 is
// listed for Sandybridge in the paper's table, but a 512-entry L2 is used
// for Atom. We model Sandybridge's real 512-entry L2 as well so walks are
// not overstated.
func SandybridgeTLBs() HierarchyConfig {
	return HierarchyConfig{
		L1: []Config{
			{Name: "L1-4K", Entries: 128, Assoc: 4, Sizes: []addr.PageSize{addr.Page4K}},
			{Name: "L1-2M", Entries: 16, Assoc: 4, Sizes: []addr.PageSize{addr.Page2M}},
			{Name: "L1-1G", Entries: 4, Assoc: 4, Sizes: []addr.PageSize{addr.Page1G}},
		},
		L2:              &Config{Name: "L2", Entries: 512, Assoc: 4, Sizes: []addr.PageSize{addr.Page4K, addr.Page2M}},
		L2LatencyCycles: 7,
	}
}

// AtomTLBs returns the paper's in-order configuration (Table II):
// 64-entry 4KB L1, 32-entry 2MB L1, 512-entry L2.
func AtomTLBs() HierarchyConfig {
	return HierarchyConfig{
		L1: []Config{
			{Name: "L1-4K", Entries: 64, Assoc: 4, Sizes: []addr.PageSize{addr.Page4K}},
			{Name: "L1-2M", Entries: 32, Assoc: 4, Sizes: []addr.PageSize{addr.Page2M}},
			{Name: "L1-1G", Entries: 4, Assoc: 4, Sizes: []addr.PageSize{addr.Page1G}},
		},
		L2:              &Config{Name: "L2", Entries: 512, Assoc: 4, Sizes: []addr.PageSize{addr.Page4K, addr.Page2M}},
		L2LatencyCycles: 7,
	}
}

// SmallTLBs returns the reduced TLB hierarchy a serial PIPT L1 forces:
// translation sits on the load-to-use critical path, so the L1 TLBs must
// be small enough to resolve in a single cycle, and the L2 shrinks with
// them. This is the TLB-hit-rate cost the paper's Fig 14 alternatives pay
// ("without shrinking TLB sizes, which other approaches frequently need
// to do").
func SmallTLBs() HierarchyConfig {
	return HierarchyConfig{
		L1: []Config{
			{Name: "L1-4K", Entries: 16, Assoc: 4, Sizes: []addr.PageSize{addr.Page4K}},
			{Name: "L1-2M", Entries: 2, Assoc: 2, Sizes: []addr.PageSize{addr.Page2M}},
			{Name: "L1-1G", Entries: 2, Assoc: 2, Sizes: []addr.PageSize{addr.Page1G}},
		},
		L2:              &Config{Name: "L2", Entries: 128, Assoc: 4, Sizes: []addr.PageSize{addr.Page4K, addr.Page2M}},
		L2LatencyCycles: 7,
	}
}

// Hierarchy is one core's TLB stack plus its page walker.
type Hierarchy struct {
	cfg    HierarchyConfig
	l1     []*TLB
	l2     *TLB
	walker *pagetable.Walker
	// super and giga are the 2MB and 1GB L1 TLBs (nil when absent),
	// resolved once: the scheduler heuristic reads both per reference.
	super, giga *TLB

	// OnL1SuperFill, if set, is called whenever a 2MB translation is
	// filled into the L1 2MB TLB; the TFT hooks in here.
	OnL1SuperFill func(va addr.VAddr, asid uint16)

	// Metrics, when non-nil, mirrors fills, walks, and shootdowns into
	// the observability layer under MetricsCore.
	Metrics     *metrics.Recorder
	MetricsCore int
}

// NewHierarchy builds the TLB stack over the given walker.
func NewHierarchy(cfg HierarchyConfig, walker *pagetable.Walker) (*Hierarchy, error) {
	h := &Hierarchy{cfg: cfg, walker: walker}
	for _, c := range cfg.L1 {
		t, err := New(c)
		if err != nil {
			return nil, err
		}
		h.l1 = append(h.l1, t)
	}
	if cfg.L2 != nil {
		t, err := New(*cfg.L2)
		if err != nil {
			return nil, err
		}
		h.l2 = t
	}
	h.super, h.giga = h.l1For(addr.Page2M), h.l1For(addr.Page1G)
	return h, nil
}

// MustNewHierarchy is NewHierarchy that panics on error.
func MustNewHierarchy(cfg HierarchyConfig, walker *pagetable.Walker) *Hierarchy {
	h, err := NewHierarchy(cfg, walker)
	if err != nil {
		panic(err)
	}
	return h
}

// l1For returns the L1 TLB holding the given page size, or nil.
func (h *Hierarchy) l1For(s addr.PageSize) *TLB {
	for _, t := range h.l1 {
		if t.holds(s) {
			return t
		}
	}
	return nil
}

// L1Super returns the 2MB L1 TLB (the one whose occupancy the scheduler
// heuristic watches), or nil if absent.
func (h *Hierarchy) L1Super() *TLB { return h.super }

// L1For exposes the L1 TLB holding a page size (for stats and the
// scheduler heuristic's 1GB check).
func (h *Hierarchy) L1For(s addr.PageSize) *TLB {
	switch s {
	case addr.Page2M:
		return h.super
	case addr.Page1G:
		return h.giga
	}
	return h.l1For(s)
}

// L2 exposes the unified second-level TLB (may be nil).
func (h *Hierarchy) L2TLB() *TLB { return h.l2 }

// Walker exposes the page walker (for stats).
func (h *Hierarchy) Walker() *pagetable.Walker { return h.walker }

// fillL1 installs a translation in the right per-size L1 TLB. va is the
// access that triggered the fill: superpage fills mark the TFT with the
// 2MB region containing va — for 2MB pages that is the page itself, for
// 1GB pages the specific 2MB-aligned sub-region being touched (the paper:
// "this approach generalizes readily to 1GB superpages too").
func (h *Hierarchy) fillL1(e Entry, va addr.VAddr) {
	t := h.l1For(e.Size)
	if t == nil {
		return
	}
	t.Fill(e)
	if e.Size.IsSuper() && h.OnL1SuperFill != nil {
		h.OnL1SuperFill(va.PageBase(addr.Page2M), e.ASID)
	}
}

// Translate resolves va for asid through the hierarchy: all L1 TLBs are
// probed in parallel (free under VIPT), then the L2, then the walker.
// Fills propagate to the L2 and the appropriate L1.
func (h *Hierarchy) Translate(va addr.VAddr, asid uint16) Result {
	// Parallel L1 probes.
	for _, t := range h.l1 {
		if e, ok := t.Lookup(va, asid); ok {
			return Result{
				PA:     addr.Translate(va, e.PPN, e.Size),
				Size:   e.Size,
				Source: SourceL1,
			}
		}
	}
	extra := 0
	if h.l2 != nil {
		extra += h.cfg.L2LatencyCycles
		if e, ok := h.l2.Lookup(va, asid); ok {
			h.Metrics.Add(h.MetricsCore, metrics.CtrTLBFill, 1)
			h.fillL1(e, va)
			return Result{
				PA:            addr.Translate(va, e.PPN, e.Size),
				Size:          e.Size,
				Source:        SourceL2,
				ExtraCycles:   extra,
				FilledL1Super: e.Size.IsSuper(),
			}
		}
	}
	pte, walkCycles, ok := h.walker.Walk(va)
	extra += walkCycles
	if !ok {
		return Result{Source: SourceFault, ExtraCycles: extra}
	}
	e := Entry{VPN: va.VPN(pte.Size), PPN: pte.PPN, Size: pte.Size, ASID: asid}
	h.Metrics.Add(h.MetricsCore, metrics.CtrWalk, 1)
	h.Metrics.Add(h.MetricsCore, metrics.CtrTLBFill, 1)
	h.Metrics.Emit(h.MetricsCore, metrics.EvTLBFill,
		uint64(va), uint64(addr.Translate(va, e.PPN, e.Size)), uint64(e.Size.Bytes()))
	if h.l2 != nil && h.l2.holds(e.Size) {
		h.l2.Fill(e)
	}
	h.fillL1(e, va)
	return Result{
		PA:            addr.Translate(va, e.PPN, e.Size),
		Size:          e.Size,
		Source:        SourceWalk,
		ExtraCycles:   extra,
		FilledL1Super: e.Size.IsSuper(),
	}
}

// Invalidate implements invlpg: it drops va's translations from every
// level for asid and returns the number of entries dropped. (The TFT
// invalidation happens alongside in the SEESAW cache; see internal/core.)
func (h *Hierarchy) Invalidate(va addr.VAddr, asid uint16) int {
	n := 0
	for _, t := range h.l1 {
		n += t.Invalidate(va, asid)
	}
	if h.l2 != nil {
		n += h.l2.Invalidate(va, asid)
	}
	if n > 0 {
		h.Metrics.Add(h.MetricsCore, metrics.CtrTLBShootdown, uint64(n))
	}
	return n
}

// Contains reports whether any level still holds a translation of va
// for asid, without perturbing recency or statistics. The invariant
// checker uses it to assert an invlpg really reached every level.
func (h *Hierarchy) Contains(va addr.VAddr, asid uint16) bool {
	for _, t := range h.l1 {
		if t.Contains(va, asid) {
			return true
		}
	}
	return h.l2 != nil && h.l2.Contains(va, asid)
}

// FlushASID drops all of asid's entries from every level.
func (h *Hierarchy) FlushASID(asid uint16) int {
	n := 0
	for _, t := range h.l1 {
		n += t.FlushASID(asid)
	}
	if h.l2 != nil {
		n += h.l2.FlushASID(asid)
	}
	return n
}
