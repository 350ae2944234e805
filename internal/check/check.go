// Package check implements an online invariant checker for the
// simulator: an opt-in shadow oracle that, after every reference,
// re-derives ground truth from the page table, the cache arrays, and
// the coherence directory, and asserts the cross-layer agreements
// SEESAW's correctness depends on (paper Sections IV-B/IV-C):
//
//   - the TLB-reported translation matches a fresh page-table walk;
//   - the OS memory manager's chunk bookkeeping agrees with the page
//     table about what is superpage-backed;
//   - a TFT hit never licenses the fast path for a region the page
//     table says is base-mapped (the stale-TFT hazard of IV-C2);
//   - the partition-filtered probe result matches a full-set probe of
//     the same array (a fast-path miss on a resident line would be a
//     silent wrong-partition lookup);
//   - no physical line is duplicated within a set;
//   - every cached copy is known to the coherence directory, and the
//     single-owner/no-stale-sharer discipline holds for the line;
//   - every cached copy is resident in the inclusive LLC, whose victims
//     back-invalidate the L1s;
//   - after a promotion sweep, no line of the old frames survives in
//     any L1; after an invlpg, no TLB or TFT entry for the region
//     survives in any core.
//
// The checker only reads simulator state (all probes are non-mutating),
// so a checked run replays exactly like an unchecked one.
package check

import (
	"fmt"

	"seesaw/internal/addr"
	"seesaw/internal/cache"
	"seesaw/internal/coherence"
	"seesaw/internal/core"
	"seesaw/internal/metrics"
	"seesaw/internal/osmm"
	"seesaw/internal/tlb"
)

// Violation kinds.
const (
	KindTranslationStale  = "translation-stale"
	KindTFTStaleHit       = "tft-stale-hit"
	KindPartitionMismatch = "partition-probe-mismatch"
	KindDuplicateLine     = "duplicate-line"
	KindStaleSharer       = "coherence-stale-sharer"
	KindMultiOwner        = "coherence-multi-owner"
	KindExclusiveShared   = "coherence-exclusive-shared"
	KindSweptSurvived     = "swept-line-survived"
	KindTLBSurvived       = "tlb-entry-survived"
	KindTFTSurvived       = "tft-entry-survived"
	KindNotInLLC          = "l1-line-not-in-llc"
)

// Kinds lists every violation kind in a stable order; the index of a
// kind in this slice is its KindCode — the Arg stamped on EvViolation
// event records.
var Kinds = []string{
	KindTranslationStale, KindTFTStaleHit, KindPartitionMismatch,
	KindDuplicateLine, KindStaleSharer, KindMultiOwner,
	KindExclusiveShared, KindSweptSurvived, KindTLBSurvived,
	KindTFTSurvived, KindNotInLLC,
}

// KindCode returns the stable index of a violation kind (len(Kinds) for
// an unknown kind).
func KindCode(kind string) uint64 {
	for i, k := range Kinds {
		if k == kind {
			return uint64(i)
		}
	}
	return uint64(len(Kinds))
}

// KindName inverts KindCode for event dumps.
func KindName(code uint64) string {
	if code < uint64(len(Kinds)) {
		return Kinds[code]
	}
	return fmt.Sprintf("kind-%d", code)
}

// Violation is one failed invariant, carrying enough context to
// reproduce it: the run is deterministic, so (config, seed, Ref) pins
// the exact simulation state it occurred in.
type Violation struct {
	Kind   string
	Ref    uint64 // reference index at detection time
	Core   int    // coherence index of the cache involved (-1: none)
	VA     addr.VAddr
	PA     addr.PAddr
	Detail string
}

// String implements fmt.Stringer.
func (v Violation) String() string {
	return fmt.Sprintf("%s @ref=%d core=%d va=%#x pa=%#x: %s",
		v.Kind, v.Ref, v.Core, uint64(v.VA), uint64(v.PA), v.Detail)
}

// maxSample bounds how many violations are kept verbatim; the per-kind
// counters keep counting past it.
const maxSample = 16

// Report aggregates a run's checking outcome.
type Report struct {
	// Checks counts checker entry points executed (one per reference
	// plus one per promotion sweep / invlpg).
	Checks uint64
	// Violations counts every failed invariant.
	Violations uint64
	// ByKind splits Violations by kind.
	ByKind map[string]uint64
	// Sample holds the first violations (capped) for diagnosis.
	Sample []Violation
}

// Wiring hands the checker read access to every layer it audits. L1s
// must be in coherence-index order: data caches first, then (when
// modeled) the per-core instruction caches.
type Wiring struct {
	L1s      []core.L1Cache
	Hiers    []*tlb.Hierarchy
	Seesaws  []*core.Seesaw // data-side, per core; nil entries allowed
	ISeesaws []*core.Seesaw // instruction-side, per core; nil slice when unmodeled
	Coh      *coherence.System
	Mgr      *osmm.Manager
}

// Checker is the shadow oracle.
type Checker struct {
	w   Wiring
	rep Report

	// Metrics, when non-nil, mirrors every recorded violation into the
	// observability layer (CtrViolation + an EvViolation event whose Arg
	// is the KindCode), so a chaos failure's event dump shows the
	// violation inline with the TLB/TFT traffic around it.
	Metrics *metrics.Recorder
}

// New builds a checker over the wired simulator.
func New(w Wiring) *Checker {
	return &Checker{w: w, rep: Report{ByKind: make(map[string]uint64)}}
}

// Record notes one violation.
func (c *Checker) Record(v Violation) {
	c.rep.Violations++
	c.rep.ByKind[v.Kind]++
	if len(c.rep.Sample) < maxSample {
		c.rep.Sample = append(c.rep.Sample, v)
	}
	c.Metrics.Add(v.Core, metrics.CtrViolation, 1)
	c.Metrics.Emit(v.Core, metrics.EvViolation, uint64(v.VA), uint64(v.PA), KindCode(v.Kind))
}

// Report returns a snapshot of the outcome.
func (c *Checker) Report() *Report {
	out := c.rep
	out.ByKind = make(map[string]uint64, len(c.rep.ByKind))
	for k, n := range c.rep.ByKind {
		out.ByKind[k] = n
	}
	out.Sample = append([]Violation(nil), c.rep.Sample...)
	return &out
}

// Access carries one reference's observed behaviour into the checker.
type Access struct {
	Ref  uint64
	Core int // coherence index of the cache that served the access
	VA   addr.VAddr
	ASID uint16
	TR   tlb.Result
	AR   core.AccessResult
}

// AfterAccess audits one reference. It must run after the L1 Access but
// before the miss is filled, so the full-probe ground truth still
// reflects the state the lookup saw.
func (c *Checker) AfterAccess(a Access) {
	c.rep.Checks++
	line := a.TR.PA.LineBase()

	// Translation ground truth: a fresh page-table walk.
	proc := c.w.Mgr.Process(a.ASID)
	if proc == nil {
		c.Record(Violation{Kind: KindTranslationStale, Ref: a.Ref, Core: a.Core, VA: a.VA, PA: a.TR.PA,
			Detail: fmt.Sprintf("no process for ASID %d", a.ASID)})
		return
	}
	pa, size, mapped := proc.PT.Translate(a.VA)
	if !mapped {
		c.Record(Violation{Kind: KindTranslationStale, Ref: a.Ref, Core: a.Core, VA: a.VA, PA: a.TR.PA,
			Detail: "access to a VA the page table no longer maps"})
	} else {
		if pa.LineBase() != line || size != a.TR.Size {
			c.Record(Violation{Kind: KindTranslationStale, Ref: a.Ref, Core: a.Core, VA: a.VA, PA: a.TR.PA,
				Detail: fmt.Sprintf("TLB says pa=%#x size=%v, page table says pa=%#x size=%v",
					uint64(a.TR.PA), a.TR.Size, uint64(pa), size)})
		}
		// A TFT hit on a base-mapped region is the IV-C2 stale-entry
		// hazard: the fast path probed one partition of a cache whose
		// line may live in another.
		if a.AR.TFTHit && !size.IsSuper() {
			c.Record(Violation{Kind: KindTFTStaleHit, Ref: a.Ref, Core: a.Core, VA: a.VA, PA: pa,
				Detail: fmt.Sprintf("TFT predicted superpage but page table maps %v", size)})
		}
	}

	// The reported hit/miss must match a full-set probe: a divergence
	// means the partition filter looked in the wrong place.
	st := c.w.L1s[a.Core].Storage()
	if _, _, resident := st.FindLine(line); resident != a.AR.Hit {
		c.Record(Violation{Kind: KindPartitionMismatch, Ref: a.Ref, Core: a.Core, VA: a.VA, PA: line,
			Detail: fmt.Sprintf("lookup reported hit=%v (fastpath=%v tft=%v) but full probe finds resident=%v",
				a.AR.Hit, a.AR.FastPath, a.AR.TFTHit, resident)})
	}
	if n := tagCopies(st, line); n > 1 {
		c.Record(Violation{Kind: KindDuplicateLine, Ref: a.Ref, Core: a.Core, VA: a.VA, PA: line,
			Detail: fmt.Sprintf("%d copies of the line in one set", n)})
	}

	c.checkCoherence(a.Ref, a.VA, line)
}

// tagCopies counts how many ways of line's set hold its tag.
func tagCopies(st *cache.Cache, line addr.PAddr) int {
	geom := st.Geometry()
	set, tag := geom.SetIndexP(line), geom.TagP(line)
	n := 0
	for w := 0; w < geom.Ways; w++ {
		if st.StateOf(set, w) != cache.Invalid && st.TagOf(set, w) == tag {
			n++
		}
	}
	return n
}

// checkCoherence audits the accessed line across every L1 against the
// directory and the LLC. Only the dangerous direction is asserted for
// residency: a cache holding a line the directory does not list can
// never be reached by a probe, and one holding a line the LLC lacks
// escapes the back-invalidation that keeps the hierarchy inclusive.
// (The directory briefly listing a requester whose fill has not landed
// yet is a benign in-flight state.)
func (c *Checker) checkCoherence(ref uint64, va addr.VAddr, line addr.PAddr) {
	sharers, _, tracked := c.w.Coh.Residency(line)
	inLLC := c.w.Coh.InLLC(line)
	owners := 0     // caches in M/E/O
	exclusives := 0 // caches in M/E
	holders := 0
	for j, l1 := range c.w.L1s {
		st := l1.Storage()
		set, way, ok := st.FindLine(line)
		if !ok {
			continue
		}
		holders++
		if !tracked || sharers&(1<<uint(j)) == 0 {
			c.Record(Violation{Kind: KindStaleSharer, Ref: ref, Core: j, VA: va, PA: line,
				Detail: fmt.Sprintf("L1 %d holds the line in %v but the directory does not list it (tracked=%v sharers=%#x)",
					j, st.StateOf(set, way), tracked, sharers)})
		}
		if !inLLC {
			c.Record(Violation{Kind: KindNotInLLC, Ref: ref, Core: j, VA: va, PA: line,
				Detail: fmt.Sprintf("L1 %d holds the line in %v but the inclusive LLC does not", j, st.StateOf(set, way))})
		}
		switch st.StateOf(set, way) {
		case cache.Modified, cache.Exclusive:
			owners++
			exclusives++
		case cache.Owned:
			owners++
		}
	}
	if owners > 1 {
		c.Record(Violation{Kind: KindMultiOwner, Ref: ref, Core: -1, VA: va, PA: line,
			Detail: fmt.Sprintf("%d caches claim ownership (M/E/O) of one line", owners)})
	}
	if exclusives > 0 && holders > 1 {
		c.Record(Violation{Kind: KindExclusiveShared, Ref: ref, Core: -1, VA: va, PA: line,
			Detail: fmt.Sprintf("a cache holds the line M/E while %d copies exist", holders)})
	}
}

// AfterPromote audits a promotion sweep: no line of the freed frames
// may survive in any L1 (Section IV-C2's promotion-sweep guarantee).
func (c *Checker) AfterPromote(ref uint64, oldFrames []addr.PAddr) {
	c.rep.Checks++
	for j, l1 := range c.w.L1s {
		st := l1.Storage()
		for _, f := range oldFrames {
			for lb := f; lb < f+4096; lb += addr.LineSize {
				if _, _, ok := st.FindLine(lb); ok {
					c.Record(Violation{Kind: KindSweptSurvived, Ref: ref, Core: j, PA: lb,
						Detail: "line of a promoted-away frame survived the sweep"})
					break // one per (cache, frame) is enough
				}
			}
		}
	}
}

// AfterInvlpg audits an invlpg over the 2MB region at vaBase: no TLB
// entry translating any page of the region for asid, and no TFT entry
// for the region, may survive on any core.
func (c *Checker) AfterInvlpg(ref uint64, asid uint16, vaBase addr.VAddr) {
	c.rep.Checks++
	for i, h := range c.w.Hiers {
		for off := uint64(0); off < 2<<20; off += 4096 {
			if h.Contains(vaBase+addr.VAddr(off), asid) {
				c.Record(Violation{Kind: KindTLBSurvived, Ref: ref, Core: i, VA: vaBase + addr.VAddr(off),
					Detail: "TLB entry survived invlpg"})
				break // one per core is enough
			}
		}
	}
	tftSurvived := func(i int, s *core.Seesaw, side string) {
		if s != nil && s.TFT().Contains(vaBase) {
			c.Record(Violation{Kind: KindTFTSurvived, Ref: ref, Core: i, VA: vaBase,
				Detail: side + " TFT entry survived invlpg"})
		}
	}
	for i, s := range c.w.Seesaws {
		tftSurvived(i, s, "data")
	}
	for i, s := range c.w.ISeesaws {
		tftSurvived(len(c.w.Hiers)+i, s, "instruction")
	}
}
