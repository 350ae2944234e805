package check

import (
	"math/rand"
	"testing"

	"seesaw/internal/addr"
	"seesaw/internal/cache"
	"seesaw/internal/coherence"
	"seesaw/internal/core"
	"seesaw/internal/osmm"
	"seesaw/internal/pagetable"
	"seesaw/internal/physmem"
	"seesaw/internal/tlb"
)

// rig is a multi-core mini-system: baseline VIPT L1s over a real
// directory and LLC, OS memory manager, and page table, so every
// violation the tests provoke is provoked against genuine simulator
// state.
type rig struct {
	chk  *Checker
	l1s  []core.L1Cache
	coh  *coherence.System
	mgr  *osmm.Manager
	proc *osmm.Process
	base addr.VAddr // 4MB base-page-backed region
}

// newRig builds a two-core rig over the default memory system.
func newRig(t *testing.T) *rig {
	t.Helper()
	return newRigWith(t, 2, coherence.DefaultConfig(2))
}

func newRigWith(t *testing.T, cores int, cohCfg coherence.Config) *rig {
	t.Helper()
	buddy, err := physmem.New(64 << 20)
	if err != nil {
		t.Fatal(err)
	}
	mgr := osmm.NewManager(buddy, rand.New(rand.NewSource(7)), true)
	proc, err := mgr.NewProcess(1)
	if err != nil {
		t.Fatal(err)
	}
	// Base pages only, so page-table ground truth is Page4K everywhere.
	base, err := mgr.MmapHuge(proc, 4<<20, false)
	if err != nil {
		t.Fatal(err)
	}
	ccfg := core.Config{SizeBytes: 32 << 10, Ways: 8, FreqGHz: 2}
	l1s := make([]core.L1Cache, cores)
	for i := range l1s {
		l1s[i] = core.MustNewBaselineVIPT(ccfg)
	}
	coh := coherence.MustNew(cohCfg, l1s)
	return &rig{
		chk:  New(Wiring{L1s: l1s, Coh: coh, Mgr: mgr}),
		l1s:  l1s,
		coh:  coh,
		mgr:  mgr,
		proc: proc,
		base: base,
	}
}

// translate walks the real page table, as the simulator's TLB would
// resolve it.
func (r *rig) translate(t *testing.T, va addr.VAddr) tlb.Result {
	t.Helper()
	pa, size, ok := r.proc.PT.Translate(va)
	if !ok {
		t.Fatalf("test rig: %#x unmapped", uint64(va))
	}
	return tlb.Result{PA: pa, Size: size}
}

// access performs one full protocol-correct load on a core.
func (r *rig) access(t *testing.T, coreID int, va addr.VAddr) core.AccessResult {
	t.Helper()
	return r.ref(t, coreID, va, false)
}

// ref performs one full protocol-correct reference on a core: lookup,
// checker audit pre-fill, then the store upgrade or the miss service
// and fill, as the machine does.
func (r *rig) ref(t *testing.T, coreID int, va addr.VAddr, store bool) core.AccessResult {
	t.Helper()
	tr := r.translate(t, va)
	ar := r.l1s[coreID].Access(va, tr.PA, tr.Size, store)
	r.chk.AfterAccess(Access{Core: coreID, VA: va, ASID: 1, TR: tr, AR: ar})
	switch {
	case !ar.Hit:
		mr := r.coh.Miss(coreID, tr.PA, store)
		fr := r.l1s[coreID].Fill(tr.PA, tr.Size, store, mr.Shared)
		if fr.Victim.Valid {
			r.coh.Evicted(coreID, fr.VictimPA, fr.Writeback)
		}
	case store && (ar.State == cache.Shared || ar.State == cache.Owned):
		r.coh.Upgrade(coreID, tr.PA)
	case store:
		r.l1s[coreID].UpgradeToModified(tr.PA)
	}
	return ar
}

func TestCleanAccessesPassAllChecks(t *testing.T) {
	r := newRig(t)
	for i := 0; i < 64; i++ {
		va := r.base + addr.VAddr(i*4096)
		r.access(t, i%2, va)
		r.access(t, i%2, va) // second touch hits
	}
	rep := r.chk.Report()
	if rep.Checks != 128 {
		t.Fatalf("Checks = %d, want 128", rep.Checks)
	}
	if rep.Violations != 0 {
		t.Fatalf("clean run reported %d violations: %v", rep.Violations, rep.Sample)
	}
}

func TestStaleSharerDetected(t *testing.T) {
	r := newRig(t)
	va := r.base
	tr := r.translate(t, va)
	// Fill core 1 behind the directory's back: no Miss, so the directory
	// never learns about the copy.
	r.l1s[1].Fill(tr.PA, tr.Size, false, true)
	ar := r.l1s[1].Access(va, tr.PA, tr.Size, false)
	r.chk.AfterAccess(Access{Core: 1, VA: va, ASID: 1, TR: tr, AR: ar})
	if got := r.chk.Report().ByKind[KindStaleSharer]; got == 0 {
		t.Fatalf("unregistered copy not flagged; report %+v", r.chk.Report())
	}
}

func TestLineMissingFromLLCDetected(t *testing.T) {
	r := newRig(t)
	va := r.base
	tr := r.translate(t, va)
	// Fill core 0 without a Miss: the LLC never sees the line, so the
	// copy is outside the inclusive hierarchy.
	r.l1s[0].Fill(tr.PA, tr.Size, false, false)
	ar := r.l1s[0].Access(va, tr.PA, tr.Size, false)
	r.chk.AfterAccess(Access{Core: 0, VA: va, ASID: 1, TR: tr, AR: ar})
	if got := r.chk.Report().ByKind[KindNotInLLC]; got == 0 {
		t.Fatalf("L1 copy outside the LLC not flagged; report %+v", r.chk.Report())
	}
}

// TestInclusionHoldsUnderBackInvalidation drives random loads and
// stores from four cores over an LLC far smaller than their L1s, so LLC
// victims keep back-invalidating L1 copies; every audit must pass.
func TestInclusionHoldsUnderBackInvalidation(t *testing.T) {
	cfg := coherence.DefaultConfig(2)
	cfg.LLCSizeBytes, cfg.LLCWays = 16<<10, 2
	r := newRigWith(t, 4, cfg)
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 20000; i++ {
		// 2048 lines spread over the 4MB region: shared across cores and
		// eight times the LLC's capacity.
		va := r.base + addr.VAddr(rng.Intn(2048))*2048
		r.ref(t, rng.Intn(4), va, rng.Intn(4) == 0)
	}
	if r.coh.Stats.BackInvals == 0 {
		t.Fatal("no back-invalidations: the LLC is not oversubscribed")
	}
	if rep := r.chk.Report(); rep.Violations != 0 {
		t.Fatalf("%d violations under back-invalidation: %v", rep.Violations, rep.Sample)
	}
}

func TestDuplicateLineDetected(t *testing.T) {
	r := newRig(t)
	va := r.base
	r.access(t, 0, va) // protocol-correct fill, directory lists core 0
	tr := r.translate(t, va)
	// Insert the same line a second time, bypassing the dedup a real
	// fill path performs.
	st := r.l1s[0].Storage()
	geom := st.Geometry()
	line := tr.PA.LineBase()
	st.Insert(geom.SetIndexP(line), cache.AnyPartition, geom.TagP(line), cache.Shared)
	ar := r.l1s[0].Access(va, tr.PA, tr.Size, false)
	r.chk.AfterAccess(Access{Core: 0, VA: va, ASID: 1, TR: tr, AR: ar})
	if got := r.chk.Report().ByKind[KindDuplicateLine]; got == 0 {
		t.Fatalf("duplicated line not flagged; report %+v", r.chk.Report())
	}
}

func TestStaleTranslationAndStaleTFTHitDetected(t *testing.T) {
	r := newRig(t)
	va := r.base
	tr := r.translate(t, va)
	ar := r.l1s[0].Access(va, tr.PA, tr.Size, false)
	// Lie about the page size (a TLB entry that survived a splinter
	// would look exactly like this) and claim the TFT endorsed it.
	tr.Size = addr.Page2M
	ar.TFTHit = true
	r.chk.AfterAccess(Access{Core: 0, VA: va, ASID: 1, TR: tr, AR: ar})
	rep := r.chk.Report()
	if rep.ByKind[KindTranslationStale] == 0 {
		t.Fatalf("stale page size not flagged; report %+v", rep)
	}
	if rep.ByKind[KindTFTStaleHit] == 0 {
		t.Fatalf("TFT hit on base-mapped region not flagged; report %+v", rep)
	}
}

func TestUnmappedAccessDetected(t *testing.T) {
	r := newRig(t)
	va := r.base + addr.VAddr(1<<30) // far past the mapped region
	r.chk.AfterAccess(Access{Core: 0, VA: va, ASID: 1, TR: tlb.Result{Size: addr.Page4K}})
	if got := r.chk.Report().ByKind[KindTranslationStale]; got == 0 {
		t.Fatalf("unmapped access not flagged; report %+v", r.chk.Report())
	}
}

func TestPartitionMismatchDetected(t *testing.T) {
	r := newRig(t)
	va := r.base
	tr := r.translate(t, va)
	// Claim a hit on a line nothing ever filled: the full probe
	// disagrees, which is what a wrong-partition lookup looks like.
	ar := core.AccessResult{Hit: true, FastPath: true}
	r.chk.AfterAccess(Access{Core: 0, VA: va, ASID: 1, TR: tr, AR: ar})
	if got := r.chk.Report().ByKind[KindPartitionMismatch]; got == 0 {
		t.Fatalf("probe divergence not flagged; report %+v", r.chk.Report())
	}
}

func TestAfterPromoteFlagsSurvivingLines(t *testing.T) {
	r := newRig(t)
	va := r.base
	r.access(t, 0, va) // line of this frame now resident in L1 0
	tr := r.translate(t, va)
	frame := tr.PA.PageBase(addr.Page4K)
	r.chk.AfterPromote(9, []addr.PAddr{frame})
	rep := r.chk.Report()
	if rep.ByKind[KindSweptSurvived] == 0 {
		t.Fatalf("surviving line of promoted frame not flagged; report %+v", rep)
	}
	// After a real sweep the same audit passes.
	var sweep cache.FrameSweep
	sweep.Reset([]addr.PAddr{frame})
	r.l1s[0].EvictFrames(&sweep)
	r.chk = New(r.chk.w)
	r.chk.AfterPromote(10, []addr.PAddr{frame})
	if rep := r.chk.Report(); rep.Violations != 0 {
		t.Fatalf("swept frame still flagged: %+v", rep.Sample)
	}
}

func TestAfterInvlpgFlagsSurvivingTLBEntries(t *testing.T) {
	r := newRig(t)
	walker := pagetable.NewWalker(r.proc.PT, 20)
	h := tlb.MustNewHierarchy(tlb.SandybridgeTLBs(), walker)
	chk := New(Wiring{L1s: r.l1s, Hiers: []*tlb.Hierarchy{h}, Coh: r.coh, Mgr: r.mgr})

	va := r.base
	h.Translate(va, 1) // fills the 4K L1 TLB
	regionBase := va.PageBase(addr.Page2M)
	chk.AfterInvlpg(1, 1, regionBase)
	if got := chk.Report().ByKind[KindTLBSurvived]; got == 0 {
		t.Fatalf("surviving TLB entry not flagged; report %+v", chk.Report())
	}

	// A real invlpg over the region passes the audit.
	for off := uint64(0); off < 2<<20; off += 4096 {
		h.Invalidate(regionBase+addr.VAddr(off), 1)
	}
	chk = New(Wiring{L1s: r.l1s, Hiers: []*tlb.Hierarchy{h}, Coh: r.coh, Mgr: r.mgr})
	chk.AfterInvlpg(2, 1, regionBase)
	if rep := chk.Report(); rep.Violations != 0 {
		t.Fatalf("invalidated region still flagged: %+v", rep.Sample)
	}
}

func TestReportSampleIsCapped(t *testing.T) {
	c := New(Wiring{})
	for i := 0; i < maxSample+10; i++ {
		c.Record(Violation{Kind: KindDuplicateLine, Ref: uint64(i)})
	}
	rep := c.Report()
	if rep.Violations != uint64(maxSample+10) {
		t.Fatalf("Violations = %d, want %d", rep.Violations, maxSample+10)
	}
	if len(rep.Sample) != maxSample {
		t.Fatalf("Sample length = %d, want %d", len(rep.Sample), maxSample)
	}
	if rep.ByKind[KindDuplicateLine] != uint64(maxSample+10) {
		t.Fatalf("ByKind = %d, want %d", rep.ByKind[KindDuplicateLine], maxSample+10)
	}
}
