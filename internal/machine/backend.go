package machine

import (
	"fmt"

	"seesaw/internal/addr"
	"seesaw/internal/cache"
	"seesaw/internal/check"
	"seesaw/internal/coherence"
	"seesaw/internal/core"
	"seesaw/internal/energy"
	"seesaw/internal/metrics"
	"seesaw/internal/tlb"
	"seesaw/internal/trace"
)

// backEnd is a machine's back end: each core's L1 data (and
// instruction) cache with its TFT, coherence and the LLC, the energy
// account, and the timing members (timing.go). It never reads the OS, a
// page table or a TLB: everything it needs of a reference arrives with
// it through the sink methods, so it runs the same whether its own front
// end feeds it live or a recording replays into it.
type backEnd struct {
	cfg    Config
	nCores int

	l1s      []core.L1Cache
	seesaws  []*core.Seesaw // nil entries unless the design embeds a TFT
	l1is     []core.L1Cache // nil unless ICache
	iseesaws []*core.Seesaw
	// cohAll is the coherence participant order: data caches first,
	// then (when modelled) the instruction caches, so I-cache of core i
	// sits at index nCores+i.
	cohAll []core.L1Cache
	cohSys *coherence.System
	// sweep holds a promotion's old frames while they leave every L1.
	sweep cache.FrameSweep
	acct  *energy.Account
	// members are the timing members the measured phase retires into:
	// members[0] is the back end's own config, and a back end of a
	// Group's pass holds one more per other cell of its back-end key.
	members []member
	// speculates marks whether the design has a fast/slow latency split
	// the scheduler may speculate on at all (Design.Speculates).
	speculates bool
	// dropTFT models a broken invalidation protocol (fault-injection
	// mutation): the TLB side of an invlpg still happens, the TFT side is
	// silently lost — exactly the stale-entry hazard the Section IV-C2
	// protocol prevents and the invariant checker must catch.
	dropTFT bool

	// Hooks of a live machine (nil otherwise): the metrics recorder and
	// the invariant checker. lastWidth tracks each coherence
	// participant's most recent probe width so EvProbeWidth fires only
	// on transitions (metrics only).
	mrec      *metrics.Recorder
	chk       *check.Checker
	lastWidth []int

	// curRef is the reference being executed; it tags checker findings.
	curRef uint64

	l2Lookups uint64
	superRefs uint64
}

// newBackEnd builds cfg's back end for nCores cores, mirroring into mrec
// (nil for the disabled path).
func newBackEnd(cfg Config, nCores int, mrec *metrics.Recorder) (*backEnd, error) {
	be := &backEnd{cfg: cfg, nCores: nCores, mrec: mrec}
	dsg, ok := cfg.CacheKind.design()
	if !ok {
		return nil, fmt.Errorf("sim: unknown cache kind %v", cfg.CacheKind)
	}
	be.speculates = dsg.Speculates
	newL1 := func(c core.Config) (core.L1Cache, *core.Seesaw, error) {
		l1, err := dsg.New(c)
		if err != nil {
			return nil, nil, err
		}
		// The TFT wiring (TLB-fill events, invlpg, context-switch
		// flushes, report section) keys off the concrete SEESAW type;
		// designs without a TFT leave a nil slot.
		s, _ := l1.(*core.Seesaw)
		return l1, s, nil
	}
	be.l1s = make([]core.L1Cache, nCores)
	be.seesaws = make([]*core.Seesaw, nCores)
	// Optional per-core L1 instruction caches (Table II: split 32KB I).
	if cfg.ICache {
		be.l1is = make([]core.L1Cache, nCores)
		be.iseesaws = make([]*core.Seesaw, nCores)
	}
	l1cfg := cfg.l1cfg()
	for i := 0; i < nCores; i++ {
		l1, s, err := newL1(l1cfg)
		if err != nil {
			return nil, err
		}
		be.l1s[i], be.seesaws[i] = l1, s
		if cfg.ICache {
			il1, is, err := newL1(cfg.il1cfg())
			if err != nil {
				return nil, err
			}
			be.l1is[i], be.iseesaws[i] = il1, is
		}
	}
	be.cohAll = append(append(make([]core.L1Cache, 0, len(be.l1s)+len(be.l1is)), be.l1s...), be.l1is...)
	var il1 core.L1Cache
	if cfg.ICache {
		il1 = be.l1is[0]
	}
	own, err := newMember(cfg, nCores, be.l1s[0], il1, superTLBEntries(cfg))
	if err != nil {
		return nil, err
	}
	be.members = []member{own}

	cohCfg := coherence.DefaultConfig(cfg.FreqGHz)
	cohCfg.Mode = cfg.CoherenceMode
	cohSys, err := coherence.New(cohCfg, be.cohAll)
	if err != nil {
		return nil, err
	}
	be.cohSys = cohSys
	be.attachMetrics()
	be.dropTFT = cfg.Faults != nil && cfg.Faults.DropTFTInvalidate
	be.acct = energy.NewAccount(cfg.Prices)
	return be, nil
}

// attachMetrics wires the recorder (nil for the disabled path) into
// every back-end subsystem that mirrors activity into the observability
// layer: L1 storage arrays and TFTs on both sides and the coherence
// system.
func (be *backEnd) attachMetrics() {
	mrec := be.mrec
	for i, l1 := range be.l1s {
		l1.Storage().Metrics, l1.Storage().MetricsCore = mrec, i
		if s := be.seesaws[i]; s != nil {
			s.TFT().Metrics, s.TFT().MetricsCore = mrec, i
		}
	}
	for i, il1 := range be.l1is {
		il1.Storage().Metrics, il1.Storage().MetricsCore = mrec, be.nCores+i
		if is := be.iseesaws[i]; is != nil {
			is.TFT().Metrics, is.TFT().MetricsCore = mrec, be.nCores+i
		}
	}
	be.cohSys.Metrics = mrec
	if mrec != nil {
		be.lastWidth = make([]int, len(be.cohAll))
	}
}

// sampleAccess mirrors one L1 access into the metrics layer.
func (be *backEnd) sampleAccess(mcore int, va addr.VAddr, ar core.AccessResult) {
	mrec := be.mrec
	if mrec == nil {
		return
	}
	mrec.Add(mcore, metrics.CtrRefs, 1)
	mrec.Add(mcore, metrics.CtrWaysProbed, uint64(ar.WaysProbed))
	if ar.FastPath {
		mrec.Add(mcore, metrics.CtrFastProbe, 1)
	} else {
		mrec.Add(mcore, metrics.CtrSlowProbe, 1)
	}
	if ar.WaysProbed != be.lastWidth[mcore] {
		be.lastWidth[mcore] = ar.WaysProbed
		mrec.Emit(mcore, metrics.EvProbeWidth, uint64(va), 0, uint64(ar.WaysProbed))
	}
}

// superFill marks the 2MB region at va in core c's TFTs: a superpage
// translation filled the core's L1 TLB (Fig 5 steps 6-8).
func (be *backEnd) superFill(c int, va addr.VAddr) {
	if s := be.seesaws[c]; s != nil {
		s.OnSuperpageTLBFill(va)
	}
	if be.cfg.ICache {
		if s := be.iseesaws[c]; s != nil {
			s.OnSuperpageTLBFill(va)
		}
	}
}

// missFill services an L1 miss of pa at coherence participant p: the
// coherence miss, the fill, and the victim's eviction notice to the
// directory. It returns the miss's outcome, which members price.
func (be *backEnd) missFill(p int, l1 core.L1Cache, pa addr.PAddr, size addr.PageSize, store bool) coherence.MissResult {
	mr := be.cohSys.Miss(p, pa, store)
	fill := l1.Fill(pa, size, store, mr.Shared)
	be.acct.AddL1CPUSide(fill.EnergyNJ)
	if fill.Victim.Valid {
		be.cohSys.Evicted(p, fill.VictimPA, fill.Writeback)
	}
	return mr
}

// ref executes measured reference i's data access.
func (be *backEnd) ref(i int, rec *trace.Record, x *xlat) {
	be.curRef = uint64(i)
	be.access(int(rec.TID), rec, mainASID, true, x)
}

// coRef executes one co-runner data reference on core c.
func (be *backEnd) coRef(c int, rec *trace.Record, x *xlat) {
	be.access(c, rec, coASID, false, x)
}

// access runs one data reference on core tid in the given address space
// from its translation: L1 lookup, miss service / coherence upgrade,
// then retirement into every timing member. main marks the measured
// application's references (superpage-fraction metric).
func (be *backEnd) access(tid int, rec *trace.Record, asid uint16, main bool, x *xlat) {
	tr := &x.Result
	if tr.FilledL1Super {
		be.superFill(tid, rec.VA.PageBase(addr.Page2M))
	}
	if tr.Source != tlb.SourceL1 {
		be.l2Lookups++
	}
	if main && tr.Size.IsSuper() {
		be.superRefs++
	}
	store := rec.Kind != 0
	l1 := be.l1s[tid]
	ar := l1.Access(rec.VA, tr.PA, tr.Size, store)
	be.acct.AddL1CPUSide(ar.EnergyNJ)
	be.sampleAccess(tid, rec.VA, ar)
	// Audit before the miss is filled: the full-probe ground truth
	// must reflect the state this lookup actually saw.
	if be.chk != nil {
		be.chk.AfterAccess(check.Access{
			Ref: be.curRef, Core: tid, VA: rec.VA, ASID: asid, TR: *tr, AR: ar,
		})
	}
	// A superpage L1 TLB hit refreshes the TFT *after* this access's
	// parallel TFT probe completed: the hitting TLB entry carries
	// the page size, so the hardware re-marks a region that a
	// conflicting fill displaced. The current access still paid
	// the slow path; the next one hits the TFT. (Completes the
	// paper's fill-on-TLB-fill policy, which alone would let a
	// region whose TLB entry stays resident miss indefinitely.)
	if tr.Size.IsSuper() && tr.Source == tlb.SourceL1 && be.seesaws[tid] != nil {
		be.seesaws[tid].OnSuperpageTLBFill(rec.VA)
	}
	a := access{
		gap: int(rec.Gap), hit: ar.Hit, store: store, dep: rec.Dep,
		class: lookupClass(ar), tlbExtra: tr.ExtraCycles,
		superValid: x.superValid, giga: x.giga,
	}
	if !ar.Hit {
		a.miss = be.missFill(tid, l1, tr.PA, tr.Size, store)
		// Next-line prefetch, staying inside the 4KB frame.
		if be.cfg.Prefetch {
			nextPA := tr.PA.LineBase() + addr.LineSize
			if nextPA.PageBase(addr.Page4K) == tr.PA.PageBase(addr.Page4K) {
				if _, _, resident := l1.Storage().FindLine(nextPA); !resident {
					be.missFill(tid, l1, nextPA, tr.Size, false)
				}
			}
		}
	} else if store {
		switch ar.State {
		case cache.Shared, cache.Owned: // need coherence permission
			be.cohSys.Upgrade(tid, tr.PA)
			a.upgrade = true
		default:
			l1.UpgradeToModified(tr.PA)
		}
	}
	for i := range be.members {
		be.members[i].retire(tid, &a, be.speculates)
	}
}

// fetch runs one instruction fetch on core tid from its translation.
func (be *backEnd) fetch(tid int, iva addr.VAddr, jumped bool, itr *tlb.Result) {
	if itr.FilledL1Super {
		be.superFill(tid, iva.PageBase(addr.Page2M))
	}
	if itr.Source != tlb.SourceL1 {
		be.l2Lookups++
	}
	il1 := be.l1is[tid]
	iar := il1.Access(iva, itr.PA, itr.Size, false)
	be.acct.AddL1CPUSide(iar.EnergyNJ)
	be.sampleAccess(be.nCores+tid, iva, iar)
	if be.chk != nil {
		be.chk.AfterAccess(check.Access{
			Ref: be.curRef, Core: be.nCores + tid, VA: iva, ASID: mainASID, TR: *itr, AR: iar,
		})
	}
	if itr.Size.IsSuper() && itr.Source == tlb.SourceL1 && be.iseesaws[tid] != nil {
		be.iseesaws[tid].OnSuperpageTLBFill(iva)
	}
	// Front-end stall: a miss stalls the fetch (member.fetchStall);
	// on a hit, a taken branch waits one L1I hit latency for the
	// new fetch group, the redirect bubble where SEESAW-I's fast
	// path pays off.
	var miss coherence.MissResult
	if !iar.Hit {
		miss = be.missFill(be.nCores+tid, il1, itr.PA, itr.Size, false)
	}
	if !iar.Hit || jumped {
		class := lookupClass(iar)
		for i := range be.members {
			be.members[i].fetchStall(tid, class, itr.ExtraCycles, iar.Hit, miss, jumped)
		}
	}
}

// invlpg is the back end's side of an OS invalidation of the 2MB region
// at vaBase: every core's TFTs drop the region, and each core pays the
// invlpg instruction cost.
func (be *backEnd) invlpg(asid uint16, vaBase addr.VAddr) {
	for i := 0; i < be.nCores; i++ {
		if !be.dropTFT {
			if s := be.seesaws[i]; s != nil {
				s.InvalidatePage(vaBase)
			}
			if be.cfg.ICache && be.iseesaws[i] != nil {
				be.iseesaws[i].InvalidatePage(vaBase)
			}
		}
		be.stall(i, 175) // invlpg cost, mid paper range
	}
	if be.chk != nil {
		be.chk.AfterInvlpg(be.curRef, asid, vaBase)
	}
}

// promote sweeps a promoted region's old frames out of every L1.
func (be *backEnd) promote(oldFrames []addr.PAddr) {
	be.sweep.Reset(oldFrames)
	for p, l1 := range be.cohAll {
		for _, v := range l1.EvictFrames(&be.sweep) {
			be.cohSys.Evicted(p, v.PA, v.State.Dirty())
		}
	}
	if be.chk != nil {
		be.chk.AfterPromote(be.curRef, oldFrames)
	}
}

// flushTFT flushes core c's TFTs (data side and, when modelled, the
// instruction side) on a context switch — they carry no ASIDs.
func (be *backEnd) flushTFT(c int) {
	if d := be.seesaws[c]; d != nil {
		d.ContextSwitch()
	}
	if be.cfg.ICache && be.iseesaws[c] != nil {
		be.iseesaws[c].ContextSwitch()
	}
}

// stall charges raw cycles to core c of every member.
func (be *backEnd) stall(c, cycles int) {
	for i := range be.members {
		be.members[i].cpus[c].Stall(cycles)
	}
}
