package machine

import (
	"context"
	"fmt"
	"math/rand"

	"seesaw/internal/addr"
	"seesaw/internal/cache"
	"seesaw/internal/check"
	"seesaw/internal/coherence"
	"seesaw/internal/core"
	"seesaw/internal/energy"
	"seesaw/internal/faults"
	"seesaw/internal/metrics"
	"seesaw/internal/osmm"
	"seesaw/internal/pagetable"
	"seesaw/internal/physmem"
	"seesaw/internal/tlb"
	"seesaw/internal/trace"
	"seesaw/internal/workload"
	"seesaw/internal/xrand"
)

// Hooks bundles the optional cross-cutting observers wired into a
// machine: the metrics recorder, the invariant checker, and the fault
// injector. Build populates them from the Config (each is nil when its
// config section is absent); every emit site in the machine is nil-safe
// or nil-checked, so an unhooked machine pays one branch per site.
type Hooks struct {
	// Metrics mirrors counters and events into the observability layer
	// (nil unless Config.Metrics).
	Metrics *metrics.Recorder
	// Checker audits TLB/TFT/cache/directory state against page-table
	// ground truth after every reference and OS event (nil unless
	// Config.CheckInvariants).
	Checker *check.Checker
	// Injector produces the deterministic fault schedule (nil unless
	// Config.Faults).
	Injector *faults.Injector
}

// Machine is the fully wired simulated system: physical memory under an
// OS memory manager, per-core TLB hierarchies and L1 caches over a
// coherent LLC, CPU timing models, and the workload generators driving
// them. Build constructs one; Step advances it a single reference;
// Warmup and Measure run the two phases; Snapshot copies the warm OS
// half, and Snapshot.Resume and Snapshot.Fork rebuild the rest around
// it (snapshot.go). The measured phase runs the functional model once
// per reference and retires it into each timing member (timing.go).
type Machine struct {
	cfg Config

	// Hooks holds the machine's cross-cutting observers. Build wires
	// them; Fork rebuilds them fresh for the forked cell.
	Hooks Hooks

	// Deterministic OS-side randomness: rng is shared by the memory
	// manager and the memhog; rngSrc holds its position so copies of the
	// OS half resume at the same point of the stream.
	rng    *rand.Rand
	rngSrc *xrand.Source

	buddy  *physmem.Buddy
	hog    *physmem.Memhog // nil unless MemhogFraction > 0
	mgr    *osmm.Manager
	proc   *osmm.Process
	gen    *workload.Generator
	coGens []*workload.Generator // nil unless CoRunner

	nCores int

	l1s      []core.L1Cache
	seesaws  []*core.Seesaw // nil entries unless KindSeesaw
	l1is     []core.L1Cache // nil unless ICache
	iseesaws []*core.Seesaw
	hiers    []*tlb.Hierarchy
	cohSys   *coherence.System
	acct     *energy.Account
	// members are the timing members the measured phase retires into:
	// members[0] is this machine's own config; a machine running a
	// TimingGroup's pass holds one more per other cell until it hands
	// their reports over. handed is the report a group pass left this
	// machine, which then measures nothing.
	members []member
	handed  *Report

	// cohAll caches the coherence participant order cohL1s returns, so
	// per-reference paths do not concatenate a fresh slice per call.
	cohAll []core.L1Cache

	// epoch holds the records of the epoch being executed (never
	// copied; sized lazily on first use).
	epoch epochBuf
	// stream, once Measure attached one at the warmup boundary, supplies
	// the measured phase's records in place of gen (stream.go).
	stream *Stream

	// schedule interleaves application threads with the system thread;
	// speculates marks whether the design has a fast/slow latency split
	// the scheduler may speculate on at all (Design.Speculates).
	schedule   []int
	speculates bool
	// lastWidth tracks each coherence participant's most recent probe
	// width so EvProbeWidth fires only on transitions (metrics only).
	lastWidth []int

	// globalRef is the next reference index to execute; references
	// [0, WarmupRefs) are the warmup phase, [WarmupRefs,
	// WarmupRefs+Refs) the measured phase. curRef tags checker findings
	// and fault events with the reference they occurred at.
	globalRef int
	curRef    uint64

	l2Lookups uint64
	superRefs uint64
	// spike holds the frames a memhog-spike fault currently pins; the
	// next spike releases them, so pressure oscillates.
	spike   []addr.PAddr
	dropTFT bool
}

// mainASID is the measured application's address space; the co-runner
// (when configured) runs as coASID.
const (
	mainASID = 1
	coASID   = 2
)

// epochRefs is the longest epoch: run polls its context before every
// epoch, so 4096 references is cheap enough to be invisible next to the
// work of one reference yet responsive enough that a canceled or
// timed-out cell unwinds within a fraction of a millisecond.
const epochRefs = 1 << 12

// Build validates cfg and constructs a fully wired machine: the OS side
// (physical memory, fragmentation, page tables, mapped workload
// regions, co-runner address space) and the microarchitectural side
// (caches, TLBs, TFTs, coherence, CPUs), plus the Hooks the config asks
// for. The machine is positioned at reference 0; run it with Warmup
// then Measure, or drive it manually with Step.
func Build(cfg Config) (*Machine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	m := &Machine{cfg: cfg.WithDefaults()}
	if err := m.buildOS(); err != nil {
		return nil, err
	}
	if err := m.buildUarch(); err != nil {
		return nil, err
	}
	return m, nil
}

// Config returns the machine's configuration with defaults applied.
func (m *Machine) Config() Config { return m.cfg }

// buildOS constructs everything the warmup phase touches: physical
// memory and its fragmentation, the OS memory manager, the measured
// process and its mapped regions, the workload generators, and the
// co-runner's address space. Only this state (plus the RNG position)
// distinguishes a warmed machine from a cold one.
func (m *Machine) buildOS() error {
	cfg := m.cfg
	m.rng, m.rngSrc = xrand.New(cfg.Seed)

	// Physical memory, fragmentation, OS.
	buddy, err := physmem.New(cfg.MemBytes)
	if err != nil {
		return err
	}
	m.buddy = buddy
	m.mgr = osmm.NewManager(buddy, m.rng, !cfg.THPOff)
	if cfg.MemhogFraction > 0 {
		hog, err := physmem.Run(buddy, m.rng, cfg.MemhogFraction, 0.97)
		if err != nil {
			return err
		}
		// memhog's pages are movable anonymous memory: the OS can
		// migrate them when compacting for superpage allocations.
		m.hog = hog
		m.mgr.Compactor = hog
	}
	proc, err := m.mgr.NewProcess(mainASID)
	if err != nil {
		return err
	}
	m.proc = proc

	// Workload regions.
	m.gen = workload.NewGenerator(cfg.Workload, cfg.Seed)
	var heapBase addr.VAddr
	if cfg.Heap1G {
		heapBase, err = m.mgr.Mmap1G(proc, m.gen.HeapBytes())
	} else {
		heapBase, err = m.mgr.MmapHuge(proc, m.gen.HeapBytes(), true)
	}
	if err != nil {
		return fmt.Errorf("sim: mapping heap: %w", err)
	}
	smallBase, err := m.mgr.MmapHuge(proc, m.gen.SmallBytes(), false)
	if err != nil {
		return fmt.Errorf("sim: mapping small region: %w", err)
	}
	osBase, err := m.mgr.MmapHuge(proc, m.gen.OSBytes(), false)
	if err != nil {
		return fmt.Errorf("sim: mapping OS region: %w", err)
	}
	m.gen.Bind(heapBase, smallBase, osBase)
	if cfg.ICache {
		codeBase, err := m.mgr.MmapHuge(proc, m.gen.CodeBytes(), cfg.TextHuge)
		if err != nil {
			return fmt.Errorf("sim: mapping text: %w", err)
		}
		m.gen.BindCode(codeBase)
	}

	// Per-core structures: application threads + the system thread.
	m.nCores = m.gen.Threads() + 1

	// Optional co-runner process (ASID 2): its own address space, its
	// own per-core generators for the timeslices it steals.
	if cfg.CoRunner != nil {
		proc2, err := m.mgr.NewProcess(coASID)
		if err != nil {
			return err
		}
		// All cores replay the co-runner's thread-0 stream, each from an
		// independent deterministic generator.
		m.coGens = make([]*workload.Generator, m.nCores)
		cg := workload.NewGenerator(*cfg.CoRunner, cfg.Seed+1000)
		heap2, err := m.mgr.MmapHuge(proc2, cg.HeapBytes(), true)
		if err != nil {
			return fmt.Errorf("sim: mapping co-runner heap: %w", err)
		}
		small2, err := m.mgr.MmapHuge(proc2, cg.SmallBytes(), false)
		if err != nil {
			return fmt.Errorf("sim: mapping co-runner small region: %w", err)
		}
		os2, err := m.mgr.MmapHuge(proc2, cg.OSBytes(), false)
		if err != nil {
			return fmt.Errorf("sim: mapping co-runner OS region: %w", err)
		}
		for c := 0; c < m.nCores; c++ {
			g2 := workload.NewGenerator(*cfg.CoRunner, cfg.Seed+1000+int64(c))
			g2.Bind(heap2, small2, os2)
			m.coGens[c] = g2
		}
	}

	// Interleave: each application thread runs 8 references per system
	// thread reference, approximating the paper's traces of the target
	// application plus background system activity.
	for t := 0; t < m.gen.Threads(); t++ {
		for k := 0; k < 8; k++ {
			m.schedule = append(m.schedule, t)
		}
	}
	m.schedule = append(m.schedule, m.gen.SystemTID())
	return nil
}

// buildUarch constructs everything the measured phase touches — caches,
// TLB hierarchies, coherence, CPU models, energy accounting — and wires
// the Hooks and OS-event callbacks. The warmup phase never mutates any
// of this state, which is why Fork can rebuild it fresh per cell.
func (m *Machine) buildUarch() error {
	cfg := m.cfg
	// Observability: one recorder spans the whole coherence domain (data
	// caches 0..nCores-1, instruction caches nCores..2nCores-1). The
	// recorder is nil when metrics are off — every emit site is a
	// nil-safe no-op then.
	var mrec *metrics.Recorder
	if cfg.Metrics != nil {
		recCores := m.nCores
		if cfg.ICache {
			recCores = 2 * m.nCores
		}
		mrec = metrics.New(*cfg.Metrics, recCores, cfg.Refs)
	}

	m.l1s = make([]core.L1Cache, m.nCores)
	m.seesaws = make([]*core.Seesaw, m.nCores) // nil unless the design embeds a TFT
	m.hiers = make([]*tlb.Hierarchy, m.nCores)
	l1cfg := cfg.l1cfg()
	tlbCfg := tlb.SandybridgeTLBs()
	if cfg.CPUKind == "inorder" {
		tlbCfg = tlb.AtomTLBs()
	}
	if cfg.SmallTLB {
		tlbCfg = tlb.SmallTLBs()
	}
	dsg, ok := cfg.CacheKind.design()
	if !ok {
		return fmt.Errorf("sim: unknown cache kind %v", cfg.CacheKind)
	}
	m.speculates = dsg.Speculates
	newL1 := func(c core.Config) (core.L1Cache, *core.Seesaw, error) {
		l1, err := dsg.New(c)
		if err != nil {
			return nil, nil, err
		}
		// The TFT wiring (TLB-fill hooks, invlpg, context-switch
		// flushes, report section) keys off the concrete SEESAW type;
		// designs without a TFT leave a nil slot.
		s, _ := l1.(*core.Seesaw)
		return l1, s, nil
	}
	// Optional per-core L1 instruction caches (Table II: split 32KB I).
	if cfg.ICache {
		m.l1is = make([]core.L1Cache, m.nCores)
		m.iseesaws = make([]*core.Seesaw, m.nCores)
	}
	for i := 0; i < m.nCores; i++ {
		l1, s, err := newL1(l1cfg)
		if err != nil {
			return err
		}
		m.l1s[i], m.seesaws[i] = l1, s
		if cfg.ICache {
			il1, is, err := newL1(cfg.il1cfg())
			if err != nil {
				return err
			}
			m.l1is[i], m.iseesaws[i] = il1, is
		}
		walker := pagetable.NewWalker(m.proc.PT, 20)
		h, err := tlb.NewHierarchy(tlbCfg, walker)
		if err != nil {
			return err
		}
		m.hiers[i] = h
	}
	m.wireSuperFills()
	var il1 core.L1Cache
	if cfg.ICache {
		il1 = m.l1is[0]
	}
	own, err := newMember(cfg, m.nCores, m.l1s[0], il1, m.hiers[0].L1Super())
	if err != nil {
		return err
	}
	m.members = []member{own}

	cohCfg := coherence.DefaultConfig(cfg.FreqGHz)
	cohCfg.Mode = cfg.CoherenceMode
	// The instruction caches join the coherent domain as extra read-only
	// participants: I-cache of core i sits at index nCores+i.
	cohSys, err := coherence.New(cohCfg, m.cohL1s())
	if err != nil {
		return err
	}
	m.cohSys = cohSys
	m.attachMetrics(mrec)

	// Optional shadow oracle: audits every reference and OS event
	// against page-table / directory ground truth.
	var chk *check.Checker
	if cfg.CheckInvariants {
		chk = check.New(check.Wiring{
			L1s: m.cohL1s(), Hiers: m.hiers, Seesaws: m.seesaws, ISeesaws: m.iseesaws,
			Coh: cohSys, Mgr: m.mgr,
		})
		chk.Metrics = mrec
	}

	// Fault injection: a seeded event stream perturbing the run on a
	// reproducible schedule (see internal/faults).
	var inj *faults.Injector
	if cfg.Faults != nil {
		inj, err = faults.New(*cfg.Faults, cfg.Seed)
		if err != nil {
			return err
		}
	}
	m.Hooks = Hooks{Metrics: mrec, Checker: chk, Injector: inj}

	// OS event wiring: invlpg reaches every core's TLBs and TFT; page
	// promotion sweeps old frames out of every L1 under cover of the
	// 150-200 cycle TLB-invalidate instructions (Section IV-C2).
	// dropTFT models a broken invalidation protocol (fault-injection
	// mutation): the TLB side of the invlpg still happens, the TFT side
	// is silently lost — exactly the stale-entry hazard the Section
	// IV-C2 protocol prevents and the invariant checker must catch.
	m.dropTFT = cfg.Faults != nil && cfg.Faults.DropTFTInvalidate
	m.mgr.OnInvlpg = m.onInvlpg
	m.mgr.OnPromote = m.onPromote

	m.acct = energy.NewAccount(cfg.Prices)
	return nil
}

// attachMetrics wires a recorder (nil for the disabled path) into every
// subsystem that mirrors activity into the observability layer: L1
// storage arrays and TFTs on both sides, TLB hierarchies, the coherence
// system, and the machine's probe-width tracker.
func (m *Machine) attachMetrics(mrec *metrics.Recorder) {
	for i, l1 := range m.l1s {
		l1.Storage().Metrics, l1.Storage().MetricsCore = mrec, i
		if s := m.seesaws[i]; s != nil {
			s.TFT().Metrics, s.TFT().MetricsCore = mrec, i
		}
	}
	for i, il1 := range m.l1is {
		il1.Storage().Metrics, il1.Storage().MetricsCore = mrec, m.nCores+i
		if is := m.iseesaws[i]; is != nil {
			is.TFT().Metrics, is.TFT().MetricsCore = mrec, m.nCores+i
		}
	}
	for i, h := range m.hiers {
		h.Metrics, h.MetricsCore = mrec, i
	}
	m.cohSys.Metrics = mrec
	if mrec != nil {
		m.lastWidth = make([]int, len(m.cohL1s()))
	}
}

// cohL1s returns the coherence participant order: data caches first,
// then (when modeled) the instruction caches. The slice is built once
// and cached — per-reference coherence paths used to pay a fresh
// concatenation on every call.
func (m *Machine) cohL1s() []core.L1Cache {
	if m.cohAll == nil {
		m.cohAll = append(append(make([]core.L1Cache, 0, len(m.l1s)+len(m.l1is)), m.l1s...), m.l1is...)
	}
	return m.cohAll
}

// wireSuperFills connects each hierarchy's superpage-TLB-fill event to
// the core's TFTs (Fig 5 steps 6-8).
func (m *Machine) wireSuperFills() {
	for i := range m.hiers {
		ds, is := m.seesaws[i], (*core.Seesaw)(nil)
		if m.cfg.ICache {
			is = m.iseesaws[i]
		}
		if ds == nil && is == nil {
			continue
		}
		m.hiers[i].OnL1SuperFill = func(va addr.VAddr, asid uint16) {
			if ds != nil {
				ds.OnSuperpageTLBFill(va)
			}
			if is != nil {
				is.OnSuperpageTLBFill(va)
			}
		}
	}
}

// inWarmup reports whether the machine is still inside the warmup
// phase: OS-event hooks do no microarchitectural work then (there is no
// warm cache/TLB state to invalidate and nothing is being measured).
func (m *Machine) inWarmup() bool { return m.globalRef < m.cfg.WarmupRefs }

// onInvlpg handles an OS invalidation of the 2MB region at vaBase:
// every core's TLB stack drops the region's translations (one range
// invalidation instead of 512 per-page probes), the TFTs drop the
// region, and each core pays the invlpg instruction cost.
func (m *Machine) onInvlpg(asid uint16, vaBase addr.VAddr) {
	if m.inWarmup() {
		return
	}
	// One shootdown event per 2MB region (not per 4KB page per core —
	// that would flood the ring); the per-entry drop counts land in
	// CtrTLBShootdown via Hierarchy.InvalidateRegion2M.
	m.Hooks.Metrics.Emit(-1, metrics.EvTLBShootdown, uint64(vaBase), 0, uint64(asid))
	for i := range m.hiers {
		m.hiers[i].InvalidateRegion2M(vaBase, asid)
		if !m.dropTFT {
			if m.seesaws[i] != nil {
				m.seesaws[i].InvalidatePage(vaBase)
			}
			if m.cfg.ICache && m.iseesaws[i] != nil {
				m.iseesaws[i].InvalidatePage(vaBase)
			}
		}
		m.stall(i, 175) // invlpg cost, mid paper range
	}
	if m.Hooks.Checker != nil {
		m.Hooks.Checker.AfterInvlpg(m.curRef, asid, vaBase)
	}
}

// onPromote handles a completed superpage promotion: every L1 sweeps
// the old frames' lines (Section IV-C2's cache side).
func (m *Machine) onPromote(asid uint16, vaBase addr.VAddr, oldFrames []addr.PAddr, newPA addr.PAddr) {
	if m.inWarmup() {
		return
	}
	m.Hooks.Metrics.Add(0, metrics.CtrPromotion, 1)
	m.Hooks.Metrics.Emit(-1, metrics.EvPromote, uint64(vaBase), uint64(newPA), uint64(len(oldFrames)))
	for p, l1 := range m.cohL1s() {
		for _, f := range oldFrames {
			for _, v := range l1.EvictRange(f, f+4096) {
				m.cohSys.Evicted(p, v.PA, v.State.Dirty())
			}
		}
	}
	if m.Hooks.Checker != nil {
		m.Hooks.Checker.AfterPromote(m.curRef, oldFrames)
	}
}

// sampleAccess mirrors one L1 access into the metrics layer.
func (m *Machine) sampleAccess(mcore int, va addr.VAddr, ar core.AccessResult) {
	mrec := m.Hooks.Metrics
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
	if ar.WaysProbed != m.lastWidth[mcore] {
		m.lastWidth[mcore] = ar.WaysProbed
		mrec.Emit(mcore, metrics.EvProbeWidth, uint64(va), 0, uint64(ar.WaysProbed))
	}
}

// missFill services an L1 miss of pa at coherence participant p: the
// coherence miss, the fill, and the victim's eviction notice to the
// directory. It returns the miss's outcome, which members price.
func (m *Machine) missFill(p int, l1 core.L1Cache, pa addr.PAddr, size addr.PageSize, store bool) coherence.MissResult {
	mr := m.cohSys.Miss(p, pa, store)
	fill := l1.Fill(pa, size, store, mr.Shared)
	m.acct.AddL1CPUSide(fill.EnergyNJ)
	if fill.Victim.Valid {
		m.cohSys.Evicted(p, fill.VictimPA, fill.Writeback)
	}
	return mr
}

// dataAccess runs one data reference on core tid in the given address
// space: translate, L1 lookup, miss service / coherence upgrade, then
// retirement into every timing member. countStats marks main-process
// references (superpage-fraction metric).
func (m *Machine) dataAccess(tid int, rec trace.Record, asid uint16, countStats bool) error {
	h := m.hiers[tid]
	tr := h.Translate(rec.VA, asid)
	if tr.Source == tlb.SourceFault {
		return fmt.Errorf("sim: fault at %#x (unmapped generator address)", uint64(rec.VA))
	}
	if tr.Source != tlb.SourceL1 {
		m.l2Lookups++
	}
	if countStats && tr.Size.IsSuper() {
		m.superRefs++
	}
	store := rec.Kind != 0
	l1 := m.l1s[tid]
	ar := l1.Access(rec.VA, tr.PA, tr.Size, store)
	m.acct.AddL1CPUSide(ar.EnergyNJ)
	m.sampleAccess(tid, rec.VA, ar)
	// Audit before the miss is filled: the full-probe ground truth
	// must reflect the state this lookup actually saw.
	if m.Hooks.Checker != nil {
		m.Hooks.Checker.AfterAccess(check.Access{
			Ref: m.curRef, Core: tid, VA: rec.VA, ASID: asid, TR: tr, AR: ar,
		})
	}
	// A superpage L1 TLB hit refreshes the TFT *after* this access's
	// parallel TFT probe completed: the hitting TLB entry carries
	// the page size, so the hardware re-marks a region that a
	// conflicting fill displaced. The current access still paid
	// the slow path; the next one hits the TFT. (Completes the
	// paper's fill-on-TLB-fill policy, which alone would let a
	// region whose TLB entry stays resident miss indefinitely.)
	if tr.Size.IsSuper() && tr.Source == tlb.SourceL1 && m.seesaws[tid] != nil {
		m.seesaws[tid].OnSuperpageTLBFill(rec.VA)
	}
	a := access{
		gap: int(rec.Gap), hit: ar.Hit, store: store, dep: rec.Dep,
		class: lookupClass(ar), tlbExtra: tr.ExtraCycles,
	}
	if !ar.Hit {
		a.miss = m.missFill(tid, l1, tr.PA, tr.Size, store)
		// Next-line prefetch, staying inside the 4KB frame.
		if m.cfg.Prefetch {
			nextPA := tr.PA.LineBase() + addr.LineSize
			if nextPA.PageBase(addr.Page4K) == tr.PA.PageBase(addr.Page4K) {
				if _, _, resident := l1.Storage().FindLine(nextPA); !resident {
					m.missFill(tid, l1, nextPA, tr.Size, false)
				}
			}
		}
	} else if store {
		switch ar.State {
		case cache.Shared, cache.Owned: // need coherence permission
			m.cohSys.Upgrade(tid, tr.PA)
			a.upgrade = true
		default:
			l1.UpgradeToModified(tr.PA)
		}
	}
	if m.speculates {
		// The counter heuristic's inputs (member.assumeFast).
		a.superValid = -1
		if st := h.L1Super(); st != nil {
			a.superValid = st.ValidCount()
		}
		if g1 := h.L1For(addr.Page1G); g1 != nil {
			a.giga = g1.ValidCount() > 0
		}
	}
	for i := range m.members {
		m.members[i].retire(tid, &a, m.speculates)
	}
	return nil
}

// contextSwitch runs the co-runner timeslice (if configured) on every
// core and flushes the non-ASID-tagged TFTs. The ASID-tagged TLBs keep
// the application's entries across the switch; the page walker follows
// the CR3 switch to the co-runner's page table.
func (m *Machine) contextSwitch() error {
	if m.cfg.CoRunner != nil {
		proc2 := m.mgr.Process(coASID)
		for c := 0; c < m.nCores; c++ {
			// Entering the co-runner: TFT flush and CR3 switch.
			m.flushTFTs(c)
			m.hiers[c].Walker().Table = proc2.PT
			for k := 0; k < m.cfg.CoRunSliceRefs; k++ {
				rec2 := m.coGens[c].Next(0)
				rec2.TID = uint8(c)
				if err := m.dataAccess(c, rec2, coASID, false); err != nil {
					return err
				}
			}
			m.hiers[c].Walker().Table = m.proc.PT
		}
	}
	// Switching back to the application: TFT flush again.
	for c := 0; c < m.nCores; c++ {
		m.flushTFTs(c)
	}
	return nil
}

// flushTFTs flushes core c's TFTs (data side and, when modeled, the
// instruction side) on a context switch — they carry no ASIDs.
func (m *Machine) flushTFTs(c int) {
	if d := m.seesaws[c]; d != nil {
		d.ContextSwitch()
	}
	if m.cfg.ICache && m.iseesaws[c] != nil {
		m.iseesaws[c].ContextSwitch()
	}
}

// applyFault applies one injected fault event.
func (m *Machine) applyFault(ev faults.Event) error {
	inj := m.Hooks.Injector
	mrec := m.Hooks.Metrics
	switch ev.Kind {
	case faults.Splinter:
		cands := m.proc.SuperChunkVAs()
		if len(cands) == 0 {
			inj.Skip()
			return nil
		}
		va := cands[int(ev.Pick%uint64(len(cands)))]
		mrec.Add(0, metrics.CtrSplinter, 1)
		mrec.Emit(-1, metrics.EvSplinter, uint64(va), 0, 0)
		return m.mgr.Splinter(m.proc, va)
	case faults.Shootdown:
		cands := m.proc.ChunkVAs()
		if len(cands) == 0 {
			inj.Skip()
			return nil
		}
		// An invlpg burst over mapped regions: the mappings stay,
		// the TLBs/TFTs must still see every invalidation.
		for b := 0; b < ev.Burst; b++ {
			m.mgr.OnInvlpg(mainASID, cands[int((ev.Pick+uint64(b))%uint64(len(cands)))])
		}
		return nil
	case faults.ContextSwitch:
		return m.contextSwitch()
	case faults.PromoteStorm:
		if m.mgr.PromoteScan(m.proc, ev.Burst*4) == 0 {
			inj.Skip()
		}
		return nil
	case faults.MemhogSpike:
		if len(m.spike) > 0 {
			for _, pa := range m.spike {
				m.buddy.Free(pa, addr.Page4K)
			}
			m.spike = m.spike[:0]
			return nil
		}
		if cap(m.spike) < ev.Burst*512 {
			// One allocation for the whole burst; releases keep the
			// capacity (m.spike[:0]), so repeated spikes reuse it.
			m.spike = append(make([]addr.PAddr, 0, ev.Burst*512), m.spike...)
		}
		for n := 0; n < ev.Burst*512; n++ {
			pa, ok := m.buddy.Alloc(addr.Page4K)
			if !ok {
				break
			}
			m.spike = append(m.spike, pa)
		}
		if len(m.spike) == 0 {
			inj.Skip()
		}
		return nil
	}
	return fmt.Errorf("sim: unknown fault kind %v", ev.Kind)
}

// Step executes the next reference — a warmup step while the machine is
// inside [0, WarmupRefs), a full measured step afterwards — and
// advances the reference cursor. It runs a one-reference epoch, so its
// record is drawn exactly as Warmup and Measure draw theirs; a replayed
// trace is read at the cursor. Stepping past the end of the measured
// phase is an error.
func (m *Machine) Step() error {
	if end := m.cfg.WarmupRefs + m.cfg.Refs; m.globalRef >= end {
		return fmt.Errorf("sim: step past the end of the measured phase (at ref %d, end is %d)", m.globalRef, end)
	}
	return m.runEpoch(1)
}

// stepWarmup advances the OS-only warmup phase one reference: the
// workload generator moves (so the measured phase starts mid-stream, as
// a real attach would) and the periodic promotion/splinter scans run,
// mutating only the buddy allocator, the page tables, and the RNG. No
// cache, TLB, TFT, CPU, or energy state is touched; context switches
// and fault injection are deferred to the measured phase. All cadences
// key on the global reference index i, so a WarmupRefs=0 run is
// bit-identical to the unphased simulator. rec is reference i's record,
// drawn by the epoch fill.
func (m *Machine) stepWarmup(i int, rec trace.Record) {
	if m.cfg.PromoteScanEvery > 0 && i > 0 && i%m.cfg.PromoteScanEvery == 0 {
		m.mgr.PromoteScan(m.proc, 2)
	}
	if m.cfg.SplinterEvery > 0 && i > 0 && i%m.cfg.SplinterEvery == 0 {
		if m.proc.ChunkIsSuper(rec.VA) {
			m.mgr.Splinter(m.proc, rec.VA)
		}
	}
}

// stepMeasured executes one fully modeled reference at global index i:
// the data access, the instruction fetch, periodic OS activity, and
// fault injection. rec (and iva/jumped when the I-cache is modeled) are
// reference i's records, drawn by the epoch fill; generation never
// depends on execution state, so drawing them ahead is observationally
// identical.
func (m *Machine) stepMeasured(i int, rec trace.Record, iva addr.VAddr, jumped bool) error {
	m.curRef = uint64(i)
	tid := int(rec.TID)
	h := m.hiers[tid]
	if err := m.dataAccess(tid, rec, mainASID, true); err != nil {
		return err
	}
	// Instruction fetch for this block of (gap+1) instructions.
	if m.cfg.ICache {
		itr := h.Translate(iva, 1)
		if itr.Source == tlb.SourceFault {
			return fmt.Errorf("sim: I-fetch fault at %#x", uint64(iva))
		}
		if itr.Source != tlb.SourceL1 {
			m.l2Lookups++
		}
		il1 := m.l1is[tid]
		iar := il1.Access(iva, itr.PA, itr.Size, false)
		m.acct.AddL1CPUSide(iar.EnergyNJ)
		m.sampleAccess(m.nCores+tid, iva, iar)
		if m.Hooks.Checker != nil {
			m.Hooks.Checker.AfterAccess(check.Access{
				Ref: m.curRef, Core: m.nCores + tid, VA: iva, ASID: 1, TR: itr, AR: iar,
			})
		}
		if itr.Size.IsSuper() && itr.Source == tlb.SourceL1 && m.iseesaws[tid] != nil {
			m.iseesaws[tid].OnSuperpageTLBFill(iva)
		}
		// Front-end stall: a miss stalls the fetch (member.fetchStall);
		// on a hit, a taken branch waits one L1I hit latency for the
		// new fetch group, the redirect bubble where SEESAW-I's fast
		// path pays off.
		var miss coherence.MissResult
		if !iar.Hit {
			miss = m.missFill(m.nCores+tid, il1, itr.PA, itr.Size, false)
		}
		if !iar.Hit || jumped {
			class := lookupClass(iar)
			for i := range m.members {
				m.members[i].fetchStall(tid, class, itr.ExtraCycles, iar.Hit, miss, jumped)
			}
		}
	}
	// OS background activity.
	if m.cfg.ContextSwitchEvery > 0 && i > 0 && i%m.cfg.ContextSwitchEvery == 0 {
		if err := m.contextSwitch(); err != nil {
			return err
		}
	}
	if m.cfg.PromoteScanEvery > 0 && i > 0 && i%m.cfg.PromoteScanEvery == 0 {
		m.mgr.PromoteScan(m.proc, 2)
	}
	if m.cfg.SplinterEvery > 0 && i > 0 && i%m.cfg.SplinterEvery == 0 {
		// Splinter the superpage under the most recent heap access,
		// if any — exercising Section IV-C2 in-flight.
		if m.proc.ChunkIsSuper(rec.VA) {
			m.Hooks.Metrics.Add(0, metrics.CtrSplinter, 1)
			m.Hooks.Metrics.Emit(-1, metrics.EvSplinter, uint64(rec.VA), 0, 0)
			m.mgr.Splinter(m.proc, rec.VA)
		}
	}
	if m.Hooks.Injector != nil {
		if ev, ok := m.Hooks.Injector.Tick(i); ok {
			// Annotate the fault before applying it, so the event dump
			// shows the injection immediately followed by its fallout
			// (shootdowns, TFT invalidations, flushes).
			m.Hooks.Metrics.Add(0, metrics.CtrFault, 1)
			m.Hooks.Metrics.Emit(-1, metrics.EvFault, 0, 0, uint64(ev.Kind))
			if err := m.applyFault(ev); err != nil {
				return err
			}
		}
	}
	m.Hooks.Metrics.TickRef()
	return nil
}

// epochBuf holds the records of one epoch: recs[j] is reference
// cursor+j, and ivas/jumps carry its instruction fetch when the I-cache
// is modeled in the measured phase. The buffer is sized for the longest
// epoch and reused from epoch to epoch, and every epoch executes in full
// before the next is drawn, so the generators never run ahead of the
// reference cursor.
type epochBuf struct {
	recs  []trace.Record
	ivas  []addr.VAddr
	jumps []bool
}

// alloc sizes the buffer for the longest epoch.
func (e *epochBuf) alloc() {
	e.recs = make([]trace.Record, epochRefs)
	e.ivas = make([]addr.VAddr, epochRefs)
	e.jumps = make([]bool, epochRefs)
}

// fill draws the n records of the epoch starting at the cursor, which
// must not span the warmup boundary (the phases draw differently). A
// measured phase with an attached stream reads the recording. A
// replayed trace is read at the cursor, with the instruction fetches
// drawn from the generator. Otherwise the generator draws the epoch
// (draw).
func (m *Machine) fill(n int) error {
	e := &m.epoch
	if e.recs == nil {
		e.alloc()
	}
	e.recs, e.ivas, e.jumps = e.recs[:n], e.ivas[:n], e.jumps[:n]
	g := m.globalRef
	icache := g >= m.cfg.WarmupRefs && m.cfg.ICache
	switch {
	case m.stream != nil: // attached at the boundary, so measured
		m.stream.replay(e, g, m.schedule)
	case m.cfg.Trace != nil: // never with a warmup phase (core.RuleTraceWarmup)
		for j := range e.recs {
			rec := m.cfg.Trace[g+j]
			if int(rec.TID) >= m.nCores {
				return fmt.Errorf("sim: trace record %d names thread %d but the system has %d cores",
					g+j, rec.TID, m.nCores)
			}
			e.recs[j] = rec
			if icache {
				e.ivas[j], e.jumps[j] = m.gen.NextCode(int(rec.TID), int(rec.Gap)+1)
			}
		}
	default:
		m.draw(m.gen, g, e, icache)
	}
	return nil
}

// draw fills e with gen's records for the references starting at index
// g, and their instruction fetches when icache is set. It goes thread
// by thread, each thread's references in program order: generator state
// is per thread (each tid owns its RNG, cursors and last VA), so the
// buffer equals a draw in schedule order, and each thread's state stays
// hot for its whole slice.
func (m *Machine) draw(gen *workload.Generator, g int, e *epochBuf, icache bool) {
	s := m.schedule
	for tid := 0; tid < m.nCores; tid++ { // the app threads, then the system thread
		pos := g % len(s)
		for j := range e.recs {
			if s[pos] == tid {
				rec := gen.Next(tid)
				e.recs[j] = rec
				if icache {
					e.ivas[j], e.jumps[j] = gen.NextCode(tid, int(rec.Gap)+1)
				}
			}
			if pos++; pos == len(s) {
				pos = 0
			}
		}
	}
}

// runEpoch fills the n-reference epoch at the cursor, then executes it
// in schedule order: coherence couples the cores (LLC recency,
// directory state, snoops and back-invalidations land on every miss),
// so execution order is what keeps reports byte-identical.
func (m *Machine) runEpoch(n int) error {
	if err := m.fill(n); err != nil {
		return err
	}
	e := &m.epoch
	if m.globalRef < m.cfg.WarmupRefs {
		for _, rec := range e.recs {
			m.stepWarmup(m.globalRef, rec)
			m.globalRef++
		}
		return nil
	}
	for j, rec := range e.recs {
		if err := m.stepMeasured(m.globalRef, rec, e.ivas[j], e.jumps[j]); err != nil {
			return err
		}
		m.globalRef++
	}
	return nil
}

// run is the one reference loop behind Warmup, WarmupTo and Measure: it
// advances the machine to end an epoch at a time. An epoch runs to the
// next multiple of 4096 references, end or the warmup boundary,
// whichever is nearest, and ctx is polled before each one, so a
// canceled cell unwinds within one epoch and leaves no drawn record
// unexecuted.
func (m *Machine) run(ctx context.Context, end int) error {
	for m.globalRef < end {
		if err := ctx.Err(); err != nil {
			return err
		}
		n := min(epochRefs-m.globalRef%epochRefs, end-m.globalRef)
		if w := m.cfg.WarmupRefs; m.globalRef < w {
			n = min(n, w-m.globalRef)
		}
		if err := m.runEpoch(n); err != nil {
			return err
		}
	}
	return nil
}

// Warmup runs the OS-only warmup phase to its boundary. It is a no-op
// when WarmupRefs is zero or the phase already ran.
func (m *Machine) Warmup(ctx context.Context) error {
	return m.run(ctx, m.cfg.WarmupRefs)
}

// Measure runs the measured phase: cfg.Refs fully modeled references
// starting at the warmup boundary. When ctx is canceled the loop stops
// at the next poll point and returns ctx's error — this is how the
// runner's per-cell timeout and the service's per-job cancellation
// reclaim a stuck or abandoned cell. When ctx carries a Stream (see
// WithStream) and the machine sits at its boundary, the measured phase
// replays the stream instead of generating its records. When ctx
// carries a TimingGroup (see WithTimingGroup) and the machine sits at
// its boundary, the first member to arrive runs the phase for the whole
// group and hands over the others' reports, and a later member whose
// report is waiting takes it instead of measuring.
func (m *Machine) Measure(ctx context.Context) error {
	g, handed, err := m.joinGroup(ctx)
	if err != nil || handed {
		return err
	}
	if err := m.useStream(ctx); err != nil {
		return err
	}
	if err := m.run(ctx, m.cfg.WarmupRefs+m.cfg.Refs); err != nil {
		return err
	}
	if g != nil {
		m.handOver(g)
	}
	return nil
}
