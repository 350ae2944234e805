package machine

import (
	"fmt"
	"math/rand"
	"slices"

	"seesaw/internal/addr"
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

// The machine splits into a front end and a back end. The front end is
// everything whose state no L1 ever reads: the OS (physical memory and
// its fragmentation, the memory manager with every page table, the
// workload and co-runner generators) and, from the measured phase on,
// each core's TLB hierarchy and the fault injector. The back end
// (backend.go) is everything the front end's output drives: the L1s and
// TFTs, coherence and the LLC, the energy account and the timing
// members. The halves meet at a sink: each measured reference's data
// access and instruction fetch with their translations, then the OS
// events the reference raised, in the order the front end produces them.
// A machine running live hands them straight to its own back end; a
// Group's pass records them so that every back end of the group replays
// one recording (recording.go).

// frontEnd is a machine's front end.
type frontEnd struct {
	cfg    Config
	nCores int

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

	// The measured phase's half, built by startMeasured at the warmup
	// boundary (hiers is nil before): one TLB hierarchy per core, the
	// fault injector (nil unless Config.Faults), the metrics recorder
	// (nil unless Config.Metrics) and the sink the output goes to.
	hiers []*tlb.Hierarchy
	inj   *faults.Injector
	mrec  *metrics.Recorder
	out   sink
	// at is the next reference the measured phase runs.
	at int
	// x, itr and co hold the reference being handed to the sink: its
	// data translation, its fetch translation and a co-runner record.
	// The sink reads them through pointers, so nothing is copied or
	// allocated per reference.
	x   xlat
	itr tlb.Result
	co  trace.Record
	// spike holds the frames a memhog-spike fault currently pins; the
	// next spike releases them, so pressure oscillates.
	spike []addr.PAddr
}

// xlat is one data translation as the back end receives it: the TLB
// hierarchy's result plus the scheduler heuristic's inputs read right
// after it, the 2MB L1 TLB's occupancy (-1 without one) and whether any
// 1GB translation is resident.
type xlat struct {
	tlb.Result
	superValid int
	giga       bool
}

// A sink takes the front end's measured-phase output: each reference's
// data access (ref), then its instruction fetch when the I-cache is
// modelled, then the OS events the reference raised, co-runner
// references among them. Translation faults never reach a sink; the
// front end fails the reference instead. The pointers a sink receives
// are the front end's scratch and hold only for the call.
type sink interface {
	ref(i int, rec *trace.Record, x *xlat)
	fetch(tid int, iva addr.VAddr, jumped bool, tr *tlb.Result)
	coRef(c int, rec *trace.Record, x *xlat)
	invlpg(asid uint16, vaBase addr.VAddr)
	promote(oldFrames []addr.PAddr)
	flushTFT(c int)
}

// buildOS constructs the OS half for cfg at reference 0: physical
// memory and its fragmentation, the OS memory manager, the measured
// process and its mapped regions, the workload generators, and the
// co-runner's address space. Only this state (plus the RNG position)
// distinguishes a warmed machine from a cold one.
func buildOS(cfg Config, nCores int) (*frontEnd, error) {
	fe := &frontEnd{cfg: cfg, nCores: nCores}

	// Physical memory, fragmentation, OS. The RNG continues from where
	// memhog left it.
	buddy, hog, src, err := physmem.Fragmented(cfg.Seed, cfg.MemBytes, cfg.MemhogFraction)
	if err != nil {
		return nil, err
	}
	fe.rng, fe.rngSrc = rand.New(src), src
	fe.buddy = buddy
	fe.mgr = osmm.NewManager(buddy, fe.rng, !cfg.THPOff)
	if hog != nil {
		// memhog's pages are movable anonymous memory: the OS can
		// migrate them when compacting for superpage allocations.
		fe.hog = hog
		fe.mgr.Compactor = hog
	}
	proc, err := fe.mgr.NewProcess(mainASID)
	if err != nil {
		return nil, err
	}
	fe.proc = proc

	// Workload regions.
	fe.gen = workload.NewGenerator(cfg.Workload, cfg.Seed)
	var heapBase addr.VAddr
	if cfg.Heap1G {
		heapBase, err = fe.mgr.Mmap1G(proc, fe.gen.HeapBytes())
	} else {
		heapBase, err = fe.mgr.MmapHuge(proc, fe.gen.HeapBytes(), true)
	}
	if err != nil {
		return nil, fmt.Errorf("sim: mapping heap: %w", err)
	}
	smallBase, err := fe.mgr.MmapHuge(proc, fe.gen.SmallBytes(), false)
	if err != nil {
		return nil, fmt.Errorf("sim: mapping small region: %w", err)
	}
	osBase, err := fe.mgr.MmapHuge(proc, fe.gen.OSBytes(), false)
	if err != nil {
		return nil, fmt.Errorf("sim: mapping OS region: %w", err)
	}
	fe.gen.Bind(heapBase, smallBase, osBase)
	if cfg.ICache {
		codeBase, err := fe.mgr.MmapHuge(proc, fe.gen.CodeBytes(), cfg.TextHuge)
		if err != nil {
			return nil, fmt.Errorf("sim: mapping text: %w", err)
		}
		fe.gen.BindCode(codeBase)
	}

	// Optional co-runner process (ASID 2): its own address space, its
	// own per-core generators for the timeslices it steals.
	if cfg.CoRunner != nil {
		proc2, err := fe.mgr.NewProcess(coASID)
		if err != nil {
			return nil, err
		}
		// All cores replay the co-runner's thread-0 stream, each from an
		// independent deterministic generator.
		fe.coGens = make([]*workload.Generator, nCores)
		cg := workload.NewGenerator(*cfg.CoRunner, cfg.Seed+1000)
		heap2, err := fe.mgr.MmapHuge(proc2, cg.HeapBytes(), true)
		if err != nil {
			return nil, fmt.Errorf("sim: mapping co-runner heap: %w", err)
		}
		small2, err := fe.mgr.MmapHuge(proc2, cg.SmallBytes(), false)
		if err != nil {
			return nil, fmt.Errorf("sim: mapping co-runner small region: %w", err)
		}
		os2, err := fe.mgr.MmapHuge(proc2, cg.OSBytes(), false)
		if err != nil {
			return nil, fmt.Errorf("sim: mapping co-runner OS region: %w", err)
		}
		for c := 0; c < nCores; c++ {
			g2 := workload.NewGenerator(*cfg.CoRunner, cfg.Seed+1000+int64(c))
			g2.Bind(heap2, small2, os2)
			fe.coGens[c] = g2
		}
	}
	return fe, nil
}

// clone returns a deep copy of the OS half for cfg — RNG position,
// physical memory, fragmentation, manager and every address space, the
// workload generators — with nothing of the measured phase built and the
// manager's hooks unwired.
func (fe *frontEnd) clone(cfg Config) *frontEnd {
	dst := &frontEnd{cfg: cfg, nCores: fe.nCores}
	dst.rngSrc = fe.rngSrc.Clone()
	dst.rng = rand.New(dst.rngSrc)
	dst.buddy = fe.buddy.Clone()
	var comp osmm.Compactor
	if fe.hog != nil {
		dst.hog = fe.hog.Clone(dst.buddy)
		comp = dst.hog
	}
	dst.mgr = fe.mgr.Clone(dst.buddy, dst.rng, comp)
	dst.proc = dst.mgr.Process(mainASID)
	dst.gen = fe.gen.Clone()
	if fe.coGens != nil {
		dst.coGens = make([]*workload.Generator, len(fe.coGens))
		for i, g := range fe.coGens {
			dst.coGens[i] = g.Clone()
		}
	}
	return dst
}

// tlbConfig is the TLB hierarchy cfg's cores get: Sandybridge's for the
// OoO core, Atom's in order, and the reduced one a serial PIPT design
// forces when SmallTLB is set.
func tlbConfig(cfg Config) tlb.HierarchyConfig {
	switch {
	case cfg.SmallTLB:
		return tlb.SmallTLBs()
	case cfg.CPUKind == "inorder":
		return tlb.AtomTLBs()
	}
	return tlb.SandybridgeTLBs()
}

// superTLBEntries is the size of cfg's 2MB L1 TLB (0 without one), which
// sets the scheduler heuristic's default speculation threshold.
func superTLBEntries(cfg Config) int {
	for _, t := range tlbConfig(cfg).L1 {
		if slices.Contains(t.Sizes, addr.Page2M) {
			return t.Entries
		}
	}
	return 0
}

// startMeasured builds the measured phase's half over the OS half — one
// TLB hierarchy per core walking the measured process's page table, and
// the fault injector — and wires the OS events to out. The warmup phase
// never touches any of it, which is why a fork builds it fresh.
func (fe *frontEnd) startMeasured(mrec *metrics.Recorder, out sink) error {
	tlbCfg := tlbConfig(fe.cfg)
	hiers := make([]*tlb.Hierarchy, fe.nCores)
	for i := range hiers {
		h, err := tlb.NewHierarchy(tlbCfg, pagetable.NewWalker(fe.proc.PT, 20))
		if err != nil {
			return err
		}
		h.Metrics, h.MetricsCore = mrec, i
		hiers[i] = h
	}
	// Fault injection: a seeded event stream perturbing the run on a
	// reproducible schedule (see internal/faults).
	if fe.cfg.Faults != nil {
		inj, err := faults.New(*fe.cfg.Faults, fe.cfg.Seed)
		if err != nil {
			return err
		}
		fe.inj = inj
	}
	fe.hiers, fe.mrec, fe.out = hiers, mrec, out
	fe.mgr.OnInvlpg = fe.onInvlpg
	fe.mgr.OnPromote = fe.onPromote
	return nil
}

// onInvlpg handles an OS invalidation of the 2MB region at vaBase: every
// core's TLB stack drops the region's translations (one range
// invalidation instead of 512 per-page probes), and the back end drops
// the region from the TFTs and charges each core the invlpg instruction.
func (fe *frontEnd) onInvlpg(asid uint16, vaBase addr.VAddr) {
	// One shootdown event per 2MB region (not per 4KB page per core —
	// that would flood the ring); the per-entry drop counts land in
	// CtrTLBShootdown via Hierarchy.InvalidateRegion2M.
	fe.mrec.Emit(-1, metrics.EvTLBShootdown, uint64(vaBase), 0, uint64(asid))
	for _, h := range fe.hiers {
		h.InvalidateRegion2M(vaBase, asid)
	}
	fe.out.invlpg(asid, vaBase)
}

// onPromote handles a completed superpage promotion: the back end sweeps
// the old frames' lines out of every L1 (Section IV-C2's cache side).
func (fe *frontEnd) onPromote(asid uint16, vaBase addr.VAddr, oldFrames []addr.PAddr, newPA addr.PAddr) {
	fe.mrec.Add(0, metrics.CtrPromotion, 1)
	fe.mrec.Emit(-1, metrics.EvPromote, uint64(vaBase), uint64(newPA), uint64(len(oldFrames)))
	fe.out.promote(oldFrames)
}

// translate resolves va for asid on core c into fe.x and reads the
// scheduler heuristic's inputs right after. It reports false for an
// unmapped address, which the caller fails.
func (fe *frontEnd) translate(c int, va addr.VAddr, asid uint16) bool {
	h, x := fe.hiers[c], &fe.x
	x.Result, x.superValid, x.giga = h.Translate(va, asid), -1, false
	if st := h.L1Super(); st != nil {
		x.superValid = st.ValidCount()
	}
	if g1 := h.L1For(addr.Page1G); g1 != nil {
		x.giga = g1.ValidCount() > 0
	}
	return x.Source != tlb.SourceFault
}

// faultErr is the failure of a data reference to unmapped memory.
func faultErr(va addr.VAddr) error {
	return fmt.Errorf("sim: fault at %#x (unmapped generator address)", uint64(va))
}

// stepWarmup advances the OS-only warmup phase one reference: the
// workload generator moves (so the measured phase starts mid-stream, as
// a real attach would) and the periodic promotion/splinter scans run,
// mutating only the buddy allocator, the page tables, and the RNG.
// Context switches and fault injection are deferred to the measured
// phase. All cadences key on the global reference index i, so a
// WarmupRefs=0 run is bit-identical to the unphased simulator. rec is
// reference i's record, drawn by the epoch fill.
func (fe *frontEnd) stepWarmup(i int, rec trace.Record) {
	if fe.cfg.PromoteScanEvery > 0 && i > 0 && i%fe.cfg.PromoteScanEvery == 0 {
		fe.mgr.PromoteScan(fe.proc, 2)
	}
	if fe.cfg.SplinterEvery > 0 && i > 0 && i%fe.cfg.SplinterEvery == 0 {
		if fe.proc.ChunkIsSuper(rec.VA) {
			fe.mgr.Splinter(fe.proc, rec.VA)
		}
	}
}

// step runs the front end of measured reference i: the data
// translation, the instruction fetch's translation, periodic OS
// activity and fault injection, each handed to the sink as it happens.
// rec (and iva/jumped when the I-cache is modelled) are reference i's
// records, drawn by the epoch fill; generation never depends on
// execution state, so drawing them ahead is observationally identical.
func (fe *frontEnd) step(i int, rec *trace.Record, iva addr.VAddr, jumped bool) error {
	tid := int(rec.TID)
	if !fe.translate(tid, rec.VA, mainASID) {
		return faultErr(rec.VA)
	}
	fe.out.ref(i, rec, &fe.x)
	// Instruction fetch for this block of (gap+1) instructions.
	if fe.cfg.ICache {
		fe.itr = fe.hiers[tid].Translate(iva, mainASID)
		if fe.itr.Source == tlb.SourceFault {
			return fmt.Errorf("sim: I-fetch fault at %#x", uint64(iva))
		}
		fe.out.fetch(tid, iva, jumped, &fe.itr)
	}
	// OS background activity.
	if fe.cfg.ContextSwitchEvery > 0 && i > 0 && i%fe.cfg.ContextSwitchEvery == 0 {
		if err := fe.contextSwitch(); err != nil {
			return err
		}
	}
	if fe.cfg.PromoteScanEvery > 0 && i > 0 && i%fe.cfg.PromoteScanEvery == 0 {
		fe.mgr.PromoteScan(fe.proc, 2)
	}
	if fe.cfg.SplinterEvery > 0 && i > 0 && i%fe.cfg.SplinterEvery == 0 {
		// Splinter the superpage under the most recent heap access,
		// if any — exercising Section IV-C2 in-flight.
		if fe.proc.ChunkIsSuper(rec.VA) {
			fe.mrec.Add(0, metrics.CtrSplinter, 1)
			fe.mrec.Emit(-1, metrics.EvSplinter, uint64(rec.VA), 0, 0)
			fe.mgr.Splinter(fe.proc, rec.VA)
		}
	}
	if fe.inj != nil {
		if ev, ok := fe.inj.Tick(i); ok {
			// Annotate the fault before applying it, so the event dump
			// shows the injection immediately followed by its fallout
			// (shootdowns, TFT invalidations, flushes).
			fe.mrec.Add(0, metrics.CtrFault, 1)
			fe.mrec.Emit(-1, metrics.EvFault, 0, 0, uint64(ev.Kind))
			if err := fe.applyFault(ev); err != nil {
				return err
			}
		}
	}
	fe.mrec.TickRef()
	return nil
}

// contextSwitch runs the co-runner timeslice (if configured) on every
// core and flushes the non-ASID-tagged TFTs. The ASID-tagged TLBs keep
// the application's entries across the switch; the page walker follows
// the CR3 switch to the co-runner's page table.
func (fe *frontEnd) contextSwitch() error {
	if fe.cfg.CoRunner != nil {
		proc2 := fe.mgr.Process(coASID)
		for c := 0; c < fe.nCores; c++ {
			// Entering the co-runner: TFT flush and CR3 switch.
			fe.out.flushTFT(c)
			fe.hiers[c].Walker().Table = proc2.PT
			for k := 0; k < fe.cfg.CoRunSliceRefs; k++ {
				fe.co = fe.coGens[c].Next(0)
				fe.co.TID = uint8(c)
				if !fe.translate(c, fe.co.VA, coASID) {
					return faultErr(fe.co.VA)
				}
				fe.out.coRef(c, &fe.co, &fe.x)
			}
			fe.hiers[c].Walker().Table = fe.proc.PT
		}
	}
	// Switching back to the application: TFT flush again.
	for c := 0; c < fe.nCores; c++ {
		fe.out.flushTFT(c)
	}
	return nil
}

// applyFault applies one injected fault event.
func (fe *frontEnd) applyFault(ev faults.Event) error {
	inj := fe.inj
	switch ev.Kind {
	case faults.Splinter:
		cands := fe.proc.SuperChunkVAs()
		if len(cands) == 0 {
			inj.Skip()
			return nil
		}
		va := cands[int(ev.Pick%uint64(len(cands)))]
		fe.mrec.Add(0, metrics.CtrSplinter, 1)
		fe.mrec.Emit(-1, metrics.EvSplinter, uint64(va), 0, 0)
		return fe.mgr.Splinter(fe.proc, va)
	case faults.Shootdown:
		cands := fe.proc.ChunkVAs()
		if len(cands) == 0 {
			inj.Skip()
			return nil
		}
		// An invlpg burst over mapped regions: the mappings stay,
		// the TLBs/TFTs must still see every invalidation.
		for b := 0; b < ev.Burst; b++ {
			fe.mgr.OnInvlpg(mainASID, cands[int((ev.Pick+uint64(b))%uint64(len(cands)))])
		}
		return nil
	case faults.ContextSwitch:
		return fe.contextSwitch()
	case faults.PromoteStorm:
		if fe.mgr.PromoteScan(fe.proc, ev.Burst*4) == 0 {
			inj.Skip()
		}
		return nil
	case faults.MemhogSpike:
		if len(fe.spike) > 0 {
			for _, pa := range fe.spike {
				fe.buddy.Free(pa, addr.Page4K)
			}
			fe.spike = fe.spike[:0]
			return nil
		}
		if cap(fe.spike) < ev.Burst*512 {
			// One allocation for the whole burst; releases keep the
			// capacity (fe.spike[:0]), so repeated spikes reuse it.
			fe.spike = append(make([]addr.PAddr, 0, ev.Burst*512), fe.spike...)
		}
		for n := 0; n < ev.Burst*512; n++ {
			pa, ok := fe.buddy.Alloc(addr.Page4K)
			if !ok {
				break
			}
			fe.spike = append(fe.spike, pa)
		}
		if len(fe.spike) == 0 {
			inj.Skip()
		}
		return nil
	}
	return fmt.Errorf("sim: unknown fault kind %v", ev.Kind)
}

// frontStats is what a report reads of the front end: superpage
// coverage, the OS's promotions and splinters, the page walks, and the
// fault tally (nil unless Config.Faults).
type frontStats struct {
	coverage              float64
	promotions, splinters uint64
	walks, walkLevels     uint64
	faults                *faults.Stats
}

// stats reads the front end's statistics so far.
func (fe *frontEnd) stats() frontStats {
	st := frontStats{
		coverage:   fe.proc.SuperpageCoverage(),
		promotions: fe.mgr.Stats.Promotions,
		splinters:  fe.mgr.Stats.Splinters,
	}
	for _, h := range fe.hiers {
		st.walks += h.Walker().Walks
		st.walkLevels += h.Walker().LevelsTotal
	}
	switch {
	case fe.inj != nil:
		fs := fe.inj.Stats
		st.faults = &fs
	case fe.cfg.Faults != nil: // the measured phase has not started
		st.faults = &faults.Stats{}
	}
	return st
}
