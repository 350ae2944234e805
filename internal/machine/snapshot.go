package machine

import (
	"fmt"
	"math/rand"

	"seesaw/internal/addr"
	"seesaw/internal/check"
	"seesaw/internal/core"
	"seesaw/internal/osmm"
	"seesaw/internal/pagetable"
	"seesaw/internal/workload"
)

// WarmupSignature identifies everything that shapes the warmup phase: a
// machine's state at the warmup boundary is a pure function of its
// signature. Two configs with equal signatures pass through identical
// warmup states, so a sweep may warm one machine and Fork every cell
// whose config agrees — measured-phase parameters (cache kind, geometry,
// policies, Refs, hooks, context-switch cadence, fault schedules) are
// deliberately absent. The struct is comparable and usable as a map key.
type WarmupSignature struct {
	// Workload and CoRunner are the profiles' %+v renderings (profiles
	// hold no pointers, so the rendering is a faithful identity);
	// CoRunner is empty when no co-runner is configured. The co-runner
	// matters even though its timeslices only run in the measured phase:
	// Build maps its address space up front, consuming buddy frames.
	Workload string
	CoRunner string

	Seed       int64
	WarmupRefs int

	// Fields that shape physical memory and the mapped regions.
	MemBytes       uint64
	Heap1G         bool
	ICache         bool
	TextHuge       bool
	MemhogFraction float64
	THPOff         bool

	// OS cadences that run during warmup. ContextSwitchEvery is absent:
	// context switches are deferred to the measured phase.
	PromoteScanEvery int
	SplinterEvery    int

	CoRunSliceRefs int
}

// WarmupSignature computes the signature of this config with defaults
// applied, so explicit and defaulted spellings of the same machine
// agree.
func (c Config) WarmupSignature() WarmupSignature {
	d := c.withDefaults()
	co := ""
	if d.CoRunner != nil {
		co = fmt.Sprintf("%+v", *d.CoRunner)
	}
	return WarmupSignature{
		Workload:         fmt.Sprintf("%+v", d.Workload),
		CoRunner:         co,
		Seed:             d.Seed,
		WarmupRefs:       d.WarmupRefs,
		MemBytes:         d.MemBytes,
		Heap1G:           d.Heap1G,
		ICache:           d.ICache,
		TextHuge:         d.TextHuge,
		MemhogFraction:   d.MemhogFraction,
		THPOff:           d.THPOff,
		PromoteScanEvery: d.PromoteScanEvery,
		SplinterEvery:    d.SplinterEvery,
		CoRunSliceRefs:   d.CoRunSliceRefs,
	}
}

// cloneOS deep-copies the OS half of the machine into dst: RNG position,
// physical memory, fragmentation, manager and every address space, and
// the workload generators. After it returns, dst.proc is the clone's
// main process and dst's manager hooks are still unwired. The receiver
// must hold no pre-generated records (see checkNoPending).
func (m *Machine) cloneOS(dst *Machine) {
	dst.rngSrc = m.rngSrc.Clone()
	dst.rng = rand.New(dst.rngSrc)
	dst.buddy = m.buddy.Clone()
	var comp osmm.Compactor
	if m.hog != nil {
		dst.hog = m.hog.Clone(dst.buddy)
		comp = dst.hog
	}
	dst.mgr = m.mgr.Clone(dst.buddy, dst.rng, comp)
	dst.proc = dst.mgr.Process(mainASID)
	dst.gen = m.gen.Clone()
	if m.coGens != nil {
		dst.coGens = make([]*workload.Generator, len(m.coGens))
		for i, g := range m.coGens {
			dst.coGens[i] = g.Clone()
		}
	}
	dst.schedule = m.schedule // built once from the profile, never mutated
}

// newPT maps a page table of this machine to its counterpart in the
// cloned manager, for rewiring cloned page walkers.
func (m *Machine) newPT(clonedMgr *osmm.Manager, old *pagetable.Table) *pagetable.Table {
	if old == m.proc.PT {
		return clonedMgr.Process(mainASID).PT
	}
	if m.cfg.CoRunner != nil && old == m.mgr.Process(coASID).PT {
		return clonedMgr.Process(coASID).PT
	}
	// Walkers only ever point at a managed process's table; reaching
	// here would mean a table leaked from outside the machine.
	panic("machine: walker table belongs to no managed process")
}

// clone deep-copies the whole machine — OS state, warm
// microarchitectural state, and every attached hook — and rewires every
// cross-component reference to the clone's own parts: the cloned
// recorder replaces the original in every subsystem's metrics mirror,
// and the cloned checker audits the clone's caches and directory.
func (m *Machine) clone() *Machine {
	c := &Machine{
		cfg:               m.cfg,
		nCores:            m.nCores,
		superTLBThreshold: m.superTLBThreshold,
		speculates:        m.speculates,
		globalRef:         m.globalRef,
		curRef:            m.curRef,
		l2Lookups:         m.l2Lookups,
		superRefs:         m.superRefs,
		dropTFT:           m.dropTFT,
		spike:             append([]addr.PAddr(nil), m.spike...),
	}
	m.cloneOS(c)

	c.l1s = make([]core.L1Cache, m.nCores)
	c.seesaws = make([]*core.Seesaw, m.nCores)
	for i, l1 := range m.l1s {
		cl := l1.Clone()
		c.l1s[i] = cl
		if s, ok := cl.(*core.Seesaw); ok {
			c.seesaws[i] = s
		}
	}
	if m.cfg.ICache {
		c.l1is = make([]core.L1Cache, m.nCores)
		c.iseesaws = make([]*core.Seesaw, m.nCores)
		for i, l1i := range m.l1is {
			cl := l1i.Clone()
			c.l1is[i] = cl
			if s, ok := cl.(*core.Seesaw); ok {
				c.iseesaws[i] = s
			}
		}
	}
	for _, h := range m.hiers {
		w := h.Walker()
		c.hiers = append(c.hiers, h.Clone(w.Clone(m.newPT(c.mgr, w.Table))))
	}
	c.wireSuperFills()
	c.cohSys = m.cohSys.Clone(c.cohL1s())
	for _, cm := range m.cpus {
		c.cpus = append(c.cpus, cm.Clone())
	}
	acct := *m.acct
	c.acct = &acct

	if m.Hooks.Injector != nil {
		c.Hooks.Injector = m.Hooks.Injector.Clone()
	}
	if m.Hooks.Metrics != nil {
		c.attachMetrics(m.Hooks.Metrics.Clone())
		copy(c.lastWidth, m.lastWidth)
	}
	if m.Hooks.Checker != nil {
		chk := m.Hooks.Checker.Clone(check.Wiring{
			L1s: c.cohL1s(), Hiers: c.hiers, Seesaws: c.seesaws, ISeesaws: c.iseesaws,
			Coh: c.cohSys, Mgr: c.mgr,
		})
		chk.Metrics = c.Hooks.Metrics
		c.Hooks.Checker = chk
	}
	c.mgr.OnInvlpg = c.onInvlpg
	c.mgr.OnPromote = c.onPromote
	return c
}

// A Snapshot is a frozen deep copy of a machine, typically taken at the
// warmup boundary. Each Resume yields an independent runnable machine,
// so one snapshot can seed any number of measured runs.
type Snapshot struct {
	m *Machine
}

// Snapshot deep-copies the machine's current state, hooks included:
// each resumed copy gets its own metrics recorder, invariant checker,
// and fault injector, all positioned exactly where the original's were,
// so a resumed run continues bit-identically to the uninterrupted one.
// It fails while pre-generated records are pending (see checkNoPending).
func (m *Machine) Snapshot() (*Snapshot, error) {
	if err := m.checkNoPending(); err != nil {
		return nil, err
	}
	return &Snapshot{m: m.clone()}, nil
}

// checkNoPending joins any in-flight lookahead generation and refuses a
// machine whose epoch buffers still hold pre-generated records: the
// generator has already advanced past them, so a copy without them
// would desync its reference stream. Every completed Warmup, WarmupTo
// or Measure leaves both buffers empty (a phase's last epoch starts no
// lookahead), so records are pending only after a canceled run or a
// partial epoch; Step drains them.
func (m *Machine) checkNoPending() error {
	m.settle()
	if !m.batch.cur.empty() || !m.batch.next.empty() {
		return fmt.Errorf("sim: pre-generated records are pending at ref %d; snapshot or fork after a completed Warmup, WarmupTo or Measure",
			m.globalRef)
	}
	return nil
}

// Resume returns an independent machine continuing from the snapshot's
// state. The snapshot itself is not consumed: every call returns a
// fresh copy.
func (s *Snapshot) Resume() *Machine {
	return s.m.clone()
}

// Fork creates a machine for cfg that inherits this machine's warmed OS
// state — RNG position, fragmented physical memory, page tables, mapped
// regions, generator positions — and builds the microarchitecture
// (caches, TLBs, coherence, CPUs, hooks) fresh from cfg. Because warmup
// never touches microarchitectural state, the fork is bit-identical to
// a cold run of cfg that executed the same warmup itself.
//
// The receiver must sit exactly at the warmup boundary (Warmup just
// completed, Measure not started) and cfg's WarmupSignature must equal
// the receiver's; otherwise Fork fails. Unlike Snapshot, Fork accepts
// any hooks in cfg — metrics, checker, and faults all start fresh in
// the measured phase, exactly as they would in a cold run. Like
// Snapshot, it fails while pre-generated records are pending.
func (m *Machine) Fork(cfg Config) (*Machine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if m.globalRef != m.cfg.WarmupRefs {
		return nil, fmt.Errorf("sim: fork is only valid at the warmup boundary (at ref %d, boundary is %d)",
			m.globalRef, m.cfg.WarmupRefs)
	}
	if got, want := cfg.WarmupSignature(), m.cfg.WarmupSignature(); got != want {
		return nil, fmt.Errorf("sim: fork config's warmup signature disagrees with the warmed machine's")
	}
	if err := m.checkNoPending(); err != nil {
		return nil, err
	}
	f := &Machine{
		cfg:       cfg.withDefaults(),
		nCores:    m.nCores,
		globalRef: m.globalRef,
	}
	m.cloneOS(f)
	if err := f.buildUarch(); err != nil {
		return nil, err
	}
	return f, nil
}
