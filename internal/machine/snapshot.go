package machine

import (
	"fmt"
	"sync"
)

// WarmupSignature identifies everything that shapes the warmup phase: a
// machine's state at the warmup boundary is a pure function of its
// signature. Two configs with equal signatures pass through identical
// warmup states, so a sweep may warm one machine, snapshot it, and Fork
// every cell whose config agrees — measured-phase parameters (cache
// kind, geometry, policies, Refs, hooks, context-switch cadence, fault
// schedules) are deliberately absent. The struct is comparable and
// usable as a map key.
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
	d := c.WithDefaults()
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

// A Snapshot is a frozen copy of a machine's OS half, taken at or
// before the warmup boundary: the config, the reference cursor, the RNG
// position, physical memory and its fragmentation, the memory manager
// with every page table, and the workload generators. Warmup never
// touches caches, TLBs, TFTs, coherence, CPU models or hooks, so that
// is the whole of a warm machine. Each Resume yields an independent
// runnable machine, so one snapshot can seed any number of runs.
type Snapshot struct {
	// m holds the OS half. The snapshot never runs it: machines that
	// continue from the snapshot copy it.
	m *Machine
	// mu serializes the copies machines continuing from the snapshot
	// take of its OS half.
	mu sync.Mutex
}

// cloneOS returns a copy of the snapshot's OS half for cfg.
func (s *Snapshot) cloneOS(cfg Config) *frontEnd {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.m.fe.clone(cfg)
}

// continueAs returns an unconstructed machine for cfg (defaults
// applied) at the snapshot's reference, whose OS half is copied from the
// snapshot when a phase first needs it. It is the one constructor
// behind Snapshot.Fork and Snapshot.Resume.
func (s *Snapshot) continueAs(cfg Config) *Machine {
	m := newMachine(cfg)
	m.base, m.globalRef = s, s.m.globalRef
	return m
}

// Snapshot copies the machine's OS half. It fails past the warmup
// boundary, where the measured phase has started mutating state a
// snapshot does not carry; a refused snapshot leaves the machine
// runnable.
func (m *Machine) Snapshot() (*Snapshot, error) {
	if m.globalRef > m.cfg.WarmupRefs {
		return nil, fmt.Errorf("sim: snapshot is only valid up to the warmup boundary (at ref %d, boundary is %d)",
			m.globalRef, m.cfg.WarmupRefs)
	}
	if err := m.ensureOS(); err != nil {
		return nil, err
	}
	c := newMachine(m.cfg)
	c.fe, c.globalRef = m.fe.clone(m.cfg), m.globalRef
	return &Snapshot{m: c}, nil
}

// Resume returns an independent machine continuing from the snapshot,
// exactly as Fork continues one: it copies the snapshot's OS half when
// a phase first needs it, and builds the rest of the machine fresh from
// the snapshot's config. The snapshot itself is not consumed: every
// call returns a fresh machine.
func (s *Snapshot) Resume() *Machine {
	return s.continueAs(s.m.cfg)
}

// Fork creates a machine for cfg that inherits the snapshot's warmed OS
// state — RNG position, fragmented physical memory, page tables, mapped
// regions, generator positions — and builds the microarchitecture
// (caches, TLBs, coherence, CPUs, hooks) fresh from cfg. Because warmup
// never touches microarchitectural state, the fork is bit-identical to
// a cold run of cfg that executed the same warmup itself. Like Build,
// Fork constructs nothing: the OS half is copied when a phase first
// needs it, which a cell a Group's pass answers never does.
//
// The snapshot must sit exactly at the warmup boundary and cfg's
// WarmupSignature must equal the snapshot's; otherwise Fork fails. Fork
// accepts any hooks in cfg — metrics, checker, and faults all start
// fresh in the measured phase, exactly as they would in a cold run. Like
// Resume, it leaves the snapshot untouched, so one snapshot seeds any
// number of forks.
func (s *Snapshot) Fork(cfg Config) (*Machine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if s.m.globalRef != s.m.cfg.WarmupRefs {
		return nil, fmt.Errorf("sim: fork is only valid at the warmup boundary (at ref %d, boundary is %d)",
			s.m.globalRef, s.m.cfg.WarmupRefs)
	}
	if cfg.WarmupSignature() != s.Signature() {
		return nil, fmt.Errorf("sim: fork config's warmup signature disagrees with the snapshot's")
	}
	return s.continueAs(cfg.WithDefaults()), nil
}
