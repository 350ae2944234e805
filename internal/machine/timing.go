package machine

import (
	"context"
	"slices"
	"sync"

	"seesaw/internal/coherence"
	"seesaw/internal/core"
	"seesaw/internal/cpu"
)

// The measured phase splits into a functional model and timing members.
// The functional model is everything a reference changes or counts: the
// front end's translation and OS events, and the back end's L1 lookup
// and fill, TFT, coherence and LLC, hooks and dynamic energy. None of it
// reads a timing-only
// field: FreqGHz only converts nanoseconds to cycles, SerialTLBCycles
// only adds cycles to a PIPT lookup, and the scheduler fields only
// decide what latency the CPU model assumes. So the functional model
// runs each reference once and retires its outcome classes (lookup
// class, miss source, upgrade, fixed TLB cycles, speculation inputs)
// into every member, and each member prices them at its own clock in
// its own CPU models. A machine measuring alone has one member, built
// from its own config.

// member is one cell's timing configuration of the measured phase.
type member struct {
	cfg  Config // defaults applied
	cpus []cpu.Model
	// data and inst price each L1 lookup class (lookupClass) at
	// cfg.FreqGHz; dataSlow is the data cache's slow hit latency, which
	// the scheduler's speculation compares against.
	data, inst [4]int
	dataSlow   int
	mem        coherence.Latencies
	// threshold is the 2MB L1 TLB occupancy at which the counter
	// heuristic speculates fast.
	threshold int
}

// lookupClass indexes a member's cycle table by an L1 lookup's outcome
// class: partition-only or whole-set, probed once or twice.
func lookupClass(ar core.AccessResult) int {
	c := 0
	if ar.FastPath {
		c = 2
	}
	if ar.Reprobe {
		c++
	}
	return c
}

// cycleTable prices every lookup class of l1.
func cycleTable(l1 core.L1Cache) (t [4]int) {
	for c := range t {
		t[c] = l1.LookupCycles(c >= 2, c%2 == 1)
	}
	return t
}

// newMember builds cfg's timing member for a machine of nCores cores:
// CPU models, and cycle tables read from dl1 and il1 (il1 is nil
// without the I-cache), caches of cfg's design built at cfg's clock.
// superEntries is the size of the 2MB L1 TLB, which sets the default
// speculation threshold.
func newMember(cfg Config, nCores int, dl1, il1 core.L1Cache, superEntries int) (member, error) {
	mb := member{
		cfg:      cfg,
		cpus:     make([]cpu.Model, nCores),
		data:     cycleTable(dl1),
		dataSlow: dl1.SlowCycles(),
		mem:      coherence.DefaultConfig(cfg.FreqGHz).Latencies(),
	}
	if il1 != nil {
		mb.inst = cycleTable(il1)
	}
	for i := range mb.cpus {
		cm, err := cpu.New(cfg.CPUKind)
		if err != nil {
			return member{}, err
		}
		mb.cpus[i] = cm
	}
	mb.threshold = superEntries / 4
	if cfg.SpecFastThreshold > 0 {
		mb.threshold = cfg.SpecFastThreshold
	}
	return mb, nil
}

// access is one data reference's functional outcome, the part of it a
// member prices.
type access struct {
	gap             int
	hit, store, dep bool
	class           int // lookupClass of the L1 lookup
	// tlbExtra is the L2 TLB and walk latency, in clock-independent
	// cycles.
	tlbExtra int
	// miss is the coherence outcome of a miss (unused on a hit);
	// upgrade marks a store hit that needed coherence permission.
	miss    coherence.MissResult
	upgrade bool
	// Speculation inputs, read only on speculating designs: the 2MB L1
	// TLB's occupancy (-1 without one) and whether any 1GB translation
	// is resident.
	superValid int
	giga       bool
}

// assumeFast is the member's scheduler policy: forced fast or slow, or
// the paper's counter heuristic. Speculation needs superpages to be
// plentiful: a quarter-full 2MB TLB, or any resident 1GB entry, which
// covers 512 superpage regions on its own.
func (mb *member) assumeFast(a *access) bool {
	switch {
	case mb.cfg.SchedulerAlwaysFast:
		return true
	case mb.cfg.SchedulerAlwaysSlow:
		return false
	}
	return a.giga || a.superValid >= mb.threshold
}

// retire prices one data reference on core tid and retires it.
func (mb *member) retire(tid int, a *access, speculates bool) {
	extra := a.tlbExtra
	if !a.hit {
		extra += mb.mem.Miss(a.miss)
	} else if a.upgrade {
		extra += mb.mem.LLC
	}
	mb.cpus[tid].Retire(a.gap, cpu.MemCost{
		Hit:          a.hit,
		IsStore:      a.store,
		Dep:          a.dep,
		L1Cycles:     mb.data[a.class],
		SlowL1Cycles: mb.dataSlow,
		AssumedFast:  speculates && mb.assumeFast(a),
		ExtraCycles:  extra,
	})
}

// fetchStall prices one instruction fetch's front-end stall on core tid:
// a miss stalls for the lookup, translation and miss service (half of
// it on the OoO core, whose fetch buffer hides the rest); a hit stalls
// only after a taken branch, for the lookup and translation.
func (mb *member) fetchStall(tid, class, tlbExtra int, hit bool, miss coherence.MissResult, jumped bool) {
	stall := mb.inst[class] + tlbExtra
	switch {
	case !hit:
		stall += mb.mem.Miss(miss)
		if mb.cfg.CPUKind == "ooo" {
			stall = (stall + 1) / 2
		}
	case !jumped:
		return
	}
	mb.cpus[tid].Stall(stall)
}

// A TimingGroup is a set of cells whose configs differ only in the
// timing-only fields: FreqGHz, SerialTLBCycles, SchedulerAlwaysFast,
// SchedulerAlwaysSlow and SpecFastThreshold. They run the same
// functional simulation, so the first member to start its measured
// phase at its warmup boundary runs it once for all of them, with one
// timing member per cell, and leaves every other member its finished
// report, assembled at that member's own clock. The paper's method is
// the same: one trace replayed into every timing configuration.
//
// A group reaches a machine on the context passed to Measure (see
// WithTimingGroup), like a Stream. A member whose report is waiting
// takes it and measures nothing; one whose report never arrives (the
// first member failed, timed out or was canceled) measures live. A
// member whose config differs from the first's outside the timing-only
// fields fails with a *TimingMismatchError. A group is safe for
// concurrent use.
type TimingGroup struct {
	mu sync.Mutex
	// cfgs are the members' configs with defaults applied, and keys
	// their canonical keys.
	cfgs    []Config
	keys    []string
	claimed bool
	// done holds each other member's outcome once the pass finished,
	// by canonical key, until the member takes it.
	done     map[string]groupResult
	passes   int
	answered int
}

// groupResult is one member's outcome of a shared pass.
type groupResult struct {
	rep *Report
	err error
}

// NewTimingGroup returns a group over the given cells; the first of
// them to reach its measured phase runs it for all.
func NewTimingGroup(cfgs ...Config) *TimingGroup {
	g := &TimingGroup{done: make(map[string]groupResult)}
	for _, c := range cfgs {
		d := c.WithDefaults()
		k, _ := d.CanonicalKey()
		g.cfgs, g.keys = append(g.cfgs, d), append(g.keys, k)
	}
	return g
}

// timingCtxKey keys a TimingGroup in a context.
type timingCtxKey struct{}

// WithTimingGroup returns ctx carrying g: a machine whose Measure
// starts at its warmup boundary under that context joins g.
func WithTimingGroup(ctx context.Context, g *TimingGroup) context.Context {
	return context.WithValue(ctx, timingCtxKey{}, g)
}

// Counts reports how many shared passes the group ran (0 or 1) and how
// many members took a report from one instead of measuring.
func (g *TimingGroup) Counts() (passes, answered int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.passes, g.answered
}

// TimingKey identifies a config's functional simulation: its canonical
// key with defaults applied and the timing-only fields cleared. Configs
// with equal timing keys may share a TimingGroup. ok is false for a
// trace replay, which has no canonical key.
func (c Config) TimingKey() (key string, ok bool) {
	return timingKey(c.WithDefaults())
}

// timingKey is TimingKey of a config with defaults already applied
// (WithDefaults is not idempotent for an explicit zero Refs).
func timingKey(d Config) (string, bool) {
	d.FreqGHz, d.SerialTLBCycles, d.SpecFastThreshold = 0, 0, 0
	d.SchedulerAlwaysFast, d.SchedulerAlwaysSlow = false, false
	return d.CanonicalKey()
}

// TimingMismatchError is the failure of a group member whose config
// differs from the member that ran the pass outside the timing-only
// fields.
type TimingMismatchError struct {
	// Member and Leader are the two configs' canonical keys.
	Member, Leader string
}

// Error implements error.
func (e *TimingMismatchError) Error() string {
	return "sim: timing group member differs from the pass's config outside the timing-only fields: member " +
		e.Member + ", pass " + e.Leader
}

// take returns the outcome the pass left for the member with canonical
// key k, if any.
func (g *TimingGroup) take(k string) (groupResult, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	r, ok := g.done[k]
	if ok {
		delete(g.done, k)
		if r.err == nil {
			g.answered++
		}
	}
	return r, ok
}

// claim makes the machine with config d (defaults applied, canonical
// key k) the group's pass if nobody has claimed it and d is a member.
// It returns the other members' configs, one per distinct key, and
// records a mismatch error for each whose functional config differs
// from d's.
func (g *TimingGroup) claim(d Config, k string) (others []Config, ok bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.claimed || !slices.Contains(g.keys, k) {
		return nil, false
	}
	g.claimed = true
	tk, _ := timingKey(d)
	seen := map[string]bool{k: true}
	for i, c := range g.cfgs {
		ck := g.keys[i]
		if seen[ck] {
			continue
		}
		seen[ck] = true
		if ctk, _ := timingKey(c); ctk != tk {
			g.done[ck] = groupResult{err: &TimingMismatchError{Member: ck, Leader: k}}
			continue
		}
		others = append(others, c)
	}
	return others, true
}

// deliver stores the pass's finished reports, one per other member.
func (g *TimingGroup) deliver(reps map[string]*Report) {
	g.mu.Lock()
	defer g.mu.Unlock()
	for k, r := range reps {
		g.done[k] = groupResult{rep: r}
	}
	g.passes++
}

// joinGroup joins the timing group ctx carries, if any, at the warmup
// boundary. A member whose report is waiting takes it (handed); the
// first member to arrive claims the pass, readies its back end and
// gains one timing member per other cell (lead). Anyone else measures
// alone. A member that takes its report constructs nothing.
func (m *Machine) joinGroup(ctx context.Context) (lead *TimingGroup, handed bool, err error) {
	g, _ := ctx.Value(timingCtxKey{}).(*TimingGroup)
	if g == nil || m.cfg.Trace != nil || m.globalRef != m.cfg.WarmupRefs || m.handed != nil {
		return nil, false, nil
	}
	k, _ := m.cfg.CanonicalKey()
	if r, ok := g.take(k); ok {
		if r.err != nil {
			return nil, false, r.err
		}
		m.handed = r.rep
		m.globalRef = m.cfg.WarmupRefs + m.cfg.Refs
		return nil, true, nil
	}
	others, ok := g.claim(m.cfg, k)
	if !ok {
		return nil, false, nil
	}
	if err := m.ensureBack(); err != nil {
		return nil, false, err
	}
	for _, c := range others {
		mb, err := m.memberFor(c)
		if err != nil {
			// c's own Build rejects it the same way, so it never
			// measures; the pass goes on without it.
			continue
		}
		m.be.members = append(m.be.members, mb)
	}
	if len(m.be.members) == 1 {
		return nil, false, nil
	}
	return g, false, nil
}

// memberFor builds the timing member of another cell's config c, whose
// caches are built at c's clock only to read their cycle tables.
func (m *Machine) memberFor(c Config) (member, error) {
	if err := c.Validate(); err != nil {
		return member{}, err
	}
	dsg, _ := c.CacheKind.design()
	dl1, err := dsg.New(c.l1cfg())
	if err != nil {
		return member{}, err
	}
	var il1 core.L1Cache
	if c.ICache {
		if il1, err = dsg.New(c.il1cfg()); err != nil {
			return member{}, err
		}
	}
	return newMember(c, m.nCores, dl1, il1, superTLBEntries(c))
}

// handOver assembles every other member's report at the end of a
// shared pass, delivers them to g and drops the members.
func (m *Machine) handOver(g *TimingGroup) {
	mbs := m.be.members
	reps := make(map[string]*Report, len(mbs)-1)
	for i := 1; i < len(mbs); i++ {
		k, _ := mbs[i].cfg.CanonicalKey()
		reps[k] = m.report(&mbs[i])
	}
	g.deliver(reps)
	clear(mbs[1:])
	m.be.members = mbs[:1]
}
