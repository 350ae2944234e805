package machine

import (
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

// timingKey is the canonical key of a config with defaults applied and
// the timing-only fields cleared: configs with equal timing keys run the
// same functional simulation, so one back end serves them all, one
// timing member each.
func timingKey(d Config) (string, bool) {
	d.FreqGHz, d.SerialTLBCycles, d.SpecFastThreshold = 0, 0, 0
	d.SchedulerAlwaysFast, d.SchedulerAlwaysSlow = false, false
	return d.CanonicalKey()
}

// memberFor builds the timing member of config c, which Validate
// accepts, for a machine of nCores cores; c's caches are built at c's
// clock only to read their cycle tables.
func memberFor(c Config, nCores int) (member, error) {
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
	return newMember(c, nCores, dl1, il1, superTLBEntries(c))
}
