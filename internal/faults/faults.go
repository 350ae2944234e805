// Package faults implements a seeded, deterministic fault injector that
// perturbs a live simulation on a reproducible schedule. SEESAW's
// correctness rests on cross-layer invalidation agreements (Section
// IV-C): a splintered superpage must leave no stale TFT entry behind, a
// promotion must sweep every old frame's lines out of the L1s, and a
// context switch must flush the non-ASID-tagged TFTs. The injector fires
// exactly those events — mid-run splinters of hot chunks, TLB
// shootdown/invlpg bursts, context switches, promotion storms, and
// memhog-style physical-memory pressure spikes — on a schedule that
// depends only on (Config, sim seed), so any run, and any invariant
// violation it uncovers, reproduces bit-for-bit from its seed.
package faults

import (
	"fmt"
	"math/rand"
	"strings"

	"seesaw/internal/xrand"
)

// Kind enumerates the injectable fault classes.
type Kind int

const (
	// Splinter demotes one currently superpage-backed 2MB chunk to 512
	// base pages mid-run (Section IV-C2's hard case).
	Splinter Kind = iota
	// Shootdown fires an invlpg burst over mapped 2MB regions: every
	// core's TLBs and TFT see the invalidation even though the mapping
	// is unchanged (the IPI-storm pattern of multi-threaded unmaps).
	Shootdown
	// ContextSwitch forces a full context switch: co-runner timeslices
	// when configured, and always the TFT flushes (Section IV-C3).
	ContextSwitch
	// PromoteStorm runs a khugepaged-style promotion pass over several
	// chunks at once, each firing the invlpg + cache-sweep pair.
	PromoteStorm
	// MemhogSpike toggles a burst of scattered 4KB allocations, shaking
	// the buddy allocator so later promotions contend for contiguity.
	MemhogSpike

	numKinds
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case Splinter:
		return "splinter"
	case Shootdown:
		return "shootdown"
	case ContextSwitch:
		return "ctxswitch"
	case PromoteStorm:
		return "promote-storm"
	case MemhogSpike:
		return "memhog"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// schedules maps each preset name to its fault mix, in the order
// Schedules returns them.
var scheduleOrder = []string{"splinter", "shootdown", "ctxswitch", "promote-storm", "memhog", "mix"}

var schedules = map[string][]Kind{
	"splinter":      {Splinter},
	"shootdown":     {Shootdown},
	"ctxswitch":     {ContextSwitch},
	"promote-storm": {PromoteStorm},
	"memhog":        {MemhogSpike},
	"mix":           {Splinter, Shootdown, ContextSwitch, PromoteStorm, MemhogSpike},
}

// Schedules returns the preset schedule names in a fixed order; "mix"
// draws from all fault kinds.
func Schedules() []string {
	out := make([]string, len(scheduleOrder))
	copy(out, scheduleOrder)
	return out
}

// Config selects and seeds a fault schedule.
type Config struct {
	// Schedule is the preset name ("splinter", "shootdown", "ctxswitch",
	// "promote-storm", "memhog", "mix").
	Schedule string
	// Every fires one fault event every N references (default 2000).
	Every int
	// Seed seeds the injector's private RNG; 0 derives it from the
	// simulation seed so the default stays reproducible per sim cell.
	Seed int64
	// DropTFTInvalidate suppresses the TFT side of every invlpg — an
	// intentionally broken invalidation path, modeling the hardware bug
	// SEESAW's Section IV-C2 protocol exists to prevent. Only tests set
	// it, to prove the invariant checker catches the resulting stale
	// TFT state.
	DropTFTInvalidate bool
}

// withDefaults fills zero values.
func (c Config) withDefaults() Config {
	if c.Every == 0 {
		c.Every = 2000
	}
	return c
}

// Validate reports configuration errors a run could not recover from.
func (c Config) Validate() error {
	c = c.withDefaults()
	if _, ok := schedules[c.Schedule]; !ok {
		return fmt.Errorf("faults: unknown schedule %q (have %s)",
			c.Schedule, strings.Join(Schedules(), ", "))
	}
	if c.Every < 0 {
		return fmt.Errorf("faults: negative injection period %d", c.Every)
	}
	return nil
}

// Event is one concrete fault drawn from the schedule.
type Event struct {
	Kind Kind
	// Burst scales repeated kinds: invlpgs per shootdown, chunks per
	// promotion storm, MBs per memhog spike.
	Burst int
	// Pick deterministically selects the target (the simulator reduces
	// it modulo its candidate list, which is sorted by address).
	Pick uint64
}

// Stats counts injected faults per kind.
type Stats struct {
	Injected        uint64
	Splinters       uint64
	Shootdowns      uint64
	ContextSwitches uint64
	PromoteStorms   uint64
	MemhogSpikes    uint64
	// Skipped counts events that found no eligible target (e.g. a
	// splinter with no superpage-backed chunk left).
	Skipped uint64
}

// record counts one emitted event.
func (s *Stats) record(k Kind) {
	s.Injected++
	switch k {
	case Splinter:
		s.Splinters++
	case Shootdown:
		s.Shootdowns++
	case ContextSwitch:
		s.ContextSwitches++
	case PromoteStorm:
		s.PromoteStorms++
	case MemhogSpike:
		s.MemhogSpikes++
	}
}

// Injector produces the deterministic event stream. It owns a private
// RNG, so the faults it draws never perturb the simulation's own random
// streams: a faulted run replays the same workload as its clean twin.
type Injector struct {
	cfg   Config
	kinds []Kind
	rng   *rand.Rand

	Stats Stats
}

// New builds an injector for one simulation. simSeed seeds the private
// RNG when cfg.Seed is zero, offset so the injector's stream never
// coincides with the simulation's own rand.NewSource(simSeed).
func New(cfg Config, simSeed int64) (*Injector, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = simSeed ^ 0x5ee5aa7f
	}
	rng, _ := xrand.New(seed)
	return &Injector{
		cfg:   cfg,
		kinds: schedules[cfg.Schedule],
		rng:   rng,
	}, nil
}

// Config returns the normalized configuration.
func (inj *Injector) Config() Config { return inj.cfg }

// Tick reports the fault to apply after reference i, if the schedule
// fires there. The event depends only on the injector's seed and the
// sequence of firing references, never on simulation state.
func (inj *Injector) Tick(i int) (Event, bool) {
	if inj.cfg.Every <= 0 || i == 0 || i%inj.cfg.Every != 0 {
		return Event{}, false
	}
	e := Event{
		Kind:  inj.kinds[inj.rng.Intn(len(inj.kinds))],
		Burst: 1 + inj.rng.Intn(3),
		Pick:  inj.rng.Uint64(),
	}
	inj.Stats.record(e.Kind)
	return e, true
}

// Skip records an event whose target class was empty; the simulator
// calls it so "nothing happened" is observable in reports.
func (inj *Injector) Skip() { inj.Stats.Skipped++ }
