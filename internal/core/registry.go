package core

import (
	"fmt"
	"sort"
)

// Design describes one registered L1 cache design: how to build it, how
// to validate its geometry knobs, and the metadata the harnesses
// (machine build, chaos sweep, evolve menus, service wire spec) need to
// enumerate the zoo without hardcoding names. Snapshots carry only OS
// state (warmup never touches an L1), so a design needs no codec.
//
// A design is added in one place: embed the skeleton and write the
// constructor constraints, Name and Access decision (that implements
// L1Cache), fill in a Design, and Register it. Everything downstream —
// seesaw-sim -cache, the sweep matrix, the served spec, the conformance
// battery — picks it up from the registry.
type Design struct {
	// Name is the registry key and the wire spelling: the value of
	// machine.Config.CacheKind, the service spec's "cache" field, and
	// the -cache/-caches flag argument.
	Name string
	// Display is the human-facing table label ("VIPT (baseline)").
	Display string

	// New builds one core's worth of the design.
	New func(Config) (L1Cache, error)
	// Validate applies the design's single-knob geometry rules to a
	// defaults-applied config, returning a typed rejection the evolve
	// mutators can switch on; nil when the design has none beyond what
	// New itself enforces.
	Validate func(Config) *ConfigError

	// UsesTFT marks designs embedding a superpage filter table; the
	// machine wires TLB-fill/invlpg/context-switch hooks and TFT energy
	// accounting only for these.
	UsesTFT bool
	// Speculates marks designs with a fast/slow latency split the
	// scheduler may speculate on (the paper's counter heuristic).
	Speculates bool

	// AreaBytes is the design's extra SRAM beyond the storage array
	// (e.g. SEESAW's TFT), for the evolve area objective; nil = none.
	AreaBytes func(Config) uint64

	// ChaosSerialTLB / ChaosSmallTLB / ChaosL1Ways are the knob
	// overrides the chaos sweep applies to this design's cells (0/false
	// = none): e.g. the serial PIPT point is only meaningful with the
	// reduced TLB and 4 ways.
	ChaosSerialTLB int
	ChaosSmallTLB  bool
	ChaosL1Ways    int
}

var (
	designOrder []*Design
	designNames = map[string]*Design{}
)

// Register adds a design to the zoo. It panics on a duplicate or empty
// name — registration is an init-time, programmer-error-only affair.
func Register(d Design) {
	if d.Name == "" {
		panic("core: Register: empty design name")
	}
	if _, dup := designNames[d.Name]; dup {
		panic(fmt.Sprintf("core: Register: duplicate design %q", d.Name))
	}
	if d.New == nil {
		panic(fmt.Sprintf("core: Register: design %q has no builder", d.Name))
	}
	cp := d
	designOrder = append(designOrder, &cp)
	designNames[d.Name] = &cp
}

// LookupDesign resolves a design by its registry name.
func LookupDesign(name string) (*Design, bool) {
	d, ok := designNames[name]
	return d, ok
}

// DesignNames returns every registered name in registration order —
// the canonical enumeration order for menus, sweeps, and usage strings.
func DesignNames() []string {
	names := make([]string, len(designOrder))
	for i, d := range designOrder {
		names[i] = d.Name
	}
	return names
}

// Designs returns the registered descriptors in registration order.
// The slice is a copy; the pointed-to descriptors are shared and must
// not be mutated.
func Designs() []*Design {
	return append([]*Design(nil), designOrder...)
}

// SortedDesignNames returns the registered names sorted, for stable
// error messages.
func SortedDesignNames() []string {
	names := DesignNames()
	sort.Strings(names)
	return names
}
