// Package evolve is the design-space search layer: a deterministic,
// seeded evolutionary search over SEESAW's coupled knobs — TFT
// geometry, page-size partition split, speculation policy, and the OS
// promotion/splinter cadences — evaluated through the same warmed,
// laddered, content-addressed stack every figure uses. The paper
// samples a few points of this space; the search walks it, reporting a
// Pareto front over speedup, translation MPKI, dynamic energy, and
// SRAM area rather than a single scalar winner.
//
// Everything is reproducible by construction: one seeded RNG drives
// mutation, crossover, and selection; evaluation order is submission
// order; and the simulator itself is deterministic — so a search run
// twice with the same seed produces byte-identical generation logs and
// fronts, and a search killed mid-generation resumes from its
// checkpoint (see checkpoint.go) to the identical front.
package evolve

import (
	"errors"
	"fmt"

	"seesaw/internal/sim"
	"seesaw/internal/tft"
)

// Genome is one point of the design space: the sim.Config knobs the
// search is allowed to move. Everything else (workload, seed, cache
// size, fragmentation) is fixed by the Scenario, so two genomes differ
// only in design decisions, never in what they are asked to run.
type Genome struct {
	// Design names the registered L1 design the genome builds on. The
	// menu is derived from the design registry (every speculating
	// design, i.e. one with a fast/slow latency split the other genes
	// tune).
	Design string `json:"design,omitempty"`
	// TFTEntries / TFTAssoc size the translation filter table.
	TFTEntries int `json:"tft_entries"`
	TFTAssoc   int `json:"tft_assoc"`
	// Partitions is the SEESAW page-size partition count.
	Partitions int `json:"partitions"`
	// Sched is the speculation policy: "counter" (the paper's
	// quarter-full heuristic), "always-fast", or "always-slow".
	Sched string `json:"sched"`
	// SpecThreshold tunes the counter policy's trigger (0 = the paper's
	// quarter-full rule); forced to 0 under the other policies, where
	// the simulator ignores it, so equivalent genomes share one key.
	SpecThreshold int `json:"spec_threshold"`
	// PromoteEvery / SplinterEvery are the OS cadences in references:
	// how often the promotion scan runs, and how often (0 = never) the
	// OS splinters a superpage.
	PromoteEvery  int `json:"promote_every"`
	SplinterEvery int `json:"splinter_every"`
}

// The menus bound each gene to a short ordered list of sensible values,
// so mutation is a ±1 step along a menu rather than an unbounded jump.
// Some combinations are geometry-impossible (a 24-entry 2-way TFT has
// 12 sets; 8 partitions of a 32KB cache are 4KB sliver arrays the SRAM
// model has no row for) — those stay in the menus deliberately, and the
// mutator prunes them through sim.Config.Validate's typed errors.
var (
	// designMenu is drawn from the registry: every design with a
	// fast/slow latency split (Speculates) is a point the search may
	// move to, so landing a new design in the zoo automatically widens
	// the search space. designUsesTFT mirrors the registry's UsesTFT
	// flag for normalize. (Var initializers, not init(): the genes table
	// below sizes itself off designMenu during var initialization.)
	designMenu = func() []string {
		var names []string
		for _, d := range sim.DesignInfos() {
			if d.Speculates {
				names = append(names, string(d.Name))
			}
		}
		return names
	}()
	designUsesTFT = func() map[string]bool {
		m := map[string]bool{}
		for _, d := range sim.DesignInfos() {
			m[string(d.Name)] = d.UsesTFT
		}
		return m
	}()

	tftEntriesMenu    = []int{8, 12, 16, 20, 24, 32, 48, 64}
	tftAssocMenu      = []int{1, 2, 4}
	partitionsMenu    = []int{2, 4, 8}
	schedMenu         = []string{"counter", "always-fast", "always-slow"}
	specThresholdMenu = []int{0, 1, 2, 4, 8, 16}
	promoteEveryMenu  = []int{10_000, 25_000, 50_000, 100_000, 200_000}
	splinterEveryMenu = []int{0, 50_000, 200_000}
)

// DefaultGenome is the paper's configuration: 16-entry direct-mapped
// TFT, 4-way partitions (2 partitions of the 8-way 32KB L1), the
// quarter-full counter policy, and the simulator's default OS cadences.
// It seeds generation 0 and is the comparison point for "does the
// search beat the paper".
func DefaultGenome() Genome {
	return Genome{
		Design:        "seesaw",
		TFTEntries:    16,
		TFTAssoc:      1,
		Partitions:    2,
		Sched:         "counter",
		SpecThreshold: 0,
		PromoteEvery:  50_000,
		SplinterEvery: 0,
	}
}

// genes maps the genome onto a uniform index space so the operators
// need no per-field code: every gene is "an index into its menu".
type geneSpec struct {
	name string
	n    int
	get  func(Genome) int
	set  func(Genome, int) Genome
}

func intGene(name string, menu []int, get func(Genome) int, set func(*Genome, int)) geneSpec {
	return geneSpec{
		name: name,
		n:    len(menu),
		get:  func(g Genome) int { return indexOf(menu, get(g)) },
		set: func(g Genome, i int) Genome {
			set(&g, menu[i])
			return g
		},
	}
}

var genes = []geneSpec{
	{
		name: "design",
		n:    len(designMenu),
		get:  func(g Genome) int { return indexOfString(designMenu, g.Design) },
		set: func(g Genome, i int) Genome {
			g.Design = designMenu[i]
			return g
		},
	},
	intGene("tft-entries", tftEntriesMenu,
		func(g Genome) int { return g.TFTEntries },
		func(g *Genome, v int) { g.TFTEntries = v }),
	intGene("tft-assoc", tftAssocMenu,
		func(g Genome) int { return g.TFTAssoc },
		func(g *Genome, v int) { g.TFTAssoc = v }),
	intGene("partitions", partitionsMenu,
		func(g Genome) int { return g.Partitions },
		func(g *Genome, v int) { g.Partitions = v }),
	{
		name: "sched",
		n:    len(schedMenu),
		get:  func(g Genome) int { return indexOfString(schedMenu, g.Sched) },
		set: func(g Genome, i int) Genome {
			g.Sched = schedMenu[i]
			return g
		},
	},
	intGene("spec-threshold", specThresholdMenu,
		func(g Genome) int { return g.SpecThreshold },
		func(g *Genome, v int) { g.SpecThreshold = v }),
	intGene("promote-every", promoteEveryMenu,
		func(g Genome) int { return g.PromoteEvery },
		func(g *Genome, v int) { g.PromoteEvery = v }),
	intGene("splinter-every", splinterEveryMenu,
		func(g Genome) int { return g.SplinterEvery },
		func(g *Genome, v int) { g.SplinterEvery = v }),
}

func indexOf(menu []int, v int) int {
	for i, m := range menu {
		if m == v {
			return i
		}
	}
	return -1
}

func indexOfString(menu []string, v string) int {
	for i, m := range menu {
		if m == v {
			return i
		}
	}
	return -1
}

// normalize canonicalizes redundant encodings so behaviourally
// identical genomes share one key (and therefore one evaluation): the
// speculation threshold only exists under the counter policy, and the
// TFT genes only exist on designs that have a TFT (VESPA takes the page
// size from the TLB, so two VESPA genomes differing only in TFT
// geometry run the same machine).
func (g Genome) normalize() Genome {
	if g.Sched != "counter" {
		g.SpecThreshold = 0
	}
	if !designUsesTFT[g.Design] {
		d := DefaultGenome()
		g.TFTEntries, g.TFTAssoc = d.TFTEntries, d.TFTAssoc
	}
	return g
}

// onMenus reports whether every gene value is drawn from its menu —
// the well-formedness a checkpoint or hand-written genome must satisfy
// before the index-space operators can touch it.
func (g Genome) onMenus() error {
	for _, sp := range genes {
		if sp.get(g) < 0 {
			return fmt.Errorf("evolve: genome %s has an off-menu %s", g.Key(), sp.name)
		}
	}
	return nil
}

// Key is the genome's compact identity, used in logs, the ledger, and
// tie-breaking. Distinct genomes have distinct keys. Seesaw genomes
// carry no design prefix, so their keys read as the paper's knobs
// alone; other designs prefix their name.
func (g Genome) Key() string {
	base := fmt.Sprintf("tft%dx%d-part%d-%s-t%d-promo%d-splin%d",
		g.TFTEntries, g.TFTAssoc, g.Partitions, g.Sched,
		g.SpecThreshold, g.PromoteEvery, g.SplinterEvery)
	if g.Design != "seesaw" {
		return g.Design + "-" + base
	}
	return base
}

// Apply overlays the genome's knobs on a scenario base config and
// selects the genome's design.
func (g Genome) Apply(base sim.Config) sim.Config {
	base.CacheKind = sim.CacheKind(g.Design)
	base.TFT = tft.Config{Entries: g.TFTEntries, Assoc: g.TFTAssoc}
	base.Partitions = g.Partitions
	base.SchedulerAlwaysFast = g.Sched == "always-fast"
	base.SchedulerAlwaysSlow = g.Sched == "always-slow"
	base.SpecFastThreshold = g.SpecThreshold
	base.PromoteScanEvery = g.PromoteEvery
	base.SplinterEvery = g.SplinterEvery
	return base
}

// AreaBytes is the genome's SRAM area objective, from the design
// registry's area hook: the side structures beyond the L1 storage array
// (SEESAW's TFT — 43-bit region tags, the paper's 86-byte default; zero
// for VESPA, which has none). The other structures the genome moves
// (partition select, scheduler policy) are control logic, not arrays.
func (g Genome) AreaBytes() float64 {
	return float64(g.Apply(sim.Config{}).DesignAreaBytes())
}

// validate prunes a candidate genome against a scenario: sched must be
// a known policy and the resulting config must pass sim.Config.Validate
// for every scenario workload. The typed *sim.ConfigError rules are
// what make this cheap and observable — the mutator counts them
// instead of crashing a worker on an impossible geometry.
func (g Genome) validate(sc Scenario) error {
	if indexOfString(designMenu, g.Design) < 0 {
		return fmt.Errorf("evolve: design %q is not on the search menu %v", g.Design, designMenu)
	}
	if indexOfString(schedMenu, g.Sched) < 0 {
		return fmt.Errorf("evolve: unknown sched policy %q", g.Sched)
	}
	for _, w := range sc.Workloads {
		base, err := sc.config(w)
		if err != nil {
			return err
		}
		if err := g.Apply(base).Validate(); err != nil {
			return err
		}
	}
	return nil
}

// ruleOf extracts the machine-readable rule from a validation
// rejection, or "" for untyped (constructor-level) errors.
func ruleOf(err error) sim.Rule {
	var cerr *sim.ConfigError
	if errors.As(err, &cerr) {
		return cerr.Rule
	}
	return ""
}
