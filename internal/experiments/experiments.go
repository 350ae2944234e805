// Package experiments regenerates every table and figure of the paper's
// evaluation as printable row/series tables. Each function is
// self-contained: it builds the systems it needs through internal/sim and
// returns a stats.Table whose rows mirror what the paper plots. The
// cmd/seesaw-figures tool and the repository's benchmark harness both
// drive this package; EXPERIMENTS.md records paper-vs-measured values.
//
// Generators fan their independent simulation cells out onto a
// runner.Pool (Options.Pool / Options.Parallel) and reduce the futures
// in submission order, so the printed tables are byte-identical for a
// given seed whether the cells ran serially or concurrently.
package experiments

import (
	"fmt"
	"sort"

	"seesaw/internal/runner"
	"seesaw/internal/sim"
	"seesaw/internal/stats"
	"seesaw/internal/workload"
)

// Options scales the experiments.
type Options struct {
	// Refs per simulation (default 100k).
	Refs int
	// RefsSet marks Refs as explicitly chosen, so Refs == 0 means zero
	// references instead of the default.
	RefsSet bool
	// Seed for deterministic workloads and fragmentation (default 42).
	Seed int64
	// SeedSet marks Seed as explicitly chosen, so the perfectly valid
	// seed 0 is usable instead of being replaced by the default.
	SeedSet bool
	// Workloads restricts the workload set (default: all sixteen).
	Workloads []string
	// WarmupRefs prepends an OS-only warmup phase of this many references
	// to every cell (0 = none); see machine.Config.WarmupRefs. On a
	// runner.New pool (the default), cells that agree on their warmup
	// signature fork from one warmed machine, so the warmup is paid once
	// per workload, not per cell.
	WarmupRefs int
	// Parallel bounds concurrent simulation cells when Pool is nil:
	// 0 selects runtime.GOMAXPROCS(0), 1 restores serial execution.
	Parallel int
	// Pool runs the experiment's cells. Sharing one pool across
	// experiments (as cmd/seesaw-figures does) also shares its result
	// cache, so every figure comparing against the same baseline cell
	// reuses one run. When nil, a fresh pool with Parallel workers is
	// created per experiment.
	Pool *runner.Pool
}

func (o Options) withDefaults() Options {
	if o.Refs == 0 && !o.RefsSet {
		o.Refs = 100_000
	}
	if o.Seed == 0 && !o.SeedSet {
		o.Seed = 42
	}
	if len(o.Workloads) == 0 {
		o.Workloads = workload.Names()
	}
	if o.Pool == nil {
		o.Pool = runner.New(o.Parallel)
	}
	return o
}

// profilesFor resolves the option's workload names.
func profilesFor(o Options) ([]workload.Profile, error) {
	ps := make([]workload.Profile, 0, len(o.Workloads))
	for _, n := range o.Workloads {
		p, err := workload.ByName(n)
		if err != nil {
			return nil, err
		}
		ps = append(ps, p)
	}
	return ps, nil
}

// baseConfig is the shared simulation skeleton.
func baseConfig(o Options, p workload.Profile, kind sim.CacheKind, size uint64, freq float64, cpuKind string) sim.Config {
	refs := o.Refs
	if refs == 0 {
		refs = -1 // an explicit zero survives sim's own defaulting
	}
	return sim.Config{
		Workload:   p,
		Seed:       o.Seed,
		Refs:       refs,
		WarmupRefs: o.WarmupRefs,
		CacheKind:  kind,
		L1Size:     size,
		FreqGHz:    freq,
		CPUKind:    cpuKind,
		MemBytes:   512 << 20,
	}
}

// pair is a submitted baseline+SEESAW comparison awaiting reduction.
// Generators submit every cell first, then reduce pairs in submission
// order, so rows come out byte-identical to a serial run while the
// pool's workers execute cells concurrently.
type pair struct {
	base, see *runner.Future
}

// submitPair schedules baseline VIPT and SEESAW on identical inputs.
func submitPair(o Options, cfg sim.Config) pair {
	b, s := o.Pool.Pair(cfg)
	return pair{base: b, see: s}
}

// wait blocks for both sides of the comparison.
func (pr pair) wait() (base, see *sim.Report, err error) {
	if base, err = pr.base.Wait(); err != nil {
		return nil, nil, err
	}
	if see, err = pr.see.Wait(); err != nil {
		return nil, nil, err
	}
	return base, see, nil
}

// runtimeImprovement returns the percent runtime improvement of see over
// base (positive = SEESAW faster).
func runtimeImprovement(base, see *sim.Report) float64 {
	return stats.PctImprovement(float64(base.Cycles), float64(see.Cycles))
}

// energyImprovement returns the percent memory-hierarchy energy saving.
func energyImprovement(base, see *sim.Report) float64 {
	return stats.PctImprovement(base.EnergyTotalNJ, see.EnergyTotalNJ)
}

// Generator produces one experiment table.
type Generator func(Options) (*stats.Table, error)

// registry maps experiment ids to generators.
var registry = map[string]Generator{
	"fig2a":  Fig2a,
	"fig2b":  noOpt(Fig2b),
	"fig2c":  noOpt(Fig2c),
	"fig3":   Fig3,
	"table1": noOpt(TableI),
	"table2": noOpt(TableII),
	"table3": noOpt(TableIII),
	"fig7":   Fig7,
	"fig8":   Fig8,
	"fig9":   Fig9,
	"fig10":  Fig10,
	"fig11":  Fig11,
	"fig12":  Fig12,
	"fig13":  Fig13,
	"fig14":  Fig14,
	"fig15":  Fig15,

	"energy-breakdown":     EnergyBreakdown,
	"vespa-vs-seesaw":      VespaVsSeesaw,
	"evolve-best":          EvolveBest,
	"ext-icache":           ExtICache,
	"ablation-1g":          Ablation1GPages,
	"ablation-partition":   AblationPartitionCount,
	"ablation-prefetch":    AblationPrefetch,
	"ablation-replacement": AblationReplacement,
	"ablation-insertion":   AblationInsertionPolicy,
	"ablation-scheduler":   AblationSchedulerPolicy,
	"ablation-tft-assoc":   AblationTFTAssociativity,
	"ablation-snoopy":      AblationSnoopy,
}

func noOpt(f func() (*stats.Table, error)) Generator {
	return func(Options) (*stats.Table, error) { return f() }
}

// IDs returns the registered experiment ids, sorted.
func IDs() []string {
	ids := make([]string, 0, len(registry))
	for id := range registry {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// Run executes one experiment by id.
func Run(id string, o Options) (*stats.Table, error) {
	g, ok := registry[id]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown experiment %q (have %v)", id, IDs())
	}
	return g(o)
}
