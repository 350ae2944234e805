// Package experiments regenerates every table and figure of the paper's
// evaluation as printable row/series tables. Each experiment is a plan
// and a render. The plan submits the experiment's simulation cells to a
// runner.Pool without waiting for any of them; the render builds a
// stats.Table whose rows mirror what the paper plots from the cells'
// reports, which one driver (Planned.Render) awaits in submission order
// and hands it in that order. The cmd/seesaw-figures tool and the
// repository's benchmark harness both drive this package;
// EXPERIMENTS.md records paper-vs-measured values.
//
// Run plans one experiment and renders it. seesaw-figures plans every
// requested experiment on one pool before rendering any, so all of
// their cells are queued before the first is awaited, and cells of
// different experiments that share a front end can share its pass. A
// cell's report depends on its config alone and renders read reports in
// submission order, so the printed tables are byte-identical for a
// given seed however the pool scheduled the cells.
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
	// Pool runs the experiment's cells. Sharing one pool across
	// experiments (as cmd/seesaw-figures does) also shares its result
	// cache, so every figure comparing against the same baseline cell
	// reuses one run. When nil, each plan gets a fresh runner.New(0)
	// pool.
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
		o.Pool = runner.New(0)
	}
	return o
}

// profilesFor resolves workload names.
func profilesFor(names []string) ([]workload.Profile, error) {
	ps := make([]workload.Profile, 0, len(names))
	for _, n := range names {
		p, err := workload.ByName(n)
		if err != nil {
			return nil, err
		}
		ps = append(ps, p)
	}
	return ps, nil
}

// subset resolves the workloads of a study that runs on a paper subset:
// def when the options name every workload, the options' own list
// otherwise.
func subset(o Options, def []string) ([]workload.Profile, error) {
	if len(o.Workloads) == len(workload.Names()) {
		return profilesFor(def)
	}
	return profilesFor(o.Workloads)
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

// cells collects the simulation cells a plan submits, in submission
// order.
type cells struct {
	pool *runner.Pool
	fs   []*runner.Future
}

// submit queues one cell.
func (c *cells) submit(cfg sim.Config) { c.fs = append(c.fs, c.pool.Submit(cfg)) }

// pair queues the baseline-VIPT and SEESAW variants of cfg, in that
// order: the comparison every figure makes. Baseline cells dedupe
// across every figure that compares against them.
func (c *cells) pair(cfg sim.Config) {
	cfg.CacheKind = sim.KindBaseline
	c.submit(cfg)
	cfg.CacheKind = sim.KindSeesaw
	c.submit(cfg)
}

// wait awaits every cell in submission order and returns their reports,
// or the first error in that order.
func (c *cells) wait() (reports, error) {
	reps := make(reports, len(c.fs))
	for i, f := range c.fs {
		r, err := f.Wait()
		if err != nil {
			return nil, err
		}
		reps[i] = r
	}
	return reps, nil
}

// reports hands a render its experiment's reports in the order its plan
// submitted the cells.
type reports []*sim.Report

// next returns the next report.
func (r *reports) next() *sim.Report {
	rep := (*r)[0]
	*r = (*r)[1:]
	return rep
}

// pair returns the next two reports: the baseline and SEESAW cells a
// plan's pair submitted.
func (r *reports) pair() (base, see *sim.Report) { return r.next(), r.next() }

// runtimeImprovement returns the percent runtime improvement of see over
// base (positive = SEESAW faster).
func runtimeImprovement(base, see *sim.Report) float64 {
	return stats.PctImprovement(float64(base.Cycles), float64(see.Cycles))
}

// energyImprovement returns the percent memory-hierarchy energy saving.
func energyImprovement(base, see *sim.Report) float64 {
	return stats.PctImprovement(base.EnergyTotalNJ, see.EnergyTotalNJ)
}

// A plan submits one experiment's cells to o.Pool (defaults applied)
// through c without waiting for any, and returns the experiment's
// render. It fails only on options it cannot plan, such as an unknown
// workload.
type plan func(o Options, c *cells) (render, error)

// A render builds an experiment's table from its cells' reports, which
// it takes from r in submission order. It fails only on work of its
// own: the pool tasks Fig 2a and Fig 3 await, evolve-best's search, or
// a table computed without cells.
type render func(r *reports) (*stats.Table, error)

// static is the plan of a table computed without simulation cells.
func static(table func() (*stats.Table, error)) plan {
	return func(Options, *cells) (render, error) {
		return func(*reports) (*stats.Table, error) { return table() }, nil
	}
}

// registry maps experiment ids to plans.
var registry = map[string]plan{
	"fig2a":  fig2a,
	"fig2b":  static(Fig2b),
	"fig2c":  static(Fig2c),
	"fig3":   fig3,
	"table1": static(TableI),
	"table2": static(TableII),
	"table3": static(TableIII),
	"fig7":   fig7,
	"fig8":   fig8,
	"fig9":   fig9,
	"fig10":  fig10,
	"fig11":  fig11,
	"fig12":  fig12,
	"fig13":  fig13,
	"fig14":  fig14,
	"fig15":  fig15,

	"energy-breakdown":     energyBreakdown,
	"vespa-vs-seesaw":      vespaVsSeesaw,
	"evolve-best":          evolveBest,
	"ext-icache":           extICache,
	"ablation-1g":          ablation1GPages,
	"ablation-partition":   ablationPartitionCount,
	"ablation-prefetch":    ablationPrefetch,
	"ablation-replacement": ablationReplacement,
	"ablation-insertion":   ablationInsertionPolicy,
	"ablation-scheduler":   ablationSchedulerPolicy,
	"ablation-tft-assoc":   ablationTFTAssociativity,
	"ablation-snoopy":      ablationSnoopy,
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

// Planned is one planned experiment: its cells are on the pool, and
// Render builds its table once they have run.
type Planned struct {
	id     string
	cells  cells
	render render
}

// Plan submits experiment id's cells to o.Pool (a fresh pool when nil)
// and returns without waiting for any of them. Planning several
// experiments on one pool before rendering any queues all of their
// cells before the first is awaited.
func Plan(id string, o Options) (*Planned, error) {
	pl, ok := registry[id]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown experiment %q (have %v)", id, IDs())
	}
	o = o.withDefaults()
	e := &Planned{id: id, cells: cells{pool: o.Pool}}
	r, err := pl(o, &e.cells)
	if err != nil {
		return nil, err
	}
	e.render = r
	return e, nil
}

// Render awaits the experiment's cells in submission order and builds
// its table from their reports. The first failed cell, in submission
// order, fails the experiment.
func (e *Planned) Render() (*stats.Table, error) {
	reps, err := e.cells.wait()
	if err != nil {
		return nil, err
	}
	t, err := e.render(&reps)
	if err == nil && len(reps) != 0 {
		return nil, fmt.Errorf("experiments: %s rendered %d of its %d cells", e.id, len(e.cells.fs)-len(reps), len(e.cells.fs))
	}
	return t, err
}

// Run plans one experiment by id and renders it.
func Run(id string, o Options) (*stats.Table, error) {
	e, err := Plan(id, o)
	if err != nil {
		return nil, err
	}
	return e.Render()
}
