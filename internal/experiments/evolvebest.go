package experiments

import (
	"context"
	"fmt"

	"seesaw/internal/evolve"
	"seesaw/internal/sim"
	"seesaw/internal/stats"
)

// evolveBestFrags is the fragmentation sweep the found design is
// re-evaluated under: pristine memory, moderate pressure, and the
// fragmented regime the search itself optimized for.
var evolveBestFrags = []float64{0, 0.3, 0.6}

// evolveBest runs a small fixed-budget evolutionary search (the
// internal/evolve machinery behind cmd/seesaw-evolve) on the fragmented
// scenario, then re-evaluates the best-found design against the paper
// default across a fragmentation sweep. Rows are fragmentation levels;
// columns compare the two designs' speedup over baseline VIPT (geomean
// across workloads) and translation MPKI. The search is seeded from
// Options.Seed, so the table is reproducible like every other figure.
// The sweep's cells depend on what the search finds, so the render runs
// the search and plans and awaits the sweep itself.
func evolveBest(o Options, _ *cells) (render, error) {
	// The full 16-workload search is seesaw-evolve territory; the
	// figure-sized run scores genomes on the two paper anchors.
	profiles, err := subset(o, []string{"redis", "mcf"})
	if err != nil {
		return nil, err
	}
	names := make([]string, len(profiles))
	for i, p := range profiles {
		names[i] = p.Name
	}
	return func(*reports) (*stats.Table, error) {
		searchFrag := evolveBestFrags[len(evolveBestFrags)-1]
		search, err := evolve.New(evolve.Options{
			Seed:        o.Seed,
			Population:  8,
			Generations: 4,
			Scenario: evolve.Scenario{
				Workloads:  names,
				Frag:       searchFrag,
				Seed:       o.Seed,
				Refs:       o.Refs,
				WarmupRefs: o.WarmupRefs,
			},
		}, evolve.PoolEvaluator{Pool: o.Pool})
		if err != nil {
			return nil, err
		}
		res, err := search.Run(context.Background())
		if err != nil {
			return nil, err
		}
		best, def := res.Best.Genome, res.Default.Genome

		// Re-evaluate both designs across the fragmentation sweep on
		// the same pool: the search's own frag-0.6 cells are cache
		// hits. Cells use the scenario's config shape (sim defaults for
		// the machine), so they dedup against the search's cells
		// exactly.
		c := cells{pool: o.Pool}
		for _, frag := range evolveBestFrags {
			for _, p := range profiles {
				cfg := sim.Config{Workload: p, Seed: o.Seed, Refs: o.Refs, WarmupRefs: o.WarmupRefs, MemhogFraction: frag}
				baseCfg := cfg
				baseCfg.CacheKind = sim.KindBaseline
				c.submit(baseCfg)
				c.submit(def.Apply(cfg))
				c.submit(best.Apply(cfg))
			}
		}
		r, err := c.wait()
		if err != nil {
			return nil, err
		}

		t := stats.NewTable(
			fmt.Sprintf("Autotuned SEESAW vs paper default under fragmentation (best %s, search seed %d)", best.Key(), o.Seed),
			"memhog frac", "default speedup", "best speedup", "default MPKI", "best MPKI")
		for _, frag := range evolveBestFrags {
			var base, defReps, bestReps []*sim.Report
			for range profiles {
				base = append(base, r.next())
				defReps = append(defReps, r.next())
				bestReps = append(bestReps, r.next())
			}
			defObj, err := evolve.Reduce(defReps, base)
			if err != nil {
				return nil, err
			}
			bestObj, err := evolve.Reduce(bestReps, base)
			if err != nil {
				return nil, err
			}
			t.AddRow(fmt.Sprintf("%.2f", frag),
				fmt.Sprintf("%.4f", defObj.Speedup), fmt.Sprintf("%.4f", bestObj.Speedup),
				fmt.Sprintf("%.3f", defObj.MPKI), fmt.Sprintf("%.3f", bestObj.MPKI))
		}
		t.AddNote(fmt.Sprintf("search: %d genomes over %d generations on %v at memhog %.2f; paper default %s",
			res.Evaluations, res.Generations, names, searchFrag, def.Key()))
		if res.BestDominatesDefault {
			t.AddNote("the found design strictly Pareto-dominates the paper default on the search scenario")
		}
		t.AddNote("expected: the autotuned design holds or beats the default as fragmentation rises — the regime it was searched under")
		return t, nil
	}, nil
}
