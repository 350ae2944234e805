package experiments

import (
	"fmt"

	"seesaw/internal/cache"
	"seesaw/internal/sim"
	"seesaw/internal/stats"
)

// ablationPartitionCount sweeps SEESAW's ways-per-partition design
// choice (Section IV-B4: "The number of ways in each partition is a
// design choice depending upon the cache's latency-energy profile"): a
// 64KB 16-way cache split into 2, 4, or 8 partitions.
func ablationPartitionCount(o Options, c *cells) (render, error) {
	profiles, err := subset(o, ablationWorkloads)
	if err != nil {
		return nil, err
	}
	parts := []int{2, 4, 8}
	for _, p := range profiles {
		cfg := baseConfig(o, p, sim.KindBaseline, 64<<10, 1.33, "ooo")
		c.submit(cfg)
		cfg.CacheKind = sim.KindSeesaw
		for _, part := range parts {
			cfg.Partitions = part
			c.submit(cfg)
		}
	}
	return func(r *reports) (*stats.Table, error) {
		t := stats.NewTable("Ablation: SEESAW partition count (64KB 16-way, 1.33GHz, OoO)",
			"workload", "partitions", "ways/partition", "perf % vs baseline", "energy % vs baseline")
		for _, p := range profiles {
			base := r.next()
			for _, part := range parts {
				see := r.next()
				t.AddRow(p.Name,
					fmt.Sprintf("%d", part),
					fmt.Sprintf("%d", 16/part),
					fmt.Sprintf("%.2f", runtimeImprovement(base, see)),
					fmt.Sprintf("%.2f", energyImprovement(base, see)))
			}
		}
		t.AddNote("the paper settles on 4-way (16KB) partitions; narrower partitions probe less but lose local associativity")
		return t, nil
	}, nil
}

// ablationReplacement compares LRU (the paper's policy) with SRRIP for
// both designs: SEESAW's partition-local victim selection must compose
// with either policy.
func ablationReplacement(o Options, c *cells) (render, error) {
	profiles, err := subset(o, ablationWorkloads)
	if err != nil {
		return nil, err
	}
	repls := []cache.Replacement{cache.LRU, cache.SRRIP}
	for _, p := range profiles {
		for _, repl := range repls {
			cfg := baseConfig(o, p, sim.KindBaseline, 64<<10, 1.33, "ooo")
			cfg.Replacement = repl
			c.pair(cfg)
		}
	}
	return func(r *reports) (*stats.Table, error) {
		t := stats.NewTable("Ablation: L1 replacement policy (64KB, 1.33GHz, OoO)",
			"workload", "policy", "baseline hit %", "SEESAW hit %", "SEESAW perf %")
		for _, p := range profiles {
			for _, repl := range repls {
				base, see := r.pair()
				t.AddRow(p.Name, repl.String(),
					fmt.Sprintf("%.2f", 100*stats.Ratio(base.L1Hits, base.L1Hits+base.L1Misses)),
					fmt.Sprintf("%.2f", 100*stats.Ratio(see.L1Hits, see.L1Hits+see.L1Misses)),
					fmt.Sprintf("%.2f", runtimeImprovement(base, see)))
			}
		}
		t.AddNote("expected: SEESAW's improvement is replacement-agnostic; SRRIP helps scan-heavy workloads")
		return t, nil
	}, nil
}

// ablationPrefetch checks that SEESAW's benefits survive a next-line L1
// prefetcher (which raises hit rates and shifts traffic off the miss
// path).
func ablationPrefetch(o Options, c *cells) (render, error) {
	profiles, err := subset(o, ablationWorkloads)
	if err != nil {
		return nil, err
	}
	for _, p := range profiles {
		cfg := baseConfig(o, p, sim.KindBaseline, 64<<10, 1.33, "ooo")
		c.pair(cfg)
		cfg.Prefetch = true
		c.pair(cfg)
	}
	return func(r *reports) (*stats.Table, error) {
		t := stats.NewTable("Ablation: next-line L1 prefetcher (64KB, 1.33GHz, OoO)",
			"workload", "prefetch", "baseline hit %", "SEESAW perf %", "SEESAW energy %")
		for _, p := range profiles {
			for _, on := range []string{"off", "on"} {
				base, see := r.pair()
				t.AddRow(p.Name, on,
					fmt.Sprintf("%.2f", 100*stats.Ratio(base.L1Hits, base.L1Hits+base.L1Misses)),
					fmt.Sprintf("%.2f", runtimeImprovement(base, see)),
					fmt.Sprintf("%.2f", energyImprovement(base, see)))
			}
		}
		t.AddNote("expected: prefetching raises hit rates for both designs; SEESAW's improvement persists")
		return t, nil
	}, nil
}
