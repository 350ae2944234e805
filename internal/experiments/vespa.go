package experiments

import (
	"fmt"

	"seesaw/internal/sim"
	"seesaw/internal/stats"
	"seesaw/internal/workload"
)

// vespaVsSeesaw compares the two superpage-aware VIPT designs head to
// head under growing fragmentation (the Fig 12 regime: cloud workloads,
// 64KB L1s at 1.33GHz, memhog holding 0/30/60% of memory). Both are
// scored as runtime/energy improvement over the same-size baseline
// VIPT. VESPA indexes the full cache for superpage-backed accesses
// using the TLB's page size directly — no TFT — so it tracks SEESAW
// while superpage coverage is high, and loses its advantage as memhog
// splinters the heap into 4KB pages that force the slow full-set probe.
func vespaVsSeesaw(o Options, c *cells) (render, error) {
	profiles, err := subset(o, workload.CloudNames) // the fragmentation study's subset
	if err != nil {
		return nil, err
	}
	hogs := []float64{0, 0.30, 0.60}
	for _, p := range profiles {
		for _, hog := range hogs {
			cfg := baseConfig(o, p, sim.KindBaseline, 64<<10, 1.33, "ooo")
			cfg.MemhogFraction = hog
			c.pair(cfg)
			cfg.CacheKind = sim.KindVespa
			c.submit(cfg)
		}
	}
	return func(r *reports) (*stats.Table, error) {
		t := stats.NewTable("VESPA vs SEESAW under fragmentation (64KB, 1.33GHz, OoO; % improvement vs baseline VIPT)",
			"workload", "memhog", "SEESAW perf %", "VESPA perf %", "SEESAW energy %", "VESPA energy %", "coverage %")
		for _, p := range profiles {
			for _, hog := range hogs {
				base, see := r.pair()
				ves := r.next()
				t.AddRow(p.Name,
					fmt.Sprintf("mh%.0f", hog*100),
					fmt.Sprintf("%.2f", runtimeImprovement(base, see)),
					fmt.Sprintf("%.2f", runtimeImprovement(base, ves)),
					fmt.Sprintf("%.2f", energyImprovement(base, see)),
					fmt.Sprintf("%.2f", energyImprovement(base, ves)),
					fmt.Sprintf("%.1f", ves.SuperpageCoverage*100))
			}
		}
		t.AddNote("expected shape: VESPA tracks SEESAW while superpage coverage is high; fragmentation splinters pages and erodes VESPA's edge faster")
		return t, nil
	}, nil
}
