package experiments

import (
	"fmt"

	"seesaw/internal/sim"
	"seesaw/internal/stats"
	"seesaw/internal/workload"
)

// fig14 reproduces the design-alternative comparison at 128KB: SEESAW
// versus the best of a sweep of serial PIPT designs with lower
// associativity (which shrink the effective TLB benefit by serializing
// translation), at the three frequencies.
func fig14(o Options, c *cells) (render, error) {
	profiles, err := profilesFor(o.Workloads)
	if err != nil {
		return nil, err
	}
	piptWays := []int{2, 4, 8}
	// Per frequency: the PIPT alternatives, each against the shared
	// 128KB baseline cell (deduped by the pool), then the SEESAW pairs.
	for _, f := range perfFreqs {
		for _, ways := range piptWays {
			for _, p := range profiles {
				cfg := baseConfig(o, p, sim.KindBaseline, 128<<10, f, "ooo")
				c.submit(cfg) // baseline VIPT reference
				cfg.CacheKind = sim.KindPIPT
				cfg.L1Ways = ways
				// Serial translation sits on the load-to-use path: even
				// a shrunken TLB costs two cycles before indexing, and
				// its lower reach puts L2-TLB/walk latency on the
				// critical path far more often.
				cfg.SerialTLBCycles = 2
				cfg.SmallTLB = true
				c.submit(cfg)
			}
		}
		for _, p := range profiles {
			c.pair(baseConfig(o, p, sim.KindBaseline, 128<<10, f, "ooo"))
		}
	}
	return func(r *reports) (*stats.Table, error) {
		t := stats.NewTable("Fig 14: SEESAW vs PIPT alternatives, 128KB L1",
			"freq", "metric", "others (best PIPT)", "SEESAW")
		for _, f := range perfFreqs {
			var seePerf, seeEn stats.Summary
			bestPerf, bestEn := -1e9, -1e9
			for range piptWays {
				var pp, pe stats.Summary
				for range profiles {
					base, alt := r.next(), r.next()
					pp.Add(runtimeImprovement(base, alt))
					pe.Add(energyImprovement(base, alt))
				}
				if pp.Mean() > bestPerf {
					bestPerf = pp.Mean()
				}
				if pe.Mean() > bestEn {
					bestEn = pe.Mean()
				}
			}
			for range profiles {
				base, see := r.pair()
				seePerf.Add(runtimeImprovement(base, see))
				seeEn.Add(energyImprovement(base, see))
			}
			t.AddRow(fmt.Sprintf("%.2fGHz", f), "performance %",
				fmt.Sprintf("%.2f", bestPerf), fmt.Sprintf("%.2f", seePerf.Mean()))
			t.AddRow(fmt.Sprintf("%.2fGHz", f), "energy %",
				fmt.Sprintf("%.2f", bestEn), fmt.Sprintf("%.2f", seeEn.Mean()))
		}
		t.AddNote("improvements are vs the 128KB baseline VIPT; expected shape: SEESAW >= best alternative (paper Fig 14)")
		return t, nil
	}, nil
}

// fig15 reproduces the way-prediction comparison on 64KB caches at
// 1.33GHz: an MRU way predictor alone (WP), SEESAW, and the combination,
// all relative to baseline VIPT.
func fig15(o Options, c *cells) (render, error) {
	profiles, err := subset(o, workload.CloudNames) // the paper's Fig 15 subset
	if err != nil {
		return nil, err
	}
	for _, p := range profiles {
		cfg := baseConfig(o, p, sim.KindBaseline, 64<<10, 1.33, "ooo")
		c.submit(cfg)
		cfg.WayPredict = true
		c.submit(cfg)
		cfg.WayPredict = false
		cfg.CacheKind = sim.KindSeesaw
		c.submit(cfg)
		cfg.WayPredict = true
		c.submit(cfg)
	}
	return func(r *reports) (*stats.Table, error) {
		t := stats.NewTable("Fig 15: WP vs SEESAW vs WP+SEESAW (64KB, 1.33GHz, OoO; % vs baseline VIPT)",
			"workload", "metric", "WP", "SEESAW", "WP+SEESAW", "WP accuracy")
		for _, p := range profiles {
			base, wp, see, both := r.next(), r.next(), r.next(), r.next()
			t.AddRow(p.Name, "perf %",
				fmt.Sprintf("%.2f", runtimeImprovement(base, wp)),
				fmt.Sprintf("%.2f", runtimeImprovement(base, see)),
				fmt.Sprintf("%.2f", runtimeImprovement(base, both)),
				fmt.Sprintf("%.2f", wp.WPAccuracy))
			t.AddRow(p.Name, "energy %",
				fmt.Sprintf("%.2f", energyImprovement(base, wp)),
				fmt.Sprintf("%.2f", energyImprovement(base, see)),
				fmt.Sprintf("%.2f", energyImprovement(base, both)), "")
		}
		t.AddNote("expected shape: WP alone can degrade performance (negative perf on low-accuracy workloads); WP+SEESAW saves the most energy (paper Fig 15)")
		return t, nil
	}, nil
}
