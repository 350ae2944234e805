package experiments

import (
	"fmt"

	"seesaw/internal/sim"
	"seesaw/internal/stats"
	"seesaw/internal/workload"
)

// fig11 reproduces the split of SEESAW's L1 energy savings between
// CPU-side lookups and coherence lookups, per workload, on the
// out-of-order system with 64KB L1s at 1.33GHz.
func fig11(o Options, c *cells) (render, error) {
	profiles, err := profilesFor(o.Workloads)
	if err != nil {
		return nil, err
	}
	for _, p := range profiles {
		c.pair(baseConfig(o, p, sim.KindBaseline, 64<<10, 1.33, "ooo"))
	}
	return func(r *reports) (*stats.Table, error) {
		t := stats.NewTable("Fig 11: % of L1 energy savings from CPU-side vs coherence lookups (64KB, OoO, 1.33GHz)",
			"workload", "CPU-side %", "coherence %")
		for _, p := range profiles {
			base, see := r.pair()
			cpuSave := base.EnergyCPUSideNJ - see.EnergyCPUSideNJ
			cohSave := base.EnergyCoherenceNJ - see.EnergyCoherenceNJ
			total := cpuSave + cohSave
			if total <= 0 {
				t.AddRow(p.Name, "-", "-")
				continue
			}
			t.AddRow(p.Name,
				fmt.Sprintf("%.1f", 100*cpuSave/total),
				fmt.Sprintf("%.1f", 100*cohSave/total))
		}
		t.AddNote("expected shape: every workload has a coherence slice; multithreaded workloads (cann, tunk) approach a third (paper Fig 11)")
		return t, nil
	}, nil
}

// fig12 reproduces the fragmentation sensitivity study: performance and
// energy improvements for the cloud workloads with memhog holding 0%,
// 30%, and 60% of memory (64KB L1s at 1.33GHz).
func fig12(o Options, c *cells) (render, error) {
	profiles, err := subset(o, workload.CloudNames) // the paper's Fig 12 subset
	if err != nil {
		return nil, err
	}
	hogs := []float64{0, 0.30, 0.60}
	for _, p := range profiles {
		for _, hog := range hogs {
			cfg := baseConfig(o, p, sim.KindBaseline, 64<<10, 1.33, "ooo")
			cfg.MemhogFraction = hog
			c.pair(cfg)
		}
	}
	return func(r *reports) (*stats.Table, error) {
		t := stats.NewTable("Fig 12: % improvement vs memory fragmentation (64KB, 1.33GHz, OoO)",
			"workload", "memhog", "perf %", "energy %", "coverage %")
		for _, p := range profiles {
			for _, hog := range hogs {
				base, see := r.pair()
				t.AddRow(p.Name,
					fmt.Sprintf("mh%.0f", hog*100),
					fmt.Sprintf("%.2f", runtimeImprovement(base, see)),
					fmt.Sprintf("%.2f", energyImprovement(base, see)),
					fmt.Sprintf("%.1f", see.SuperpageCoverage*100))
			}
		}
		t.AddNote("expected shape: benefits shrink with fragmentation but stay positive (paper: 4-6%% at memhog 60%%)")
		return t, nil
	}, nil
}

// energyBreakdown decomposes the memory-hierarchy energy per workload
// for baseline and SEESAW (64KB, 1.33GHz, OoO) — the accounting behind
// Fig 10, useful for seeing which component each workload's savings
// come from and why miss-heavy workloads save less.
func energyBreakdown(o Options, c *cells) (render, error) {
	profiles, err := profilesFor(o.Workloads)
	if err != nil {
		return nil, err
	}
	for _, p := range profiles {
		c.pair(baseConfig(o, p, sim.KindBaseline, 64<<10, 1.33, "ooo"))
	}
	return func(r *reports) (*stats.Table, error) {
		t := stats.NewTable("Energy breakdown (nJ; 64KB, 1.33GHz, OoO)",
			"workload", "design", "L1 CPU-side", "L1 coherence", "TLBs+TFT", "walks", "LLC", "DRAM", "leakage", "total")
		for _, p := range profiles {
			base, see := r.pair()
			for _, rep := range []*sim.Report{base, see} {
				a := rep.Energy
				t.AddRow(p.Name, rep.Design,
					fmt.Sprintf("%.0f", a.L1CPUSideNJ),
					fmt.Sprintf("%.0f", a.L1CoherenceNJ),
					fmt.Sprintf("%.0f", a.TLBNJ+a.TFTNJ),
					fmt.Sprintf("%.0f", a.WalkNJ),
					fmt.Sprintf("%.0f", a.LLCNJ),
					fmt.Sprintf("%.0f", a.DRAMNJ),
					fmt.Sprintf("%.0f", a.LeakageNJ(rep.RuntimeSec)),
					fmt.Sprintf("%.0f", rep.EnergyTotalNJ))
			}
		}
		t.AddNote("SEESAW cuts the L1 columns and (via shorter runtime) leakage; LLC/DRAM columns explain why miss-heavy workloads save a smaller share")
		return t, nil
	}, nil
}

// fig13 reproduces the TFT sizing study: the percentage of superpage
// accesses the TFT fails to identify, for 12/16/20-entry TFTs and
// 32/64/128KB caches, split into accesses that hit and miss in the L1.
func fig13(o Options, c *cells) (render, error) {
	profiles, err := profilesFor(o.Workloads)
	if err != nil {
		return nil, err
	}
	entrySet := []int{12, 16, 20}
	for _, entries := range entrySet {
		for _, size := range perfSizes {
			for _, p := range profiles {
				cfg := baseConfig(o, p, sim.KindSeesaw, size, 1.33, "ooo")
				cfg.TFT.Entries = entries
				cfg.TFT.Assoc = 1
				c.submit(cfg)
			}
		}
	}
	return func(r *reports) (*stats.Table, error) {
		t := stats.NewTable("Fig 13: % of superpage accesses missed by the TFT",
			"TFT entries", "L1 size", "missed, L1 hits (avg [min..max])", "missed, L1 misses (avg [min..max])")
		for _, entries := range entrySet {
			for _, size := range perfSizes {
				var hitSide, missSide stats.Summary
				for range profiles {
					rep := r.next()
					hitSide.Add(rep.TFT.SuperMissedL1HitPct)
					missSide.Add(rep.TFT.SuperMissedL1MissPct)
				}
				t.AddRow(
					fmt.Sprintf("%d", entries),
					fmt.Sprintf("%dKB", size>>10),
					fmt.Sprintf("%.2f [%.2f..%.2f]", hitSide.Mean(), hitSide.Min(), hitSide.Max()),
					fmt.Sprintf("%.2f [%.2f..%.2f]", missSide.Mean(), missSide.Min(), missSide.Max()))
			}
		}
		t.AddNote("expected shape: 16 entries keep misses under ~10%%; most TFT misses are also L1 misses (paper Fig 13)")
		return t, nil
	}, nil
}
