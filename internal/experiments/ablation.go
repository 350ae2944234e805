package experiments

import (
	"fmt"

	"seesaw/internal/coherence"
	"seesaw/internal/core"
	"seesaw/internal/sim"
	"seesaw/internal/stats"
)

// ablationWorkloads is the default subset for the design-choice studies.
var ablationWorkloads = []string{"redis", "nutch", "olio", "mcf", "cann"}

// ablationInsertionPolicy compares the paper's 4way insertion policy
// with the 4way-8way alternative (Section IV-B1): hit rates should
// differ by about a point, while 4way keeps coherence probes
// partition-filtered.
func ablationInsertionPolicy(o Options, c *cells) (render, error) {
	profiles, err := subset(o, ablationWorkloads)
	if err != nil {
		return nil, err
	}
	policies := []core.InsertionPolicy{core.FourWay, core.FourEightWay}
	for _, p := range profiles {
		for _, policy := range policies {
			cfg := baseConfig(o, p, sim.KindSeesaw, 64<<10, 1.33, "ooo")
			cfg.Policy = policy
			c.submit(cfg)
		}
	}
	return func(r *reports) (*stats.Table, error) {
		t := stats.NewTable("Ablation: 4way vs 4way-8way insertion (64KB, 1.33GHz, OoO)",
			"workload", "policy", "L1 hit %", "coh. probe energy (nJ)", "total energy (nJ)")
		for _, p := range profiles {
			for _, policy := range policies {
				rep := r.next()
				t.AddRow(p.Name, policy.String(),
					fmt.Sprintf("%.2f", 100*stats.Ratio(rep.L1Hits, rep.L1Hits+rep.L1Misses)),
					fmt.Sprintf("%.1f", rep.EnergyCoherenceNJ),
					fmt.Sprintf("%.0f", rep.EnergyTotalNJ))
			}
		}
		t.AddNote("expected: ~1%% hit-rate cost for 4way, repaid by halved coherence probe energy (paper Section IV-B1)")
		return t, nil
	}, nil
}

// ablationSchedulerPolicy compares the three scheduler speculation
// policies of Section IV-B3 under heavy fragmentation, where superpages
// are scarce and always-fast speculation squashes constantly.
func ablationSchedulerPolicy(o Options, c *cells) (render, error) {
	profiles, err := subset(o, ablationWorkloads)
	if err != nil {
		return nil, err
	}
	type policy struct{ fast, slow bool }
	policies := []policy{{true, false}, {false, false}, {false, true}}
	for _, p := range profiles {
		for _, pol := range policies {
			cfg := baseConfig(o, p, sim.KindSeesaw, 64<<10, 1.33, "ooo")
			cfg.MemhogFraction = 0.85
			cfg.SchedulerAlwaysFast = pol.fast
			cfg.SchedulerAlwaysSlow = pol.slow
			c.submit(cfg)
		}
	}
	return func(r *reports) (*stats.Table, error) {
		t := stats.NewTable("Ablation: scheduler speculation policy (64KB, 1.33GHz, OoO, memhog 90%)",
			"workload", "always-fast (cycles)", "counter-gated (cycles)", "always-slow (cycles)")
		for _, p := range profiles {
			fast, gated, slow := r.next(), r.next(), r.next()
			t.AddRowValues(p.Name, fast.Cycles, gated.Cycles, slow.Cycles)
		}
		t.AddNote("expected: counter-gated <= always-fast under scarce superpages (paper Section IV-B3)")
		return t, nil
	}, nil
}

// ablationTFTAssociativity compares the paper's direct-mapped TFT with a
// 2-way variant at equal capacity.
func ablationTFTAssociativity(o Options, c *cells) (render, error) {
	profiles, err := subset(o, ablationWorkloads)
	if err != nil {
		return nil, err
	}
	assocs := []int{1, 2}
	for _, p := range profiles {
		for _, assoc := range assocs {
			cfg := baseConfig(o, p, sim.KindSeesaw, 64<<10, 1.33, "ooo")
			cfg.TFT.Entries = 16
			cfg.TFT.Assoc = assoc
			c.submit(cfg)
		}
	}
	return func(r *reports) (*stats.Table, error) {
		t := stats.NewTable("Ablation: TFT associativity (16 entries, 64KB L1, 1.33GHz)",
			"workload", "organization", "TFT hit %", "superpage accesses missed %")
		for _, p := range profiles {
			for _, assoc := range assocs {
				rep := r.next()
				org := "direct-mapped"
				if assoc == 2 {
					org = "2-way"
				}
				t.AddRow(p.Name, org,
					fmt.Sprintf("%.2f", 100*rep.TFT.HitRate),
					fmt.Sprintf("%.2f", rep.TFT.SuperMissedPct))
			}
		}
		t.AddNote("the paper found direct-mapped 'performs sufficiently well' (Section IV-A2)")
		return t, nil
	}, nil
}

// ablation1GPages exercises the paper's "generalizes readily to 1GB
// superpages" claim: the heap is backed by explicit 1GB pages instead of
// transparent 2MB pages. The fast path still applies (the partition
// index is a page-offset bit for 1GB pages too) and the TLB walks less.
func ablation1GPages(o Options, c *cells) (render, error) {
	profiles, err := subset(o, ablationWorkloads)
	if err != nil {
		return nil, err
	}
	for _, p := range profiles {
		cfg := baseConfig(o, p, sim.KindSeesaw, 64<<10, 1.33, "ooo")
		c.submit(cfg)
		cfg.Heap1G = true
		cfg.MemBytes = 4 << 30
		c.submit(cfg)
	}
	return func(r *reports) (*stats.Table, error) {
		t := stats.NewTable("Ablation: 2MB vs 1GB superpage backing (SEESAW, 64KB, 1.33GHz, OoO)",
			"workload", "heap pages", "cycles", "fast-path hits", "TLB walks", "energy (nJ)")
		for _, p := range profiles {
			for _, kind := range []string{"2MB", "1GB"} {
				rep := r.next()
				t.AddRowValues(p.Name, kind, rep.Cycles, rep.TFT.FastHits, rep.TLB.Walks,
					fmt.Sprintf("%.0f", rep.EnergyTotalNJ))
			}
		}
		t.AddNote("expected: 1GB backing performs at least as well, with fewer page walks")
		return t, nil
	}, nil
}

// ablationSnoopy compares directory and snoopy coherence: snoopy
// broadcasts make SEESAW's partition-filtered probes save more energy
// (paper: an additional 2-5% for multithreaded workloads).
func ablationSnoopy(o Options, c *cells) (render, error) {
	profiles, err := profilesFor([]string{"cann", "tunk", "g500", "nutch"})
	if err != nil {
		return nil, err
	}
	modes := []coherence.Mode{coherence.Directory, coherence.Snoopy}
	for _, p := range profiles {
		for _, mode := range modes {
			cfg := baseConfig(o, p, sim.KindBaseline, 64<<10, 1.33, "ooo")
			cfg.CoherenceMode = mode
			c.pair(cfg)
		}
	}
	return func(r *reports) (*stats.Table, error) {
		t := stats.NewTable("Ablation: directory vs snoopy coherence (64KB, 1.33GHz, OoO)",
			"workload", "protocol", "probes", "saved (nJ)", "SEESAW coherence-energy saving %")
		for _, p := range profiles {
			for _, mode := range modes {
				base, see := r.pair()
				saving := stats.PctImprovement(base.EnergyCoherenceNJ, see.EnergyCoherenceNJ)
				t.AddRow(p.Name, mode.String(),
					fmt.Sprintf("%d", base.Coh.ProbesSent),
					fmt.Sprintf("%.1f", base.EnergyCoherenceNJ-see.EnergyCoherenceNJ),
					fmt.Sprintf("%.2f", saving))
			}
		}
		t.AddNote("expected: snoopy sends far more probes, so partition filtering saves more (paper Section VI-B)")
		return t, nil
	}, nil
}
