package experiments

import (
	"fmt"

	"seesaw/internal/sim"
	"seesaw/internal/stats"
	"seesaw/internal/workload"
)

// extICache evaluates the paper's proposed instruction-side application
// of SEESAW ("it is also possible to apply it to the instruction cache
// ... valuable with the advent of cloud workloads that use considerably
// larger instruction-side footprints"): both L1I and L1D use the SEESAW
// design, with the text segment mapped by 2MB pages, against a baseline
// VIPT I+D system.
func extICache(o Options, c *cells) (render, error) {
	profiles, err := subset(o, workload.CloudNames)
	if err != nil {
		return nil, err
	}
	for _, p := range profiles {
		for _, icache := range []bool{true, false} {
			cfg := baseConfig(o, p, sim.KindBaseline, 64<<10, 1.33, "ooo")
			cfg.ICache = icache
			cfg.TextHuge = true
			c.pair(cfg)
		}
	}
	return func(r *reports) (*stats.Table, error) {
		t := stats.NewTable("Extension: SEESAW on the instruction cache (32KB L1I + 64KB L1D, 1.33GHz, OoO)",
			"workload", "L1I MPKI", "perf % (D only)", "perf % (I+D)", "energy % (I+D)")
		for _, p := range profiles {
			baseI, seeI := r.pair()
			baseD, seeD := r.pair()
			impD := runtimeImprovement(baseD, seeD)
			impI := runtimeImprovement(baseI, seeI)
			var l1iMPKI float64
			if baseI.Instructions > 0 {
				l1iMPKI = float64(baseI.L1IMisses) / float64(baseI.Instructions) * 1000
			}
			t.AddRow(p.Name,
				fmt.Sprintf("%.1f", l1iMPKI),
				fmt.Sprintf("%.2f", impD),
				fmt.Sprintf("%.2f", impI),
				fmt.Sprintf("%.2f", energyImprovement(baseI, seeI)))
		}
		t.AddNote("expected: applying SEESAW to the I-cache adds benefit on instruction-footprint-heavy cloud workloads")
		return t, nil
	}, nil
}
