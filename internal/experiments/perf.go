package experiments

import (
	"fmt"

	"seesaw/internal/sim"
	"seesaw/internal/stats"
	"seesaw/internal/workload"
)

var (
	perfSizes = []uint64{32 << 10, 64 << 10, 128 << 10}
	perfFreqs = []float64{1.33, 2.80, 4.00}
)

// fig7 reproduces the per-workload runtime improvement of SEESAW over
// baseline VIPT on the out-of-order core at 1.33GHz for 32/64/128KB L1s.
func fig7(o Options, c *cells) (render, error) {
	profiles, err := profilesFor(o.Workloads)
	if err != nil {
		return nil, err
	}
	for _, p := range profiles {
		for _, size := range perfSizes {
			c.pair(baseConfig(o, p, sim.KindBaseline, size, 1.33, "ooo"))
		}
	}
	return func(r *reports) (*stats.Table, error) {
		t := stats.NewTable("Fig 7: % runtime improvement, OoO @1.33GHz",
			"workload", "32KB", "64KB", "128KB")
		var avg [3]stats.Summary
		for _, p := range profiles {
			row := []string{p.Name}
			for si := range perfSizes {
				imp := runtimeImprovement(r.pair())
				avg[si].Add(imp)
				row = append(row, fmt.Sprintf("%.2f", imp))
			}
			t.AddRow(row...)
		}
		t.AddRow("average",
			fmt.Sprintf("%.2f", avg[0].Mean()),
			fmt.Sprintf("%.2f", avg[1].Mean()),
			fmt.Sprintf("%.2f", avg[2].Mean()))
		t.AddNote("expected shape: every workload improves; larger caches improve more (paper: 5-11%% averages)")
		return t, nil
	}, nil
}

// sweep submits the frequency × size × workload fan-out of
// baseline/SEESAW pairs for one CPU kind.
func sweep(o Options, c *cells, profiles []workload.Profile, cpuKind string) {
	for _, f := range perfFreqs {
		for _, size := range perfSizes {
			for _, p := range profiles {
				c.pair(baseConfig(o, p, sim.KindBaseline, size, f, cpuKind))
			}
		}
	}
}

// sweepTables reduces one sweep of n workloads to avg/min/max runtime
// and energy improvements across workloads.
func sweepTables(r *reports, n int, cpuKind string) (perf, energy *stats.Table) {
	perf = stats.NewTable(
		fmt.Sprintf("%% runtime improvement (%s core): avg [min..max] across workloads", cpuKind),
		"freq", "32KB", "64KB", "128KB")
	energy = stats.NewTable(
		fmt.Sprintf("%% memory-hierarchy energy saved (%s core): avg [min..max]", cpuKind),
		"freq", "32KB", "64KB", "128KB")
	for _, f := range perfFreqs {
		perfRow := []string{fmt.Sprintf("%.2fGHz", f)}
		enRow := []string{fmt.Sprintf("%.2fGHz", f)}
		for range perfSizes {
			var ps, es stats.Summary
			for range n {
				base, see := r.pair()
				ps.Add(runtimeImprovement(base, see))
				es.Add(energyImprovement(base, see))
			}
			perfRow = append(perfRow, fmt.Sprintf("%.2f [%.2f..%.2f]", ps.Mean(), ps.Min(), ps.Max()))
			enRow = append(enRow, fmt.Sprintf("%.2f [%.2f..%.2f]", es.Mean(), es.Min(), es.Max()))
		}
		perf.AddRow(perfRow...)
		energy.AddRow(enRow...)
	}
	return perf, energy
}

// perfSweep plans the avg/min/max runtime improvement across cache sizes
// and frequencies on one CPU kind: Fig 8 (OoO) and Fig 9 (in-order).
func perfSweep(cpuKind, title, note string) plan {
	return func(o Options, c *cells) (render, error) {
		profiles, err := profilesFor(o.Workloads)
		if err != nil {
			return nil, err
		}
		sweep(o, c, profiles, cpuKind)
		return func(r *reports) (*stats.Table, error) {
			perf, _ := sweepTables(r, len(profiles), cpuKind)
			perf.Title = title + perf.Title
			perf.AddNote(note)
			return perf, nil
		}, nil
	}
}

// fig8 reproduces the avg/min/max runtime improvement on the
// out-of-order core across cache sizes and frequencies.
var fig8 = perfSweep("ooo", "Fig 8: ", "expected shape: improvements grow with cache size and frequency (paper Fig 8)")

// fig9 reproduces the same sweep on the in-order core, where benefits
// are higher because L1 latency cannot be hidden.
var fig9 = perfSweep("inorder", "Fig 9: ", "expected shape: 3-5 points higher than the OoO core (paper Fig 9)")

// fig10 reproduces the memory-hierarchy energy savings, separated by
// core type, across sizes and frequencies.
func fig10(o Options, c *cells) (render, error) {
	profiles, err := profilesFor(o.Workloads)
	if err != nil {
		return nil, err
	}
	sweep(o, c, profiles, "ooo")
	sweep(o, c, profiles, "inorder")
	return func(r *reports) (*stats.Table, error) {
		_, enOoO := sweepTables(r, len(profiles), "ooo")
		_, enInO := sweepTables(r, len(profiles), "inorder")
		t := stats.NewTable("Fig 10: % memory-hierarchy energy saved",
			"core", "freq", "32KB", "64KB", "128KB")
		for _, row := range enInO.Rows {
			t.AddRow(append([]string{"InO"}, row...)...)
		}
		for _, row := range enOoO.Rows {
			t.AddRow(append([]string{"OOO"}, row...)...)
		}
		t.AddNote("expected shape: always positive, larger for larger caches; in-order slightly higher (paper Fig 10)")
		return t, nil
	}, nil
}
