package experiments

import (
	"fmt"
	"math/rand"

	"seesaw/internal/addr"
	"seesaw/internal/osmm"
	"seesaw/internal/physmem"
	"seesaw/internal/runner"
	"seesaw/internal/sram"
	"seesaw/internal/stats"
	"seesaw/internal/workload"
)

// fig2Sizes are the cache sizes of the paper's Fig 2 sweeps.
var fig2Sizes = []uint64{16 << 10, 32 << 10, 64 << 10, 128 << 10, 256 << 10}

// Fig2a reproduces "Avg. Miss-per-kilo-instructions (MPKI)" versus
// associativity for 16KB-256KB caches: raising associativity beyond ~4
// barely moves the average MPKI, while capacity does.
func Fig2a(o Options) (*stats.Table, error) {
	o = o.withDefaults()
	profiles, err := profilesFor(o)
	if err != nil {
		return nil, err
	}
	// The study is trace-driven: each workload's stream is drawn once
	// and replayed against every bare cache, one pool task per workload.
	tasks := make([]*runner.Task[[][]float64], len(profiles))
	for pi, p := range profiles {
		tasks[pi] = runner.Go(o.Pool, func() ([][]float64, error) {
			return cacheOnlyMPKI(p, o.Seed, o.Refs)
		})
	}
	mpki := make([][][]float64, len(profiles))
	for pi, task := range tasks {
		if mpki[pi], err = task.Wait(); err != nil {
			return nil, err
		}
	}
	t := stats.NewTable("Fig 2a: average MPKI vs associativity",
		"size", "DM", "2-way", "4-way", "8-way", "16-way", "32-way")
	for si, size := range fig2Sizes {
		row := []string{fmt.Sprintf("%dKB", size>>10)}
		for wi, ways := range sram.Assocs {
			if !fig2aFits(size, ways) {
				row = append(row, "-")
				continue
			}
			var sum stats.Summary
			for pi := range profiles {
				sum.Add(mpki[pi][si][wi])
			}
			row = append(row, fmt.Sprintf("%.1f", sum.Mean()))
		}
		t.AddRow(row...)
	}
	t.AddNote("expected shape: MPKI flat beyond 4 ways, dropping with capacity (paper Fig 2a)")
	return t, nil
}

// fig2aFits reports whether a Fig 2a cache of size bytes has at least
// one set at the given associativity.
func fig2aFits(size uint64, ways int) bool { return uint64(ways)*addr.LineSize <= size }

// cacheOnlyMPKI draws one workload's stream once and measures it against
// a bare LRU cache of every Fig 2a geometry (identity translation, no
// timing) — the methodology of the paper's trace-driven motivation
// study. Caches with the same set count map every line to the same set,
// and an LRU cache of W ways holds exactly the W most recently used
// lines of each set (LRU inclusion), so one stack-distance pass per set
// count gives every associativity at once (Mattson et al., 1970).
// mpki[si][wi] is the MPKI of fig2Sizes[si] at sram.Assocs[wi];
// geometries that do not fit stay zero.
func cacheOnlyMPKI(p workload.Profile, seed int64, refs int) ([][]float64, error) {
	g := workload.NewGenerator(p, seed)
	g.BindDefault()
	// Only the line addresses and the instruction count matter, so the
	// stream is kept as line numbers, not trace records.
	lines := make([]uint64, refs)
	var instrs uint64
	for i := range lines {
		rec := g.Next(i % p.Threads)
		instrs += uint64(rec.Gap) + 1
		lines[i] = uint64(rec.VA) >> addr.LineBits
	}
	// depth[sets] is the most ways any geometry with that set count has.
	depth := map[int]int{}
	for _, size := range fig2Sizes {
		for _, ways := range sram.Assocs {
			if fig2aFits(size, ways) {
				sets := int(size/addr.LineSize) / ways
				depth[sets] = max(depth[sets], ways)
			}
		}
	}
	hits := map[int][]uint64{}
	for sets, d := range depth {
		hits[sets] = lruHits(lines, sets, d)
	}
	mpki := make([][]float64, len(fig2Sizes))
	for si, size := range fig2Sizes {
		mpki[si] = make([]float64, len(sram.Assocs))
		for wi, ways := range sram.Assocs {
			if !fig2aFits(size, ways) || instrs == 0 {
				continue
			}
			misses := uint64(refs)
			for _, h := range hits[int(size/addr.LineSize)/ways][:ways] {
				misses -= h
			}
			mpki[si][wi] = float64(misses) / float64(instrs) * 1000
		}
	}
	return mpki, nil
}

// lruHits replays lines against one LRU recency stack per set of a
// sets-set cache (sets a power of two), each stack depth lines deep.
// hits[d] counts the accesses that found their line d lines from the
// top of its set's stack, so a W-way LRU cache of that set count, W <=
// depth, hits exactly sum(hits[:W]) of them.
func lruHits(lines []uint64, sets, depth int) []uint64 {
	hits := make([]uint64, depth)
	// stacks holds each set's stack, most recent first, as line+1; 0
	// marks a slot not yet filled.
	stacks := make([]uint64, sets*depth)
	mask := uint64(sets - 1)
	for _, l := range lines {
		s := stacks[int(l&mask)*depth:][:depth]
		key := l + 1
		d := 0
		for d < depth && s[d] != key && s[d] != 0 {
			d++
		}
		switch {
		case d == depth:
			d--
		case s[d] == key:
			hits[d]++
		}
		copy(s[1:d+1], s[:d])
		s[0] = key
	}
	return hits
}

// Fig2b reproduces "Cache Access Latency" versus associativity from the
// SRAM model (ns, 22nm).
func Fig2b() (*stats.Table, error) {
	t := stats.NewTable("Fig 2b: access latency (ns) vs associativity",
		"size", "DM", "2-way", "4-way", "8-way", "16-way", "32-way")
	for _, size := range fig2Sizes {
		row := []string{fmt.Sprintf("%dKB", size>>10)}
		for _, ways := range sram.Assocs {
			l, err := sram.Latency(size, ways)
			if err != nil {
				return nil, err
			}
			row = append(row, fmt.Sprintf("%.2f", l))
		}
		t.AddRow(row...)
	}
	t.AddNote("10-25%% growth per step at low associativity, blow-up beyond 8 ways (paper Fig 2b)")
	return t, nil
}

// Fig2c reproduces "Cache access energy" versus associativity (nJ).
func Fig2c() (*stats.Table, error) {
	t := stats.NewTable("Fig 2c: access energy (nJ) vs associativity",
		"size", "DM", "2-way", "4-way", "8-way", "16-way", "32-way")
	for _, size := range fig2Sizes {
		row := []string{fmt.Sprintf("%dKB", size>>10)}
		for _, ways := range sram.Assocs {
			e, err := sram.Energy(size, ways)
			if err != nil {
				return nil, err
			}
			row = append(row, fmt.Sprintf("%.4f", e))
		}
		t.AddRow(row...)
	}
	t.AddNote("40-50%% growth per associativity doubling (paper Fig 2c)")
	return t, nil
}

// Fig3 reproduces the superpage-prevalence study: the fraction of each
// workload's footprint backed by 2MB pages as memhog fragments 0%, 40%,
// 60%, and 80% of physical memory.
func Fig3(o Options) (*stats.Table, error) {
	o = o.withDefaults()
	profiles, err := profilesFor(o)
	if err != nil {
		return nil, err
	}
	hogs := []float64{0, 0.40, 0.60, 0.80}
	// Tasks go in one memhog level at a time, so the tasks running next
	// to each other share one fragmentation image.
	tasks := make([][]*runner.Task[float64], len(profiles))
	for pi := range profiles {
		tasks[pi] = make([]*runner.Task[float64], len(hogs))
	}
	for hi, hog := range hogs {
		for pi, p := range profiles {
			tasks[pi][hi] = runner.Go(o.Pool, func() (float64, error) {
				return coverageUnderFragmentation(p, o.Seed, hog)
			})
		}
	}
	t := stats.NewTable("Fig 3: % of footprint in 2MB superpages vs memhog",
		"workload", "memhog(0%)", "memhog(40%)", "memhog(60%)", "memhog(80%)")
	for pi, p := range profiles {
		row := []string{p.Name}
		for hi := range hogs {
			cov, err := tasks[pi][hi].Wait()
			if err != nil {
				return nil, err
			}
			row = append(row, fmt.Sprintf("%.1f", cov*100))
		}
		t.AddRow(row...)
	}
	t.AddNote("expected shape: 65%%+ coverage through memhog(40-60%%), collapsing at 80%% (paper Fig 3)")
	return t, nil
}

// coverageUnderFragmentation maps one workload's footprint on fragmented
// memory and reports superpage coverage, including a khugepaged promotion
// pass (the OS keeps trying in the background, as on the paper's
// long-uptime systems).
func coverageUnderFragmentation(p workload.Profile, seed int64, hog float64) (float64, error) {
	// 1GB of physical memory: big enough that even the 96MB-footprint
	// workloads fit beside memhog(80%), as on the paper's 32GB testbed.
	buddy, h, src, err := physmem.Fragmented(seed, 1<<30, hog)
	if err != nil {
		return 0, err
	}
	mgr := osmm.NewManager(buddy, rand.New(src), true)
	if h != nil {
		mgr.Compactor = h // memhog pages are movable
	}
	proc, err := mgr.NewProcess(1)
	if err != nil {
		return 0, err
	}
	g := workload.NewGenerator(p, seed)
	if _, err := mgr.MmapHuge(proc, g.HeapBytes(), true); err != nil {
		return 0, err
	}
	if _, err := mgr.MmapHuge(proc, g.SmallBytes(), false); err != nil {
		return 0, err
	}
	mgr.PromoteScan(proc, 1<<30)
	return proc.SuperpageCoverage(), nil
}
