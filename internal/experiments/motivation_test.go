package experiments

import (
	"testing"

	"seesaw/internal/addr"
	"seesaw/internal/cache"
	"seesaw/internal/sram"
	"seesaw/internal/workload"
)

// cacheOnlyMPKIReference is the per-geometry loop the stack-distance
// pass replaces, kept as its reference: it replays the stream against a
// bare LRU cache of every Fig 2a geometry in turn.
func cacheOnlyMPKIReference(t *testing.T, p workload.Profile, seed int64, refs int) [][]float64 {
	t.Helper()
	g := workload.NewGenerator(p, seed)
	g.BindDefault()
	pas := make([]addr.PAddr, refs)
	var instrs uint64
	for i := range pas {
		rec := g.Next(i % p.Threads)
		instrs += uint64(rec.Gap) + 1
		pas[i] = addr.PAddr(rec.VA)
	}
	mpki := make([][]float64, len(fig2Sizes))
	for si, size := range fig2Sizes {
		mpki[si] = make([]float64, len(sram.Assocs))
		for wi, ways := range sram.Assocs {
			if !fig2aFits(size, ways) {
				continue
			}
			geom, err := addr.NewCacheGeometry(size, ways, 1)
			if err != nil {
				t.Fatal(err)
			}
			c := cache.New(geom)
			for _, pa := range pas {
				set, tag := geom.SetIndexP(pa), geom.TagP(pa)
				if _, hit := c.Access(set, cache.AnyPartition, tag); !hit {
					c.Insert(set, cache.AnyPartition, tag, cache.Shared)
				}
			}
			mpki[si][wi] = c.MPKI(instrs)
		}
	}
	return mpki
}

// TestCacheOnlyMPKIMatchesBareCaches: the stack-distance pass gives
// every Fig 2a geometry exactly the MPKI a bare LRU cache of that
// geometry gives, for every workload at two seeds.
func TestCacheOnlyMPKIMatchesBareCaches(t *testing.T) {
	const refs = 20_000
	for _, seed := range []int64{42, 7} {
		for _, p := range workload.Profiles() {
			got, err := cacheOnlyMPKI(p, seed, refs)
			if err != nil {
				t.Fatal(err)
			}
			want := cacheOnlyMPKIReference(t, p, seed, refs)
			for si, size := range fig2Sizes {
				for wi, ways := range sram.Assocs {
					if got[si][wi] != want[si][wi] {
						t.Errorf("%s seed %d %dKB %d-way: stack pass %v MPKI, bare cache %v", p.Name, seed, size>>10, ways, got[si][wi], want[si][wi])
					}
				}
			}
		}
	}
}
