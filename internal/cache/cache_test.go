package cache

import (
	"math/rand"
	"slices"
	"testing"

	"seesaw/internal/addr"
)

func geom32K() addr.CacheGeometry { return addr.MustCacheGeometry(32<<10, 8, 2) }

func TestStateProperties(t *testing.T) {
	if Invalid.Dirty() || Shared.Dirty() || Exclusive.Dirty() {
		t.Error("clean states report dirty")
	}
	if !Owned.Dirty() || !Modified.Dirty() {
		t.Error("dirty states report clean")
	}
	if Modified.String() != "M" || Invalid.String() != "I" {
		t.Error("state strings wrong")
	}
}

func TestProbeMissOnEmpty(t *testing.T) {
	c := New(geom32K())
	if _, hit := c.Probe(0, AnyPartition, 42); hit {
		t.Error("hit on empty cache")
	}
	if c.ValidLines() != 0 {
		t.Error("empty cache has valid lines")
	}
}

func TestInsertProbeRoundTrip(t *testing.T) {
	c := New(geom32K())
	v := c.Insert(5, 1, 0xabc, Exclusive)
	if v.Valid {
		t.Error("insertion into empty set produced a victim")
	}
	w, hit := c.Probe(5, 1, 0xabc)
	if !hit {
		t.Fatal("probe missed inserted line")
	}
	if c.PartitionOfWay(w) != 1 {
		t.Errorf("line landed in partition %d, want 1", c.PartitionOfWay(w))
	}
	// Probing only partition 0 must miss: the line is confined to 1.
	if _, hit := c.Probe(5, 0, 0xabc); hit {
		t.Error("line visible in wrong partition")
	}
	if _, hit := c.Probe(5, AnyPartition, 0xabc); !hit {
		t.Error("line invisible to full-set probe")
	}
}

func TestAccessStats(t *testing.T) {
	c := New(geom32K())
	c.Insert(0, 0, 1, Shared)
	c.Access(0, AnyPartition, 1)
	c.Access(0, AnyPartition, 2)
	if c.Stats.Hits != 1 || c.Stats.Misses != 1 {
		t.Errorf("stats = %+v", c.Stats)
	}
	if got := c.MPKI(1000); got != 1 {
		t.Errorf("MPKI = %v", got)
	}
	if c.MPKI(0) != 0 {
		t.Error("MPKI with zero instructions must be 0")
	}
}

func TestPartitionLocalLRU(t *testing.T) {
	// Fill partition 0 (ways 0-3) with tags 1-4, then insert a 5th into
	// partition 0: the LRU of that partition must be evicted even though
	// partition 1 is empty — this is the "4way" insertion policy.
	c := New(geom32K())
	for tag := uint64(1); tag <= 4; tag++ {
		c.Insert(0, 0, tag, Shared)
	}
	c.Access(0, 0, 1) // tag 1 becomes MRU; tag 2 is LRU
	v := c.Insert(0, 0, 5, Shared)
	if !v.Valid || v.Tag != 2 {
		t.Fatalf("victim = %+v, want tag 2", v)
	}
	if c.PartitionOfWay(v.Way) != 0 {
		t.Error("victim came from wrong partition")
	}
	// Partition 1 stayed empty.
	for w := 4; w < 8; w++ {
		if c.StateOf(0, w) != Invalid {
			t.Error("partition 1 was disturbed")
		}
	}
}

func TestGlobalLRUUsesWholeSet(t *testing.T) {
	// The "4way-8way" policy inserts base pages with AnyPartition: with
	// partition 0 full and partition 1 empty there must be no eviction.
	c := New(geom32K())
	for tag := uint64(1); tag <= 4; tag++ {
		c.Insert(0, 0, tag, Shared)
	}
	v := c.Insert(0, AnyPartition, 99, Shared)
	if v.Valid {
		t.Fatalf("global insert evicted %+v with free ways available", v)
	}
	if c.ValidLines() != 5 {
		t.Errorf("valid = %d", c.ValidLines())
	}
}

func TestEvictionWritebackAccounting(t *testing.T) {
	c := New(geom32K())
	for tag := uint64(1); tag <= 4; tag++ {
		c.Insert(0, 0, tag, Modified)
	}
	c.Insert(0, 0, 5, Shared)
	if c.Stats.Evictions != 1 || c.Stats.Writebacks != 1 {
		t.Errorf("stats = %+v", c.Stats)
	}
}

func TestInvalidate(t *testing.T) {
	c := New(geom32K())
	c.Insert(3, 1, 7, Owned)
	st, ok := c.Invalidate(3, 7)
	if !ok || st != Owned {
		t.Fatalf("invalidate = %v %v", st, ok)
	}
	if _, hit := c.Probe(3, AnyPartition, 7); hit {
		t.Error("line survived invalidation")
	}
	if _, ok := c.Invalidate(3, 7); ok {
		t.Error("second invalidate found the line")
	}
}

func TestInsertInvalidPanics(t *testing.T) {
	c := New(geom32K())
	defer func() {
		if recover() == nil {
			t.Error("Insert(Invalid) did not panic")
		}
	}()
	c.Insert(0, 0, 1, Invalid)
}

func TestFindLineAndEvictRange(t *testing.T) {
	g := geom32K()
	c := New(g)
	// Insert lines covering a 4KB physical page.
	base := addr.PAddr(0x40000000)
	for off := uint64(0); off < 4096; off += addr.LineSize {
		pa := base + addr.PAddr(off)
		c.Insert(g.SetIndexP(pa), g.PartitionIndexP(pa), g.TagP(pa), Modified)
	}
	if c.ValidLines() != 64 {
		t.Fatalf("valid = %d, want 64", c.ValidLines())
	}
	if _, _, ok := c.FindLine(base + 128); !ok {
		t.Error("FindLine missed a resident line")
	}
	var sweep FrameSweep
	sweep.Reset([]addr.PAddr{base})
	victims := c.EvictFrames(&sweep)
	if len(victims) != 64 {
		t.Errorf("sweep evicted %d lines, want 64", len(victims))
	}
	if c.ValidLines() != 0 {
		t.Errorf("lines survived the sweep: %d", c.ValidLines())
	}
	if c.Stats.Writebacks != 64 {
		t.Errorf("dirty sweep writebacks = %d", c.Stats.Writebacks)
	}
	if _, _, ok := c.FindLine(base); ok {
		t.Error("FindLine hit after sweep")
	}
}

func TestEvictRangeSparesOutsiders(t *testing.T) {
	g := geom32K()
	c := New(g)
	in := addr.PAddr(0x1000)
	out := addr.PAddr(0x200000)
	c.Insert(g.SetIndexP(in), AnyPartition, g.TagP(in), Shared)
	c.Insert(g.SetIndexP(out), AnyPartition, g.TagP(out), Shared)
	var sweep FrameSweep
	sweep.Reset([]addr.PAddr{0x1000})
	c.EvictFrames(&sweep)
	if _, _, ok := c.FindLine(in); ok {
		t.Error("sweep spared a line inside the frame")
	}
	if _, _, ok := c.FindLine(out); !ok {
		t.Error("sweep evicted a line outside the range")
	}
}

// evictRange is the per-range sweep EvictFrames replaces, kept as its
// reference: every line whose physical line address lies in [lo, hi)
// leaves, by set and then way.
func evictRange(c *Cache, lo, hi addr.PAddr) []Victim {
	var victims []Victim
	for set := 0; set < c.geom.Sets(); set++ {
		base := set * c.ways
		for w := 0; w < c.ways; w++ {
			st := State(c.states[base+w])
			if st == Invalid {
				continue
			}
			pa := c.geom.LineFromSetTag(set, c.tags[base+w])
			if pa >= lo && pa < hi {
				victims = append(victims, Victim{Valid: true, Tag: c.tags[base+w], State: st, Way: w, PA: pa})
				if st.Dirty() {
					c.Stats.Writebacks++
				}
				c.Stats.Sweeps++
				c.clearWay(base + w)
			}
		}
	}
	return victims
}

// TestEvictFramesMatchesPerFrameRanges: one pass of EvictFrames leaves
// exactly what sweeping each frame's 4KB range in list order leaves:
// the same victims in the same order, the same statistics and the same
// surviving lines. Lists repeat frames, name frames the cache holds no
// line of, and one sweep's buffers serve every round and geometry.
func TestEvictFramesMatchesPerFrameRanges(t *testing.T) {
	var sweep FrameSweep
	rng := rand.New(rand.NewSource(5))
	states := []State{Shared, Exclusive, Owned, Modified}
	for _, g := range []addr.CacheGeometry{
		geom32K(),                             // 64 sets: a frame spans every set
		addr.MustCacheGeometry(16<<10, 32, 1), // 8 sets: a frame fills each set 8 times over
		addr.MustCacheGeometry(256<<10, 4, 1), // 1024 sets: a frame spans a sixteenth
		addr.MustCacheGeometry(32<<10, 8, 8),  // one way per partition
	} {
		for round := 0; round < 20; round++ {
			ref, got := New(g), New(g)
			// Lines of 48 frames; the sweep draws from 64.
			for i := 0; i < 3*g.Sets()*g.Ways; i++ {
				pa := addr.PAddr(0x4000_0000 + rng.Intn(48<<12)).LineBase()
				st := states[rng.Intn(len(states))]
				for _, c := range []*Cache{ref, got} {
					if _, hit := c.Access(g.SetIndexP(pa), AnyPartition, g.TagP(pa)); !hit {
						c.Insert(g.SetIndexP(pa), AnyPartition, g.TagP(pa), st)
					}
				}
			}
			frames := make([]addr.PAddr, rng.Intn(80))
			for i := range frames {
				frames[i] = addr.PAddr(0x4000_0000 + rng.Intn(64)<<12)
			}
			var want []Victim
			for _, f := range frames {
				want = append(want, evictRange(ref, f, f+4096)...)
			}
			sweep.Reset(frames)
			victims := got.EvictFrames(&sweep)
			if !slices.Equal(victims, want) {
				t.Fatalf("%v round %d: sweep gave %d victims %v, per-frame ranges %d %v", g, round, len(victims), victims, len(want), want)
			}
			if got.Stats != ref.Stats || !slices.Equal(got.tags, ref.tags) || !slices.Equal(got.states, ref.states) {
				t.Fatalf("%v round %d: stats %+v, want %+v, or the surviving lines differ", g, round, got.Stats, ref.Stats)
			}
		}
	}
}

// TestInsertionNeverDuplicates checks a storage invariant under random
// partition-local traffic: a physical line address maps to one set and
// lives in at most one way.
func TestInsertionNeverDuplicates(t *testing.T) {
	g := geom32K()
	c := New(g)
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 20000; i++ {
		pa := addr.PAddr(rng.Uint64() & 0xffffff).LineBase()
		set, tag := g.SetIndexP(pa), g.TagP(pa)
		part := g.PartitionIndexP(pa)
		if _, hit := c.Access(set, part, tag); !hit {
			c.Insert(set, part, tag, Shared)
		}
	}
	for set := 0; set < g.Sets(); set++ {
		seen := map[uint64]int{}
		for w := 0; w < g.Ways; w++ {
			if c.StateOf(set, w) == Invalid {
				continue
			}
			tag := c.TagOf(set, w)
			if prev, dup := seen[tag]; dup {
				t.Fatalf("set %d: tag %#x in ways %d and %d", set, tag, prev, w)
			}
			seen[tag] = w
		}
	}
}

// TestPartitionConfinement: under the 4way policy, every line's resident
// partition must equal the partition index derived from its physical
// address — the invariant that makes partition-filtered coherence lookups
// correct.
func TestPartitionConfinement(t *testing.T) {
	g := geom32K()
	c := New(g)
	rng := rand.New(rand.NewSource(13))
	for i := 0; i < 20000; i++ {
		pa := addr.PAddr(rng.Uint64() & 0xffffff).LineBase()
		set, tag, part := g.SetIndexP(pa), g.TagP(pa), g.PartitionIndexP(pa)
		if _, hit := c.Access(set, part, tag); !hit {
			c.Insert(set, part, tag, Shared)
		}
	}
	for set := 0; set < g.Sets(); set++ {
		for w := 0; w < g.Ways; w++ {
			if c.StateOf(set, w) == Invalid {
				continue
			}
			pa := g.LineFromSetTag(set, c.TagOf(set, w))
			if g.PartitionIndexP(pa) != c.PartitionOfWay(w) {
				t.Fatalf("line %#x resident in partition %d, address says %d",
					uint64(pa), c.PartitionOfWay(w), g.PartitionIndexP(pa))
			}
		}
	}
}
