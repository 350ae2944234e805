package coherence

import (
	"math/rand"
	"strings"
	"testing"

	"seesaw/internal/addr"
	"seesaw/internal/cache"
)

// TestLLCRowsMatchLRUCache drives the LLC rows and a cache.Cache under
// LRU with one seeded stream of lookups, writebacks and inserts, the
// way the System drives its LLC, and requires the same hits, victims
// and victim dirty bits op for op.
func TestLLCRowsMatchLRUCache(t *testing.T) {
	for _, ways := range []int{1, 2, 24} {
		const sets = 8
		geom, err := addr.NewCacheGeometry(uint64(sets*ways*addr.LineSize), ways, 1)
		if err != nil {
			t.Fatal(err)
		}
		rows, ref := newLLC(geom), cache.New(geom)
		rng := rand.New(rand.NewSource(int64(ways)))
		// insert fills a line both sides missed and compares the victims.
		insert := func(op int, line addr.PAddr, dirty bool) {
			st := cache.Exclusive
			if dirty {
				st = cache.Modified
			}
			set := geom.SetIndexP(line)
			v := ref.Insert(set, cache.AnyPartition, geom.TagP(line), st)
			victim, victimDirty, evicted := rows.insert(line, dirty)
			if evicted != v.Valid || evicted && (victim != geom.LineFromSetTag(set, v.Tag) || victimDirty != v.State.Dirty()) {
				t.Fatalf("%d-way op %d: insert %#x evicted (%v %#x dirty=%v), want (%v %#x dirty=%v)",
					ways, op, uint64(line), evicted, uint64(victim), victimDirty,
					v.Valid, uint64(geom.LineFromSetTag(set, v.Tag)), v.State.Dirty())
			}
		}
		for op := 0; op < 50000; op++ {
			// Three lines per way of every set, so rows fill and evict.
			line := addr.PAddr(rng.Intn(3*sets*ways)) << addr.LineBits
			set, tag := geom.SetIndexP(line), geom.TagP(line)
			switch rng.Intn(4) {
			case 0, 1: // a load or store reaching the LLC
				_, want := ref.Access(set, cache.AnyPartition, tag)
				if got := rows.lookup(line); got != want {
					t.Fatalf("%d-way op %d: lookup %#x hit=%v, want %v", ways, op, uint64(line), got, want)
				}
				if !want {
					insert(op, line, rng.Intn(2) == 0)
				}
			case 2: // a dirty L1 writeback
				way, want := ref.Probe(set, cache.AnyPartition, tag)
				if want {
					ref.SetState(set, way, cache.Modified)
				}
				if got := rows.writeback(line); got != want {
					t.Fatalf("%d-way op %d: writeback %#x hit=%v, want %v", ways, op, uint64(line), got, want)
				}
				if !want {
					insert(op, line, true)
				}
			case 3: // the checker's probe, which must leave recency alone
				_, want := ref.Probe(set, cache.AnyPartition, tag)
				if got := rows.resident(line); got != want {
					t.Fatalf("%d-way op %d: resident %#x = %v, want %v", ways, op, uint64(line), got, want)
				}
			}
		}
	}
}

// TestLLCTagRange: every line of the 32GB memory cap fits a word under
// the coarsest geometry, the largest tag round-trips, and a larger one
// panics with a message.
func TestLLCTagRange(t *testing.T) {
	geom, err := addr.NewCacheGeometry(addr.LineSize, 1, 1) // one set: tag = line number
	if err != nil {
		t.Fatal(err)
	}
	c := newLLC(geom)
	if c.lookup(32<<30 - addr.LineSize) {
		t.Fatal("empty LLC hit")
	}
	top := addr.PAddr(maxLLCTag) << addr.LineBits
	c.insert(top, true)
	if !c.lookup(top) {
		t.Fatal("largest tag did not round-trip")
	}
	if victim, dirty, ok := c.insert(0, false); !ok || victim != top || !dirty {
		t.Fatalf("victim = (%#x dirty=%v ok=%v), want (%#x dirty=true)", uint64(victim), dirty, ok, uint64(top))
	}
	defer func() {
		r := recover()
		if msg, _ := r.(string); !strings.Contains(msg, "exceeds the 4-byte line word") {
			t.Fatalf("recovered %v, want the tag-range panic", r)
		}
	}()
	c.lookup(top + addr.LineSize)
}
