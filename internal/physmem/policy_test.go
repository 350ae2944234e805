package physmem

import (
	"math/rand"
	"testing"
)

// lowestFree is the reference allocation policy, found by a full scan of
// the free blocks: the lowest block of the smallest order >= order that
// has any free block.
func lowestFree(b *Buddy, order int) (uint64, bool) {
	bestOrder, best := b.maxOrder+1, uint64(0)
	b.ForEachFreeBlock(func(frame uint64, k int) {
		if k >= order && (k < bestOrder || k == bestOrder && frame < best) {
			bestOrder, best = k, frame
		}
	})
	return best, bestOrder <= b.maxOrder
}

// covered reports whether a free block contains [frame, frame+2^order).
func covered(b *Buddy, frame uint64, order int) bool {
	found := false
	b.ForEachFreeBlock(func(head uint64, k int) {
		if head <= frame && frame+1<<order <= head+1<<k {
			found = true
		}
	})
	return found
}

// referenceCompact is the compaction choice recomputed from scratch with
// maps, the way the census used to be built on every call: among the 2MB
// regions whose frames are all free in sub-2MB blocks or pinned by the
// hog, the one with the fewest pinned frames, then the lowest. It also
// reports how many frames that region pins, and whether compaction can
// go ahead (a whole region's worth of memory must be free).
func referenceCompact(b *Buddy, h *Memhog) (region, movable uint64, ok bool) {
	free := map[uint64]uint64{}
	b.ForEachFreeBlock(func(frame uint64, k int) {
		if k < Order2M {
			free[frame/regionFrames] += 1 << k
		}
	})
	pinned := map[uint64]uint64{}
	for _, f := range h.frames {
		pinned[f/regionFrames]++
	}
	bestMovable := uint64(regionFrames + 1)
	for _, census := range []map[uint64]uint64{free, pinned} {
		for r := range census {
			if free[r]+pinned[r] != regionFrames {
				continue
			}
			if pinned[r] < bestMovable || pinned[r] == bestMovable && r < region {
				region, bestMovable, ok = r, pinned[r], true
			}
		}
	}
	if b.FreeBytes()/4096 < regionFrames {
		ok = false
	}
	return region, bestMovable, ok
}

// TestPoliciesMatchReference drives the allocator and a memhog through a
// seeded random mix of every mutating operation on small memories. After
// each step it checks both placement policies against the brute-force
// references above, and recounts all incremental bookkeeping.
func TestPoliciesMatchReference(t *testing.T) {
	type block struct {
		frame uint64
		order int
	}
	compactions := 0
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		mem := []uint64{4 << 20, 6 << 20, 16 << 20}[seed%3]
		b := MustNew(mem)
		h, err := Run(b, rand.New(rand.NewSource(seed)), 0.4, 0.9)
		if err != nil {
			t.Fatal(err)
		}
		var live []block // allocations the test owns
		for step := 0; step < 300; step++ {
			switch op := rng.Intn(20); {
			case op < 8:
				order := []int{0, 0, 0, 1, 2, 4, 9}[rng.Intn(7)]
				want, wantOK := lowestFree(b, order)
				got, ok := b.AllocOrder(order)
				if got != want || ok != wantOK {
					t.Fatalf("seed %d step %d: AllocOrder(%d) = %d/%v, lowest free block is %d/%v",
						seed, step, order, got, ok, want, wantOK)
				}
				if ok {
					live = append(live, block{got, order})
				}
			case op < 14:
				if len(live) == 0 {
					continue
				}
				i := rng.Intn(len(live))
				bl := live[i]
				live[i] = live[len(live)-1]
				live = live[:len(live)-1]
				if err := b.FreeOrder(bl.frame, bl.order); err != nil {
					t.Fatalf("seed %d step %d: %v", seed, step, err)
				}
			case op < 16:
				order := rng.Intn(3)
				frame := uint64(rng.Int63n(int64(b.totalFrames))) &^ (1<<order - 1)
				want := covered(b, frame, order)
				err := b.AllocFrameAt(frame, order)
				if (err == nil) != want {
					t.Fatalf("seed %d step %d: AllocFrameAt(%d, %d) = %v, block free = %v",
						seed, step, frame, order, err, want)
				}
				if err == nil {
					live = append(live, block{frame, order})
				}
			case op < 19:
				region, movable, want := referenceCompact(b, h)
				migrations := h.Migrations
				if got := h.Compact(); got != want {
					t.Fatalf("seed %d step %d: Compact() = %v, reference %v", seed, step, got, want)
				}
				if !want {
					continue
				}
				compactions++
				if !covered(b, region*regionFrames, Order2M) {
					t.Fatalf("seed %d step %d: Compact vacated a region other than %d", seed, step, region)
				}
				if h.Migrations-migrations != movable {
					t.Fatalf("seed %d step %d: Compact migrated %d frames, region %d pinned %d",
						seed, step, h.Migrations-migrations, region, movable)
				}
			default:
				if err := h.Release(); err != nil {
					t.Fatal(err)
				}
				if h, err = Run(b, rand.New(rand.NewSource(int64(step))), 0.1*float64(rng.Intn(9)), 0.9); err != nil {
					t.Fatal(err)
				}
			}
			if err := h.checkInvariants(); err != nil {
				t.Fatalf("seed %d step %d: %v", seed, step, err)
			}
		}
	}
	t.Logf("%d compactions", compactions)
	if compactions < 20 {
		t.Errorf("only %d compactions succeeded; the census went largely unchecked", compactions)
	}
}
