package physmem

import (
	"math/rand"
	"testing"

	"seesaw/internal/addr"
)

func TestAllocFrameAtSplitsCoveringBlock(t *testing.T) {
	b := MustNew(8 << 20) // seeded as order-9+ blocks
	// Claim one specific 4KB frame in the middle of a 2MB block.
	if err := b.AllocFrameAt(300, Order4K); err != nil {
		t.Fatal(err)
	}
	if b.FreeBytes() != 8<<20-4096 {
		t.Errorf("free = %d", b.FreeBytes())
	}
	// Claiming it again must fail; a neighbor must succeed.
	if err := b.AllocFrameAt(300, Order4K); err == nil {
		t.Error("double targeted alloc succeeded")
	}
	if err := b.AllocFrameAt(301, Order4K); err != nil {
		t.Errorf("neighbor frame: %v", err)
	}
	// Free both; the 2MB block must fully coalesce again.
	b.FreeOrder(300, Order4K)
	b.FreeOrder(301, Order4K)
	if got := b.FreeBytesAtLeast(Order2M); got != 8<<20 {
		t.Errorf("coalesced = %d, want all", got)
	}
	if err := b.checkInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestAllocFrameAtValidation(t *testing.T) {
	b := MustNew(4 << 20)
	if err := b.AllocFrameAt(1, Order2M); err == nil {
		t.Error("misaligned targeted alloc must fail")
	}
	if err := b.AllocFrameAt(1<<30, Order4K); err == nil {
		t.Error("out-of-range targeted alloc must fail")
	}
}

func TestForEachFreeBlockAccountsAllFreeMemory(t *testing.T) {
	b := MustNew(16 << 20)
	b.AllocOrder(Order4K)
	b.AllocOrder(Order2M)
	var frames uint64
	b.ForEachFreeBlock(func(frame uint64, order int) { frames += 1 << order })
	if frames*4096 != b.FreeBytes() {
		t.Errorf("iterated %d bytes, free %d", frames*4096, b.FreeBytes())
	}
}

// TestCompactVacatesRegion is the defragmentation end-to-end check: after
// memhog shreds every 2MB block, a compaction must migrate pinned pages
// and make a 2MB allocation succeed again.
func TestCompactVacatesRegion(t *testing.T) {
	b := MustNew(32 << 20)
	rng := rand.New(rand.NewSource(21))
	h, err := Run(b, rng, 0.55, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	// Consume any surviving whole 2MB blocks so only compaction can help.
	for {
		if _, ok := b.Alloc(addr.Page2M); !ok {
			break
		}
	}
	if _, ok := b.Alloc(addr.Page2M); ok {
		t.Fatal("setup failed: 2MB still allocatable")
	}
	pinnedBefore := h.PinnedBytes()
	if !h.Compact() {
		t.Fatal("compaction found no vacatable region despite movable pages")
	}
	if h.Migrations == 0 {
		t.Error("compaction reported success without migrating anything")
	}
	if h.PinnedBytes() != pinnedBefore {
		t.Errorf("compaction changed pinned memory: %d -> %d", pinnedBefore, h.PinnedBytes())
	}
	if _, ok := b.Alloc(addr.Page2M); !ok {
		t.Error("2MB allocation still fails after successful compaction")
	}
	if err := b.checkInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestCompactFailsWhenMemoryTrulyFull(t *testing.T) {
	b := MustNew(8 << 20)
	rng := rand.New(rand.NewSource(3))
	h, err := Run(b, rng, 0.5, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	// Exhaust all remaining memory with unmovable allocations.
	for {
		if _, ok := b.AllocOrder(Order4K); !ok {
			break
		}
	}
	if h.Compact() {
		t.Error("compaction succeeded with zero free frames")
	}
}

func TestCompactRepeatedlyUntilExhausted(t *testing.T) {
	b := MustNew(32 << 20)
	rng := rand.New(rand.NewSource(5))
	h, err := Run(b, rng, 0.5, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	allocated := 0
	for {
		if _, ok := b.Alloc(addr.Page2M); ok {
			allocated++
			continue
		}
		if !h.Compact() {
			break
		}
	}
	// 50% pinned of 32MB leaves ~16MB allocatable as superpages with
	// perfect compaction; require we got most of it.
	if allocated < 6 {
		t.Errorf("compaction-assisted superpage allocations = %d, want >= 6", allocated)
	}
	if err := b.checkInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestCompactWithoutRegionAllocatesNothing: when no region qualifies,
// Compact reads the census once and allocates nothing.
func TestCompactWithoutRegionAllocatesNothing(t *testing.T) {
	b := MustNew(16 << 20)
	h, err := Run(b, rand.New(rand.NewSource(5)), 0.3, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	// Fill every free frame with unmovable allocations.
	for {
		if _, ok := b.AllocOrder(Order4K); !ok {
			break
		}
	}
	if _, _, ok := referenceCompact(b, h); ok {
		t.Fatal("setup failed: a region qualifies for compaction")
	}
	allocs := testing.AllocsPerRun(100, func() {
		if h.Compact() {
			t.Fatal("compaction succeeded with no qualifying region")
		}
	})
	if allocs != 0 {
		t.Errorf("Compact with no qualifying region made %v allocations, want 0", allocs)
	}
}
