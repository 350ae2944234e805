package physmem

import (
	"fmt"
	"math/rand"

	"seesaw/internal/addr"
)

// Memhog reproduces the paper's memory-fragmentation microbenchmark. It
// pins `fraction` of physical memory in scattered 4KB pages: memhog(40%)
// corresponds to the paper's scenario where memhog holds 40% of system
// memory. To scatter its pages it over-allocates by a churn factor and
// frees the excess at random positions, poking 4KB holes through the
// buddy allocator's large blocks.
//
// Memhog's pages are *movable* anonymous memory, exactly like the real
// microbenchmark's — so it also plays the role Linux's movable pages play
// during memory compaction: Compact vacates a 2MB region by migrating the
// hog's pages elsewhere, which is how OSes keep allocating superpages at
// non-trivial fragmentation (paper Section III-C).
type Memhog struct {
	buddy *Buddy
	// The pinned frames form an indexed set: frames lists them in pin
	// order, which keeps Touch and Release deterministic, and at[f] is
	// 1 + f's position in frames, or 0 when f is not pinned.
	frames []uint64
	at     []uint32
	// movable[r] counts the pinned frames in 2MB region r: the movable
	// half of the compaction census.
	movable []uint32
	cursor  int // next Touch position in frames

	// Migrations counts pages moved by compaction.
	Migrations uint64
	// Compactions counts successful region vacations.
	Compactions uint64
}

func (h *Memhog) pin(f uint64) {
	h.frames = append(h.frames, f)
	h.at[f] = uint32(len(h.frames))
	h.movable[f/regionFrames]++
}

func (h *Memhog) unpin(f uint64) {
	i := h.at[f] - 1
	last := h.frames[len(h.frames)-1]
	h.frames[i] = last
	h.at[last] = i + 1
	h.frames = h.frames[:len(h.frames)-1]
	h.at[f] = 0
	h.movable[f/regionFrames]--
}

// Run fragments memory, pinning `fraction` of it. touch is the total
// fraction of memory transiently allocated (>= fraction; capped at 0.97);
// the excess is freed at scattered positions. On a long-uptime loaded
// system essentially all memory has been touched, so callers typically
// pass touch close to 1. The rng makes runs deterministic.
func Run(b *Buddy, rng *rand.Rand, fraction, touch float64) (*Memhog, error) {
	if fraction < 0 || fraction > 0.95 {
		return nil, fmt.Errorf("physmem: memhog fraction %.2f outside [0,0.95]", fraction)
	}
	if touch < 0 || touch > 1 {
		return nil, fmt.Errorf("physmem: memhog touch %.2f outside [0,1]", touch)
	}
	if touch < fraction {
		touch = fraction
	}
	if touch > 0.97 {
		touch = 0.97
	}
	totalFrames := b.totalFrames
	h := &Memhog{buddy: b, at: make([]uint32, totalFrames), movable: make([]uint32, len(b.small))}
	pinTarget := uint64(float64(totalFrames) * fraction)
	allocTarget := uint64(float64(totalFrames) * touch)
	frames := make([]uint64, 0, allocTarget)
	for uint64(len(frames)) < allocTarget {
		f, ok := b.AllocOrder(Order4K)
		if !ok {
			break
		}
		frames = append(frames, f)
	}
	// Free the excess at scattered positions; keep pinTarget pinned.
	rng.Shuffle(len(frames), func(i, j int) { frames[i], frames[j] = frames[j], frames[i] })
	keep := pinTarget
	if keep > uint64(len(frames)) {
		keep = uint64(len(frames))
	}
	for _, f := range frames[keep:] {
		if err := b.FreeOrder(f, Order4K); err != nil {
			return nil, err
		}
	}
	h.frames = make([]uint64, 0, keep)
	for _, f := range frames[:keep] {
		h.pin(f)
	}
	return h, nil
}

// PinnedBytes returns how much memory the hog still holds.
func (h *Memhog) PinnedBytes() uint64 { return uint64(len(h.frames)) * 4096 }

// Release frees every pinned page, undoing the fragmentation pressure
// (free blocks coalesce again).
func (h *Memhog) Release() error {
	for _, f := range h.frames {
		if err := h.buddy.FreeOrder(f, Order4K); err != nil {
			return err
		}
	}
	clear(h.at)
	clear(h.movable)
	h.frames = nil
	h.cursor = 0
	return nil
}

// Touch returns the physical addresses of up to n pinned pages; the
// simulator uses them to generate memhog's background memory traffic. A
// cursor walks the pinned set so successive calls spread the traffic
// across the hog's footprint, deterministically.
func (h *Memhog) Touch(n int) []addr.PAddr {
	if n > len(h.frames) {
		n = len(h.frames)
	}
	out := make([]addr.PAddr, 0, n)
	for k := 0; k < n; k++ {
		if h.cursor >= len(h.frames) {
			h.cursor = 0
		}
		out = append(out, addr.PAddr(h.frames[h.cursor]*4096))
		h.cursor++
	}
	return out
}

// Compact implements osmm.Compactor: it vacates one 2MB region whose
// frames are all either free or pinned by the hog (movable), migrating
// the hog's pages to free frames elsewhere. On success the region is
// left free and coalesced, ready for a superpage allocation. It picks
// the region needing the fewest migrations, then the lowest one. The
// census it chooses from (the buddy's small, the hog's movable) is kept
// up to date as memory changes, so choosing costs one pass over the
// regions and allocates nothing.
func (h *Memhog) Compact() bool {
	best, bestMovable := -1, uint32(regionFrames+1)
	for r, n := range h.movable {
		if n < bestMovable && h.buddy.small[r]+n == regionFrames {
			best, bestMovable = r, n
		}
	}
	if best < 0 {
		return false
	}
	// Migration targets must exist: bestMovable free frames *outside*
	// the region. Free frames inside it are being vacated, so the total
	// free count must be at least a whole region's worth.
	if h.buddy.freeFrames < regionFrames {
		return false
	}
	start := uint64(best) * regionFrames
	// Step 1: claim every free frame inside the region so replacement
	// allocations cannot land there.
	var claimed []uint64
	for f := start; f < start+regionFrames; f++ {
		if h.at[f] != 0 {
			continue
		}
		if err := h.buddy.AllocFrameAt(f, Order4K); err != nil {
			// Raced with our own bookkeeping; undo and bail.
			for _, c := range claimed {
				h.buddy.FreeOrder(c, Order4K)
			}
			return false
		}
		claimed = append(claimed, f)
	}
	// Step 2: migrate the hog's pages out.
	var moved []uint64
	for f := start; f < start+regionFrames; f++ {
		if h.at[f] == 0 {
			continue
		}
		nf, ok := h.buddy.AllocOrder(Order4K)
		if !ok {
			// Out of memory mid-migration: restore and fail.
			for _, m := range moved {
				h.buddy.FreeOrder(m, Order4K)
			}
			for _, c := range claimed {
				h.buddy.FreeOrder(c, Order4K)
			}
			return false
		}
		moved = append(moved, nf)
		h.unpin(f)
		h.pin(nf)
		h.Migrations++
	}
	// Step 3: release the whole region; the buddy coalesces it back into
	// one 2MB block. Old pinned frames are freed here; claimed frames
	// too.
	for f := start; f < start+regionFrames; f++ {
		if err := h.buddy.FreeOrder(f, Order4K); err != nil {
			return false
		}
	}
	h.Compactions++
	return true
}

// checkInvariants verifies the buddy's and the hog's incremental
// bookkeeping against a recount; used by tests.
func (h *Memhog) checkInvariants() error {
	if err := h.buddy.checkInvariants(); err != nil {
		return err
	}
	movable := make([]uint32, len(h.movable))
	for i, f := range h.frames {
		if h.at[f] != uint32(i+1) {
			return fmt.Errorf("pinned frame %d sits at position %d, index says %d", f, i, h.at[f])
		}
		if _, _, free := h.buddy.cover(f, Order4K); free {
			return fmt.Errorf("pinned frame %d is free in the buddy", f)
		}
		movable[f/regionFrames]++
	}
	indexed := 0
	for _, i := range h.at {
		if i != 0 {
			indexed++
		}
	}
	if indexed != len(h.frames) {
		return fmt.Errorf("index holds %d frames, %d pinned", indexed, len(h.frames))
	}
	for r, n := range movable {
		if h.movable[r] != n {
			return fmt.Errorf("region %d: census has %d movable frames, hog pins %d", r, h.movable[r], n)
		}
	}
	return nil
}
