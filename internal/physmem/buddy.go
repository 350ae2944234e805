// Package physmem simulates physical memory with a binary buddy allocator,
// the mechanism that determines whether the OS can find the contiguous,
// aligned 2MB blocks that transparent superpages need. Fragmentation of
// the buddy free lists — e.g. from the paper's memhog microbenchmark — is
// what makes superpage allocation fail, which is the effect Figures 3 and
// 12 of the paper measure.
//
// Frames are counted in 4KB units. Order k describes a block of 2^k
// contiguous, naturally aligned 4KB frames: order 0 is a base page, order
// 9 a 2MB superpage, order 18 a 1GB superpage.
package physmem

import (
	"fmt"
	"math/bits"

	"seesaw/internal/addr"
)

// Orders of interest.
const (
	Order4K = 0
	Order2M = 9
	Order1G = 18
)

// regionFrames is the frame count of a 2MB region, the unit in which the
// compaction census (Buddy.small, Memhog.movable) counts.
const regionFrames = 1 << Order2M

// OrderFor returns the buddy order of a page size.
func OrderFor(s addr.PageSize) int {
	switch s {
	case addr.Page4K:
		return Order4K
	case addr.Page2M:
		return Order2M
	case addr.Page1G:
		return Order1G
	}
	panic(fmt.Sprintf("physmem: invalid page size %v", s))
}

// freeSet holds the free blocks of one order as a bitset over block
// indices: bit i is set iff the order-k block starting at frame i<<k is
// free at exactly that order.
type freeSet struct {
	words []uint64
	count int // set bits
	hint  int // every word below hint is zero
}

// Buddy is a binary buddy allocator over a simulated physical memory.
type Buddy struct {
	totalFrames uint64
	maxOrder    int

	// bits backs every order's bitset, so Clone copies one slice.
	bits []uint64
	// free[k] marks the heads of free order-k blocks. A frame heads a
	// free block of at most one order.
	free []freeSet
	// small[r] counts the free frames of 2MB region r that sit in blocks
	// below Order2M: the free half of the compaction census.
	small []uint32

	freeFrames uint64
}

// New creates a buddy allocator managing totalBytes of physical memory.
// totalBytes must be a multiple of the largest block size implied by
// maxOrder blocks; memory is seeded as maximal free blocks.
func New(totalBytes uint64) (*Buddy, error) {
	if totalBytes == 0 || totalBytes%(4096<<Order2M) != 0 {
		return nil, fmt.Errorf("physmem: total %d bytes not a multiple of 2MB", totalBytes)
	}
	frames := totalBytes / 4096
	maxOrder := Order1G
	for (uint64(1) << maxOrder) > frames {
		maxOrder--
	}
	b := &Buddy{
		totalFrames: frames,
		maxOrder:    maxOrder,
		free:        make([]freeSet, maxOrder+1),
		small:       make([]uint32, frames/regionFrames),
		freeFrames:  frames,
	}
	n := 0
	for k := range b.free {
		n += b.bitsetWords(k)
	}
	b.bits = make([]uint64, n)
	b.sliceBits()
	// Seed free memory greedily with the largest blocks that fit.
	frame := uint64(0)
	for frame < frames {
		k := maxOrder
		for (uint64(1)<<k) > frames-frame || frame%(1<<k) != 0 {
			k--
		}
		b.setFree(frame, k)
		frame += 1 << k
	}
	return b, nil
}

// MustNew is New that panics on error.
func MustNew(totalBytes uint64) *Buddy {
	b, err := New(totalBytes)
	if err != nil {
		panic(err)
	}
	return b
}

// bitsetWords returns the length of order k's bitset. It covers block
// indices up to totalFrames>>k, one past the last whole block, because a
// block's buddy and the blocks AllocFrameAt probes may start at the end
// of memory.
func (b *Buddy) bitsetWords(k int) int { return int(b.totalFrames>>k)/64 + 1 }

// sliceBits points each order's bitset at its part of b.bits.
func (b *Buddy) sliceBits() {
	rest := b.bits
	for k := range b.free {
		w := b.bitsetWords(k)
		b.free[k].words, rest = rest[:w:w], rest[w:]
	}
}

// validBlock reports whether an order-`order` block at frame is naturally
// aligned and lies wholly inside memory.
func (b *Buddy) validBlock(frame uint64, order int) bool {
	return order >= 0 && order <= b.maxOrder && frame%(1<<order) == 0 && frame <= b.totalFrames-(1<<order)
}

// isFree reports whether frame heads a free block of exactly order k.
func (b *Buddy) isFree(frame uint64, k int) bool {
	i := frame >> k
	return b.free[k].words[i/64]&(1<<(i%64)) != 0
}

func (b *Buddy) setFree(frame uint64, k int) {
	s := &b.free[k]
	i := frame >> k
	w := int(i / 64)
	s.words[w] |= 1 << (i % 64)
	s.count++
	if w < s.hint {
		s.hint = w
	}
	if k < Order2M {
		b.small[frame/regionFrames] += 1 << k
	}
}

func (b *Buddy) clearFree(frame uint64, k int) {
	s := &b.free[k]
	i := frame >> k
	s.words[i/64] &^= 1 << (i % 64)
	s.count--
	if k < Order2M {
		b.small[frame/regionFrames] -= 1 << k
	}
}

// popFree removes and returns the lowest free block of exactly this order,
// or false if none exists.
func (b *Buddy) popFree(k int) (uint64, bool) {
	s := &b.free[k]
	if s.count == 0 {
		return 0, false
	}
	w := s.hint
	for s.words[w] == 0 {
		w++
	}
	s.hint = w
	frame := (uint64(w)*64 + uint64(bits.TrailingZeros64(s.words[w]))) << k
	b.clearFree(frame, k)
	return frame, true
}

// headOrder returns the order of the free block headed by frame, if any.
func (b *Buddy) headOrder(frame uint64) (int, bool) {
	for k := 0; k <= b.maxOrder && frame%(1<<k) == 0; k++ {
		if b.isFree(frame, k) {
			return k, true
		}
	}
	return 0, false
}

// cover returns the free block containing the naturally aligned
// order-`order` block at frame, if one exists.
func (b *Buddy) cover(frame uint64, order int) (head uint64, k int, ok bool) {
	for k = order; k <= b.maxOrder; k++ {
		head = frame &^ (uint64(1)<<k - 1)
		if b.isFree(head, k) {
			return head, k, true
		}
	}
	return 0, 0, false
}

// AllocOrder allocates a naturally aligned block of 2^order frames,
// splitting larger blocks as needed, lowest address first. It returns the
// start frame and whether the allocation succeeded.
func (b *Buddy) AllocOrder(order int) (uint64, bool) {
	if order < 0 || order > b.maxOrder {
		return 0, false
	}
	// Find the smallest order >= requested with a free block.
	k := order
	var frame uint64
	for {
		if k > b.maxOrder {
			return 0, false
		}
		if f, ok := b.popFree(k); ok {
			frame = f
			break
		}
		k++
	}
	// Split back down, returning the high halves to the free lists.
	for k > order {
		k--
		b.setFree(frame+(1<<k), k)
	}
	b.freeFrames -= 1 << order
	return frame, true
}

// Alloc allocates a page of the given size, returning its base physical
// address.
func (b *Buddy) Alloc(s addr.PageSize) (addr.PAddr, bool) {
	frame, ok := b.AllocOrder(OrderFor(s))
	if !ok {
		return 0, false
	}
	return addr.PAddr(frame * 4096), true
}

// AllocFrameAt allocates the specific naturally aligned order-`order`
// block starting at frame, splitting any larger free block that covers
// it. It fails if the block is not currently (entirely) free. Memory
// compaction uses this to claim the region it has just vacated.
func (b *Buddy) AllocFrameAt(frame uint64, order int) error {
	if !b.validBlock(frame, order) {
		return fmt.Errorf("physmem: bad targeted alloc of frame %d order %d", frame, order)
	}
	coverHead, k, ok := b.cover(frame, order)
	if !ok {
		return fmt.Errorf("physmem: frame %d order %d not free", frame, order)
	}
	b.clearFree(coverHead, k)
	// Split the covering block down, keeping the halves that do not
	// contain the target.
	for k > order {
		k--
		half := coverHead + (1 << k)
		if frame >= half {
			b.setFree(coverHead, k)
			coverHead = half
		} else {
			b.setFree(half, k)
		}
	}
	b.freeFrames -= 1 << order
	return nil
}

// ForEachFreeBlock visits every free block (head frame and order), by
// order and then by address.
func (b *Buddy) ForEachFreeBlock(fn func(frame uint64, order int)) {
	for k := range b.free {
		for w, word := range b.free[k].words {
			for ; word != 0; word &= word - 1 {
				fn((uint64(w)*64+uint64(bits.TrailingZeros64(word)))<<k, k)
			}
		}
	}
}

// FreeOrder frees a previously allocated block, coalescing with free
// buddies as far as possible. Freeing a block that was not allocated at
// this order corrupts the allocator; callers own that bookkeeping.
func (b *Buddy) FreeOrder(frame uint64, order int) error {
	if !b.validBlock(frame, order) {
		return fmt.Errorf("physmem: bad free of frame %d order %d", frame, order)
	}
	if _, isFree := b.headOrder(frame); isFree {
		return fmt.Errorf("physmem: double free of frame %d", frame)
	}
	b.freeFrames += 1 << order
	for order < b.maxOrder {
		buddy := frame ^ (1 << order)
		if !b.isFree(buddy, order) {
			break
		}
		b.clearFree(buddy, order)
		if buddy < frame {
			frame = buddy
		}
		order++
	}
	b.setFree(frame, order)
	return nil
}

// Free frees a page of the given size at the given base address.
func (b *Buddy) Free(p addr.PAddr, s addr.PageSize) error {
	return b.FreeOrder(uint64(p)/4096, OrderFor(s))
}

// TotalBytes returns the managed memory size.
func (b *Buddy) TotalBytes() uint64 { return b.totalFrames * 4096 }

// FreeBytes returns the number of free bytes.
func (b *Buddy) FreeBytes() uint64 { return b.freeFrames * 4096 }

// MaxOrder returns the largest supported order.
func (b *Buddy) MaxOrder() int { return b.maxOrder }

// FreeBytesAtLeast returns the number of free bytes held in blocks of at
// least the given order — the memory actually usable for superpages of
// that order without compaction.
func (b *Buddy) FreeBytesAtLeast(order int) uint64 {
	var frames uint64
	for k := max(order, 0); k <= b.maxOrder; k++ {
		frames += uint64(b.free[k].count) << k
	}
	return frames * 4096
}

// Fragmentation returns 1 - (free bytes in >=2MB blocks / free bytes): 0
// means all free memory is superpage-usable, 1 means none of it is.
func (b *Buddy) Fragmentation() float64 {
	free := b.FreeBytes()
	if free == 0 {
		return 1
	}
	return 1 - float64(b.FreeBytesAtLeast(Order2M))/float64(free)
}

// checkInvariants verifies internal consistency by recounting everything
// the allocator keeps incrementally; used by tests.
func (b *Buddy) checkInvariants() error {
	for k, s := range b.free {
		n := 0
		for w, word := range s.words {
			if word != 0 && w < s.hint {
				return fmt.Errorf("order %d: word %d set below hint %d", k, w, s.hint)
			}
			n += bits.OnesCount64(word)
		}
		if n != s.count {
			return fmt.Errorf("order %d: %d blocks set, count says %d", k, n, s.count)
		}
	}
	st := b.State()
	frames, err := b.blockFrames(st)
	if err != nil {
		return err
	}
	if frames != b.freeFrames {
		return fmt.Errorf("free frame count %d != accounted %d", b.freeFrames, frames)
	}
	small := make([]uint32, len(b.small))
	for i, f := range st.FreeFrames {
		if k := st.FreeOrders[i]; k < Order2M {
			small[f/regionFrames] += 1 << k
		}
	}
	for r, n := range small {
		if b.small[r] != n {
			return fmt.Errorf("region %d: census has %d small free frames, blocks hold %d", r, b.small[r], n)
		}
	}
	return nil
}
