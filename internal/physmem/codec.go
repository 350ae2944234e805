package physmem

import (
	"fmt"
	"sort"
)

// BuddyState is the serializable mutable state of a Buddy allocator.
// Geometry (total frames, max order) is config-derived and re-created by
// physmem.New; only the free blocks travel, as (frame, order) pairs
// sorted by frame. The allocator always hands out the lowest free block
// of an order, so the free blocks alone define what it does next.
type BuddyState struct {
	FreeFrames  []uint64 // head frames of the free blocks, ascending
	FreeOrders  []int    // their orders, parallel to FreeFrames
	FreeCount   uint64   // free frames, cross-checked against the blocks
	TotalFrames uint64   // for cross-checking against the rebuilt allocator
}

// State captures the allocator's free blocks.
func (b *Buddy) State() BuddyState {
	s := BuddyState{FreeCount: b.freeFrames, TotalFrames: b.totalFrames}
	b.ForEachFreeBlock(func(frame uint64, _ int) { s.FreeFrames = append(s.FreeFrames, frame) })
	sort.Slice(s.FreeFrames, func(i, j int) bool { return s.FreeFrames[i] < s.FreeFrames[j] })
	s.FreeOrders = make([]int, len(s.FreeFrames))
	for i, f := range s.FreeFrames {
		s.FreeOrders[i], _ = b.headOrder(f)
	}
	return s
}

// SetState restores the free blocks in place, so every holder of this
// *Buddy (the OS manager, the memhog) observes the restored state
// without rewiring. The receiver must have the same geometry the state
// was captured from. Every block must be naturally aligned, lie inside
// memory and start at or after the end of the block before it, and the
// blocks must hold exactly FreeCount frames; a state that breaks any of
// these is rejected and leaves the allocator untouched.
func (b *Buddy) SetState(s BuddyState) error {
	if s.TotalFrames != b.totalFrames {
		return fmt.Errorf("physmem: state covers %d frames, allocator has %d", s.TotalFrames, b.totalFrames)
	}
	if len(s.FreeFrames) != len(s.FreeOrders) {
		return fmt.Errorf("physmem: free-block arrays disagree (%d frames, %d orders)", len(s.FreeFrames), len(s.FreeOrders))
	}
	frames, err := b.blockFrames(s)
	if err != nil {
		return err
	}
	if frames != s.FreeCount {
		return fmt.Errorf("physmem: free count %d, blocks hold %d frames", s.FreeCount, frames)
	}
	clear(b.bits)
	for k := range b.free {
		b.free[k].count, b.free[k].hint = 0, 0
	}
	clear(b.small)
	for i, f := range s.FreeFrames {
		b.setFree(f, s.FreeOrders[i])
	}
	b.freeFrames = frames
	return nil
}

// blockFrames checks that a state's free blocks fit this allocator (each
// naturally aligned, inside memory, and starting at or after the end of
// the block before it) and returns how many frames they hold.
func (b *Buddy) blockFrames(s BuddyState) (uint64, error) {
	var frames, end uint64
	for i, f := range s.FreeFrames {
		k := s.FreeOrders[i]
		if !b.validBlock(f, k) {
			return 0, fmt.Errorf("physmem: free block at frame %d order %d is misaligned or outside %d frames", f, k, b.totalFrames)
		}
		if f < end {
			return 0, fmt.Errorf("physmem: free block at frame %d overlaps or precedes the block ending at %d", f, end)
		}
		end = f + 1<<k
		frames += 1 << k
	}
	return frames, nil
}

// MemhogState is the serializable mutable state of a Memhog: the frames
// it pins in pin order, its Touch cursor, and its counters. The buddy it
// draws from is restored separately and stays wired.
type MemhogState struct {
	Frames      []uint64
	Cursor      int
	Migrations  uint64
	Compactions uint64
}

// State captures the hog's pinned frames and counters.
func (h *Memhog) State() MemhogState {
	return MemhogState{
		Frames:      append([]uint64(nil), h.frames...),
		Cursor:      h.cursor,
		Migrations:  h.Migrations,
		Compactions: h.Compactions,
	}
}

// SetState restores the hog in place; its buddy pointer is untouched
// (the caller restores the buddy separately). A state with a frame
// outside memory or pinned twice is rejected and leaves the hog
// untouched.
func (h *Memhog) SetState(s MemhogState) error {
	if s.Cursor < 0 {
		return fmt.Errorf("physmem: negative hog cursor %d", s.Cursor)
	}
	seen := make([]uint64, len(h.at)/64+1)
	for _, f := range s.Frames {
		if f >= uint64(len(h.at)) {
			return fmt.Errorf("physmem: pinned frame %d beyond %d total frames", f, len(h.at))
		}
		if seen[f/64]&(1<<(f%64)) != 0 {
			return fmt.Errorf("physmem: frame %d pinned twice", f)
		}
		seen[f/64] |= 1 << (f % 64)
	}
	clear(h.at)
	clear(h.movable)
	h.frames = h.frames[:0]
	for _, f := range s.Frames {
		h.pin(f)
	}
	h.cursor = s.Cursor
	h.Migrations = s.Migrations
	h.Compactions = s.Compactions
	return nil
}
