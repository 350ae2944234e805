package physmem

// Clone returns an independent deep copy of the allocator: same free
// blocks, same fragmentation, same deterministic lowest-address-first
// behaviour from here on.
func (b *Buddy) Clone() *Buddy {
	c := &Buddy{
		totalFrames: b.totalFrames,
		maxOrder:    b.maxOrder,
		bits:        append([]uint64(nil), b.bits...),
		free:        append([]freeSet(nil), b.free...),
		small:       append([]uint32(nil), b.small...),
		freeFrames:  b.freeFrames,
	}
	c.sliceBits()
	return c
}

// Clone returns an independent deep copy of the hog pinned into buddy,
// which must be a clone of the hog's own buddy.
func (h *Memhog) Clone(buddy *Buddy) *Memhog {
	return &Memhog{
		buddy:       buddy,
		frames:      append([]uint64(nil), h.frames...),
		at:          append([]uint32(nil), h.at...),
		movable:     append([]uint32(nil), h.movable...),
		cursor:      h.cursor,
		Migrations:  h.Migrations,
		Compactions: h.Compactions,
	}
}
