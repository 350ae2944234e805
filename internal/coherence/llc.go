package coherence

import (
	"fmt"

	"seesaw/internal/addr"
)

// llc is the inclusive last-level cache's storage: one recency-ordered
// row of 4-byte words per set, most recently used first, the idiom
// tlb.TLB uses for its sets. A word is (tag+1)<<1 | dirty, and 0 marks
// an empty way.
//
// The layout is exact, not an approximation. The LLC reads one bit of a
// line's state: lines enter Exclusive (load) or Modified (store), a
// writeback makes them Modified, and a victim is only asked whether it
// is dirty. It loses a line only to whole-set LRU replacement, never to
// an invalidation, so a row's lines always form a prefix and its last
// word is the LRU victim. A row therefore yields the same hits, victims
// and dirty victims as a set-associative array with per-way states and
// LRU timestamps, in 4 bytes per line.
type llc struct {
	geom addr.CacheGeometry
	ways int
	rows []uint32
}

// maxLLCTag is the largest tag a word can hold: (tag+1)<<1 must fit in
// 32 bits. Physical memory is capped at 32GB, so a line lies below 2^35
// and its tag below 2^29 under any geometry.
const maxLLCTag = 1<<31 - 2

func newLLC(geom addr.CacheGeometry) llc {
	return llc{geom: geom, ways: geom.Ways, rows: make([]uint32, geom.Sets()*geom.Ways)}
}

// locate returns line's row and its word with the dirty bit clear.
func (c *llc) locate(line addr.PAddr) (row []uint32, word uint32) {
	tag := c.geom.TagP(line)
	if tag > maxLLCTag {
		panic(fmt.Sprintf("coherence: LLC tag %#x of line %#x exceeds the 4-byte line word", tag, uint64(line)))
	}
	set := c.geom.SetIndexP(line)
	return c.rows[set*c.ways : (set+1)*c.ways], uint32(tag+1) << 1
}

// find returns the way holding word in row, or -1. Lines form a prefix,
// so the scan stops at the first empty way.
func find(row []uint32, word uint32) int {
	for i, w := range row {
		if w == 0 {
			break
		}
		if w&^1 == word {
			return i
		}
	}
	return -1
}

// lookup reports whether line is resident; a hit becomes most recently
// used.
func (c *llc) lookup(line addr.PAddr) bool {
	row, word := c.locate(line)
	i := find(row, word)
	if i < 0 {
		return false
	}
	if i > 0 {
		w := row[i]
		copy(row[1:i+1], row[:i])
		row[0] = w
	}
	return true
}

// writeback marks a resident line dirty in place, leaving its recency
// alone, and reports whether it was resident.
func (c *llc) writeback(line addr.PAddr) bool {
	row, word := c.locate(line)
	i := find(row, word)
	if i < 0 {
		return false
	}
	row[i] |= 1
	return true
}

// insert makes a line that is not resident the most recently used,
// shifting the row down by one. It returns the displaced LRU line, if
// the row was full, and whether that victim was dirty.
func (c *llc) insert(line addr.PAddr, dirty bool) (victim addr.PAddr, victimDirty, evicted bool) {
	row, word := c.locate(line)
	last := row[c.ways-1]
	copy(row[1:], row[:c.ways-1])
	if dirty {
		word |= 1
	}
	row[0] = word
	if last == 0 {
		return 0, false, false
	}
	return c.geom.LineFromSetTag(c.geom.SetIndexP(line), uint64(last>>1)-1), last&1 != 0, true
}

// resident reports whether line is in the LLC without touching recency.
func (c *llc) resident(line addr.PAddr) bool {
	row, word := c.locate(line)
	return find(row, word) >= 0
}
