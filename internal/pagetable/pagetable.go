// Package pagetable implements an x86-64-style 4-level radix page table
// supporting 4KB, 2MB, and 1GB mappings, plus the walker the TLB hierarchy
// falls back to on a miss. It also implements the two OS operations SEESAW
// must stay correct under (Section IV-C2): splintering a superpage into
// base pages and promoting base pages into a superpage.
package pagetable

import (
	"fmt"

	"seesaw/internal/addr"
)

// Levels of the radix tree, top down. Each level indexes 9 VA bits.
const (
	LevelPML4 = 4
	LevelPDPT = 3
	LevelPD   = 2
	LevelPT   = 1
)

// fanout is the number of slots in a radix node.
const fanout = 512

// Entry is a leaf translation.
type Entry struct {
	PPN  uint64        // physical page number, in units of Size
	Size addr.PageSize // mapping granularity
}

// A slot is empty (0), a leaf (the leaf bit over its PPN; the page size
// follows from the node's level) or a child (the child's node index,
// never 0, since the root is nobody's child).
type slot uint64

const leaf slot = 1 << 63

// node is one 512-slot radix table.
type node struct {
	slots [fanout]slot
	used  uint16 // non-empty slots
}

// Table is one address space's page table. Its radix nodes live in one
// slice with the root at index 0; nodes that Unmap or Promote empty go
// on a free list, all-zero, for reuse before the slice grows.
type Table struct {
	nodes []node
	free  []slot

	// counts[size] tracks live mappings per page size.
	counts [addr.NumPageSizes]uint64
}

// New creates an empty page table.
func New() *Table {
	return &Table{nodes: make([]node, 1)}
}

// levelFor returns the radix level at which a page size's leaf lives:
// 4KB leaves live in the PT, 2MB in the PD, 1GB in the PDPT.
func levelFor(s addr.PageSize) int {
	if s < 0 || s >= addr.NumPageSizes {
		panic(fmt.Sprintf("pagetable: invalid page size %v", s))
	}
	return LevelPT + int(s)
}

// sizeAt is the page size of a leaf at level (levelFor's inverse).
func sizeAt(level int) addr.PageSize { return addr.PageSize(level - LevelPT) }

// index extracts the 9-bit radix index for a VA at a level
// (level 4 -> bits 47:39 ... level 1 -> bits 20:12).
func index(v addr.VAddr, level int) uint16 {
	return uint16(v.Bits(12+9*uint(level-1), 9))
}

// frameOK reports whether a frame of the given size at ppn lies inside
// the 64-bit physical address space (so its 4KB frames do too).
func frameOK(ppn uint64, size addr.PageSize) bool {
	return ppn>>(64-size.OffsetBits()) == 0
}

// alloc returns the index of an empty node, reusing a pruned one first.
func (t *Table) alloc() slot {
	if k := len(t.free); k > 0 {
		n := t.free[k-1]
		t.free = t.free[:k-1]
		return n
	}
	t.nodes = append(t.nodes, node{})
	return slot(len(t.nodes) - 1)
}

// set fills empty slot i of node n.
func (t *Table) set(n slot, i uint16, s slot) {
	t.nodes[n].slots[i] = s
	t.nodes[n].used++
}

// find descends va's path from the root toward level, stopping early at
// an empty slot or a leaf, and returns the level it stopped at, the node
// there and the index of va's slot in it.
func (t *Table) find(va addr.VAddr, level int) (l int, n slot, i uint16) {
	for l = LevelPML4; ; l-- {
		i = index(va, l)
		s := t.nodes[n].slots[i]
		if l == level || s == 0 || s&leaf != 0 {
			return l, n, i
		}
		n = s
	}
}

// Map installs a translation from the page containing va to ppn with the
// given size. It fails if any part of the range is already mapped (at this
// or another granularity along the walked path).
func (t *Table) Map(va addr.VAddr, ppn uint64, size addr.PageSize) error {
	leafLevel := levelFor(size)
	if !frameOK(ppn, size) {
		return fmt.Errorf("pagetable: %v frame %#x outside physical memory", size, ppn)
	}
	n := slot(0)
	for level := LevelPML4; level > leafLevel; level-- {
		i := index(va, level)
		s := t.nodes[n].slots[i]
		if s&leaf != 0 {
			return fmt.Errorf("pagetable: %#x already covered by a larger mapping", uint64(va))
		}
		if s == 0 {
			s = t.alloc()
			t.set(n, i, s)
		}
		n = s
	}
	i := index(va, leafLevel)
	switch s := t.nodes[n].slots[i]; {
	case s&leaf != 0:
		return fmt.Errorf("pagetable: %#x already mapped at %v", uint64(va), size)
	case s != 0:
		return fmt.Errorf("pagetable: %#x has smaller mappings below a would-be %v leaf", uint64(va), size)
	}
	t.set(n, i, leaf|slot(ppn))
	t.counts[size]++
	return nil
}

// Walk translates va, also reporting how many radix levels were touched
// (2 for a 1GB leaf, 3 for 2MB, 4 for 4KB) so callers can charge walk
// latency. ok is false for unmapped addresses; levels then reports how far
// the walk got before faulting.
func (t *Table) Walk(va addr.VAddr) (e Entry, levels int, ok bool) {
	l, n, i := t.find(va, LevelPT)
	if s := t.nodes[n].slots[i]; s&leaf != 0 {
		return Entry{PPN: uint64(s &^ leaf), Size: sizeAt(l)}, LevelPML4 + 1 - l, true
	}
	return Entry{}, LevelPML4 + 1 - l, false
}

// Translate is Walk without the cost accounting: it returns the physical
// address for va, or ok=false if unmapped.
func (t *Table) Translate(va addr.VAddr) (addr.PAddr, addr.PageSize, bool) {
	e, _, ok := t.Walk(va)
	if !ok {
		return 0, 0, false
	}
	return addr.Translate(va, e.PPN, e.Size), e.Size, true
}

// Unmap removes the mapping of the page containing va with the given
// size, pruning radix nodes that become empty so the space can later be
// remapped at a larger granularity.
func (t *Table) Unmap(va addr.VAddr, size addr.PageSize) error {
	leafLevel := levelFor(size)
	var path [LevelPML4 + 1]slot // path[level] is the node at level
	n := slot(0)
	for level := LevelPML4; level > leafLevel; level-- {
		path[level] = n
		s := t.nodes[n].slots[index(va, level)]
		if s == 0 || s&leaf != 0 {
			return fmt.Errorf("pagetable: %#x not mapped", uint64(va))
		}
		n = s
	}
	i := index(va, leafLevel)
	if t.nodes[n].slots[i]&leaf == 0 {
		return fmt.Errorf("pagetable: %#x not mapped at %v", uint64(va), size)
	}
	t.counts[size]--
	for level := leafLevel; ; level++ {
		t.nodes[n].slots[i] = 0
		t.nodes[n].used--
		if level == LevelPML4 || t.nodes[n].used > 0 {
			return nil
		}
		t.free = append(t.free, n)
		n, i = path[level+1], index(va, level+1)
	}
}

// Splinter replaces the 2MB mapping covering va with 512 4KB mappings that
// preserve every translation (the frames stay where they were). It returns
// the base VA of the splintered region. This models the OS breaking a
// superpage, after which the OS executes invlpg — the caller must
// propagate that to TLBs and the TFT.
func (t *Table) Splinter(va addr.VAddr) (addr.VAddr, error) {
	base := va.PageBase(addr.Page2M)
	l, pd, i := t.find(base, LevelPD)
	if l != LevelPD || t.nodes[pd].slots[i]&leaf == 0 {
		return 0, fmt.Errorf("pagetable: %#x is not a 2MB mapping", uint64(va))
	}
	ppn := uint64(t.nodes[pd].slots[i]&^leaf) << (addr.Page2M.OffsetBits() - addr.Page4K.OffsetBits())
	pt := t.alloc()
	for k := range t.nodes[pt].slots {
		t.nodes[pt].slots[k] = leaf | slot(ppn+uint64(k))
	}
	t.nodes[pt].used = fanout
	t.nodes[pd].slots[i] = pt
	t.counts[addr.Page2M]--
	t.counts[addr.Page4K] += fanout
	return base, nil
}

// Promote replaces the 512 4KB mappings covering the 2MB region of va with
// a single 2MB mapping to newPPN2M (the OS has copied/compacted the data
// into that contiguous frame). All 512 base pages must currently be
// mapped. It returns the base VA of the promoted region.
func (t *Table) Promote(va addr.VAddr, newPPN2M uint64) (addr.VAddr, error) {
	base := va.PageBase(addr.Page2M)
	l, pd, i := t.find(base, LevelPD)
	pt := t.nodes[pd].slots[i]
	if l != LevelPD || pt == 0 || pt&leaf != 0 || t.nodes[pt].used != fanout {
		return 0, fmt.Errorf("pagetable: region %#x not fully 4KB-mapped", uint64(base))
	}
	if !frameOK(newPPN2M, addr.Page2M) {
		return 0, fmt.Errorf("pagetable: 2MB frame %#x outside physical memory", newPPN2M)
	}
	t.nodes[pt] = node{}
	t.free = append(t.free, pt)
	t.nodes[pd].slots[i] = leaf | slot(newPPN2M)
	t.counts[addr.Page4K] -= fanout
	t.counts[addr.Page2M]++
	return base, nil
}

// Region reports how the 2MB region containing va is mapped: by a
// superpage (its size, and pages 1), by pages 4KB leaves, or not at all
// (pages 0).
func (t *Table) Region(va addr.VAddr) (size addr.PageSize, pages int) {
	l, n, i := t.find(va, LevelPD)
	switch s := t.nodes[n].slots[i]; {
	case s == 0:
		return addr.Page4K, 0
	case s&leaf != 0:
		return sizeAt(l), 1
	default:
		return addr.Page4K, int(t.nodes[s].used)
	}
}

// Regions calls f in ascending address order for every 1GB leaf and
// every 2MB region a 2MB leaf or 4KB leaves map, with the arguments
// Region would return for it. f must not change the table.
func (t *Table) Regions(f func(base addr.VAddr, size addr.PageSize, pages int)) {
	t.regions(0, LevelPML4, 0, f)
}

func (t *Table) regions(n slot, level int, base addr.VAddr, f func(addr.VAddr, addr.PageSize, int)) {
	for i, s := range &t.nodes[n].slots {
		va := base | addr.VAddr(i)<<(12+9*(level-1))
		switch {
		case s == 0:
		case s&leaf != 0:
			f(va, sizeAt(level), 1)
		case level == LevelPD:
			f(va, addr.Page4K, int(t.nodes[s].used))
		default:
			t.regions(s, level-1, va, f)
		}
	}
}

// Count returns the number of live mappings of the given size.
func (t *Table) Count(s addr.PageSize) uint64 { return t.counts[s] }
