package pagetable

import (
	"encoding/binary"
	"reflect"
	"testing"

	"seesaw/internal/addr"
)

// mappedTable builds a table holding all three page sizes.
func mappedTable(t testing.TB) *Table {
	t.Helper()
	pt := New()
	for _, m := range []struct {
		va   addr.VAddr
		ppn  uint64
		size addr.PageSize
	}{
		{0x7f00_1234_5000, 0xabc, addr.Page4K},
		{0x7f00_1234_6000, 0xabd, addr.Page4K},
		{0x7f00_0020_0000, 5, addr.Page2M},
		{0x40000000, 2, addr.Page1G},
	} {
		if err := pt.Map(m.va, m.ppn, m.size); err != nil {
			t.Fatal(err)
		}
	}
	return pt
}

// TestTableStateRoundTrip: a table restored from a captured state
// translates identically at every page size, preserving the *Table
// identity (SetState mutates in place).
func TestTableStateRoundTrip(t *testing.T) {
	pt := mappedTable(t)
	fresh := New()
	if err := fresh.SetState(pt.State()); err != nil {
		t.Fatal(err)
	}
	for _, va := range []addr.VAddr{
		0x7f00_1234_5123, 0x7f00_1234_6fff, 0x7f00_0020_0000 + 12345, 0x40000000 + 99, 0xdead_0000,
	} {
		pa0, s0, ok0 := pt.Translate(va)
		pa1, s1, ok1 := fresh.Translate(va)
		if pa0 != pa1 || s0 != s1 || ok0 != ok1 {
			t.Errorf("Translate(%#x): original %#x/%v/%v, restored %#x/%v/%v",
				uint64(va), uint64(pa0), s0, ok0, uint64(pa1), s1, ok1)
		}
	}
	for _, s := range []addr.PageSize{addr.Page4K, addr.Page2M, addr.Page1G} {
		if pt.Count(s) != fresh.Count(s) {
			t.Errorf("Count(%v): original %d, restored %d", s, pt.Count(s), fresh.Count(s))
		}
	}
	// Restoring over existing mappings replaces them wholesale.
	again := mappedTable(t)
	if err := again.SetState(New().State()); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := again.Translate(0x7f00_1234_5123); ok {
		t.Error("restoring an empty state left old mappings behind")
	}
}

// below wraps n in single-child nodes up to a root levels above it.
func below(levels int, n NodeState) NodeState {
	for ; levels > 0; levels-- {
		n = NodeState{ChildIdx: []uint16{0}, Children: []NodeState{n}}
	}
	return n
}

// TestTableStateRejections: corrupt radix states — mismatched parallel
// arrays, out-of-range or unordered indices, leaves of the wrong size
// for their level or outside physical memory, a slot both a leaf and a
// child, empty nodes, runaway depth — are all rejected, and leave the
// table they were applied to as it was.
func TestTableStateRejections(t *testing.T) {
	base := mappedTable(t).State()
	leaf4K := Entry{PPN: 1, Size: addr.Page4K}
	leaf2M := Entry{PPN: 1, Size: addr.Page2M}
	pt := NodeState{LeafIdx: []uint16{0}, Leaves: []Entry{leaf4K}}

	childMismatch := base
	childMismatch.Root.ChildIdx = append(append([]uint16(nil), base.Root.ChildIdx...), 3)
	leafMismatch := base
	leafMismatch.Root.LeafIdx = append(append([]uint16(nil), base.Root.LeafIdx...), 3)

	for _, tc := range []struct {
		name string
		s    TableState
	}{
		{"mismatched child arrays", childMismatch},
		{"mismatched leaf arrays", leafMismatch},
		{"a child index past the radix fanout", TableState{Root: NodeState{
			ChildIdx: []uint16{512}, Children: []NodeState{below(2, pt)},
		}}},
		{"a leaf index past the radix fanout", TableState{Root: below(3, NodeState{
			LeafIdx: []uint16{512}, Leaves: []Entry{leaf4K},
		})}},
		{"a leaf with an invalid page size", TableState{Root: below(3, NodeState{
			LeafIdx: []uint16{0}, Leaves: []Entry{{Size: addr.NumPageSizes}},
		})}},
		{"a 2MB leaf in a PT-level node", TableState{Root: below(3, NodeState{
			LeafIdx: []uint16{0}, Leaves: []Entry{leaf2M},
		})}},
		{"a leaf in the PML4", TableState{Root: NodeState{
			LeafIdx: []uint16{0}, Leaves: []Entry{{PPN: 1, Size: addr.Page1G}},
		}}},
		{"a slot holding both a leaf and a child", TableState{Root: below(2, NodeState{
			LeafIdx: []uint16{5}, Leaves: []Entry{leaf2M},
			ChildIdx: []uint16{5}, Children: []NodeState{pt},
		})}},
		{"repeated leaf indices", TableState{Root: below(2, NodeState{
			LeafIdx: []uint16{1, 1}, Leaves: []Entry{leaf2M, leaf2M},
		})}},
		{"descending child indices", TableState{Root: below(1, NodeState{
			ChildIdx: []uint16{2, 1}, Children: []NodeState{pt, pt},
		})}},
		{"an empty node below the root", TableState{Root: below(2, NodeState{})}},
		{"a frame outside physical memory", TableState{Root: below(3, NodeState{
			LeafIdx: []uint16{0}, Leaves: []Entry{{PPN: 1 << 52, Size: addr.Page4K}},
		})}},
		// A radix deeper than the architecture allows must terminate with
		// an error instead of recursing.
		{"a radix deeper than the page-table levels", TableState{Root: below(LevelPML4+2, NodeState{})}},
	} {
		pt := mappedTable(t)
		if err := pt.SetState(tc.s); err == nil {
			t.Errorf("accepted %s", tc.name)
		}
		if !reflect.DeepEqual(pt.State(), base) || pt.Count(addr.Page4K) != 2 {
			t.Errorf("rejecting %s changed the table", tc.name)
		}
	}
	if err := New().Map(0x1000, 1<<52, addr.Page4K); err == nil {
		t.Error("mapped a frame outside physical memory")
	}
}

// fuzzNode parses a radix node from the fuzzer's bytes: a leaf count
// and a child count (one byte each), then per leaf a little-endian
// uint16 index, a signed size byte and a little-endian uint64 PPN, then
// per child a uint16 index and the child node. Exhausted input reads as
// zeros, so parsing always ends; past depth 6 no children are read.
func fuzzNode(b *[]byte, depth int) NodeState {
	next := func(n int) []byte {
		out := make([]byte, n)
		*b = (*b)[copy(out, *b):]
		return out
	}
	var s NodeState
	h := next(2)
	for k := 0; k < int(h[0]); k++ {
		l := next(11)
		s.LeafIdx = append(s.LeafIdx, binary.LittleEndian.Uint16(l))
		s.Leaves = append(s.Leaves, Entry{Size: addr.PageSize(int8(l[2])), PPN: binary.LittleEndian.Uint64(l[3:])})
	}
	for k := 0; k < int(h[1]) && depth < 6; k++ {
		s.ChildIdx = append(s.ChildIdx, binary.LittleEndian.Uint16(next(2)))
		s.Children = append(s.Children, fuzzNode(b, depth+1))
	}
	return s
}

// fuzzEncode is fuzzNode's inverse, for seeds.
func fuzzEncode(s NodeState) []byte {
	out := []byte{byte(len(s.Leaves)), byte(len(s.Children))}
	for k, e := range s.Leaves {
		out = binary.LittleEndian.AppendUint16(out, s.LeafIdx[k])
		out = append(out, byte(int8(e.Size)))
		out = binary.LittleEndian.AppendUint64(out, e.PPN)
	}
	for k, c := range s.Children {
		out = binary.LittleEndian.AppendUint16(out, s.ChildIdx[k])
		out = append(out, fuzzEncode(c)...)
	}
	return out
}

// leafAt is one leaf of a state with the VA of its page.
type leafAt struct {
	va addr.VAddr
	e  Entry
}

// stateLeaves lists a state's leaves in ascending address order.
func stateLeaves(s NodeState, level int, base addr.VAddr) []leafAt {
	var out []leafAt
	shift := 12 + 9*uint(level-1)
	li, ci := 0, 0
	for li < len(s.LeafIdx) || ci < len(s.ChildIdx) {
		if ci == len(s.ChildIdx) || li < len(s.LeafIdx) && s.LeafIdx[li] < s.ChildIdx[ci] {
			out = append(out, leafAt{base | addr.VAddr(s.LeafIdx[li])<<shift, s.Leaves[li]})
			li++
			continue
		}
		out = append(out, stateLeaves(s.Children[ci], level-1, base|addr.VAddr(s.ChildIdx[ci])<<shift)...)
		ci++
	}
	return out
}

// FuzzTableState feeds arbitrary radix states to SetState. A state must
// either be rejected, or be exactly what State then emits, and its table
// must walk every leaf to its entry, count and list its regions from the
// same leaves, and clone into a table that splinters and promotes back
// and unmaps and maps back to the same state, leaving the original as
// it was.
func FuzzTableState(f *testing.F) {
	f.Add(fuzzEncode(mappedTable(f).State().Root))
	f.Add(fuzzEncode(New().State().Root))
	f.Add(fuzzEncode(below(2, NodeState{LeafIdx: []uint16{5}, Leaves: []Entry{{PPN: 7, Size: addr.Page2M}}})))
	f.Add(fuzzEncode(below(1, NodeState{LeafIdx: []uint16{0}, Leaves: []Entry{{PPN: 1, Size: addr.Page4K}}})))

	f.Fuzz(func(t *testing.T, data []byte) {
		in := TableState{Root: fuzzNode(&data, 0)}
		tab := New()
		if err := tab.SetState(in); err != nil {
			return
		}
		if got := tab.State(); !reflect.DeepEqual(got, in) {
			t.Fatalf("accepted state re-encodes differently:\n in %+v\nout %+v", in, got)
		}
		leaves := stateLeaves(in.Root, LevelPML4, 0)
		var counts [addr.NumPageSizes]uint64
		for _, l := range leaves {
			counts[l.e.Size]++
			for _, va := range []addr.VAddr{l.va, l.va + addr.VAddr(l.e.Size.Bytes()-1)} {
				e, levels, ok := tab.Walk(va)
				if !ok || e != l.e || levels != LevelPML4+1-levelFor(l.e.Size) {
					t.Fatalf("Walk(%#x) = %+v, %d levels, %v; want %+v", uint64(va), e, levels, ok, l.e)
				}
			}
		}
		var listed [addr.NumPageSizes]uint64
		prev := addr.VAddr(0)
		tab.Regions(func(base addr.VAddr, size addr.PageSize, pages int) {
			if base < prev || pages < 1 || pages > 512 {
				t.Fatalf("Regions listed %#x (%v, %d pages) after %#x", uint64(base), size, pages, uint64(prev))
			}
			if s, n := tab.Region(base); s != size || n != pages {
				t.Fatalf("Region(%#x) = %v, %d; Regions said %v, %d", uint64(base), s, n, size, pages)
			}
			prev = base + 1
			listed[size] += uint64(pages)
		})
		for s := range counts {
			if tab.Count(addr.PageSize(s)) != counts[s] || listed[s] != counts[s] {
				t.Fatalf("%v: Count %d, Regions %d, leaves %d", addr.PageSize(s), tab.Count(addr.PageSize(s)), listed[s], counts[s])
			}
		}

		c := tab.Clone()
		for _, l := range leaves {
			if l.e.Size != addr.Page2M {
				continue
			}
			if _, err := c.Splinter(l.va); err != nil {
				t.Fatal(err)
			}
			if _, err := c.Promote(l.va, l.e.PPN); err != nil {
				t.Fatal(err)
			}
		}
		if got := c.State(); !reflect.DeepEqual(got, in) {
			t.Fatalf("splinter and promote changed the clone's state")
		}
		for _, l := range leaves {
			if err := c.Unmap(l.va, l.e.Size); err != nil {
				t.Fatal(err)
			}
		}
		if got := c.State(); !reflect.DeepEqual(got, New().State()) || len(c.nodes)-len(c.free) != 1 {
			t.Fatalf("unmapping every leaf left %+v in %d live nodes", got, len(c.nodes)-len(c.free))
		}
		for _, l := range leaves {
			if err := c.Map(l.va, l.e.PPN, l.e.Size); err != nil {
				t.Fatal(err)
			}
		}
		if got := c.State(); !reflect.DeepEqual(got, in) {
			t.Fatalf("remapping every leaf gave a different state")
		}
		if got := tab.State(); !reflect.DeepEqual(got, in) {
			t.Fatalf("changes to the clone reached the original")
		}
	})
}
