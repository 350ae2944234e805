package pagetable

import (
	"testing"

	"seesaw/internal/addr"
)

// mappedTable builds a table holding all three page sizes.
func mappedTable(t *testing.T) *Table {
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

// TestTableStateRejections: corrupt radix states — mismatched parallel
// arrays, out-of-range indices, bad page sizes, runaway depth — are all
// rejected before any mutation.
func TestTableStateRejections(t *testing.T) {
	base := mappedTable(t).State()

	childMismatch := base
	childMismatch.Root.ChildIdx = append([]uint16(nil), base.Root.ChildIdx...)
	childMismatch.Root.ChildIdx = append(childMismatch.Root.ChildIdx, 3)
	if err := New().SetState(childMismatch); err == nil {
		t.Error("accepted mismatched child arrays")
	}

	leafMismatch := base
	leafMismatch.Root.LeafIdx = append([]uint16(nil), base.Root.LeafIdx...)
	leafMismatch.Root.LeafIdx = append(leafMismatch.Root.LeafIdx, 3)
	if err := New().SetState(leafMismatch); err == nil {
		t.Error("accepted mismatched leaf arrays")
	}

	badChildIdx := TableState{Root: NodeState{
		ChildIdx: []uint16{512}, Children: []NodeState{{}},
	}}
	if err := New().SetState(badChildIdx); err == nil {
		t.Error("accepted a child index past the radix fanout")
	}

	badLeafIdx := TableState{Root: NodeState{
		LeafIdx: []uint16{512}, Leaves: []Entry{{}},
	}}
	if err := New().SetState(badLeafIdx); err == nil {
		t.Error("accepted a leaf index past the radix fanout")
	}

	badSize := TableState{Root: NodeState{
		LeafIdx: []uint16{0}, Leaves: []Entry{{Size: addr.NumPageSizes}},
	}}
	if err := New().SetState(badSize); err == nil {
		t.Error("accepted a leaf with an invalid page size")
	}

	// A radix deeper than the architecture allows must terminate with an
	// error instead of recursing.
	deep := NodeState{}
	for i := 0; i < LevelPML4+2; i++ {
		deep = NodeState{ChildIdx: []uint16{0}, Children: []NodeState{deep}}
	}
	if err := New().SetState(TableState{Root: deep}); err == nil {
		t.Error("accepted a radix deeper than the page-table levels")
	}
}
