package pagetable

import "fmt"

// NodeState is one radix node flattened for serialization: its child
// and leaf slots, each in ascending index order.
type NodeState struct {
	ChildIdx []uint16
	Children []NodeState
	LeafIdx  []uint16
	Leaves   []Entry
}

// TableState is a page table's serializable state. The per-size counts
// are not part of it: SetState recounts them from the leaves.
type TableState struct {
	Root NodeState
}

func (t *Table) state(n slot, level int) NodeState {
	var s NodeState
	for i, sl := range &t.nodes[n].slots {
		switch {
		case sl&leaf != 0:
			s.LeafIdx = append(s.LeafIdx, uint16(i))
			s.Leaves = append(s.Leaves, Entry{PPN: uint64(sl &^ leaf), Size: sizeAt(level)})
		case sl != 0:
			s.ChildIdx = append(s.ChildIdx, uint16(i))
			s.Children = append(s.Children, t.state(sl, level-1))
		}
	}
	return s
}

// decode adds the node s describes at level to t and returns its index.
// It accepts only what State emits: indices ascending below 512, no slot
// both a leaf and a child, each leaf of its level's size and inside
// physical memory, no empty node below the root, and no level below the
// PT, which also bounds the recursion on corrupt input.
func (t *Table) decode(s NodeState, level int) (slot, error) {
	if level < LevelPT {
		return 0, fmt.Errorf("pagetable: radix deeper than %d levels", LevelPML4)
	}
	if len(s.ChildIdx) != len(s.Children) {
		return 0, fmt.Errorf("pagetable: %d child indices for %d children", len(s.ChildIdx), len(s.Children))
	}
	if len(s.LeafIdx) != len(s.Leaves) {
		return 0, fmt.Errorf("pagetable: %d leaf indices for %d leaves", len(s.LeafIdx), len(s.Leaves))
	}
	n := t.alloc()
	for k, i := range s.LeafIdx {
		e := s.Leaves[k]
		switch {
		case i >= fanout || k > 0 && i <= s.LeafIdx[k-1]:
			return 0, fmt.Errorf("pagetable: leaf index %d out of range or order", i)
		case level > LevelPDPT || e.Size != sizeAt(level):
			return 0, fmt.Errorf("pagetable: leaf of page size %d at level %d", e.Size, level)
		case !frameOK(e.PPN, e.Size):
			return 0, fmt.Errorf("pagetable: %v frame %#x outside physical memory", e.Size, e.PPN)
		}
		t.set(n, i, leaf|slot(e.PPN))
		t.counts[e.Size]++
	}
	for k, i := range s.ChildIdx {
		switch {
		case i >= fanout || k > 0 && i <= s.ChildIdx[k-1]:
			return 0, fmt.Errorf("pagetable: child index %d out of range or order", i)
		case t.nodes[n].slots[i] != 0:
			return 0, fmt.Errorf("pagetable: slot %d holds both a leaf and a child", i)
		}
		child, err := t.decode(s.Children[k], level-1)
		if err != nil {
			return 0, err
		}
		t.set(n, i, child)
	}
	if n != 0 && t.nodes[n].used == 0 {
		return 0, fmt.Errorf("pagetable: empty radix node at level %d", level)
	}
	return n, nil
}

// State captures the table for serialization.
func (t *Table) State() TableState {
	return TableState{Root: t.state(0, LevelPML4)}
}

// SetState replaces the table's contents in place: the *Table identity
// is preserved, so page walkers pointing at it observe the restored
// mappings without rewiring. A rejected state leaves the table as it was.
func (t *Table) SetState(s TableState) error {
	var fresh Table
	if _, err := fresh.decode(s.Root, LevelPML4); err != nil {
		return err
	}
	*t = fresh
	return nil
}
