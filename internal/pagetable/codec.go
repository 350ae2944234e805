package pagetable

import (
	"fmt"
	"sort"

	"seesaw/internal/addr"
)

// NodeState is one radix node flattened for serialization: child and
// leaf indices sorted ascending so encoding is deterministic.
type NodeState struct {
	ChildIdx []uint16
	Children []NodeState
	LeafIdx  []uint16
	Leaves   []Entry
}

// TableState is a page table's serializable state.
type TableState struct {
	Root   NodeState
	Counts [addr.NumPageSizes]uint64
}

func (n *node) state() NodeState {
	s := NodeState{}
	s.ChildIdx = make([]uint16, 0, len(n.children))
	for i := range n.children {
		s.ChildIdx = append(s.ChildIdx, i)
	}
	sort.Slice(s.ChildIdx, func(a, b int) bool { return s.ChildIdx[a] < s.ChildIdx[b] })
	s.Children = make([]NodeState, len(s.ChildIdx))
	for k, i := range s.ChildIdx {
		s.Children[k] = n.children[i].state()
	}
	s.LeafIdx = make([]uint16, 0, len(n.leaves))
	for i := range n.leaves {
		s.LeafIdx = append(s.LeafIdx, i)
	}
	sort.Slice(s.LeafIdx, func(a, b int) bool { return s.LeafIdx[a] < s.LeafIdx[b] })
	s.Leaves = make([]Entry, len(s.LeafIdx))
	for k, i := range s.LeafIdx {
		s.Leaves[k] = *n.leaves[i]
	}
	return s
}

// nodeFromState rebuilds a radix node, tracking depth so corrupt input
// cannot recurse unboundedly (a well-formed table is at most 4 deep).
func nodeFromState(s NodeState, depth int) (*node, error) {
	if depth > LevelPML4 {
		return nil, fmt.Errorf("pagetable: radix deeper than %d levels", LevelPML4)
	}
	if len(s.ChildIdx) != len(s.Children) {
		return nil, fmt.Errorf("pagetable: %d child indices for %d children", len(s.ChildIdx), len(s.Children))
	}
	if len(s.LeafIdx) != len(s.Leaves) {
		return nil, fmt.Errorf("pagetable: %d leaf indices for %d leaves", len(s.LeafIdx), len(s.Leaves))
	}
	n := newNode()
	for k, i := range s.ChildIdx {
		if i >= 512 {
			return nil, fmt.Errorf("pagetable: radix index %d out of range", i)
		}
		child, err := nodeFromState(s.Children[k], depth+1)
		if err != nil {
			return nil, err
		}
		n.children[i] = child
	}
	for k, i := range s.LeafIdx {
		if i >= 512 {
			return nil, fmt.Errorf("pagetable: radix index %d out of range", i)
		}
		e := s.Leaves[k]
		if e.Size >= addr.NumPageSizes {
			return nil, fmt.Errorf("pagetable: leaf with invalid page size %d", e.Size)
		}
		n.leaves[i] = &e
	}
	return n, nil
}

// State captures the table for serialization.
func (t *Table) State() TableState {
	return TableState{Root: t.root.state(), Counts: t.counts}
}

// SetState replaces the table's contents in place: the *Table identity
// is preserved, so page walkers pointing at it observe the restored
// mappings without rewiring.
func (t *Table) SetState(s TableState) error {
	root, err := nodeFromState(s.Root, 1)
	if err != nil {
		return err
	}
	t.root = root
	t.counts = s.Counts
	return nil
}
