package pagetable

// Clone returns an independent deep copy of the table: every radix node
// and leaf entry is duplicated, so mappings, splinters, and promotions
// on the clone never touch the original.
func (t *Table) Clone() *Table {
	return &Table{root: t.root.clone(), counts: t.counts}
}

func (n *node) clone() *node {
	c := &node{
		children: make(map[uint16]*node, len(n.children)),
		leaves:   make(map[uint16]*Entry, len(n.leaves)),
	}
	for i, child := range n.children {
		c.children[i] = child.clone()
	}
	for i, e := range n.leaves {
		le := *e
		c.leaves[i] = &le
	}
	return c
}
