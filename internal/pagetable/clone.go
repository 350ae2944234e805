package pagetable

import "slices"

// Clone returns an independent copy of the table: the node slice and
// its free list are copied whole, so mappings, splinters, and promotions
// on the clone never touch the original.
func (t *Table) Clone() *Table {
	return &Table{nodes: slices.Clone(t.nodes), free: slices.Clone(t.free), counts: t.counts}
}
