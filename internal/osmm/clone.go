package osmm

import (
	"math/rand"
	"slices"

	"seesaw/internal/physmem"
)

// Clone returns an independent deep copy of one address space: the page
// table and the no-huge regions.
func (p *Process) Clone() *Process {
	return &Process{ASID: p.ASID, PT: p.PT.Clone(), nextVA: p.nextVA, noHuge: slices.Clone(p.noHuge)}
}

// Clone returns an independent deep copy of the manager and every
// process it manages. The caller supplies the cloned physical memory, a
// rand whose generator sits at the same position as the original's (see
// internal/xrand), and the cloned compactor (nil when fragmentation is
// off); the OnInvlpg/OnPromote hooks are NOT copied — they close over
// the original machine's TLBs and caches, and the owner of the clone
// must rewire its own.
func (m *Manager) Clone(buddy *physmem.Buddy, rng *rand.Rand, comp Compactor) *Manager {
	c := &Manager{Buddy: buddy, rng: rng, THP: m.THP, Compactor: comp, Stats: m.Stats}
	for _, p := range m.procs {
		c.procs = append(c.procs, p.Clone())
	}
	return c
}
