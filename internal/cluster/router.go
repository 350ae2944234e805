package cluster

import "seesaw/internal/machine"

// hasSlot reports whether w can take one more lease.
func hasSlot(w *worker) bool {
	return w.healthy && w.active < w.slots
}

// leastLoaded picks the worker with the most free slots (ties broken by
// registration order, keeping scans deterministic), or nil when every
// worker is full or dead.
func leastLoaded(c *Coordinator) *worker {
	var best *worker
	bestFree := 0
	for _, addr := range c.order {
		w := c.workers[addr]
		if !hasSlot(w) {
			continue
		}
		if free := w.slots - w.active; free > bestFree {
			best, bestFree = w, free
		}
	}
	return best
}

// affinity is the coordinator's routing policy. It routes cells sharing
// a machine.WarmupSignature to the worker that already warmed that
// machine: the first cell of a signature elects whichever worker
// leastLoaded picks as the signature's owner, and every later cell
// follows — landing in the worker's shared-warmup run function, which
// forks the warm master instead of re-warming. If the owner is
// saturated the cell waits (a queued cell is cheaper than a redundant
// multi-second warmup); if the owner was evicted the next cell
// re-elects an owner among the living and the sweep continues with one
// re-warm. Cells without a signature (no warmup, trace replay) spill to
// leastLoaded. pick runs under the coordinator mutex; returning nil
// leaves the unit queued for the next pass.
type affinity struct {
	owners map[machine.WarmupSignature]*worker
}

func newAffinity() *affinity {
	return &affinity{owners: make(map[machine.WarmupSignature]*worker)}
}

func (a *affinity) pick(c *Coordinator, u *unit) *worker {
	if !u.hasSig {
		return leastLoaded(c)
	}
	if owner, ok := a.owners[u.sig]; ok {
		if owner.healthy {
			if !hasSlot(owner) {
				return nil // wait for the warm worker rather than re-warm elsewhere
			}
			c.counters.AffinityHits++
			return owner
		}
		// Owner died between eviction cleanup and now; fall through to
		// re-election.
		delete(a.owners, u.sig)
		c.counters.AffinityReassigned++
	}
	w := leastLoaded(c)
	if w != nil {
		a.owners[u.sig] = w
	}
	return w
}
