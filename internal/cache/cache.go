// Package cache implements the set-associative cache storage model shared
// by every L1 design in the simulator: SEESAW, the baseline VIPT and PIPT
// L1s, and the other registered designs. (The shared LLC keeps its own,
// smaller storage in internal/coherence.) It stores physically tagged
// lines with MOESI coherence states, supports way-partitioned lookup and
// insertion (the mechanism SEESAW builds on), and implements both global
// and partition-local true-LRU replacement — the paper's "4way-8way" and
// "4way" insertion policies respectively.
//
// Timing and energy are deliberately not modeled here; internal/core
// charges them based on how many ways each probe touches.
package cache

import (
	"cmp"
	"fmt"
	"slices"

	"seesaw/internal/addr"
	"seesaw/internal/metrics"
)

// State is a MOESI coherence state.
type State int

const (
	// Invalid: the way holds no line.
	Invalid State = iota
	// Shared: clean, possibly in other caches.
	Shared
	// Exclusive: clean, only copy.
	Exclusive
	// Owned: dirty, possibly shared; this cache must write back.
	Owned
	// Modified: dirty, only copy.
	Modified
)

// String implements fmt.Stringer.
func (s State) String() string {
	switch s {
	case Invalid:
		return "I"
	case Shared:
		return "S"
	case Exclusive:
		return "E"
	case Owned:
		return "O"
	case Modified:
		return "M"
	}
	return fmt.Sprintf("State(%d)", int(s))
}

// Dirty reports whether a line in this state must be written back on
// eviction.
func (s State) Dirty() bool { return s == Owned || s == Modified }

// AnyPartition selects all ways of a set in Probe/Insert calls.
const AnyPartition = -1

// Replacement selects the victim-selection policy.
type Replacement int

const (
	// LRU is true least-recently-used (the paper's policy).
	LRU Replacement = iota
	// SRRIP is static re-reference interval prediction (Jaleel et al.):
	// 2-bit re-reference predictions per way, inserted "long", promoted
	// to "near-immediate" on hit. Scan-resistant; used by the
	// replacement ablation.
	SRRIP
)

// String implements fmt.Stringer.
func (r Replacement) String() string {
	if r == SRRIP {
		return "SRRIP"
	}
	return "LRU"
}

// maxRRPV is the 2-bit SRRIP ceiling ("distant future").
const maxRRPV = 3

// Victim describes a line displaced by an insertion or sweep.
type Victim struct {
	Valid bool
	Tag   uint64
	State State
	Way   int
	// PA is the victim's physical line address; EvictFrames fills it in
	// (Insert leaves it zero — the caller reconstructs it from the set).
	PA addr.PAddr
}

// Stats counts storage-level events.
type Stats struct {
	Hits       uint64
	Misses     uint64
	Inserts    uint64
	Evictions  uint64
	Writebacks uint64 // evictions of dirty lines
	Sweeps     uint64 // lines evicted by promotion sweeps
}

// Cache is the storage array. Tags, states, recency, and SRRIP
// predictions live in parallel flat arrays (struct-of-arrays), indexed
// by set*Ways+way: the CPU-side probe is a tight scan of a few
// contiguous tag/state words, with no per-set slice headers or pointer
// chases between them.
type Cache struct {
	geom addr.CacheGeometry
	repl Replacement
	ways int // geom.Ways, hoisted for index math

	tags    []uint64
	states  []uint8
	lastUse []uint64
	rrpvs   []uint8

	tick  uint64
	Stats Stats

	// Metrics, when non-nil, mirrors hit/miss accounting into the
	// observability layer under MetricsCore (the coherence index of the
	// cache). Nil, the default, costs one predictable branch per lookup.
	Metrics     *metrics.Recorder
	MetricsCore int
}

// New creates an empty cache with the given geometry and LRU replacement.
func New(geom addr.CacheGeometry) *Cache {
	return NewWithPolicy(geom, LRU)
}

// NewWithPolicy creates an empty cache with an explicit replacement
// policy.
func NewWithPolicy(geom addr.CacheGeometry, repl Replacement) *Cache {
	n := geom.Sets() * geom.Ways
	return &Cache{
		geom: geom, repl: repl, ways: geom.Ways,
		tags:    make([]uint64, n),
		states:  make([]uint8, n),
		lastUse: make([]uint64, n),
		rrpvs:   make([]uint8, n),
	}
}

// Policy returns the replacement policy.
func (c *Cache) Policy() Replacement { return c.repl }

// Geometry returns the cache geometry.
func (c *Cache) Geometry() addr.CacheGeometry { return c.geom }

// wayRange returns the half-open way interval [lo,hi) for a partition;
// AnyPartition covers the whole set.
func (c *Cache) wayRange(partition int) (int, int) {
	if partition == AnyPartition {
		return 0, c.geom.Ways
	}
	wpp := c.geom.WaysPerPartition()
	return partition * wpp, (partition + 1) * wpp
}

// Probe searches the given partition of a set for tag without touching
// recency or stats. It returns the way index on a hit.
func (c *Cache) Probe(set, partition int, tag uint64) (int, bool) {
	lo, hi := c.wayRange(partition)
	base := set * c.ways
	tags := c.tags[base+lo : base+hi]
	states := c.states[base+lo : base+hi]
	for i, t := range tags {
		if t == tag && states[i] != uint8(Invalid) {
			return lo + i, true
		}
	}
	return 0, false
}

// Access is Probe plus recency update and hit/miss accounting — the normal
// CPU-side lookup path.
func (c *Cache) Access(set, partition int, tag uint64) (int, bool) {
	w, hit := c.Probe(set, partition, tag)
	if hit {
		c.tick++
		c.lastUse[set*c.ways+w] = c.tick
		c.rrpvs[set*c.ways+w] = 0 // near-immediate re-reference
		c.Stats.Hits++
		c.Metrics.Add(c.MetricsCore, metrics.CtrL1Hit, 1)
		return w, true
	}
	c.Stats.Misses++
	c.Metrics.Add(c.MetricsCore, metrics.CtrL1Miss, 1)
	return 0, false
}

// ProbeWay checks a single way for tag without touching recency or stats
// — the way-predictor's first, narrow probe.
func (c *Cache) ProbeWay(set, wayIdx int, tag uint64) bool {
	i := set*c.ways + wayIdx
	return c.states[i] != uint8(Invalid) && c.tags[i] == tag
}

// Touch marks a way most-recently-used and counts a hit; used by
// way-predicted lookups that bypass Access.
func (c *Cache) Touch(set, wayIdx int) {
	c.tick++
	c.lastUse[set*c.ways+wayIdx] = c.tick
	c.rrpvs[set*c.ways+wayIdx] = 0
	c.Stats.Hits++
	c.Metrics.Add(c.MetricsCore, metrics.CtrL1Hit, 1)
}

// StateOf returns the state of a way.
func (c *Cache) StateOf(set, wayIdx int) State { return State(c.states[set*c.ways+wayIdx]) }

// SetState updates the state of a valid way; setting Invalid frees it.
func (c *Cache) SetState(set, wayIdx int, s State) { c.states[set*c.ways+wayIdx] = uint8(s) }

// TagOf returns the tag stored in a way (meaningful only if valid).
func (c *Cache) TagOf(set, wayIdx int) uint64 { return c.tags[set*c.ways+wayIdx] }

// PartitionOfWay returns the partition a way index belongs to.
func (c *Cache) PartitionOfWay(wayIdx int) int { return wayIdx / c.geom.WaysPerPartition() }

// Insert places tag into the given partition (or anywhere in the set with
// AnyPartition) in state st, evicting the LRU line of that scope if
// necessary, and returns the victim. The "4way" insertion policy passes
// the physical partition index; the "4way-8way" policy passes the
// partition for superpages and AnyPartition for base pages.
func (c *Cache) Insert(set, partition int, tag uint64, st State) Victim {
	if st == Invalid {
		panic("cache: inserting an Invalid line")
	}
	c.Stats.Inserts++
	c.tick++
	lo, hi := c.wayRange(partition)
	base := set * c.ways
	// Prefer an invalid way.
	victimWay := -1
	for w := lo; w < hi; w++ {
		if c.states[base+w] == uint8(Invalid) {
			victimWay = w
			break
		}
	}
	var victim Victim
	if victimWay == -1 {
		victimWay = c.selectVictim(set, lo, hi)
		vs := State(c.states[base+victimWay])
		victim = Victim{Valid: true, Tag: c.tags[base+victimWay], State: vs, Way: victimWay}
		c.Stats.Evictions++
		if vs.Dirty() {
			c.Stats.Writebacks++
		}
	}
	insertRRPV := uint8(0)
	if c.repl == SRRIP {
		insertRRPV = maxRRPV - 1 // "long" re-reference prediction
	}
	i := base + victimWay
	c.tags[i], c.states[i], c.lastUse[i], c.rrpvs[i] = tag, uint8(st), c.tick, insertRRPV
	victim.Way = victimWay
	return victim
}

// selectVictim picks the eviction victim in [lo,hi) per the policy.
func (c *Cache) selectVictim(set, lo, hi int) int {
	base := set * c.ways
	if c.repl == SRRIP {
		// Find a way predicted "distant" (RRPV saturated), aging the
		// scope until one appears.
		for {
			for w := lo; w < hi; w++ {
				if c.rrpvs[base+w] >= maxRRPV {
					return w
				}
			}
			for w := lo; w < hi; w++ {
				c.rrpvs[base+w]++
			}
		}
	}
	// True LRU within the scope.
	victimWay := lo
	for w := lo + 1; w < hi; w++ {
		if c.lastUse[base+w] < c.lastUse[base+victimWay] {
			victimWay = w
		}
	}
	return victimWay
}

// clearWay frees a way, resetting all of its storage (matching the
// zero-value reset the slice-of-structs layout used to do).
func (c *Cache) clearWay(i int) {
	c.tags[i], c.states[i], c.lastUse[i], c.rrpvs[i] = 0, uint8(Invalid), 0, 0
}

// Invalidate removes tag from the set (searching all ways) and returns its
// prior state. Coherence invalidations land here.
func (c *Cache) Invalidate(set int, tag uint64) (State, bool) {
	if w, hit := c.Probe(set, AnyPartition, tag); hit {
		st := State(c.states[set*c.ways+w])
		c.clearWay(set*c.ways + w)
		return st, true
	}
	return Invalid, false
}

// A FrameSweep evicts the lines of a list of 4KB frames, the frames a
// promoted region leaves behind (the sweep SEESAW performs when base
// pages are promoted to a superpage, Section IV-C2). Reset loads the
// frames once; EvictFrames then sweeps each cache in one pass over its
// array. The sweep keeps its buffers from one promotion to the next, so
// a warm sweep allocates nothing.
type FrameSweep struct {
	// frames holds the listed frame numbers in ascending order, each
	// once, with the position at which the list first names it.
	frames []sweptFrame
	// One pass's victims in array order, each with its frame's
	// position, and the victims in frame-list order.
	scan    []sweptLine
	victims []Victim
}

type sweptFrame struct {
	frame uint64 // physical address >> 12
	pos   int
}

type sweptLine struct {
	pos int
	v   Victim
}

// Reset loads the frames to sweep: 4KB-aligned frame addresses, in the
// order their lines are to leave. A frame listed more than once leaves
// at its first listing.
func (s *FrameSweep) Reset(frames []addr.PAddr) {
	s.frames = s.frames[:0]
	for i, f := range frames {
		s.frames = append(s.frames, sweptFrame{uint64(f) >> 12, i})
	}
	slices.SortFunc(s.frames, func(a, b sweptFrame) int {
		return cmp.Or(cmp.Compare(a.frame, b.frame), cmp.Compare(a.pos, b.pos))
	})
	s.frames = slices.CompactFunc(s.frames, func(a, b sweptFrame) bool { return a.frame == b.frame })
}

// EvictFrames evicts every line of the sweep's frames and returns the
// victims with their reconstructed addresses in Victim.PA. They come in
// the order sweeping each frame's 4KB range in turn would give: by the
// frame's position in the list, then by set and way. The result is the
// sweep's buffer, valid until its next use.
func (c *Cache) EvictFrames(s *FrameSweep) []Victim {
	s.scan, s.victims = s.scan[:0], s.victims[:0]
	nsets := c.geom.Sets()
	for set := 0; set < nsets; set++ {
		base := set * c.ways
		for w := 0; w < c.ways; w++ {
			st := State(c.states[base+w])
			if st == Invalid {
				continue
			}
			pa := c.geom.LineFromSetTag(set, c.tags[base+w])
			i, ok := slices.BinarySearchFunc(s.frames, uint64(pa)>>12, func(e sweptFrame, f uint64) int { return cmp.Compare(e.frame, f) })
			if !ok {
				continue
			}
			s.scan = append(s.scan, sweptLine{s.frames[i].pos, Victim{Valid: true, Tag: c.tags[base+w], State: st, Way: w, PA: pa}})
			if st.Dirty() {
				c.Stats.Writebacks++
			}
			c.Stats.Sweeps++
			c.clearWay(base + w)
		}
	}
	slices.SortStableFunc(s.scan, func(a, b sweptLine) int { return cmp.Compare(a.pos, b.pos) })
	for _, l := range s.scan {
		s.victims = append(s.victims, l.v)
	}
	return s.victims
}

// ValidLines returns the number of valid lines (for occupancy checks).
func (c *Cache) ValidLines() int {
	n := 0
	for _, st := range c.states {
		if st != uint8(Invalid) {
			n++
		}
	}
	return n
}

// FindLine searches the whole cache for a physical line address and
// returns its set/way. It is O(1) in the set dimension (the set index is
// derived from the address).
func (c *Cache) FindLine(pa addr.PAddr) (set, wayIdx int, ok bool) {
	set = c.geom.SetIndexP(pa)
	wayIdx, ok = c.Probe(set, AnyPartition, c.geom.TagP(pa))
	return set, wayIdx, ok
}

// MPKI returns misses per kilo-instruction given an instruction count.
func (c *Cache) MPKI(instructions uint64) float64 {
	if instructions == 0 {
		return 0
	}
	return float64(c.Stats.Misses) / float64(instructions) * 1000
}
