// Package tlb models the TLB hierarchy SEESAW sits next to: per-page-size
// split L1 TLBs (as on Intel Sandybridge/Atom), a unified L2 TLB holding
// 4KB and 2MB translations, and the fall-back to the hardware page walker.
// Entries are ASID-tagged, so context switches do not flush TLBs (the TFT,
// which is not ASID-tagged, is flushed instead — see internal/tft).
package tlb

import (
	"fmt"

	"seesaw/internal/addr"
)

// Entry is one cached translation.
type Entry struct {
	VPN  uint64
	PPN  uint64
	Size addr.PageSize
	ASID uint16
}

// Config describes one TLB structure.
type Config struct {
	Name    string
	Entries int
	// Assoc is the set associativity; 0 or >= Entries means fully
	// associative.
	Assoc int
	// Sizes lists the page sizes this TLB holds.
	Sizes []addr.PageSize
}

// Stats counts TLB events.
type Stats struct {
	Lookups       uint64
	Hits          uint64
	Misses        uint64
	Fills         uint64
	Evictions     uint64
	Invalidations uint64
}

// TLB is a set-associative (or fully associative) translation cache with
// true-LRU replacement within each set. Storage is flat: set s occupies
// [s*assoc, s*assoc+slen[s]) of the parallel entry arrays, kept in MRU-
// to-LRU order, so lookups scan a few contiguous words and fills rotate
// in place instead of allocating.
type TLB struct {
	cfg     Config
	nsets   int
	setMask uint64 // nsets-1; nsets is a power of two

	// Parallel flat entry arrays (struct-of-arrays), MRU-first per set.
	vpns  []uint64
	ppns  []uint64
	sizes []addr.PageSize
	asids []uint16
	slen  []int32 // live entries per set
	// valid is the sum of slen, kept live by Fill and compactSet so
	// ValidCount, read on every speculating reference, costs one load.
	valid int

	Stats Stats
}

// New creates a TLB from cfg.
func New(cfg Config) (*TLB, error) {
	if cfg.Entries <= 0 {
		return nil, fmt.Errorf("tlb %q: %d entries", cfg.Name, cfg.Entries)
	}
	if len(cfg.Sizes) == 0 {
		return nil, fmt.Errorf("tlb %q: no page sizes", cfg.Name)
	}
	assoc := cfg.Assoc
	if assoc <= 0 || assoc >= cfg.Entries {
		assoc = cfg.Entries
	}
	if cfg.Entries%assoc != 0 {
		return nil, fmt.Errorf("tlb %q: %d entries not divisible by associativity %d",
			cfg.Name, cfg.Entries, assoc)
	}
	nsets := cfg.Entries / assoc
	if !addr.IsPow2(uint64(nsets)) {
		return nil, fmt.Errorf("tlb %q: %d sets not a power of two", cfg.Name, nsets)
	}
	cfg.Assoc = assoc
	n := nsets * assoc
	return &TLB{
		cfg: cfg, nsets: nsets, setMask: uint64(nsets - 1),
		vpns:  make([]uint64, n),
		ppns:  make([]uint64, n),
		sizes: make([]addr.PageSize, n),
		asids: make([]uint16, n),
		slen:  make([]int32, nsets),
	}, nil
}

// MustNew is New that panics on error.
func MustNew(cfg Config) *TLB {
	t, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return t
}

// Config returns the TLB's configuration (with Assoc normalized).
func (t *TLB) Config() Config { return t.cfg }

func (t *TLB) holds(s addr.PageSize) bool {
	for _, hs := range t.cfg.Sizes {
		if hs == s {
			return true
		}
	}
	return false
}

func (t *TLB) setIndex(vpn uint64) int { return int(vpn & t.setMask) }

// moveToFront rotates the entry at base+i to the front of its set,
// shifting [base, base+i) down by one — the in-place MRU promotion.
func (t *TLB) moveToFront(base, i int) {
	if i == 0 {
		return
	}
	vpn, ppn, size, asid := t.vpns[base+i], t.ppns[base+i], t.sizes[base+i], t.asids[base+i]
	copy(t.vpns[base+1:base+i+1], t.vpns[base:base+i])
	copy(t.ppns[base+1:base+i+1], t.ppns[base:base+i])
	copy(t.sizes[base+1:base+i+1], t.sizes[base:base+i])
	copy(t.asids[base+1:base+i+1], t.asids[base:base+i])
	t.vpns[base], t.ppns[base], t.sizes[base], t.asids[base] = vpn, ppn, size, asid
}

// Lookup searches for a translation of va for asid. For multi-size TLBs
// every held page size is tried. On a hit the entry is promoted to MRU.
func (t *TLB) Lookup(va addr.VAddr, asid uint16) (Entry, bool) {
	t.Stats.Lookups++
	for _, s := range t.cfg.Sizes {
		vpn := va.VPN(s)
		base := t.setIndex(vpn) * t.cfg.Assoc
		n := int(t.slen[t.setIndex(vpn)])
		for i := 0; i < n; i++ {
			if t.vpns[base+i] == vpn && t.sizes[base+i] == s && t.asids[base+i] == asid {
				e := Entry{VPN: vpn, PPN: t.ppns[base+i], Size: s, ASID: asid}
				t.moveToFront(base, i)
				t.Stats.Hits++
				return e, true
			}
		}
	}
	t.Stats.Misses++
	return Entry{}, false
}

// Fill inserts a translation, evicting the LRU entry of its set if full.
// Filling a page size the TLB does not hold is a caller bug.
func (t *TLB) Fill(e Entry) error {
	if !t.holds(e.Size) {
		return fmt.Errorf("tlb %q: fill of unsupported page size %v", t.cfg.Name, e.Size)
	}
	t.Stats.Fills++
	set := t.setIndex(e.VPN)
	base := set * t.cfg.Assoc
	n := int(t.slen[set])
	// Replace an existing entry for the same page in place.
	for i := 0; i < n; i++ {
		if t.vpns[base+i] == e.VPN && t.sizes[base+i] == e.Size && t.asids[base+i] == e.ASID {
			t.moveToFront(base, i)
			t.ppns[base] = e.PPN
			return nil
		}
	}
	if n >= t.cfg.Assoc {
		n = t.cfg.Assoc - 1 // drop LRU
		t.Stats.Evictions++
	}
	// Shift the survivors down one slot and install at the MRU front.
	copy(t.vpns[base+1:base+n+1], t.vpns[base:base+n])
	copy(t.ppns[base+1:base+n+1], t.ppns[base:base+n])
	copy(t.sizes[base+1:base+n+1], t.sizes[base:base+n])
	copy(t.asids[base+1:base+n+1], t.asids[base:base+n])
	t.vpns[base], t.ppns[base], t.sizes[base], t.asids[base] = e.VPN, e.PPN, e.Size, e.ASID
	t.valid += n + 1 - int(t.slen[set])
	t.slen[set] = int32(n + 1)
	return nil
}

// Contains reports whether any held page size translates va for asid,
// without touching recency or statistics — the invariant checker's
// non-perturbing probe.
func (t *TLB) Contains(va addr.VAddr, asid uint16) bool {
	for _, s := range t.cfg.Sizes {
		vpn := va.VPN(s)
		set := t.setIndex(vpn)
		base := set * t.cfg.Assoc
		for i := 0; i < int(t.slen[set]); i++ {
			if t.vpns[base+i] == vpn && t.sizes[base+i] == s && t.asids[base+i] == asid {
				return true
			}
		}
	}
	return false
}

// compactSet removes every entry of a set for which drop returns true,
// preserving MRU order, and returns how many were removed.
func (t *TLB) compactSet(set int, drop func(i int) bool) int {
	base := set * t.cfg.Assoc
	n := int(t.slen[set])
	w := 0
	for i := 0; i < n; i++ {
		if drop(base + i) {
			continue
		}
		if w != i {
			t.vpns[base+w], t.ppns[base+w] = t.vpns[base+i], t.ppns[base+i]
			t.sizes[base+w], t.asids[base+w] = t.sizes[base+i], t.asids[base+i]
		}
		w++
	}
	t.slen[set] = int32(w)
	t.valid -= n - w
	return n - w
}

// Invalidate removes any entry translating va for asid (all held sizes),
// returning how many entries were dropped. This is the TLB side of
// invlpg.
func (t *TLB) Invalidate(va addr.VAddr, asid uint16) int {
	dropped := 0
	for _, s := range t.cfg.Sizes {
		vpn := va.VPN(s)
		set := t.setIndex(vpn)
		dropped += t.compactSet(set, func(i int) bool {
			return t.vpns[i] == vpn && t.sizes[i] == s && t.asids[i] == asid
		})
	}
	t.Stats.Invalidations += uint64(dropped)
	return dropped
}

// FlushASID drops every entry belonging to asid.
func (t *TLB) FlushASID(asid uint16) int {
	dropped := 0
	for si := 0; si < t.nsets; si++ {
		dropped += t.compactSet(si, func(i int) bool { return t.asids[i] == asid })
	}
	t.Stats.Invalidations += uint64(dropped)
	return dropped
}

// ValidCount returns the number of valid entries currently held. The OoO
// scheduler's speculation heuristic (Section IV-B3) reads this from the
// superpage L1 TLB on every reference, so it is a kept count, not a
// scan of the sets.
func (t *TLB) ValidCount() int { return t.valid }

// HitRate returns hits/lookups.
func (t *TLB) HitRate() float64 {
	if t.Stats.Lookups == 0 {
		return 0
	}
	return float64(t.Stats.Hits) / float64(t.Stats.Lookups)
}
