// Package coherence implements the multi-core memory system behind the
// L1s: an inclusive shared LLC (the paper's 24MB unified last-level
// cache), a MOESI directory that filters coherence probes, and an
// alternative snoopy mode that broadcasts probes to every L1 (the paper
// reports snoopy protocols increase SEESAW's energy savings by a further
// 2-5%).
//
// The LLC keeps its own storage (llc.go), one recency-ordered row of
// 4-byte words per set. Each LLC victim back-invalidates every L1 copy,
// so every line an L1 holds is resident in the LLC; internal/check
// asserts that through InLLC.
//
// Every invalidation, downgrade, and back-invalidation lands on an L1 as
// a coherence lookup — the probes whose associativity cost SEESAW's 4way
// insertion policy cuts in half (Section IV-C1, Fig 11).
package coherence

import (
	"fmt"

	"seesaw/internal/addr"
	"seesaw/internal/core"
	"seesaw/internal/metrics"
	"seesaw/internal/sram"
)

// Mode selects the coherence protocol style.
type Mode int

const (
	// Directory filters probes through a full-map directory.
	Directory Mode = iota
	// Snoopy broadcasts every miss to all other L1s.
	Snoopy
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	if m == Snoopy {
		return "snoopy"
	}
	return "directory"
}

// Config sizes the shared memory system.
type Config struct {
	Mode Mode
	// LLC geometry (paper: 24MB unified).
	LLCSizeBytes uint64
	LLCWays      int
	// Latencies in nanoseconds, converted at FreqGHz.
	LLCLatencyNS  float64
	DRAMLatencyNS float64
	FreqGHz       float64
}

// DefaultConfig returns the paper's Table II memory system at the given
// frequency: 24MB LLC, 51ns DRAM round trip.
func DefaultConfig(freqGHz float64) Config {
	return Config{
		Mode:         Directory,
		LLCSizeBytes: 24 << 20,
		LLCWays:      24, // 16384 sets; real 24MB LLCs are similarly non-power-of-two in ways

		LLCLatencyNS:  10,
		DRAMLatencyNS: 51,
		FreqGHz:       freqGHz,
	}
}

// Latencies are the memory system's cycle costs at one clock.
type Latencies struct {
	// LLC is a directory/LLC access; DRAM is an LLC miss's round trip,
	// the LLC access included.
	LLC, DRAM int
}

// Latencies converts the config's nanosecond latencies at its FreqGHz.
func (c Config) Latencies() Latencies {
	return Latencies{
		LLC:  sram.Cycles(c.LLCLatencyNS, c.FreqGHz),
		DRAM: sram.Cycles(c.LLCLatencyNS+c.DRAMLatencyNS, c.FreqGHz),
	}
}

// Miss prices a miss by its data source (System.Miss sets
// MissResult.Cycles with it): a peer supply crosses the LLC
// interconnect twice, an LLC hit once, an LLC miss goes to DRAM.
func (l Latencies) Miss(r MissResult) int {
	switch {
	case r.FromPeer:
		return 2 * l.LLC
	case r.FromLLC:
		return l.LLC
	}
	return l.DRAM
}

// Stats counts memory-system events.
type Stats struct {
	LLCHits    uint64
	LLCMisses  uint64
	DRAMReads  uint64
	DRAMWrites uint64
	Writebacks uint64 // L1 dirty evictions reaching the LLC

	ProbesSent      uint64 // coherence lookups delivered to L1s
	Invalidations   uint64
	Downgrades      uint64
	BackInvals      uint64 // inclusive-LLC back-invalidations
	PeerTransfers   uint64 // cache-to-cache supplies
	UpgradeRequests uint64
}

// MaxL1s is the most L1 caches one System serves: the directory keeps a
// line's sharers in a 64-bit mask.
const MaxL1s = 64

// dirEntry tracks one line's L1 residency.
type dirEntry struct {
	sharers uint64 // bitmask of cores holding the line
	owner   int8   // core holding M/E/O, or -1
}

// System is the shared memory system under N L1 caches.
type System struct {
	cfg Config
	l1s []core.L1Cache
	llc llc
	// dir holds entries by value: hot-path updates load, mutate locally,
	// and store back, so steady-state misses never allocate (the pointer
	// map used to allocate one dirEntry per tracked line).
	dir map[addr.PAddr]dirEntry
	// snoopBuf is the reusable target buffer for snoopTargets; probes
	// never recurse into snoopTargets, so one buffer suffices.
	snoopBuf []int

	lat Latencies

	Stats Stats
	// CoherenceEnergyNJ and CoherenceProbes accumulate per-core L1
	// coherence lookup costs (Fig 11's coherence slice).
	CoherenceEnergyNJ []float64
	CoherenceProbes   []uint64

	// Metrics, when non-nil, mirrors probe/invalidation/downgrade traffic
	// into the observability layer, attributed to the probed core.
	Metrics *metrics.Recorder
}

// New builds the memory system over the given per-core L1s.
func New(cfg Config, l1s []core.L1Cache) (*System, error) {
	if len(l1s) == 0 {
		return nil, fmt.Errorf("coherence: no L1 caches")
	}
	if len(l1s) > MaxL1s {
		return nil, fmt.Errorf("coherence: %d cores exceed the %d-core directory bitmask", len(l1s), MaxL1s)
	}
	if cfg.FreqGHz <= 0 {
		return nil, fmt.Errorf("coherence: non-positive frequency")
	}
	geom, err := addr.NewCacheGeometry(cfg.LLCSizeBytes, cfg.LLCWays, 1)
	if err != nil {
		return nil, err
	}
	// The directory tracks only lines some L1 holds (an entry goes when
	// its last sharer does), so the L1s' total lines bound it: sized for
	// that up front, it never rehashes as the caches fill.
	lines := 0
	for _, l1 := range l1s {
		g := l1.Storage().Geometry()
		lines += g.Sets() * g.Ways
	}
	return &System{
		cfg:               cfg,
		l1s:               l1s,
		llc:               newLLC(geom),
		dir:               make(map[addr.PAddr]dirEntry, lines),
		snoopBuf:          make([]int, 0, len(l1s)),
		lat:               cfg.Latencies(),
		CoherenceEnergyNJ: make([]float64, len(l1s)),
		CoherenceProbes:   make([]uint64, len(l1s)),
	}, nil
}

// MustNew panics on error.
func MustNew(cfg Config, l1s []core.L1Cache) *System {
	s, err := New(cfg, l1s)
	if err != nil {
		panic(err)
	}
	return s
}

// MissResult describes how an L1 miss was satisfied.
type MissResult struct {
	// Cycles is the latency beyond the L1 lookup itself.
	Cycles int
	// Shared tells the requesting L1 to fill in Shared (other copies
	// exist) rather than Exclusive.
	Shared bool
	// FromPeer, FromLLC, FromDRAM identify the data source.
	FromPeer bool
	FromLLC  bool
	FromDRAM bool
}

// entry loads a line's directory entry (or a fresh unowned one) by
// value; callers mutate the copy and store it back when done.
func (s *System) entry(line addr.PAddr) dirEntry {
	e, ok := s.dir[line]
	if !ok {
		e = dirEntry{owner: -1}
	}
	return e
}

// probe delivers one coherence lookup to an L1 and accounts its cost.
func (s *System) probe(coreID int, pa addr.PAddr, op core.SnoopOp) core.ProbeResult {
	r := s.l1s[coreID].Snoop(pa, op)
	s.Stats.ProbesSent++
	s.CoherenceProbes[coreID]++
	s.CoherenceEnergyNJ[coreID] += r.EnergyNJ
	s.Metrics.Add(coreID, metrics.CtrCohProbe, 1)
	return r
}

// llcLookup accesses the LLC; on a miss it fetches from DRAM and
// installs the line.
func (s *System) llcLookup(pa addr.PAddr, store bool) (hitLLC bool) {
	line := pa.LineBase()
	if s.llc.lookup(line) {
		s.Stats.LLCHits++
		return true
	}
	s.Stats.LLCMisses++
	s.Stats.DRAMReads++
	s.llcFill(line, store)
	return false
}

// llcFill inserts a line the LLC does not hold and back-invalidates any
// L1 copies of the LLC victim (inclusive hierarchy).
func (s *System) llcFill(line addr.PAddr, dirty bool) {
	victim, victimDirty, evicted := s.llc.insert(line, dirty)
	if !evicted {
		return
	}
	s.backInvalidate(victim)
	if victimDirty {
		s.Stats.DRAMWrites++
	}
}

// backInvalidate removes every L1 copy of an LLC victim (inclusive LLC),
// writing dirty data back to DRAM.
func (s *System) backInvalidate(pa addr.PAddr) {
	e, ok := s.dir[pa.LineBase()]
	if !ok {
		return
	}
	for c := 0; c < len(s.l1s); c++ {
		if e.sharers&(1<<uint(c)) == 0 {
			continue
		}
		r := s.probe(c, pa, core.SnoopInvalidate)
		s.Stats.BackInvals++
		if r.Hit && r.State.Dirty() {
			s.Stats.DRAMWrites++
		}
	}
	delete(s.dir, pa.LineBase())
}

// snoopTargets returns the cores to probe for a request from reqCore: the
// directory filters to actual sharers; snoopy mode broadcasts. The
// returned slice aliases a scratch buffer valid until the next call.
func (s *System) snoopTargets(reqCore int, sharers uint64) []int {
	targets := s.snoopBuf[:0]
	for c := 0; c < len(s.l1s); c++ {
		if c == reqCore {
			continue
		}
		if s.cfg.Mode == Snoopy || sharers&(1<<uint(c)) != 0 {
			targets = append(targets, c)
		}
	}
	s.snoopBuf = targets
	return targets
}

// Miss services an L1 miss from reqCore for pa; store selects a
// write-intent request (RFO). The caller then fills its L1 with the
// returned sharing state and reports the fill's victim via Evicted.
func (s *System) Miss(reqCore int, pa addr.PAddr, store bool) MissResult {
	line := pa.LineBase()
	e := s.entry(line)
	var res MissResult
	// Probe peers: all sharers on a store (invalidate), the owner on a
	// load (downgrade). Snoopy mode broadcasts regardless.
	peerHadData := false
	if store {
		for _, c := range s.snoopTargets(reqCore, e.sharers) {
			r := s.probe(c, pa, core.SnoopInvalidate)
			if r.Hit {
				s.Stats.Invalidations++
				s.Metrics.Add(c, metrics.CtrCohInvalidate, 1)
				s.Metrics.Emit(c, metrics.EvCohInvalidate, 0, uint64(line), 0)
				peerHadData = true
				if r.State.Dirty() {
					s.Stats.Writebacks++
					s.llcWriteback(line)
				}
			}
		}
		e.sharers = 0
		e.owner = -1
	} else {
		for _, c := range s.snoopTargets(reqCore, e.sharers) {
			// Only the owner must be probed in directory mode; snoopy
			// probes everyone.
			if s.cfg.Mode == Directory && int(e.owner) != c {
				continue
			}
			r := s.probe(c, pa, core.SnoopDowngrade)
			if r.Hit {
				s.Stats.Downgrades++
				s.Metrics.Add(c, metrics.CtrCohDowngrade, 1)
				s.Metrics.Emit(c, metrics.EvCohDowngrade, 0, uint64(line), 0)
				peerHadData = true
			}
		}
	}
	if peerHadData {
		s.Stats.PeerTransfers++
		res.FromPeer = true
	} else {
		hit := s.llcLookup(pa, store)
		res.FromLLC = hit
		res.FromDRAM = !hit
	}
	res.Cycles = s.lat.Miss(res)
	// Update directory for the requester.
	if store {
		e.sharers = 1 << uint(reqCore)
		e.owner = int8(reqCore)
		res.Shared = false
	} else {
		res.Shared = e.sharers != 0 || peerHadData
		e.sharers |= 1 << uint(reqCore)
		if !res.Shared {
			e.owner = int8(reqCore)
		} else if e.owner == int8(reqCore) {
			e.owner = -1
		}
	}
	s.dir[line] = e
	return res
}

// llcWriteback writes a dirty line back into the LLC.
func (s *System) llcWriteback(line addr.PAddr) {
	if !s.llc.writeback(line) {
		s.llcFill(line, true)
	}
}

// Upgrade services a store hit on a Shared/Owned line: every other sharer
// is invalidated and the requester becomes the Modified owner. It
// returns the upgrade's latency, one LLC access (Latencies.LLC).
func (s *System) Upgrade(reqCore int, pa addr.PAddr) int {
	line := pa.LineBase()
	e := s.entry(line)
	s.Stats.UpgradeRequests++
	for _, c := range s.snoopTargets(reqCore, e.sharers) {
		r := s.probe(c, pa, core.SnoopInvalidate)
		if r.Hit {
			s.Stats.Invalidations++
			s.Metrics.Add(c, metrics.CtrCohInvalidate, 1)
			s.Metrics.Emit(c, metrics.EvCohInvalidate, 0, uint64(line), 0)
		}
	}
	e.sharers = 1 << uint(reqCore)
	e.owner = int8(reqCore)
	s.dir[line] = e
	s.l1s[reqCore].UpgradeToModified(pa)
	return s.lat.LLC
}

// Evicted reports an L1 victim so the directory stays precise; dirty
// victims write back into the LLC.
func (s *System) Evicted(coreID int, pa addr.PAddr, dirty bool) {
	line := pa.LineBase()
	if e, ok := s.dir[line]; ok {
		e.sharers &^= 1 << uint(coreID)
		if e.owner == int8(coreID) {
			e.owner = -1
		}
		if e.sharers == 0 {
			delete(s.dir, line)
		} else {
			s.dir[line] = e
		}
	}
	if dirty {
		s.Stats.Writebacks++
		s.llcWriteback(line)
	}
}

// Residency reports the directory's view of one line: the sharer
// bitmask (bit i set when L1 i is believed to hold the line) and the
// owner core, or -1 when none. tracked is false when the directory has
// no entry at all. The invariant checker compares this against the
// actual L1 contents — a cache holding a line the directory does not
// list is unreachable by probes and therefore incoherent.
func (s *System) Residency(pa addr.PAddr) (sharers uint64, owner int, tracked bool) {
	e, ok := s.dir[pa.LineBase()]
	if !ok {
		return 0, -1, false
	}
	return e.sharers, int(e.owner), true
}

// InLLC reports whether pa's line is resident in the LLC, without
// touching its recency. The inclusive LLC must hold every line an L1
// holds; the invariant checker asserts it.
func (s *System) InLLC(pa addr.PAddr) bool { return s.llc.resident(pa.LineBase()) }

// TotalCoherenceEnergyNJ sums coherence lookup energy across cores.
func (s *System) TotalCoherenceEnergyNJ() float64 {
	var t float64
	for _, e := range s.CoherenceEnergyNJ {
		t += e
	}
	return t
}
