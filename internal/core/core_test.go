package core

import (
	"testing"

	"seesaw/internal/addr"
	"seesaw/internal/cache"
	"seesaw/internal/tft"
)

func cfg32K(freq float64) Config {
	return Config{SizeBytes: 32 << 10, Ways: 8, FreqGHz: freq, TFT: tft.DefaultConfig()}
}

// translate2M builds matching VA/PA pairs within a 2MB page.
func translate2M(va addr.VAddr, ppn uint64) addr.PAddr {
	return addr.Translate(va, ppn, addr.Page2M)
}

func TestBaselineLatencyMatchesTableIII(t *testing.T) {
	cases := []struct {
		size   uint64
		ways   int
		freq   float64
		cycles int
	}{
		{32 << 10, 8, 1.33, 2},
		{32 << 10, 8, 2.80, 4},
		{32 << 10, 8, 4.00, 5},
		{64 << 10, 16, 1.33, 5},
		{128 << 10, 32, 4.00, 42},
	}
	for _, c := range cases {
		b := MustNewBaselineVIPT(Config{SizeBytes: c.size, Ways: c.ways, FreqGHz: c.freq})
		r := b.Access(0x1000, 0x1000, addr.Page4K, false)
		if r.Cycles != c.cycles {
			t.Errorf("%s @%.2fGHz: %d cycles, want %d", b.Name(), c.freq, r.Cycles, c.cycles)
		}
		if r.FastPath {
			t.Error("baseline has no fast path")
		}
	}
}

func TestSeesawLatencyMatchesTableIII(t *testing.T) {
	cases := []struct {
		size       uint64
		ways       int
		freq       float64
		slow, fast int
	}{
		{32 << 10, 8, 1.33, 2, 1},
		{32 << 10, 8, 2.80, 4, 2},
		{32 << 10, 8, 4.00, 5, 3},
		{64 << 10, 16, 1.33, 5, 1},
		{64 << 10, 16, 2.80, 9, 2},
		{64 << 10, 16, 4.00, 13, 3},
		{128 << 10, 32, 1.33, 14, 2},
		{128 << 10, 32, 2.80, 30, 3},
		{128 << 10, 32, 4.00, 42, 4},
	}
	for _, c := range cases {
		s := MustNewSeesaw(Config{SizeBytes: c.size, Ways: c.ways, FreqGHz: c.freq})
		if s.SlowCycles() != c.slow || s.FastCycles() != c.fast {
			t.Errorf("%s @%.2f: slow=%d fast=%d, want %d/%d",
				s.Name(), c.freq, s.SlowCycles(), s.FastCycles(), c.slow, c.fast)
		}
	}
}

func TestSeesawDefaultPartitions(t *testing.T) {
	s := MustNewSeesaw(cfg32K(1.33))
	if s.Geometry().Partitions != 2 || s.Geometry().WaysPerPartition() != 4 {
		t.Errorf("geometry = %v, want 2 partitions of 4 ways", s.Geometry())
	}
	s64 := MustNewSeesaw(Config{SizeBytes: 64 << 10, Ways: 16, FreqGHz: 1.33})
	if s64.Geometry().Partitions != 4 {
		t.Errorf("64KB partitions = %d, want 4", s64.Geometry().Partitions)
	}
}

// TestTableIRow1 exercises 2MB + TFT hit + cache hit: fast latency,
// partition-only probe.
func TestTableIRow1(t *testing.T) {
	s := MustNewSeesaw(cfg32K(1.33))
	va := addr.VAddr(0x4000_0000 | 1<<12) // partition bit set
	pa := translate2M(va, 7)
	s.OnSuperpageTLBFill(va) // TLB filled the 2MB entry -> TFT knows
	s.Fill(pa, addr.Page2M, false, false)
	r := s.Access(va, pa, addr.Page2M, false)
	if !r.Hit || !r.FastPath || !r.TFTHit {
		t.Fatalf("result = %+v", r)
	}
	if r.Cycles != 1 {
		t.Errorf("cycles = %d, want 1 (Table I row 1 at 1.33GHz)", r.Cycles)
	}
	if r.WaysProbed != 4 {
		t.Errorf("ways probed = %d, want 4", r.WaysProbed)
	}
	if s.Stats.FastHits != 1 {
		t.Errorf("stats = %+v", s.Stats)
	}
}

// TestTableIRow2: 2MB + TFT hit + cache miss — energy savings only; the
// lookup still completes after the single partition probe.
func TestTableIRow2(t *testing.T) {
	s := MustNewSeesaw(cfg32K(1.33))
	va := addr.VAddr(0x4000_0000)
	pa := translate2M(va, 7)
	s.OnSuperpageTLBFill(va)
	r := s.Access(va, pa, addr.Page2M, false)
	if r.Hit || !r.FastPath || r.WaysProbed != 4 {
		t.Fatalf("result = %+v", r)
	}
	if s.Stats.FastMisses != 1 {
		t.Errorf("stats = %+v", s.Stats)
	}
}

// TestTableIRow3: superpage access the TFT does not know — all ways read,
// slow latency, no savings.
func TestTableIRow3(t *testing.T) {
	s := MustNewSeesaw(cfg32K(1.33))
	va := addr.VAddr(0x4000_0000)
	pa := translate2M(va, 7)
	s.Fill(pa, addr.Page2M, false, false)
	r := s.Access(va, pa, addr.Page2M, false)
	if !r.Hit || r.FastPath || r.TFTHit {
		t.Fatalf("result = %+v", r)
	}
	if r.Cycles != s.SlowCycles() || r.WaysProbed != 8 {
		t.Errorf("cycles=%d ways=%d, want slow/8", r.Cycles, r.WaysProbed)
	}
	if s.Stats.SuperTFTMissHits != 1 {
		t.Errorf("stats = %+v", s.Stats)
	}
}

// TestTableIRow4: base-page access — same as traditional VIPT.
func TestTableIRow4(t *testing.T) {
	s := MustNewSeesaw(cfg32K(1.33))
	b := MustNewBaselineVIPT(cfg32K(1.33))
	va := addr.VAddr(0x12345000)
	pa := addr.Translate(va, 99, addr.Page4K)
	s.Fill(pa, addr.Page4K, false, false)
	b.Fill(pa, addr.Page4K, false, false)
	rs := s.Access(va, pa, addr.Page4K, false)
	rb := b.Access(va, pa, addr.Page4K, false)
	if !rs.Hit || rs.FastPath {
		t.Fatalf("seesaw base-page result = %+v", rs)
	}
	if rs.Cycles != rb.Cycles || rs.WaysProbed != rb.WaysProbed {
		t.Errorf("base-page access differs from baseline: %+v vs %+v", rs, rb)
	}
	// The small partition-mux overhead makes SEESAW's full-set energy a
	// hair above baseline, bounded by PartitionOverhead.
	if rs.EnergyNJ < rb.EnergyNJ || rs.EnergyNJ > rb.EnergyNJ*1.01 {
		t.Errorf("base-page energy %.4f vs baseline %.4f", rs.EnergyNJ, rb.EnergyNJ)
	}
}

func TestFastPathSavesLatencyAndEnergy(t *testing.T) {
	s := MustNewSeesaw(cfg32K(1.33))
	va := addr.VAddr(0x4000_0000)
	pa := translate2M(va, 7)
	s.OnSuperpageTLBFill(va)
	s.Fill(pa, addr.Page2M, false, false)
	fast := s.Access(va, pa, addr.Page2M, false)
	s.ContextSwitch() // flush TFT
	slow := s.Access(va, pa, addr.Page2M, false)
	if fast.Cycles >= slow.Cycles {
		t.Errorf("fast %d cycles !< slow %d", fast.Cycles, slow.Cycles)
	}
	if fast.EnergyNJ >= slow.EnergyNJ {
		t.Errorf("fast %.4f nJ !< slow %.4f", fast.EnergyNJ, slow.EnergyNJ)
	}
	// ~39.4% lookup energy saving (Section IV-A4).
	saving := 100 * (slow.EnergyNJ - fast.EnergyNJ) / slow.EnergyNJ
	if saving < 38 || saving < 0 {
		t.Errorf("energy saving = %.1f%%, want ~39.4%%", saving)
	}
}

// TestCoherenceProbesPartitionFiltered: under the 4way policy every
// coherence lookup probes only 4 ways, base pages included (Section
// IV-C1).
func TestCoherenceProbesPartitionFiltered(t *testing.T) {
	s := MustNewSeesaw(cfg32K(1.33))
	b := MustNewBaselineVIPT(cfg32K(1.33))
	va := addr.VAddr(0x12345000)
	pa := addr.Translate(va, 99, addr.Page4K) // base page!
	s.Fill(pa, addr.Page4K, true, false)
	b.Fill(pa, addr.Page4K, true, false)
	ps := s.Snoop(pa, SnoopPeek)
	pb := b.Snoop(pa, SnoopPeek)
	if !ps.Hit || !pb.Hit {
		t.Fatal("snoops missed resident line")
	}
	if ps.WaysProbed != 4 {
		t.Errorf("SEESAW coherence probe read %d ways, want 4", ps.WaysProbed)
	}
	if pb.WaysProbed != 8 {
		t.Errorf("baseline coherence probe read %d ways, want 8", pb.WaysProbed)
	}
	if ps.EnergyNJ >= pb.EnergyNJ {
		t.Error("SEESAW coherence energy not lower than baseline")
	}
	if ps.State != cache.Modified {
		t.Errorf("state = %v, want M", ps.State)
	}
}

func TestSnoopOps(t *testing.T) {
	s := MustNewSeesaw(cfg32K(1.33))
	va := addr.VAddr(0x1000)
	pa := addr.Translate(va, 5, addr.Page4K)
	s.Fill(pa, addr.Page4K, true, false) // Modified
	r := s.Snoop(pa, SnoopDowngrade)
	if !r.Hit || r.State != cache.Modified {
		t.Fatalf("downgrade probe = %+v", r)
	}
	r = s.Snoop(pa, SnoopPeek)
	if r.State != cache.Owned {
		t.Errorf("state after downgrade = %v, want O", r.State)
	}
	r = s.Snoop(pa, SnoopInvalidate)
	if !r.Hit {
		t.Fatal("invalidate missed")
	}
	if r2 := s.Snoop(pa, SnoopPeek); r2.Hit {
		t.Error("line survived invalidation")
	}
}

func TestUpgradeToModified(t *testing.T) {
	s := MustNewSeesaw(cfg32K(1.33))
	pa := addr.PAddr(0x2000)
	s.Fill(pa, addr.Page4K, false, true) // Shared
	s.UpgradeToModified(pa)
	if r := s.Snoop(pa, SnoopPeek); r.State != cache.Modified {
		t.Errorf("state = %v, want M", r.State)
	}
	s.UpgradeToModified(0xdead000) // absent: must not panic
}

// TestFourWayInsertionByPhysicalPartition: base pages land in the
// partition their PA names, so coherence filtering stays correct.
func TestFourWayInsertionByPhysicalPartition(t *testing.T) {
	s := MustNewSeesaw(cfg32K(1.33))
	g := s.Geometry()
	// A base page whose VA partition bit differs from its PA bit.
	va := addr.VAddr(0x0000_1000)               // VA bit 12 = 1
	pa := addr.Translate(va, 0x20, addr.Page4K) // PA = 0x20000|0x... bit12 from PPN
	s.Fill(pa, addr.Page4K, false, false)
	set, way, ok := s.Storage().FindLine(pa)
	if !ok {
		t.Fatal("line not resident")
	}
	if s.Storage().PartitionOfWay(way) != g.PartitionIndexP(pa) {
		t.Errorf("line in partition %d, PA names %d (set %d)",
			s.Storage().PartitionOfWay(way), g.PartitionIndexP(pa), set)
	}
}

// TestFourEightWayCoherenceSearchesFullSet: the ablation policy cannot
// filter coherence probes.
func TestFourEightWayCoherenceSearchesFullSet(t *testing.T) {
	cfg := cfg32K(1.33)
	cfg.Policy = FourEightWay
	s := MustNewSeesaw(cfg)
	pa := addr.PAddr(0x3000)
	s.Fill(pa, addr.Page4K, false, false)
	r := s.Snoop(pa, SnoopPeek)
	if r.WaysProbed != 8 {
		t.Errorf("4way-8way snoop probed %d ways, want 8", r.WaysProbed)
	}
}

func TestInvlpgInvalidatesTFT(t *testing.T) {
	s := MustNewSeesaw(cfg32K(1.33))
	va := addr.VAddr(0x4000_0000)
	s.OnSuperpageTLBFill(va)
	pa := translate2M(va, 7)
	if r := s.Access(va, pa, addr.Page2M, false); !r.TFTHit {
		t.Fatal("TFT should know the region")
	}
	s.InvalidatePage(va + 12345) // OS splinters the superpage
	if r := s.Access(va, pa, addr.Page4K, false); r.TFTHit {
		t.Error("TFT hit after invlpg")
	}
}

// TestSplinterKeepsLinesAccessible: after a superpage splinters, lines
// cached under the superpage must remain reachable via base-page accesses
// (Section IV-C2) — they sit in the PA-named partition, which the slow
// path searches.
func TestSplinterKeepsLinesAccessible(t *testing.T) {
	s := MustNewSeesaw(cfg32K(1.33))
	va := addr.VAddr(0x4000_0000 | 1<<12)
	pa := translate2M(va, 7)
	s.OnSuperpageTLBFill(va)
	s.Fill(pa, addr.Page2M, true, false) // dirty line under the superpage
	// OS splinters: TFT invalidated; the same VA/PA is now a base page.
	s.InvalidatePage(va)
	r := s.Access(va, pa, addr.Page4K, false)
	if !r.Hit {
		t.Fatal("line unreachable after splinter")
	}
	if r.FastPath {
		t.Error("post-splinter access must take the slow path")
	}
}

// TestPromotionSweep: when base pages are promoted, SEESAW sweeps the old
// lines so none linger in an unprobed partition.
func TestPromotionSweep(t *testing.T) {
	s := MustNewSeesaw(cfg32K(1.33))
	// Old base-page frames scattered in physical memory.
	oldPAs := []addr.PAddr{0x1000, 0x5000, 0x9000}
	for _, pa := range oldPAs {
		s.Fill(pa, addr.Page4K, true, false)
	}
	var sweep cache.FrameSweep
	sweep.Reset(oldPAs)
	victims := s.EvictFrames(&sweep)
	if len(victims) != len(oldPAs) {
		t.Errorf("sweep evicted %d lines, want %d", len(victims), len(oldPAs))
	}
	if s.Shared.PromotionSweeps != 1 || s.Shared.SweptLines != 3 {
		t.Errorf("stats = %+v", s.Shared)
	}
	for _, pa := range oldPAs {
		if r := s.Snoop(pa, SnoopPeek); r.Hit {
			t.Errorf("line %#x survived the sweep", uint64(pa))
		}
	}
}

func TestSeesawFillEnergyCheaperThanGlobal(t *testing.T) {
	s := MustNewSeesaw(cfg32K(1.33))
	b := MustNewBaselineVIPT(cfg32K(1.33))
	fs := s.Fill(0x1000, addr.Page4K, false, false)
	fb := b.Fill(0x1000, addr.Page4K, false, false)
	if fs.EnergyNJ >= fb.EnergyNJ {
		t.Errorf("4way install energy %.4f !< global %.4f (paper: LRU over fewer ways)",
			fs.EnergyNJ, fb.EnergyNJ)
	}
}

func TestFillVictimReporting(t *testing.T) {
	s := MustNewSeesaw(cfg32K(1.33))
	g := s.Geometry()
	// Fill one partition of set 0 to capacity with dirty lines, all in
	// partition 0 (PA bit 12 clear), same set (PA bits 11:6 = 0).
	mk := func(i uint64) addr.PAddr { return addr.PAddr(i << 13) } // varies tag only
	for i := uint64(0); i < 4; i++ {
		s.Fill(mk(i), addr.Page4K, true, false)
	}
	f := s.Fill(mk(4), addr.Page4K, false, false)
	if !f.Victim.Valid || !f.Writeback {
		t.Fatalf("fill result = %+v, want dirty victim", f)
	}
	if g.SetIndexP(f.VictimPA) != 0 || g.PartitionIndexP(f.VictimPA) != 0 {
		t.Errorf("victim PA %#x not from set 0 partition 0", uint64(f.VictimPA))
	}
}

func TestConstructorValidation(t *testing.T) {
	if _, err := NewSeesaw(Config{SizeBytes: 32 << 10, Ways: 8}); err == nil {
		t.Error("zero frequency must error")
	}
	if _, err := NewSeesaw(Config{SizeBytes: 1 << 20, Ways: 8, FreqGHz: 1.33}); err == nil {
		t.Error("1MB/8w violates VIPT constraint and must error")
	}
	if _, err := NewBaselineVIPT(Config{SizeBytes: 1 << 20, Ways: 8, FreqGHz: 1.33}); err == nil {
		t.Error("baseline VIPT constraint must be enforced")
	}
	// PIPT has no such constraint: 1MB 8-way is fine... but only for
	// supported SRAM sizes; use 256KB 8-way which VIPT cannot do.
	if _, err := NewPIPT(Config{SizeBytes: 256 << 10, Ways: 8, FreqGHz: 1.33}); err != nil {
		t.Errorf("PIPT 256KB/8w should build: %v", err)
	}
}

func TestPIPTSerialLatency(t *testing.T) {
	p := MustNewPIPT(Config{SizeBytes: 32 << 10, Ways: 4, FreqGHz: 1.33, SerialTLBCycles: 1})
	v := MustNewBaselineVIPT(Config{SizeBytes: 32 << 10, Ways: 8, FreqGHz: 1.33})
	r := p.Access(0x1000, 0x1000, addr.Page4K, false)
	// 32KB 4-way = 0.76ns -> 2 cycles at 1.33, +1 serial TLB = 3.
	if r.Cycles != 3 {
		t.Errorf("PIPT cycles = %d, want 3", r.Cycles)
	}
	if p.FastCycles() != p.SlowCycles() {
		t.Error("PIPT has one latency")
	}
	_ = v
	wp := Config{SizeBytes: 32 << 10, Ways: 4, FreqGHz: 1.33, WayPredict: true}
	if _, err := NewPIPT(wp); err == nil {
		t.Error("accepted way prediction, which PIPT does not model")
	}
}

func TestNamesDistinct(t *testing.T) {
	s := MustNewSeesaw(cfg32K(1.33))
	b := MustNewBaselineVIPT(cfg32K(1.33))
	p := MustNewPIPT(Config{SizeBytes: 32 << 10, Ways: 4, FreqGHz: 1.33})
	names := map[string]bool{s.Name(): true, b.Name(): true, p.Name(): true}
	if len(names) != 3 {
		t.Errorf("names collide: %v", names)
	}
}
