package core

import (
	"testing"

	"seesaw/internal/addr"
	"seesaw/internal/cache"
)

func mustNewVespa(t *testing.T, cfg Config) *Vespa {
	t.Helper()
	v, err := NewVespa(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func TestVespaConstructor(t *testing.T) {
	v := mustNewVespa(t, cfg32K(1.33))
	if v.Geometry().Partitions != 2 || v.Geometry().WaysPerPartition() != 4 {
		t.Errorf("geometry = %v, want 2 partitions of 4 ways", v.Geometry())
	}
	if v.Name() == "" {
		t.Error("empty display name")
	}
	if v.FastCycles() >= v.SlowCycles() {
		t.Errorf("fast %d not below slow %d", v.FastCycles(), v.SlowCycles())
	}
	if v.Storage() == nil {
		t.Error("no storage")
	}

	bad := cfg32K(1.33)
	bad.WayPredict = true
	if _, err := NewVespa(bad); err == nil {
		t.Error("accepted way prediction, which VESPA does not model")
	}
	if _, err := NewVespa(Config{SizeBytes: 32 << 10, Ways: 8, FreqGHz: 0}); err == nil {
		t.Error("accepted a non-positive frequency")
	}
	// 64KB over 8 ways puts the set index past the 4KB page offset.
	if _, err := NewVespa(Config{SizeBytes: 64 << 10, Ways: 8, FreqGHz: 1.33}); err == nil {
		t.Error("accepted a geometry violating the 4KB VIPT constraint")
	}
}

// TestVespaFastSlowSplit: the TLB's page size is ground truth — a
// superpage-backed access probes one partition at the fast latency, a
// base-page access searches the whole set at the slow one, and the
// statistics record the split.
func TestVespaFastSlowSplit(t *testing.T) {
	v := mustNewVespa(t, cfg32K(1.33))
	va := addr.VAddr(0x4000_0000 | 1<<12)
	pa := translate2M(va, 7)
	v.Fill(pa, addr.Page2M, false, false)

	super := v.Access(va, pa, addr.Page2M, false)
	if !super.Hit || !super.FastPath || !super.Superpage {
		t.Errorf("superpage access = %+v, want fast-path hit", super)
	}
	if super.WaysProbed != v.Geometry().WaysPerPartition() || super.Cycles != v.FastCycles() {
		t.Errorf("superpage probe scope %d ways / %d cycles, want %d / %d",
			super.WaysProbed, super.Cycles, v.Geometry().WaysPerPartition(), v.FastCycles())
	}

	v.Fill(0x1000, addr.Page4K, false, false)
	base := v.Access(0x1000, 0x1000, addr.Page4K, false)
	if !base.Hit || base.FastPath {
		t.Errorf("base-page access = %+v, want slow-path hit", base)
	}
	if base.WaysProbed != 8 || base.Cycles != v.SlowCycles() {
		t.Errorf("base probe scope %d ways / %d cycles, want 8 / %d", base.WaysProbed, base.Cycles, v.SlowCycles())
	}
	if base.EnergyNJ <= super.EnergyNJ {
		t.Errorf("full-set probe energy %.3f not above partition probe %.3f", base.EnergyNJ, super.EnergyNJ)
	}

	if miss := v.Access(va+1<<21, pa+1<<21, addr.Page2M, false); miss.Hit {
		t.Errorf("expected a superpage miss, got %+v", miss)
	}
	st := v.Stats
	if st.Accesses != 3 || st.SuperAccesses != 2 || st.SuperHits != 1 || st.SuperMisses != 1 || st.BaseAccesses != 1 {
		t.Errorf("stats = %+v", st)
	}
}

// TestVespaInsertionPolicy: under 4way every fill is partition-scoped;
// under 4way-8way base pages insert with global LRU (AnyPartition) and
// pay the full-set victim-search energy.
func TestVespaInsertionPolicy(t *testing.T) {
	fourWay := mustNewVespa(t, cfg32K(1.33))
	mixed := func() *Vespa {
		c := cfg32K(1.33)
		c.Policy = FourEightWay
		return mustNewVespa(t, c)
	}()

	fw := fourWay.Fill(0x1000, addr.Page4K, false, false)
	mx := mixed.Fill(0x1000, addr.Page4K, false, false)
	if mx.EnergyNJ <= fw.EnergyNJ {
		t.Errorf("4way-8way base fill energy %.3f not above 4way's %.3f", mx.EnergyNJ, fw.EnergyNJ)
	}

	// Coherence: 4way knows the partition, 4way-8way must search all ways.
	if p := fourWay.Snoop(0x1000, SnoopInvalidate); p.WaysProbed != fourWay.Geometry().WaysPerPartition() || !p.Hit {
		t.Errorf("4way snoop = %+v, want partition-filtered hit", p)
	}
	if p := mixed.Snoop(0x1000, SnoopInvalidate); p.WaysProbed != 8 || !p.Hit {
		t.Errorf("4way-8way snoop = %+v, want full-set hit", p)
	}
	if fourWay.Shared.CoherenceProbes != 1 || mixed.Shared.CoherenceProbes != 1 {
		t.Error("coherence probes not counted")
	}
	// Both invalidated the line.
	if fourWay.Access(0x1000, 0x1000, addr.Page4K, false).Hit {
		t.Error("line survived SnoopInvalidate")
	}
}

func TestVespaFillVictimsAndSweeps(t *testing.T) {
	v := mustNewVespa(t, cfg32K(1.33))
	// Overfill one partition of one set until a dirty victim pops out.
	var sawVictim, sawWriteback bool
	for i := uint64(0); i < 16; i++ {
		pa := addr.PAddr(0x1000 + i<<15) // same set, same partition bits, distinct tags
		r := v.Fill(pa, addr.Page4K, true, false)
		if r.Victim.Valid {
			sawVictim = true
			if r.Writeback {
				sawWriteback = true
			}
			if r.VictimPA == 0 {
				t.Error("victim without a reconstructed PA")
			}
		}
	}
	if !sawVictim || !sawWriteback {
		t.Errorf("overfill produced victim=%t writeback=%t, want both", sawVictim, sawWriteback)
	}

	v.Fill(0x2000, addr.Page4K, true, false)
	v.UpgradeToModified(0x2000)
	v.UpgradeToModified(0xdead_0000) // absent line: no-op

	frames := []addr.PAddr{0x2000}
	for i := uint64(0); i < 16; i++ {
		frames = append(frames, addr.PAddr(0x1000+i<<15))
	}
	var sweep cache.FrameSweep
	sweep.Reset(frames)
	victims := v.EvictFrames(&sweep)
	if len(victims) == 0 {
		t.Fatal("promotion sweep evicted nothing")
	}
	if v.Shared.PromotionSweeps != 1 || v.Shared.SweptLines != uint64(len(victims)) {
		t.Errorf("sweep stats = %+v, want 1 sweep / %d lines", v.Shared, len(victims))
	}
	if v.Access(0x2000, 0x2000, addr.Page4K, false).Hit {
		t.Error("line survived EvictFrames")
	}
}
