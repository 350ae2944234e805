package core

import (
	"testing"

	"seesaw/internal/addr"
)

func wpCfg() Config {
	c := cfg32K(1.33)
	c.WayPredict = true
	return c
}

func TestWPCorrectPredictionSavesEnergyNotLatency(t *testing.T) {
	b := MustNewBaselineVIPT(wpCfg())
	va := addr.VAddr(0x1000)
	pa := addr.Translate(va, 3, addr.Page4K)
	b.Fill(pa, addr.Page4K, false, false) // trains the predictor
	r := b.Access(va, pa, addr.Page4K, false)
	if !r.Hit || r.WaysProbed != 1 {
		t.Fatalf("result = %+v, want 1-way hit", r)
	}
	if r.Cycles != b.SlowCycles() {
		t.Errorf("WP hit latency = %d, want %d (no latency benefit: TLB gates tag compare)",
			r.Cycles, b.SlowCycles())
	}
	plain := MustNewBaselineVIPT(cfg32K(1.33))
	plain.Fill(pa, addr.Page4K, false, false)
	rp := plain.Access(va, pa, addr.Page4K, false)
	if r.EnergyNJ >= rp.EnergyNJ {
		t.Errorf("WP hit energy %.4f !< full probe %.4f", r.EnergyNJ, rp.EnergyNJ)
	}
}

func TestWPMispredictionCostsDouble(t *testing.T) {
	b := MustNewBaselineVIPT(wpCfg())
	// Two lines in the same set, alternate between them: MRU mispredicts
	// every time.
	va1, va2 := addr.VAddr(0x0), addr.VAddr(0x10000) // same set index, different tags
	pa1 := addr.Translate(va1, 1, addr.Page4K)
	pa2 := addr.Translate(va2, 16, addr.Page4K)
	b.Fill(pa1, addr.Page4K, false, false)
	b.Fill(pa2, addr.Page4K, false, false) // MRU now way of pa2
	r := b.Access(va1, pa1, addr.Page4K, false)
	if !r.Hit {
		t.Fatal("line resident but missed")
	}
	if r.Cycles != 2*b.SlowCycles() {
		t.Errorf("mispredict latency = %d, want %d", r.Cycles, 2*b.SlowCycles())
	}
	if r.WaysProbed != 1+8 {
		t.Errorf("mispredict probed %d ways", r.WaysProbed)
	}
	if b.Predictor().Accuracy() != 0 {
		t.Errorf("accuracy = %v, want 0", b.Predictor().Accuracy())
	}
}

func TestWPPlusSeesawFastPath(t *testing.T) {
	s := MustNewSeesaw(wpCfg())
	va := addr.VAddr(0x4000_0000)
	pa := addr.Translate(va, 7, addr.Page2M)
	s.OnSuperpageTLBFill(va)
	s.Fill(pa, addr.Page2M, false, false)
	r := s.Access(va, pa, addr.Page2M, false)
	if !r.Hit || !r.FastPath || r.WaysProbed != 1 {
		t.Fatalf("result = %+v, want 1-way fast hit", r)
	}
	if r.Cycles != s.FastCycles() {
		t.Errorf("WP+SEESAW hit = %d cycles, want fast %d", r.Cycles, s.FastCycles())
	}
	// Energy must beat both plain SEESAW fast path and baseline.
	plain := MustNewSeesaw(cfg32K(1.33))
	plain.OnSuperpageTLBFill(va)
	plain.Fill(pa, addr.Page2M, false, false)
	rp := plain.Access(va, pa, addr.Page2M, false)
	if r.EnergyNJ >= rp.EnergyNJ {
		t.Errorf("WP+SEESAW energy %.4f !< SEESAW %.4f", r.EnergyNJ, rp.EnergyNJ)
	}
}

// TestWPPlusSeesawMispredictBoundedByPartition: SEESAW contains the
// misprediction penalty to the partition (Section IV-B2).
func TestWPPlusSeesawMispredictBoundedByPartition(t *testing.T) {
	s := MustNewSeesaw(wpCfg())
	region := addr.VAddr(0x4000_0000)
	s.OnSuperpageTLBFill(region)
	// Two superpage lines in the same set and partition, alternate.
	va1 := region
	va2 := region + addr.VAddr(s.Geometry().SizeBytes) // same set/partition, new tag
	s.OnSuperpageTLBFill(va2)
	pa1 := addr.Translate(va1, 7, addr.Page2M)
	pa2 := addr.Translate(va2, 9, addr.Page2M)
	s.Fill(pa1, addr.Page2M, false, false)
	s.Fill(pa2, addr.Page2M, false, false)
	r := s.Access(va1, pa1, addr.Page2M, false)
	if !r.Hit || !r.FastPath {
		t.Fatalf("result = %+v", r)
	}
	if r.Cycles != 2*s.FastCycles() {
		t.Errorf("contained mispredict = %d cycles, want %d (2x fast, not 2x slow)",
			r.Cycles, 2*s.FastCycles())
	}
	if r.WaysProbed != 1+4 {
		t.Errorf("probed %d ways, want 5 (1 predicted + 4 partition)", r.WaysProbed)
	}
}

func TestWPPredictionOutsidePartitionIgnored(t *testing.T) {
	s := MustNewSeesaw(wpCfg())
	// Train MRU on a base-page line in partition 1.
	vaBase := addr.VAddr(0x1000)                     // VA bit 12 set -> partition 1 (via PA)
	paBase := addr.Translate(vaBase, 1, addr.Page4K) // PPN 1 -> PA 0x1000+... bit12=1
	s.Fill(paBase, addr.Page4K, false, false)
	// Now a superpage access to partition 0 of the same set: the MRU
	// entry points into partition 1, outside the fast partition — it
	// must be ignored, not treated as a misprediction.
	vaSuper := addr.VAddr(0x4000_0000)
	paSuper := addr.Translate(vaSuper, 7, addr.Page2M)
	s.OnSuperpageTLBFill(vaSuper)
	s.Fill(paSuper, addr.Page2M, false, false)
	// Re-train MRU to point at partition-1 way again.
	s.Access(vaBase, paBase, addr.Page4K, false)
	r := s.Access(vaSuper, paSuper, addr.Page2M, false)
	if !r.Hit || !r.FastPath {
		t.Fatalf("result = %+v", r)
	}
	if r.Cycles != s.FastCycles() || r.WaysProbed != 4 {
		t.Errorf("out-of-partition prediction mishandled: %+v", r)
	}
}

func TestWPAccuracyImprovesWithLocality(t *testing.T) {
	b := MustNewBaselineVIPT(wpCfg())
	va := addr.VAddr(0x2000)
	pa := addr.Translate(va, 5, addr.Page4K)
	b.Fill(pa, addr.Page4K, false, false)
	for i := 0; i < 100; i++ {
		b.Access(va, pa, addr.Page4K, false)
	}
	if acc := b.Predictor().Accuracy(); acc < 0.99 {
		t.Errorf("repeated access accuracy = %v, want ~1", acc)
	}
}

// TestLookupCyclesPricesOutcomeClasses: every lookup's Cycles is
// LookupCycles of its FastPath/Reprobe class, so a timing model can
// price the class at another clock. On a 32KB SEESAW a way-mispredicted
// fast lookup costs 2×1 = 2 cycles at 1.33 GHz, the same as a slow
// hit, but 2×3 = 6 against 5 at 4 GHz.
func TestLookupCyclesPricesOutcomeClasses(t *testing.T) {
	for _, tc := range []struct {
		freq               float64
		reprobedFast, slow int
	}{{1.33, 2, 2}, {4.0, 6, 5}} {
		c := wpCfg()
		c.FreqGHz = tc.freq
		s := MustNewSeesaw(c)
		if got := s.LookupCycles(true, true); got != tc.reprobedFast {
			t.Errorf("%.2f GHz: mispredicted fast lookup = %d cycles, want %d", tc.freq, got, tc.reprobedFast)
		}
		if got := s.LookupCycles(false, false); got != tc.slow || got != s.SlowCycles() {
			t.Errorf("%.2f GHz: slow hit = %d cycles (SlowCycles %d), want %d", tc.freq, got, s.SlowCycles(), tc.slow)
		}
		// Superpage accesses that alternate between two lines of one
		// set hit the TFT and mispredict; base-page ones take the slow
		// path. Every result carries its class's price.
		const region = addr.VAddr(0x4000_0000)
		s.OnSuperpageTLBFill(region)
		classes := map[[2]bool]bool{}
		for i := 0; i < 64; i++ {
			va := region + addr.VAddr(i%2)*0x10000
			size := addr.Page2M
			if i%3 == 0 {
				va, size = addr.VAddr(0x1000+i%2*0x10000), addr.Page4K
			}
			pa := addr.PAddr(va) + 0x1000_0000
			r := s.Access(va, pa, size, false)
			if !r.Hit {
				s.Fill(pa, size, false, false)
			}
			if want := s.LookupCycles(r.FastPath, r.Reprobe); r.Cycles != want {
				t.Fatalf("%.2f GHz: access %d (fast %v, reprobe %v) took %d cycles, LookupCycles says %d",
					tc.freq, i, r.FastPath, r.Reprobe, r.Cycles, want)
			}
			classes[[2]bool{r.FastPath, r.Reprobe}] = true
		}
		if !classes[[2]bool{true, true}] || !classes[[2]bool{false, false}] {
			t.Errorf("%.2f GHz: saw classes %v, want mispredicted fast lookups and plain slow ones", tc.freq, classes)
		}
	}
}
