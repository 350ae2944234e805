package tlb

import (
	"math/rand"
	"testing"

	"seesaw/internal/addr"
)

func cfg4K(entries, assoc int) Config {
	return Config{Name: "t", Entries: entries, Assoc: assoc, Sizes: []addr.PageSize{addr.Page4K}}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{Entries: 0, Sizes: []addr.PageSize{addr.Page4K}}); err == nil {
		t.Error("zero entries must error")
	}
	if _, err := New(Config{Entries: 16}); err == nil {
		t.Error("no sizes must error")
	}
	if _, err := New(cfg4K(10, 4)); err == nil {
		t.Error("entries not divisible by assoc must error")
	}
	if _, err := New(cfg4K(24, 4)); err == nil {
		t.Error("non-pow2 set count must error")
	}
	// Fully associative normalization.
	tl := MustNew(cfg4K(16, 0))
	if tl.Config().Assoc != 16 {
		t.Errorf("assoc normalized to %d, want 16", tl.Config().Assoc)
	}
}

func TestLookupMissFillHit(t *testing.T) {
	tl := MustNew(cfg4K(16, 4))
	va := addr.VAddr(0x12345000)
	if _, ok := tl.Lookup(va, 1); ok {
		t.Fatal("hit on empty TLB")
	}
	tl.Fill(Entry{VPN: va.VPN(addr.Page4K), PPN: 77, Size: addr.Page4K, ASID: 1})
	e, ok := tl.Lookup(va+0xfff, 1)
	if !ok || e.PPN != 77 {
		t.Fatalf("lookup after fill: ok=%v e=%+v", ok, e)
	}
	// Different ASID must miss.
	if _, ok := tl.Lookup(va, 2); ok {
		t.Error("cross-ASID hit")
	}
	if tl.Stats.Lookups != 3 || tl.Stats.Hits != 1 || tl.Stats.Misses != 2 {
		t.Errorf("stats = %+v", tl.Stats)
	}
}

func TestFillUnsupportedSize(t *testing.T) {
	tl := MustNew(cfg4K(16, 4))
	if err := tl.Fill(Entry{VPN: 1, Size: addr.Page2M}); err == nil {
		t.Error("fill of unsupported size must error")
	}
}

func TestLRUWithinSet(t *testing.T) {
	// Fully associative with 2 entries: classic LRU check.
	tl := MustNew(cfg4K(2, 0))
	fill := func(vpn uint64) { tl.Fill(Entry{VPN: vpn, PPN: vpn, Size: addr.Page4K}) }
	look := func(vpn uint64) bool {
		_, ok := tl.Lookup(addr.VAddr(vpn<<12), 0)
		return ok
	}
	fill(1)
	fill(2)
	look(1) // 1 becomes MRU
	fill(3) // evicts 2
	if !look(1) || !look(3) {
		t.Error("expected 1 and 3 resident")
	}
	if look(2) {
		t.Error("2 should have been evicted (LRU)")
	}
	if tl.Stats.Evictions != 1 {
		t.Errorf("evictions = %d", tl.Stats.Evictions)
	}
}

func TestFillReplacesDuplicate(t *testing.T) {
	tl := MustNew(cfg4K(4, 0))
	tl.Fill(Entry{VPN: 9, PPN: 1, Size: addr.Page4K})
	tl.Fill(Entry{VPN: 9, PPN: 2, Size: addr.Page4K})
	if tl.ValidCount() != 1 {
		t.Fatalf("duplicate fill created %d entries", tl.ValidCount())
	}
	e, _ := tl.Lookup(addr.VAddr(9<<12), 0)
	if e.PPN != 2 {
		t.Errorf("PPN = %d, want refreshed 2", e.PPN)
	}
}

func TestInvalidate(t *testing.T) {
	tl := MustNew(Config{Name: "multi", Entries: 8, Sizes: []addr.PageSize{addr.Page4K, addr.Page2M}})
	va := addr.VAddr(0x40000000)
	tl.Fill(Entry{VPN: va.VPN(addr.Page2M), PPN: 3, Size: addr.Page2M, ASID: 5})
	if n := tl.Invalidate(va+4096, 5); n != 1 {
		t.Errorf("Invalidate dropped %d, want 1", n)
	}
	if _, ok := tl.Lookup(va, 5); ok {
		t.Error("hit after invalidate")
	}
	if n := tl.Invalidate(va, 5); n != 0 {
		t.Errorf("second invalidate dropped %d", n)
	}
}

func TestFlushASID(t *testing.T) {
	tl := MustNew(cfg4K(8, 0))
	tl.Fill(Entry{VPN: 1, Size: addr.Page4K, ASID: 1})
	tl.Fill(Entry{VPN: 2, Size: addr.Page4K, ASID: 1})
	tl.Fill(Entry{VPN: 3, Size: addr.Page4K, ASID: 2})
	if n := tl.FlushASID(1); n != 2 {
		t.Errorf("FlushASID dropped %d, want 2", n)
	}
	if tl.ValidCount() != 1 {
		t.Errorf("remaining = %d, want 1", tl.ValidCount())
	}
}

func TestValidCountAndHitRate(t *testing.T) {
	tl := MustNew(cfg4K(8, 0))
	if tl.HitRate() != 0 {
		t.Error("empty hit rate must be 0")
	}
	tl.Fill(Entry{VPN: 1, Size: addr.Page4K})
	tl.Lookup(addr.VAddr(1<<12), 0)
	tl.Lookup(addr.VAddr(2<<12), 0)
	if tl.HitRate() != 0.5 {
		t.Errorf("hit rate = %v", tl.HitRate())
	}
	if tl.ValidCount() != 1 {
		t.Errorf("valid = %d", tl.ValidCount())
	}
}

func TestSetIndexingDistributes(t *testing.T) {
	tl := MustNew(cfg4K(64, 4)) // 16 sets
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 64; i++ {
		tl.Fill(Entry{VPN: rng.Uint64() & 0xfffff, Size: addr.Page4K})
	}
	if tl.ValidCount() < 32 {
		t.Errorf("only %d entries resident after 64 spread fills", tl.ValidCount())
	}
}

// TestValidCountTracksScan: the kept ValidCount equals a scan of every
// set's live length after each of a seeded mix of fills (new pages,
// refills of resident ones, LRU evictions), single-page invalidations,
// 2MB region invalidations and ASID flushes, on a multi-size TLB.
func TestValidCountTracksScan(t *testing.T) {
	tl := MustNew(Config{Name: "mix", Entries: 16, Assoc: 4, Sizes: []addr.PageSize{addr.Page4K, addr.Page2M}})
	scan := func() int {
		n := 0
		for _, l := range tl.slen {
			n += int(l)
		}
		return n
	}
	rng := rand.New(rand.NewSource(7))
	sizes := []addr.PageSize{addr.Page4K, addr.Page2M}
	va := func() addr.VAddr { return addr.VAddr(rng.Intn(1<<12) << 12) }
	for step := 0; step < 20_000; step++ {
		asid := uint16(rng.Intn(3))
		switch op := rng.Intn(10); {
		case op < 6:
			s := sizes[rng.Intn(2)]
			v := va()
			tl.Fill(Entry{VPN: v.VPN(s), PPN: uint64(step), Size: s, ASID: asid})
		case op < 8:
			tl.Invalidate(va(), asid)
		case op < 9:
			tl.InvalidateRegion(va().PageBase(addr.Page2M), asid)
		default:
			tl.FlushASID(asid)
		}
		if got, want := tl.ValidCount(), scan(); got != want {
			t.Fatalf("step %d: ValidCount %d, scan of the sets %d", step, got, want)
		}
	}
}
