package osmm

import (
	"math/rand"
	"testing"

	"seesaw/internal/addr"
	"seesaw/internal/physmem"
)

func newMgr(t *testing.T, memBytes uint64, thp bool) (*Manager, *Process) {
	t.Helper()
	b := physmem.MustNew(memBytes)
	m := NewManager(b, rand.New(rand.NewSource(1)), thp)
	p, err := m.NewProcess(1)
	if err != nil {
		t.Fatal(err)
	}
	return m, p
}

func TestMmapTHPPrefersSuperpages(t *testing.T) {
	m, p := newMgr(t, 64<<20, true)
	base, err := m.Mmap(p, 8<<20)
	if err != nil {
		t.Fatal(err)
	}
	if base%(2<<20) != 0 {
		t.Errorf("mmap base %#x not 2MB-aligned", uint64(base))
	}
	if p.SuperpageCoverage() != 1.0 {
		t.Errorf("coverage = %v, want 1.0 on pristine memory", p.SuperpageCoverage())
	}
	if m.Stats.SuperAllocs != 4 {
		t.Errorf("super allocs = %d, want 4", m.Stats.SuperAllocs)
	}
	// Every address translates, at 2MB granularity.
	pa, size, ok := p.PT.Translate(base + 3<<20 | 0x123)
	if !ok || size != addr.Page2M {
		t.Errorf("translate = %#x %v %v", uint64(pa), size, ok)
	}
}

func TestMmapWithoutTHPUsesBasePages(t *testing.T) {
	m, p := newMgr(t, 64<<20, false)
	if _, err := m.Mmap(p, 4<<20); err != nil {
		t.Fatal(err)
	}
	if p.SuperpageCoverage() != 0 {
		t.Errorf("coverage = %v with THP off", p.SuperpageCoverage())
	}
	_ = m
}

func TestMmapPartialTailChunkUsesBasePages(t *testing.T) {
	m, p := newMgr(t, 64<<20, true)
	base, err := m.Mmap(p, 2<<20+4096) // one full chunk + one page
	if err != nil {
		t.Fatal(err)
	}
	if !p.ChunkIsSuper(base) {
		t.Error("full chunk should be super")
	}
	if p.ChunkIsSuper(base + 2<<20) {
		t.Error("partial tail chunk must use base pages")
	}
	if p.MappedBytes() != 2<<20+4096 {
		t.Errorf("mapped = %d", p.MappedBytes())
	}
	// The tail page translates at 4KB.
	_, size, ok := p.PT.Translate(base + 2<<20)
	if !ok || size != addr.Page4K {
		t.Errorf("tail translate = %v %v", size, ok)
	}
}

func TestMmapFallsBackUnderFragmentation(t *testing.T) {
	b := physmem.MustNew(128 << 20)
	rng := rand.New(rand.NewSource(5))
	// memhog pins 60% of memory (touching 90%, with the churn excess
	// freed at scattered positions): only the untouched ~10% can still
	// serve 2MB blocks. No compactor is registered here, so the OS must
	// fall back to base pages.
	if _, err := physmem.Run(b, rng, 0.6, 0.97); err != nil {
		t.Fatal(err)
	}
	m := NewManager(b, rng, true)
	p, _ := m.NewProcess(1)
	if _, err := m.Mmap(p, 32<<20); err != nil {
		t.Fatal(err)
	}
	cov := p.SuperpageCoverage()
	if cov >= 1.0 {
		t.Errorf("coverage = %v under heavy fragmentation, expected < 1", cov)
	}
	if p.MappedBytes() != 32<<20 {
		t.Errorf("mapped = %d despite fallback", p.MappedBytes())
	}
	// Every page must still translate.
	base := addr.VAddr(0x5555_5540_0000)
	for off := uint64(0); off < 32<<20; off += 4096 {
		if _, _, ok := p.PT.Translate(base + addr.VAddr(off)); !ok {
			t.Fatalf("page at +%d unmapped", off)
		}
	}
}

func TestCoverageDecreasesWithFragmentation(t *testing.T) {
	prev := 2.0
	covs := make([]float64, 0, 3)
	for _, frac := range []float64{0.0, 0.3, 0.6} {
		b := physmem.MustNew(128 << 20)
		rng := rand.New(rand.NewSource(7))
		physmem.Run(b, rng, frac, 0.97)
		m := NewManager(b, rng, true)
		p, _ := m.NewProcess(1)
		if _, err := m.Mmap(p, 32<<20); err != nil {
			t.Fatal(err)
		}
		cov := p.SuperpageCoverage()
		if cov > prev {
			t.Errorf("memhog %.0f%%: coverage %.2f increased vs %.2f", frac*100, cov, prev)
		}
		prev = cov
		covs = append(covs, cov)
	}
	if covs[0] != 1.0 {
		t.Errorf("pristine coverage = %v, want 1", covs[0])
	}
	if covs[2] >= covs[0] {
		t.Errorf("heavy fragmentation did not reduce coverage: %v", covs)
	}
}

func TestMunmapReleasesMemory(t *testing.T) {
	m, p := newMgr(t, 64<<20, true)
	free0 := m.Buddy.FreeBytes()
	base, _ := m.Mmap(p, 6<<20)
	m.Munmap(p, base, 6<<20)
	if m.Buddy.FreeBytes() != free0 {
		t.Errorf("free = %d, want %d after munmap", m.Buddy.FreeBytes(), free0)
	}
	if p.MappedBytes() != 0 {
		t.Errorf("mapped = %d after munmap", p.MappedBytes())
	}
	if _, _, ok := p.PT.Translate(base); ok {
		t.Error("translation survived munmap")
	}
}

func TestSplinterFiresInvlpgAndKeepsTranslations(t *testing.T) {
	m, p := newMgr(t, 64<<20, true)
	base, _ := m.Mmap(p, 2<<20)
	paBefore, _, _ := p.PT.Translate(base + 0x1234)
	var invlpgs []addr.VAddr
	m.OnInvlpg = func(asid uint16, va addr.VAddr) { invlpgs = append(invlpgs, va) }
	if err := m.Splinter(p, base+999); err != nil {
		t.Fatal(err)
	}
	if len(invlpgs) != 1 || invlpgs[0] != base {
		t.Errorf("invlpg events = %v", invlpgs)
	}
	paAfter, size, ok := p.PT.Translate(base + 0x1234)
	if !ok || size != addr.Page4K || paAfter != paBefore {
		t.Errorf("post-splinter translate = %#x %v %v, want same PA at 4KB",
			uint64(paAfter), size, ok)
	}
	if p.SuperpageCoverage() != 0 {
		t.Errorf("coverage = %v after splinter", p.SuperpageCoverage())
	}
	if err := m.Splinter(p, base); err == nil {
		t.Error("double splinter must fail")
	}
	// Unmap after splinter returns all memory (frames coalesce).
	free := m.Buddy.FreeBytes()
	m.Munmap(p, base, 2<<20)
	if m.Buddy.FreeBytes() != free+2<<20 {
		t.Error("splintered chunk did not free cleanly")
	}
}

func TestPromoteMovesToFreshBlockAndFiresHooks(t *testing.T) {
	m, p := newMgr(t, 64<<20, false) // THP off -> base pages
	base, _ := m.Mmap(p, 2<<20)
	var promoteEvents int
	var sweptOld []addr.PAddr
	m.OnPromote = func(asid uint16, va addr.VAddr, old []addr.PAddr, newPA addr.PAddr) {
		promoteEvents++
		sweptOld = old
		if newPA%(2<<20) != 0 {
			t.Errorf("promoted block %#x misaligned", uint64(newPA))
		}
	}
	invlpgs := 0
	m.OnInvlpg = func(uint16, addr.VAddr) { invlpgs++ }
	if err := m.Promote(p, base+12345); err != nil {
		t.Fatal(err)
	}
	if promoteEvents != 1 || invlpgs != 1 {
		t.Errorf("events: promote=%d invlpg=%d", promoteEvents, invlpgs)
	}
	if len(sweptOld) != 512 {
		t.Errorf("old frames = %d, want 512", len(sweptOld))
	}
	if p.SuperpageCoverage() != 1 {
		t.Errorf("coverage = %v after promote", p.SuperpageCoverage())
	}
	if _, size, _ := p.PT.Translate(base); size != addr.Page2M {
		t.Error("promotion did not rewrite the page table")
	}
	if m.Stats.Promotions != 1 {
		t.Errorf("stats = %+v", m.Stats)
	}
}

func TestPromoteFailsWithoutContiguousMemory(t *testing.T) {
	// 8MB of memory, THP off; map ~all of it as base pages, then
	// fragment what's left so no 2MB block exists.
	b := physmem.MustNew(8 << 20)
	rng := rand.New(rand.NewSource(3))
	m := NewManager(b, rng, false)
	p, _ := m.NewProcess(1)
	base, err := m.Mmap(p, 6<<20)
	if err != nil {
		t.Fatal(err)
	}
	physmem.Run(b, rng, 0.2, 0.9) // fragment the remainder
	if b.FreeBytesAtLeast(physmem.Order2M) >= 2<<20 {
		t.Skip("fragmentation attempt left a 2MB block; adjust seed")
	}
	if err := m.Promote(p, base); err == nil {
		t.Error("promotion must fail without a free 2MB block")
	}
	if m.Stats.PromoteFails != 1 {
		t.Errorf("stats = %+v", m.Stats)
	}
}

func TestPromoteScan(t *testing.T) {
	m, p := newMgr(t, 64<<20, false)
	m.Mmap(p, 8<<20)
	n := m.PromoteScan(p, 2)
	if n != 2 {
		t.Errorf("promoted %d chunks, want 2", n)
	}
	n = m.PromoteScan(p, 100)
	if n != 2 {
		t.Errorf("second scan promoted %d, want remaining 2", n)
	}
	if p.SuperpageCoverage() != 1 {
		t.Errorf("coverage = %v", p.SuperpageCoverage())
	}
}

func TestProcessManagement(t *testing.T) {
	m, _ := newMgr(t, 16<<20, true)
	if _, err := m.NewProcess(1); err == nil {
		t.Error("duplicate ASID must error")
	}
	if m.Process(1) == nil || m.Process(2) != nil {
		t.Error("Process lookup wrong")
	}
	if _, err := m.Mmap(m.Process(1), 0); err == nil {
		t.Error("zero-length mmap must error")
	}
}

func TestMmapOutOfMemory(t *testing.T) {
	m, p := newMgr(t, 8<<20, true)
	if _, err := m.Mmap(p, 64<<20); err == nil {
		t.Fatal("mmap larger than physical memory must fail")
	}
	// Failure must unwind completely.
	if p.MappedBytes() != 0 {
		t.Errorf("mapped = %d after failed mmap", p.MappedBytes())
	}
	if m.Buddy.FreeBytes() != 8<<20 {
		t.Errorf("leaked memory: free = %d", m.Buddy.FreeBytes())
	}

	// A no-huge region that runs out of memory partway through a chunk of
	// base pages must leave none of that chunk's pages mapped either.
	for i := 0; i < 100; i++ {
		if _, ok := m.Buddy.Alloc(addr.Page4K); !ok {
			t.Fatal("pinning a frame failed")
		}
	}
	base := p.nextVA
	if _, err := m.MmapHuge(p, 16<<20, false); err == nil {
		t.Fatal("no-huge mmap larger than free memory must fail")
	}
	for va := base; va < base+16<<20; va += 4096 {
		if pa, _, ok := p.PT.Translate(va); ok {
			t.Fatalf("%#x still translates to %#x after the failed mmap", uint64(va), uint64(pa))
		}
	}
	for s := addr.Page4K; s < addr.NumPageSizes; s++ {
		if n := p.PT.Count(s); n != 0 {
			t.Errorf("%d %v mappings left after the failed mmap", n, s)
		}
	}
	if free := m.Buddy.FreeBytes(); free != 8<<20-100*4096 {
		t.Errorf("leaked memory: free = %d, want %d", free, 8<<20-100*4096)
	}
}

func TestTwoProcessesIsolated(t *testing.T) {
	m, p1 := newMgr(t, 64<<20, true)
	p2, _ := m.NewProcess(2)
	b1, _ := m.Mmap(p1, 2<<20)
	b2, _ := m.Mmap(p2, 2<<20)
	pa1, _, _ := p1.PT.Translate(b1)
	pa2, _, _ := p2.PT.Translate(b2)
	if pa1 == pa2 {
		t.Error("two processes share a physical block")
	}
}
