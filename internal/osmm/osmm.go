// Package osmm models the operating system's memory manager: per-process
// address spaces, anonymous mmap, and transparent 2MB superpage support in
// the style of Linux THP. When a process maps memory, each 2MB-aligned
// chunk is backed by a 2MB physical block if the buddy allocator can
// provide one, else by 512 scattered base pages — so superpage coverage
// degrades with physical fragmentation exactly as the paper's Fig 3
// measures. It also implements khugepaged-style promotion and superpage
// splintering, firing the invlpg/sweep hooks SEESAW's correctness story
// (Section IV-C2) depends on.
package osmm

import (
	"fmt"
	"math/rand"

	"seesaw/internal/addr"
	"seesaw/internal/pagetable"
	"seesaw/internal/physmem"
)

// Process is one simulated address space. Its page table is the only
// record of what is mapped and how; the process adds only what the
// table cannot hold.
type Process struct {
	ASID uint16
	PT   *pagetable.Table

	nextVA addr.VAddr
	noHuge []Range // regions mapped with superpages disallowed
}

// Range is the VA interval [Lo, Hi).
type Range struct{ Lo, Hi addr.VAddr }

// Stats counts manager events.
type Stats struct {
	SuperAllocs    uint64 // 2MB chunks backed by superpages at mmap time
	BaseAllocs     uint64 // 2MB chunks that fell back to base pages
	Promotions     uint64
	PromoteFails   uint64
	Splinters      uint64
	UnmappedBytes  uint64
	Compactions    uint64 // successful compaction-assisted 2MB allocations
	CompactFails   uint64 // compactor found no vacatable region
	CompactGiveups uint64 // pressure heuristic skipped compaction
}

// Compactor relocates movable pages to vacate a naturally aligned 2MB
// block. physmem.Memhog implements it (its pages are movable anonymous
// memory, exactly like the real microbenchmark's).
type Compactor interface {
	Compact() bool
}

// Manager is the OS memory manager.
type Manager struct {
	Buddy *physmem.Buddy
	rng   *rand.Rand

	// THP enables transparent 2MB allocation at mmap time (Linux's
	// "always" mode, as the paper's testbed ran).
	THP bool

	// Compactor, when set, is invoked on failed 2MB allocations —
	// Linux's "sophisticated memory defragmentation algorithms" that
	// keep superpages coming under non-trivial fragmentation (paper
	// Section III-C). Attempts are gated by memory pressure: as free
	// memory tightens, the kernel increasingly gives up.
	Compactor Compactor

	procs []*Process // in creation order
	Stats Stats

	// OnInvlpg fires when the OS invalidates a page's translations
	// (splinter and promote both do); the simulator propagates it to
	// TLBs and TFTs. va is the base of the affected 2MB region.
	OnInvlpg func(asid uint16, va addr.VAddr)
	// OnPromote fires after base pages are promoted: oldFrames are the
	// 4KB frames whose cached lines must be swept (SEESAW's promotion
	// sweep), newPA the fresh 2MB block.
	OnPromote func(asid uint16, vaBase addr.VAddr, oldFrames []addr.PAddr, newPA addr.PAddr)
}

// NewManager creates a manager over the given physical memory.
func NewManager(buddy *physmem.Buddy, rng *rand.Rand, thp bool) *Manager {
	return &Manager{Buddy: buddy, rng: rng, THP: thp}
}

// alloc2M tries a 2MB allocation, falling back to compaction when
// enabled. The compaction attempt probability drops linearly with free
// memory below 30% (above that the kernel compacts eagerly; close to
// exhaustion it gives up), which is what makes superpage coverage degrade
// gracefully rather than cliff (Fig 3).
func (m *Manager) alloc2M() (addr.PAddr, bool) {
	if pa, ok := m.Buddy.Alloc(addr.Page2M); ok {
		return pa, true
	}
	if m.Compactor == nil {
		return 0, false
	}
	// Attempt probability scales with free memory: with ample memory the
	// kernel compacts eagerly; as pressure mounts it increasingly gives
	// up (watermarks, deferred compaction, unmovable-page interference).
	// Calibrated so coverage stays high through memhog(40%), degrades
	// around 60%, and collapses at 80-90% — the paper's Figs 3 and 12.
	freeFrac := float64(m.Buddy.FreeBytes()) / float64(m.Buddy.TotalBytes())
	p := 1.3 * freeFrac
	if p > 1 {
		p = 1
	}
	if p <= 0 || m.rng.Float64() >= p {
		m.Stats.CompactGiveups++
		return 0, false
	}
	if !m.Compactor.Compact() {
		m.Stats.CompactFails++
		return 0, false
	}
	m.Stats.Compactions++
	return m.Buddy.Alloc(addr.Page2M)
}

// NewProcess creates an address space. VA allocation starts at a
// canonical user-space base.
func (m *Manager) NewProcess(asid uint16) (*Process, error) {
	if m.Process(asid) != nil {
		return nil, fmt.Errorf("osmm: ASID %d already exists", asid)
	}
	p := &Process{
		ASID:   asid,
		PT:     pagetable.New(),
		nextVA: 0x5555_5540_0000, // 2MB-aligned, x86-64 mmap-ish base
	}
	m.procs = append(m.procs, p)
	return p, nil
}

// Process returns the process for an ASID, or nil.
func (m *Manager) Process(asid uint16) *Process {
	for _, p := range m.procs {
		if p.ASID == asid {
			return p
		}
	}
	return nil
}

// Mmap maps length bytes of anonymous memory (rounded up to 4KB) and
// returns the base VA. With THP enabled, each fully covered 2MB-aligned
// chunk is backed by a superpage when the buddy allocator has a free 2MB
// block; everything else falls back to base pages. Partial failure
// unwinds cleanly.
func (m *Manager) Mmap(p *Process, length uint64) (addr.VAddr, error) {
	return m.MmapHuge(p, length, true)
}

// MmapHuge is Mmap with per-region control over superpage eligibility:
// allowHuge=false models regions the OS never backs with superpages
// (madvise(MADV_NOHUGEPAGE), stacks, small file mappings) — the
// base-page-only share of each workload's footprint.
func (m *Manager) MmapHuge(p *Process, length uint64, allowHuge bool) (addr.VAddr, error) {
	if length == 0 {
		return 0, fmt.Errorf("osmm: zero-length mmap")
	}
	pages := (length + 4095) / 4096
	base := p.nextVA
	// Advance the bump pointer to the next 2MB boundary past the region
	// so chunks never straddle regions.
	p.nextVA += addr.VAddr((pages*4096 + (2<<20 - 1)) &^ uint64(2<<20-1))

	for off := uint64(0); off < pages*4096; off += 2 << 20 {
		cva := base + addr.VAddr(off)
		if err := m.mapChunk(p, cva, int(min(512, pages-off/4096)), allowHuge); err != nil {
			// Unwind: the failed chunk's pages, then every chunk before it.
			m.unmapChunk(p, cva)
			for v := base; v < cva; v += 2 << 20 {
				m.unmapChunk(p, v)
			}
			return 0, err
		}
	}
	if !allowHuge {
		p.noHuge = append(p.noHuge, Range{base, p.nextVA})
	}
	return base, nil
}

// mapChunk backs the first pages 4KB pages of the 2MB chunk at cva: with
// a 2MB superpage when THP and allowHuge permit, the chunk is whole and
// a 2MB block can be had, else with base pages.
func (m *Manager) mapChunk(p *Process, cva addr.VAddr, pages int, allowHuge bool) error {
	if m.THP && allowHuge && pages == 512 {
		if pa, ok := m.alloc2M(); ok {
			if err := m.mapFrame(p, cva, pa, addr.Page2M); err != nil {
				return err
			}
			m.Stats.SuperAllocs++
			return nil
		}
	}
	for i := 0; i < pages; i++ {
		pa, ok := m.Buddy.Alloc(addr.Page4K)
		if !ok {
			return fmt.Errorf("osmm: out of physical memory at %#x", uint64(cva)+uint64(i*4096))
		}
		if err := m.mapFrame(p, cva+addr.VAddr(i*4096), pa, addr.Page4K); err != nil {
			return err
		}
	}
	if pages == 512 {
		m.Stats.BaseAllocs++
	}
	return nil
}

// mapFrame maps the page of the given size at va to the frame at pa,
// returning the frame to the buddy if the page table refuses it.
func (m *Manager) mapFrame(p *Process, va addr.VAddr, pa addr.PAddr, size addr.PageSize) error {
	if err := p.PT.Map(va, pa.PPN(size), size); err != nil {
		m.Buddy.Free(pa, size)
		return err
	}
	return nil
}

// Mmap1G maps length bytes (rounded up to 1GB) backed entirely by 1GB
// superpages — the hugetlbfs-style explicit allocation path, since
// transparent 1GB support "is an area of active study" (paper Section
// III-C). It fails if the buddy allocator cannot supply the contiguous
// gigabyte blocks.
func (m *Manager) Mmap1G(p *Process, length uint64) (addr.VAddr, error) {
	if length == 0 {
		return 0, fmt.Errorf("osmm: zero-length mmap")
	}
	nChunks := (length + (1<<30 - 1)) >> 30
	// 1GB pages need 1GB-aligned virtual addresses.
	base := addr.VAddr((uint64(p.nextVA) + (1<<30 - 1)) &^ uint64(1<<30-1))
	p.nextVA = base + addr.VAddr(nChunks<<30)
	for i := uint64(0); i < nChunks; i++ {
		va := base + addr.VAddr(i<<30)
		pa, ok := m.Buddy.Alloc(addr.Page1G)
		var err error
		if !ok {
			err = fmt.Errorf("osmm: no contiguous 1GB block for chunk %d", i)
		} else {
			err = m.mapFrame(p, va, pa, addr.Page1G)
		}
		if err != nil {
			for v := base; v < va; v += 1 << 30 {
				m.unmap1G(p, v)
			}
			return 0, err
		}
	}
	return base, nil
}

// freePage unmaps the page of the given size that starts at va and
// frees its frame, reporting whether there was one.
func (m *Manager) freePage(p *Process, va addr.VAddr, size addr.PageSize) bool {
	pa, s, ok := p.PT.Translate(va)
	if !ok || s != size {
		return false
	}
	p.PT.Unmap(va, size)
	m.Buddy.Free(pa, size)
	return true
}

// invlpg fires OnInvlpg for the region at va, when wired.
func (m *Manager) invlpg(p *Process, va addr.VAddr) {
	if m.OnInvlpg != nil {
		m.OnInvlpg(p.ASID, va)
	}
}

// unmap1G releases the 1GB mapping at va, reporting whether there was one.
func (m *Manager) unmap1G(p *Process, va addr.VAddr) bool {
	if !m.freePage(p, va, addr.Page1G) {
		return false
	}
	m.invlpg(p, va)
	return true
}

// unmapChunk releases the 2MB chunk at cva — its superpage or its base
// pages, in page order — reporting whether it held any.
func (m *Manager) unmapChunk(p *Process, cva addr.VAddr) bool {
	size, pages := p.PT.Region(cva)
	if pages == 0 || size == addr.Page1G {
		return false
	}
	for va := cva; va < cva+2<<20; va += addr.VAddr(size.Bytes()) {
		m.freePage(p, va, size)
	}
	m.invlpg(p, cva)
	return true
}

// Munmap unmaps every chunk overlapping [base, base+length), including
// explicit 1GB mappings.
func (m *Manager) Munmap(p *Process, base addr.VAddr, length uint64) {
	end := base + addr.VAddr(length)
	for cva := base.PageBase(addr.Page2M); cva < end; cva += 2 << 20 {
		if m.unmapChunk(p, cva) {
			m.Stats.UnmappedBytes += 2 << 20
		}
	}
	for gva := base.PageBase(addr.Page1G); gva < end; gva += 1 << 30 {
		if m.unmap1G(p, gva) {
			m.Stats.UnmappedBytes += 1 << 30
		}
	}
}

// Splinter breaks the superpage backing va into base pages (e.g. for
// finer-grained protection), preserving translations, and fires OnInvlpg.
// The 2MB buddy block is then owned as 512 base pages: on unmap the
// frames are freed individually at order 0 and the buddy coalesces them
// back into the original 2MB block.
func (m *Manager) Splinter(p *Process, va addr.VAddr) error {
	cva, err := p.PT.Splinter(va)
	if err != nil {
		return fmt.Errorf("osmm: %#x is not superpage-backed", uint64(va))
	}
	m.Stats.Splinters++
	m.invlpg(p, cva)
	return nil
}

// Promote attempts khugepaged-style promotion of the fully base-mapped
// 2MB region at va: it allocates a fresh 2MB block (fails under
// fragmentation), rewrites the page table, frees the old scattered
// frames, and fires OnPromote (cache sweep) and OnInvlpg. Every check
// comes before the allocation, which draws from the RNG and may compact.
func (m *Manager) Promote(p *Process, va addr.VAddr) error {
	cva := va.PageBase(addr.Page2M)
	switch size, pages := p.PT.Region(cva); {
	case size != addr.Page4K || pages == 0:
		return fmt.Errorf("osmm: %#x is not base-page-backed", uint64(va))
	case p.noHugeAt(cva):
		return fmt.Errorf("osmm: %#x was mapped with superpages disallowed", uint64(va))
	case pages != 512:
		return fmt.Errorf("osmm: %#x is a partial chunk (%d pages)", uint64(va), pages)
	}
	newPA, allocOK := m.alloc2M()
	if !allocOK {
		m.Stats.PromoteFails++
		return fmt.Errorf("osmm: no contiguous 2MB block for promotion")
	}
	oldFrames := make([]addr.PAddr, 512)
	for i := range oldFrames {
		oldFrames[i], _, _ = p.PT.Translate(cva + addr.VAddr(i*4096))
	}
	if _, err := p.PT.Promote(cva, newPA.PPN(addr.Page2M)); err != nil {
		m.Buddy.Free(newPA, addr.Page2M)
		return err
	}
	for _, fpa := range oldFrames {
		m.Buddy.Free(fpa, addr.Page4K)
	}
	m.Stats.Promotions++
	m.invlpg(p, cva)
	if m.OnPromote != nil {
		m.OnPromote(p.ASID, cva, oldFrames, newPA)
	}
	return nil
}

// PromoteScan walks up to maxChunks base-mapped full chunks of p, in
// address order, and attempts promotion, returning how many succeeded.
// This is the khugepaged background pass.
func (m *Manager) PromoteScan(p *Process, maxChunks int) int {
	var cvas []addr.VAddr
	p.PT.Regions(func(cva addr.VAddr, size addr.PageSize, pages int) {
		if size == addr.Page4K && pages == 512 && !p.noHugeAt(cva) {
			cvas = append(cvas, cva)
		}
	})
	promoted := 0
	for _, cva := range cvas {
		if promoted >= maxChunks {
			break
		}
		if m.Promote(p, cva) == nil {
			promoted++
		}
	}
	return promoted
}

// noHugeAt reports whether va lies in a region mapped with superpages
// disallowed.
func (p *Process) noHugeAt(va addr.VAddr) bool {
	for _, r := range p.noHuge {
		if r.Lo <= va && va < r.Hi {
			return true
		}
	}
	return false
}

// SuperpageCoverage returns the fraction of p's mapped bytes backed by
// superpages — the paper's Fig 3 metric.
func (p *Process) SuperpageCoverage() float64 {
	if p.MappedBytes() == 0 {
		return 0
	}
	return float64(p.SuperBytes()) / float64(p.MappedBytes())
}

// MappedBytes returns the total mapped footprint.
func (p *Process) MappedBytes() uint64 { return p.PT.Count(addr.Page4K)<<12 + p.SuperBytes() }

// SuperBytes returns the superpage-backed footprint.
func (p *Process) SuperBytes() uint64 {
	return p.PT.Count(addr.Page2M)<<21 + p.PT.Count(addr.Page1G)<<30
}

// chunkVAs returns the base VAs of the 2MB chunks mapped at a page size
// keep accepts, in ascending address order.
func (p *Process) chunkVAs(keep func(addr.PageSize) bool) []addr.VAddr {
	var out []addr.VAddr
	p.PT.Regions(func(cva addr.VAddr, size addr.PageSize, _ int) {
		if keep(size) {
			out = append(out, cva)
		}
	})
	return out
}

// SuperChunkVAs returns the base VAs of the chunks currently backed by
// 2MB superpages, in ascending address order — the deterministic
// candidate list fault injection splinters from (explicit 1GB mappings
// are not splinterable and are excluded).
func (p *Process) SuperChunkVAs() []addr.VAddr {
	return p.chunkVAs(func(s addr.PageSize) bool { return s == addr.Page2M })
}

// ChunkVAs returns the base VAs of every mapped 2MB chunk in ascending
// address order (shootdown-burst targeting); 1GB mappings are excluded.
func (p *Process) ChunkVAs() []addr.VAddr {
	return p.chunkVAs(func(s addr.PageSize) bool { return s != addr.Page1G })
}

// ChunkIsSuper reports whether the chunk containing va is superpage-
// backed — by a 2MB page or an explicit 1GB page.
func (p *Process) ChunkIsSuper(va addr.VAddr) bool {
	size, pages := p.PT.Region(va)
	return pages > 0 && size.IsSuper()
}
