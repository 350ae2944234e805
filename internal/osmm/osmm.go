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
	"sort"

	"seesaw/internal/addr"
	"seesaw/internal/pagetable"
	"seesaw/internal/physmem"
)

// chunk records how one 2MB-aligned VA chunk is backed.
type chunk struct {
	super  bool
	noHuge bool         // region was mapped with superpages disallowed
	pa     addr.PAddr   // 2MB block base when super
	frames []addr.PAddr // 4KB frame per page when !super
	pages  int          // mapped 4KB pages in this chunk (tail chunks may be partial)
}

// Process is one simulated address space.
type Process struct {
	ASID uint16
	PT   *pagetable.Table

	nextVA   addr.VAddr
	chunks   map[addr.VAddr]*chunk     // keyed by 2MB-aligned VA
	chunks1G map[addr.VAddr]addr.PAddr // explicit 1GB mappings, keyed by 1GB-aligned VA

	mappedBytes uint64
	superBytes  uint64
}

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

	procs map[uint16]*Process
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
	return &Manager{Buddy: buddy, rng: rng, THP: thp, procs: make(map[uint16]*Process)}
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
	if _, ok := m.procs[asid]; ok {
		return nil, fmt.Errorf("osmm: ASID %d already exists", asid)
	}
	p := &Process{
		ASID:     asid,
		PT:       pagetable.New(),
		nextVA:   0x5555_5540_0000, // 2MB-aligned, x86-64 mmap-ish base
		chunks:   make(map[addr.VAddr]*chunk),
		chunks1G: make(map[addr.VAddr]addr.PAddr),
	}
	m.procs[asid] = p
	return p, nil
}

// Process returns the process for an ASID, or nil.
func (m *Manager) Process(asid uint16) *Process { return m.procs[asid] }

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

	var mappedChunks []addr.VAddr
	unwind := func() {
		for _, cva := range mappedChunks {
			m.unmapChunk(p, cva)
		}
	}
	for off := uint64(0); off < pages*4096; off += 2 << 20 {
		cva := base + addr.VAddr(off)
		chunkPages := int((pages*4096 - off + 4095) / 4096)
		if chunkPages > 512 {
			chunkPages = 512
		}
		full := chunkPages == 512
		if m.THP && allowHuge && full {
			if pa, ok := m.alloc2M(); ok {
				if err := p.PT.Map(cva, pa.PPN(addr.Page2M), addr.Page2M); err != nil {
					unwind()
					return 0, err
				}
				p.chunks[cva] = &chunk{super: true, pa: pa, pages: 512}
				p.mappedBytes += 2 << 20
				p.superBytes += 2 << 20
				m.Stats.SuperAllocs++
				mappedChunks = append(mappedChunks, cva)
				continue
			}
		}
		// Base-page fallback.
		c := &chunk{frames: make([]addr.PAddr, 0, chunkPages), pages: chunkPages, noHuge: !allowHuge}
		for i := 0; i < chunkPages; i++ {
			fpa, ok := m.Buddy.Alloc(addr.Page4K)
			if !ok {
				// Out of memory: free this chunk's frames then unwind.
				for _, fp := range c.frames {
					m.Buddy.Free(fp, addr.Page4K)
				}
				unwind()
				return 0, fmt.Errorf("osmm: out of physical memory at %d bytes", off)
			}
			va := cva + addr.VAddr(i*4096)
			if err := p.PT.Map(va, fpa.PPN(addr.Page4K), addr.Page4K); err != nil {
				m.Buddy.Free(fpa, addr.Page4K)
				for _, fp := range c.frames {
					m.Buddy.Free(fp, addr.Page4K)
				}
				unwind()
				return 0, err
			}
			c.frames = append(c.frames, fpa)
		}
		p.chunks[cva] = c
		p.mappedBytes += uint64(chunkPages) * 4096
		if full {
			m.Stats.BaseAllocs++
		}
		mappedChunks = append(mappedChunks, cva)
	}
	return base, nil
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
	var mapped []addr.VAddr
	for i := uint64(0); i < nChunks; i++ {
		va := base + addr.VAddr(i<<30)
		pa, ok := m.Buddy.Alloc(addr.Page1G)
		if !ok {
			for _, v := range mapped {
				m.unmap1G(p, v)
			}
			return 0, fmt.Errorf("osmm: no contiguous 1GB block for chunk %d", i)
		}
		if err := p.PT.Map(va, pa.PPN(addr.Page1G), addr.Page1G); err != nil {
			m.Buddy.Free(pa, addr.Page1G)
			for _, v := range mapped {
				m.unmap1G(p, v)
			}
			return 0, err
		}
		p.chunks1G[va] = pa
		p.mappedBytes += 1 << 30
		p.superBytes += 1 << 30
		mapped = append(mapped, va)
	}
	return base, nil
}

// unmap1G releases one 1GB mapping.
func (m *Manager) unmap1G(p *Process, va addr.VAddr) {
	pa, ok := p.chunks1G[va]
	if !ok {
		return
	}
	p.PT.Unmap(va, addr.Page1G)
	m.Buddy.Free(pa, addr.Page1G)
	p.mappedBytes -= 1 << 30
	p.superBytes -= 1 << 30
	delete(p.chunks1G, va)
	if m.OnInvlpg != nil {
		m.OnInvlpg(p.ASID, va)
	}
}

// unmapChunk releases one chunk's mappings and physical memory.
func (m *Manager) unmapChunk(p *Process, cva addr.VAddr) {
	c, ok := p.chunks[cva]
	if !ok {
		return
	}
	if c.super {
		p.PT.Unmap(cva, addr.Page2M)
		m.Buddy.Free(c.pa, addr.Page2M)
		p.superBytes -= 2 << 20
		p.mappedBytes -= 2 << 20
	} else {
		for i, fpa := range c.frames {
			p.PT.Unmap(cva+addr.VAddr(i*4096), addr.Page4K)
			m.Buddy.Free(fpa, addr.Page4K)
		}
		p.mappedBytes -= uint64(len(c.frames)) * 4096
	}
	delete(p.chunks, cva)
	if m.OnInvlpg != nil {
		m.OnInvlpg(p.ASID, cva)
	}
}

// Munmap unmaps every chunk overlapping [base, base+length), including
// explicit 1GB mappings.
func (m *Manager) Munmap(p *Process, base addr.VAddr, length uint64) {
	start := base.PageBase(addr.Page2M)
	for cva := start; cva < base+addr.VAddr(length); cva += 2 << 20 {
		if _, ok := p.chunks[cva]; ok {
			m.unmapChunk(p, cva)
			m.Stats.UnmappedBytes += 2 << 20
		}
	}
	for gva := base.PageBase(addr.Page1G); gva < base+addr.VAddr(length); gva += 1 << 30 {
		if _, ok := p.chunks1G[gva]; ok {
			m.unmap1G(p, gva)
			m.Stats.UnmappedBytes += 1 << 30
		}
	}
}

// Splinter breaks the superpage backing va into base pages (e.g. for
// finer-grained protection), preserving translations, and fires OnInvlpg.
func (m *Manager) Splinter(p *Process, va addr.VAddr) error {
	cva := va.PageBase(addr.Page2M)
	c, ok := p.chunks[cva]
	if !ok || !c.super {
		return fmt.Errorf("osmm: %#x is not superpage-backed", uint64(va))
	}
	if _, err := p.PT.Splinter(cva); err != nil {
		return err
	}
	// Physical memory stays where it is; bookkeeping switches to frames.
	c.super = false
	c.frames = make([]addr.PAddr, 512)
	for i := range c.frames {
		c.frames[i] = c.pa + addr.PAddr(i*4096)
	}
	// The 2MB buddy block is now owned as 512 base pages: on unmap the
	// frames are freed individually at order 0 and the buddy coalesces
	// them back into the original 2MB block.
	p.superBytes -= 2 << 20
	m.Stats.Splinters++
	if m.OnInvlpg != nil {
		m.OnInvlpg(p.ASID, cva)
	}
	return nil
}

// Promote attempts khugepaged-style promotion of the fully base-mapped
// 2MB region at va: it allocates a fresh 2MB block (fails under
// fragmentation), rewrites the page table, frees the old scattered
// frames, and fires OnPromote (cache sweep) and OnInvlpg.
func (m *Manager) Promote(p *Process, va addr.VAddr) error {
	cva := va.PageBase(addr.Page2M)
	c, ok := p.chunks[cva]
	if !ok || c.super {
		return fmt.Errorf("osmm: %#x is not base-page-backed", uint64(va))
	}
	if c.noHuge {
		return fmt.Errorf("osmm: %#x was mapped with superpages disallowed", uint64(va))
	}
	if c.pages != 512 {
		return fmt.Errorf("osmm: %#x is a partial chunk (%d pages)", uint64(va), c.pages)
	}
	newPA, allocOK := m.alloc2M()
	if !allocOK {
		m.Stats.PromoteFails++
		return fmt.Errorf("osmm: no contiguous 2MB block for promotion")
	}
	if _, err := p.PT.Promote(cva, newPA.PPN(addr.Page2M)); err != nil {
		m.Buddy.Free(newPA, addr.Page2M)
		return err
	}
	oldFrames := c.frames
	for _, fpa := range oldFrames {
		m.Buddy.Free(fpa, addr.Page4K)
	}
	c.super = true
	c.pa = newPA
	c.frames = nil
	p.superBytes += 2 << 20
	m.Stats.Promotions++
	if m.OnInvlpg != nil {
		m.OnInvlpg(p.ASID, cva)
	}
	if m.OnPromote != nil {
		m.OnPromote(p.ASID, cva, oldFrames, newPA)
	}
	return nil
}

// PromoteScan walks up to maxChunks base-mapped full chunks of p and
// attempts promotion, returning how many succeeded. This is the
// khugepaged background pass.
func (m *Manager) PromoteScan(p *Process, maxChunks int) int {
	// Scan candidates in address order: the chunk map's random iteration
	// order must not decide which chunks get promoted when maxChunks caps
	// the pass, or runs stop being reproducible.
	cvas := make([]addr.VAddr, 0, len(p.chunks))
	for cva, c := range p.chunks {
		if !c.super && !c.noHuge && c.pages == 512 {
			cvas = append(cvas, cva)
		}
	}
	sort.Slice(cvas, func(i, j int) bool { return cvas[i] < cvas[j] })
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

// SuperpageCoverage returns the fraction of p's mapped bytes backed by
// 2MB superpages — the paper's Fig 3 metric.
func (p *Process) SuperpageCoverage() float64 {
	if p.mappedBytes == 0 {
		return 0
	}
	return float64(p.superBytes) / float64(p.mappedBytes)
}

// MappedBytes returns the total mapped footprint.
func (p *Process) MappedBytes() uint64 { return p.mappedBytes }

// SuperBytes returns the superpage-backed footprint.
func (p *Process) SuperBytes() uint64 { return p.superBytes }

// SuperChunkVAs returns the base VAs of the chunks currently backed by
// 2MB superpages, in ascending address order — the deterministic
// candidate list fault injection splinters from (explicit 1GB mappings
// are not splinterable and are excluded).
func (p *Process) SuperChunkVAs() []addr.VAddr {
	var out []addr.VAddr
	for cva, c := range p.chunks {
		if c.super {
			out = append(out, cva)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// ChunkVAs returns the base VAs of every mapped 2MB chunk in ascending
// address order (shootdown-burst targeting).
func (p *Process) ChunkVAs() []addr.VAddr {
	out := make([]addr.VAddr, 0, len(p.chunks))
	for cva := range p.chunks {
		out = append(out, cva)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// ChunkIsSuper reports whether the chunk containing va is superpage-
// backed — by a 2MB page or an explicit 1GB page.
func (p *Process) ChunkIsSuper(va addr.VAddr) bool {
	if _, ok := p.chunks1G[va.PageBase(addr.Page1G)]; ok {
		return true
	}
	c, ok := p.chunks[va.PageBase(addr.Page2M)]
	return ok && c.super
}
