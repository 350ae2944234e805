// Oschurn: the correctness story of Section IV-C2, live. The OS
// splinters superpages into base pages and promotes base pages into
// superpages while SEESAW caches their lines; the design must keep every
// line reachable, invalidate the TFT on invlpg, and sweep stale lines on
// promotion.
//
//	go run ./examples/oschurn
package main

import (
	"fmt"
	"log"
	"math/rand"

	"seesaw/internal/addr"
	"seesaw/internal/cache"
	"seesaw/internal/core"
	"seesaw/internal/osmm"
	"seesaw/internal/physmem"
	"seesaw/internal/sim"
	"seesaw/internal/tft"
	"seesaw/internal/workload"
)

func main() {
	// --- Part 1: splintering, at the cache level -----------------------
	buddy := physmem.MustNew(64 << 20)
	mgr := osmm.NewManager(buddy, rand.New(rand.NewSource(1)), true)
	proc, err := mgr.NewProcess(1)
	if err != nil {
		log.Fatal(err)
	}
	l1, err := core.NewSeesaw(core.Config{
		SizeBytes: 32 << 10, Ways: 8, FreqGHz: 1.33, TFT: tft.DefaultConfig(),
	})
	if err != nil {
		log.Fatal(err)
	}
	// Wire the OS's invlpg to the TFT, as the simulator does.
	mgr.OnInvlpg = func(asid uint16, va addr.VAddr) {
		l1.InvalidatePage(va)
		fmt.Printf("  invlpg(%#x): TFT entry invalidated\n", uint64(va))
	}
	var sweep cache.FrameSweep
	mgr.OnPromote = func(asid uint16, va addr.VAddr, old []addr.PAddr, newPA addr.PAddr) {
		sweep.Reset(old)
		swept := len(l1.EvictFrames(&sweep))
		fmt.Printf("  promote(%#x): swept %d stale lines from the old frames\n", uint64(va), swept)
	}

	base, err := mgr.Mmap(proc, 2<<20) // one 2MB chunk, superpage-backed
	if err != nil {
		log.Fatal(err)
	}
	va := base + 0x1234c0
	pa, size, _ := proc.PT.Translate(va)
	fmt.Printf("mapped %#x as %v (PA %#x)\n", uint64(base), size, uint64(pa))

	// Cache a dirty line under the superpage, via the fast path.
	l1.OnSuperpageTLBFill(va)
	l1.Fill(pa, size, true, false)
	r := l1.Access(va, pa, size, true)
	fmt.Printf("superpage access: hit=%v fastPath=%v cycles=%d\n", r.Hit, r.FastPath, r.Cycles)

	// The OS splinters the superpage (e.g. to change protection on one
	// base page).
	fmt.Println("\nOS splinters the 2MB page:")
	if err := mgr.Splinter(proc, va); err != nil {
		log.Fatal(err)
	}
	pa2, size2, _ := proc.PT.Translate(va)
	fmt.Printf("  %#x now %v (PA %#x, unchanged frame)\n", uint64(va), size2, uint64(pa2))
	r = l1.Access(va, pa2, size2, false)
	fmt.Printf("  post-splinter access: hit=%v fastPath=%v cycles=%d (slow path, line intact)\n",
		r.Hit, r.FastPath, r.Cycles)

	// The OS promotes it back (khugepaged found the region hot).
	fmt.Println("\nkhugepaged promotes the region back to 2MB:")
	if err := mgr.Promote(proc, va); err != nil {
		log.Fatal(err)
	}
	pa3, size3, _ := proc.PT.Translate(va)
	fmt.Printf("  %#x now %v again (PA %#x, fresh contiguous block)\n", uint64(va), size3, uint64(pa3))
	r = l1.Access(va, pa3, size3, false)
	fmt.Printf("  post-promote access: hit=%v (old line was swept; refill required)\n", r.Hit)
	l1.OnSuperpageTLBFill(va)
	l1.Fill(pa3, size3, false, false)
	r = l1.Access(va, pa3, size3, false)
	fmt.Printf("  after refill:        hit=%v fastPath=%v cycles=%d (fast path restored)\n\n",
		r.Hit, r.FastPath, r.Cycles)

	// --- Part 2: churn under load, end to end --------------------------
	p, err := workload.ByName("mongo")
	if err != nil {
		log.Fatal(err)
	}
	cfg := sim.Config{
		Workload: p, Seed: 7, Refs: 120_000,
		CacheKind: sim.KindSeesaw, L1Size: 64 << 10,
		FreqGHz: 1.33, CPUKind: "ooo", MemBytes: 512 << 20,
		MemhogFraction:   0.5, // some chunks start base-paged -> promotions happen
		SplinterEvery:    9_000,
		PromoteScanEvery: 6_000,
	}
	r2, err := sim.Run(cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("mongo under continuous churn: %d splinters, %d promotions over %d refs\n",
		r2.Splinters, r2.Promotions, cfg.Refs)
	fmt.Printf("  IPC %.3f, TFT hit rate %.1f%%, superpage coverage %.1f%%\n",
		r2.IPC, 100*r2.TFT.HitRate, 100*r2.SuperpageCoverage)
	fmt.Println("  (page-size churn is safely absorbed: no stale lines, no correctness cliffs)")
}
