package physmem

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"seesaw/internal/xrand"
)

// forgetImages empties the process-wide memo, so the next request for
// any key builds its image.
func forgetImages() {
	images.Lock()
	images.recent = nil
	images.Unlock()
}

// freshRun is what Fragmented promises, run without the memo.
func freshRun(t *testing.T, seed int64, memBytes uint64, fraction float64) (*Buddy, *Memhog, *xrand.Source) {
	t.Helper()
	b := MustNew(memBytes)
	src := xrand.NewSource(seed)
	h, err := Run(b, rand.New(src), fraction, 0.97)
	if err != nil {
		t.Fatal(err)
	}
	return b, h, src
}

// sameMemory reports how two fragmented memories and their sources
// differ, or "" when nothing tells them apart: free blocks, the region
// census, the hog's pinned frames, index and census, the RNG position
// and stream, and the next 2,000 allocations of a mix of orders. It
// consumes both.
func sameMemory(b1 *Buddy, h1 *Memhog, s1 *xrand.Source, b2 *Buddy, h2 *Memhog, s2 *xrand.Source) string {
	switch {
	case !reflect.DeepEqual(b1.State(), b2.State()):
		return "free blocks differ"
	case !slices.Equal(b1.small, b2.small) || !slices.Equal(h1.movable, h2.movable):
		return "region census differs"
	case !slices.Equal(h1.frames, h2.frames) || !slices.Equal(h1.at, h2.at):
		return "pinned frames differ"
	case h1.cursor != h2.cursor || h1.Migrations != h2.Migrations || h1.Compactions != h2.Compactions:
		return "hog counters differ"
	case s1.State() != s2.State():
		return fmt.Sprintf("RNG at %+v, want %+v", s2.State(), s1.State())
	}
	for i := 0; i < 16; i++ {
		if s1.Uint64() != s2.Uint64() {
			return fmt.Sprintf("RNG stream differs at draw %d", i)
		}
	}
	orders := rand.New(rand.NewSource(3))
	for i := 0; i < 2000; i++ {
		k := []int{Order4K, Order4K, Order4K, 1, 3, Order2M}[orders.Intn(6)]
		f1, ok1 := b1.AllocOrder(k)
		f2, ok2 := b2.AllocOrder(k)
		if f1 != f2 || ok1 != ok2 {
			return fmt.Sprintf("allocation %d (order %d): frame %d %v, want %d %v", i, k, f2, ok2, f1, ok1)
		}
	}
	return ""
}

// TestFragmentedMatchesRun: the memory Fragmented hands out, both to the
// request that builds an image and to every request restored from it,
// is exactly what a fresh memhog run leaves, across memory sizes (two
// not a power of two) and fractions.
func TestFragmentedMatchesRun(t *testing.T) {
	forgetImages()
	for _, mem := range []uint64{512 << 20, 1 << 30, 3 << 29, 1<<30 + 2<<20} {
		for _, frac := range []float64{0.3, 0.6, 0.85, 0.9} {
			fb, fh, fsrc := freshRun(t, 11, mem, frac)
			for _, pass := range []string{"built", "restored"} {
				b, h, src, err := Fragmented(11, mem, frac)
				if err != nil {
					t.Fatal(err)
				}
				wb := fb.Clone()
				if diff := sameMemory(wb, fh.Clone(wb), fsrc.Clone(), b, h, src); diff != "" {
					t.Errorf("%dMB memhog(%.2f), %s: %s", mem>>20, frac, pass, diff)
				}
			}
		}
	}
}

// TestFragmentedCopiesAreIndependent: using memory Fragmented handed out
// (allocating, compacting, drawing from the source) changes nothing a later request for
// the same key receives, whether the used memory came from the build or
// from a restore.
func TestFragmentedCopiesAreIndependent(t *testing.T) {
	forgetImages()
	const mem, frac = 256 << 20, 0.6
	for _, pass := range []string{"built", "restored"} {
		b, h, src, err := Fragmented(5, mem, frac)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 500; i++ {
			b.AllocOrder(Order4K)
		}
		for i := 0; i < 3 && h.Compact(); i++ {
		}
		h.Touch(100)
		rand.New(src).Uint64()
		b2, h2, src2, err := Fragmented(5, mem, frac)
		if err != nil {
			t.Fatal(err)
		}
		fb, fh, fsrc := freshRun(t, 5, mem, frac)
		if diff := sameMemory(fb, fh, fsrc, b2, h2, src2); diff != "" {
			t.Errorf("after using the %s copy: %s", pass, diff)
		}
	}
}

// TestFragmentedConcurrent: concurrent requests for more keys than the
// memo holds, so images are built, shared and evicted under contention,
// all get exactly a fresh run's memory. Run it under -race.
func TestFragmentedConcurrent(t *testing.T) {
	forgetImages()
	const mem, workers, rounds = 64 << 20, 8, 6
	fracs := []float64{0.3, 0.6, 0.9}
	var wg sync.WaitGroup
	errs := make(chan string, workers*rounds)
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				frac := fracs[(g+i)%len(fracs)]
				b, h, src, err := Fragmented(int64(g%2), mem, frac)
				if err != nil {
					errs <- err.Error()
					return
				}
				fb := MustNew(mem)
				fsrc := xrand.NewSource(int64(g % 2))
				fh, err := Run(fb, rand.New(fsrc), frac, 0.97)
				if err != nil {
					errs <- err.Error()
					return
				}
				if diff := sameMemory(fb, fh, fsrc, b, h, src); diff != "" {
					errs <- fmt.Sprintf("seed %d memhog(%.1f): %s", g%2, frac, diff)
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

// TestFragmentedWithoutHog: fraction 0 runs no memhog: fresh memory and
// a fresh source.
func TestFragmentedWithoutHog(t *testing.T) {
	b, h, src, err := Fragmented(9, 64<<20, 0)
	if err != nil {
		t.Fatal(err)
	}
	if h != nil || b.FreeBytes() != 64<<20 || src.State() != (xrand.SourceState{Seed: 9}) {
		t.Errorf("memhog(0) gave hog %v, %d free bytes, RNG %+v; want none, all, fresh", h, b.FreeBytes(), src.State())
	}
	if _, _, _, err := Fragmented(9, 64<<20, 0.99); err == nil {
		t.Error("memhog(0.99) accepted")
	}
}
