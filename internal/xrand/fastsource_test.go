package xrand

import (
	"math"
	"math/rand"
	"testing"
)

// TestMirrorFaithful pins the seeding behind Source: its own copy of
// the stock generator must start exactly where rand.NewSource does, for
// every class of seed the stock seeding treats specially (zero, which it
// remaps; negatives and values past int32max, which it reduces), and
// Int63 and Uint64 drawn straight off the Source must both match the
// stock source's.
func TestMirrorFaithful(t *testing.T) {
	seeds := []int64{0, 1, -1, 7, 42, 0x5ee5a, 89482311, 1<<31 - 1, 1 << 31, -(1<<31 - 1),
		1<<62 + 12345, math.MaxInt64, math.MinInt64}
	for _, seed := range seeds {
		want := rand.NewSource(seed).(rand.Source64)
		got := NewSource(seed)
		for i := 0; i < 2_000; i++ {
			if i%2 == 0 {
				if w, g := want.Int63(), got.Int63(); w != g {
					t.Fatalf("seed %d: Int63 draw %d: got %v want %v", seed, i, g, w)
				}
			} else if w, g := want.Uint64(), got.Uint64(); w != g {
				t.Fatalf("seed %d: Uint64 draw %d: got %v want %v", seed, i, g, w)
			}
		}
		if got.Draws() != 2_000 {
			t.Fatalf("seed %d: draws = %d, want 2000", seed, got.Draws())
		}
	}
}

// TestRandMatchesStdlib: the concrete Rand must reproduce
// rand.New(rand.NewSource(seed))'s stream exactly across every method
// it offers, interleaved.
func TestRandMatchesStdlib(t *testing.T) {
	want := rand.New(rand.NewSource(99))
	got, _ := NewRand(99)
	for i := 0; i < 100_000; i++ {
		switch i % 3 {
		case 0:
			if w, g := want.Float64(), got.Float64(); w != g {
				t.Fatalf("Float64 draw %d: got %v want %v", i, g, w)
			}
		case 1:
			if w, g := want.Int63(), got.Int63(); w != g {
				t.Fatalf("Int63 draw %d: got %v want %v", i, g, w)
			}
		case 2:
			if w, g := want.Uint64(), got.Uint64(); w != g {
				t.Fatalf("Uint64 draw %d: got %v want %v", i, g, w)
			}
		}
	}
}

// TestRandCloneAfterManyDraws: cloning a deeply advanced source (well
// past the 607-word state ring) and continuing through RandOver must
// match the original's future stream, and the copies must be
// independent. The clone is a state copy, not a draw-history replay.
func TestRandCloneAfterManyDraws(t *testing.T) {
	r, src := NewRand(5)
	for i := 0; i < 250_000; i++ {
		r.Float64()
	}
	c := src.Clone()
	rc := RandOver(c)
	if c.Draws() != src.Draws() {
		t.Fatalf("clone draws = %d, want %d", c.Draws(), src.Draws())
	}
	for i := 0; i < 10_000; i++ {
		if w, g := r.Uint64(), rc.Uint64(); w != g {
			t.Fatalf("draw %d after clone: got %v want %v", i, g, w)
		}
	}
	before := src.Draws()
	rc.Float64()
	if src.Draws() != before {
		t.Fatal("advancing the clone moved the original's counter")
	}
}

// TestRandCloneMixedConsumers: a cloned source feeding a stock
// rand.Rand and the original feeding the concrete Rand stay in
// lockstep — the two consumer types are interchangeable views over the
// same stream.
func TestRandCloneMixedConsumers(t *testing.T) {
	r, src := NewRand(11)
	for i := 0; i < 1_000; i++ {
		r.Uint64()
	}
	std := rand.New(src.Clone())
	for i := 0; i < 5_000; i++ {
		if w, g := r.Float64(), std.Float64(); w != g {
			t.Fatalf("draw %d: concrete %v, stdlib-over-clone %v", i, w, g)
		}
	}
}

// TestFloat64Resample forces the probability-2⁻⁵³ branch of Float64:
// an Int63 draw within half an ULP of 2⁶³ makes the division round up
// to exactly 1.0, which the stdlib (and so this package) resamples.
// The generator state is crafted so the next draw lands in that window
// and the one after is 0.
func TestFloat64Resample(t *testing.T) {
	r, src := NewRand(1)
	st := &src.rng
	for i := range st.vec {
		st.vec[i] = 0
	}
	feed1 := (st.feed - 1 + rngLen) % rngLen
	st.vec[feed1] = 1<<63 - 1 // draw 1: rounds to 1.0, resampled
	before := src.Draws()
	if f := r.Float64(); f != 0 {
		t.Fatalf("Float64 after forced resample = %v, want 0", f)
	}
	if got := src.Draws() - before; got != 2 {
		t.Fatalf("resample consumed %d draws, want 2", got)
	}
}

// BenchmarkFloat64 measures the concrete fast path against what the
// generators previously used: a stock rand.Rand over the counting
// Source (two interface hops per draw).
func BenchmarkFloat64(b *testing.B) {
	b.Run("xrand", func(b *testing.B) {
		r, _ := NewRand(1)
		for i := 0; i < b.N; i++ {
			r.Float64()
		}
	})
	b.Run("stdlib-over-source", func(b *testing.B) {
		r, _ := New(1)
		for i := 0; i < b.N; i++ {
			r.Float64()
		}
	})
}
