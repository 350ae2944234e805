package xrand

import "math/rand"

// The hot loops of the simulator burn a meaningful fraction of their
// cycles inside the generator: every Float64 the workload generator
// draws through a stock rand.Rand crosses two interface dispatches
// (rand.Rand -> Source -> generator). Source steps its own copy of the
// generator, and the concrete Rand below calls it without any dispatch.
//
// math/rand's default source is a 607-word additive lagged-Fibonacci
// generator (Mitchell & Reeds): each step moves two cursors, tap and
// feed, one slot down the ring and adds the word at tap into the word at
// feed, which is also the output. Its stream has been fixed since Go 1.

const (
	rngLen  = 607
	rngTap  = 273
	rngMask = 1<<63 - 1
)

// rngState is the lagged-Fibonacci generator: the ring and its cursors.
type rngState struct {
	tap  int
	feed int
	vec  [rngLen]int64
}

// step advances the generator one draw: the stock source's Uint64.
func (s *rngState) step() uint64 {
	if s.tap--; s.tap < 0 {
		s.tap += rngLen
	}
	if s.feed--; s.feed < 0 {
		s.feed += rngLen
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return uint64(x)
}

// seed sets the state rand.NewSource(seed) starts from. The stock
// seeding mixes the seed with a table math/rand does not export, so the
// state is recovered from the stock stream instead: from the stock
// cursors (tap 0, feed rngLen-rngTap) the first rngLen steps write every
// slot exactly once, each with that step's output, so placing the first
// rngLen stock outputs where those steps write yields the state after
// them. Undoing the steps in reverse order then lands exactly on the
// stock initial state.
func (s *rngState) seed(seed int64) {
	stock := rand.NewSource(seed).(rand.Source64)
	s.tap, s.feed = 0, rngLen-rngTap
	for i := 0; i < rngLen; i++ {
		s.step() // moves the cursors; the slot it writes is overwritten
		s.vec[s.feed] = int64(stock.Uint64())
	}
	for i := 0; i < rngLen; i++ {
		s.vec[s.feed] -= s.vec[s.tap]
		if s.tap++; s.tap == rngLen {
			s.tap = 0
		}
		if s.feed++; s.feed == rngLen {
			s.feed = 0
		}
	}
}

// A Rand is a concrete replacement for *math/rand.Rand over a counting
// Source: the same value stream for the methods it offers, without the
// per-draw interface dispatch. Hot-path consumers (the workload
// generators) hold a *Rand; everything else keeps using rand.New over
// the Source, which stays byte-compatible.
type Rand struct {
	s *Source
}

// NewRand returns a Rand whose stream is identical to
// rand.New(rand.NewSource(seed)), plus its counting source for cloning.
func NewRand(seed int64) (*Rand, *Source) {
	s := NewSource(seed)
	return &Rand{s: s}, s
}

// RandOver returns a Rand drawing from an existing counting source.
func RandOver(s *Source) *Rand { return &Rand{s: s} }

// Int63 matches rand.Rand.Int63.
func (r *Rand) Int63() int64 {
	s := r.s
	s.n++
	return int64(s.rng.step() & rngMask)
}

// Uint64 matches rand.Rand.Uint64 over a Source64.
func (r *Rand) Uint64() uint64 {
	s := r.s
	s.n++
	return s.rng.step()
}

// Float64 matches rand.Rand.Float64: Go 1's value stream, resampling
// the (probability 2⁻⁵³) draws that would round up to 1.0.
func (r *Rand) Float64() float64 {
again:
	f := float64(r.Int63()) / (1 << 63)
	if f == 1 {
		goto again
	}
	return f
}
