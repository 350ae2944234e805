// Package xrand provides a math/rand-compatible source whose generator
// state can be copied. Go's rand.Rand carries hidden generator state
// that cannot be copied directly, so Source carries its own copy of the
// stock generator — math/rand's 607-word additive lagged-Fibonacci
// source — started from exactly the state rand.NewSource(seed) starts
// from. Every stream is therefore the stock stream, and cloning warm
// simulator state is a struct copy.
//
// Every draw a rand.Rand makes — Float64, Intn, Uint64, Shuffle —
// bottoms out in exactly one Int63 or Uint64 call on its Source, and
// both advance the generator by one identical step. Source counts those
// steps, so (seed, draws) identifies the generator's exact position:
// reseeding and replaying n steps reproduces the stream the source will
// emit from here on. That pair is the serializable SourceState.
//
// Counting at the source level (not the call level) is what makes
// rejection-sampling consumers like Intn cloneable: however many draws a
// call burned, the counter advanced with the generator.
package xrand

import "math/rand"

// Source is a counting math/rand source holding the stock generator's
// state itself. It implements rand.Source64, so rand.New(src) behaves
// byte-for-byte like rand.New(rand.NewSource(seed)).
type Source struct {
	seed int64
	n    uint64
	rng  rngState
}

// NewSource returns a counting source seeded like rand.NewSource(seed).
func NewSource(seed int64) *Source {
	s := &Source{}
	s.Seed(seed)
	return s
}

// Int63 implements rand.Source.
func (s *Source) Int63() int64 {
	s.n++
	return int64(s.rng.step() & rngMask)
}

// Uint64 implements rand.Source64.
func (s *Source) Uint64() uint64 {
	s.n++
	return s.rng.step()
}

// Seed implements rand.Source: the generator restarts where
// rand.NewSource(seed) starts and the draw counter resets.
func (s *Source) Seed(seed int64) {
	s.rng.seed(seed)
	s.seed = seed
	s.n = 0
}

// Draws returns how many generator steps have been taken.
func (s *Source) Draws() uint64 { return s.n }

// Clone returns an independent source at the same generator position.
// The clone and the original produce identical streams from here on and
// never influence each other.
func (s *Source) Clone() *Source {
	c := *s
	return &c
}

// New returns a rand.Rand over a new counting source, plus the source
// handle for later cloning. The Rand's stream is identical to
// rand.New(rand.NewSource(seed)).
func New(seed int64) (*rand.Rand, *Source) {
	s := NewSource(seed)
	return rand.New(s), s
}
