package xrand

import (
	"math/rand"
	"testing"
)

// TestSourceStateRoundTrip: a source repositioned from a captured state
// emits exactly the stream the original emits from the same point, for
// both a fresh source and one parked at an unrelated position.
func TestSourceStateRoundTrip(t *testing.T) {
	orig := NewSource(42)
	r := rand.New(orig)
	for i := 0; i < 137; i++ {
		r.Intn(100) // rejection sampling burns a variable number of draws
		r.Float64()
	}
	st := orig.State()
	if st.Seed != 42 || st.Draws != orig.Draws() {
		t.Fatalf("State() = %+v, want seed 42 at %d draws", st, orig.Draws())
	}

	// Restore onto a source at a completely different position and seed.
	resumed := NewSource(7)
	rand.New(resumed).Uint64()
	if err := resumed.SetState(st); err != nil {
		t.Fatal(err)
	}
	if resumed.Draws() != st.Draws {
		t.Errorf("resumed Draws() = %d, want %d", resumed.Draws(), st.Draws)
	}
	for i := 0; i < 64; i++ {
		if a, b := orig.Uint64(), resumed.Uint64(); a != b {
			t.Fatalf("stream diverged at post-restore draw %d: %#x vs %#x", i, a, b)
		}
	}
}

// TestSourceStateRandWiring: SetState mutates the source in place, so a
// rand.Rand wrapped around it before the restore keeps working and
// matches the original's wrapped stream.
func TestSourceStateRandWiring(t *testing.T) {
	orig := NewSource(9)
	rand.New(orig).Shuffle(50, func(i, j int) {})

	resumed := NewSource(1)
	wrapped := rand.New(resumed) // wired before the restore
	if err := resumed.SetState(orig.State()); err != nil {
		t.Fatal(err)
	}
	want := rand.New(orig.Clone())
	for i := 0; i < 32; i++ {
		if a, b := want.Int63(), wrapped.Int63(); a != b {
			t.Fatalf("pre-wired rand diverged at draw %d", i)
		}
	}
}

// TestSourceStateReplayBound: a draw count past the replay bound is a
// corrupt state and must be rejected, leaving the source untouched.
func TestSourceStateReplayBound(t *testing.T) {
	s := NewSource(3)
	s.Uint64()
	before := s.State()
	if err := s.SetState(SourceState{Seed: 3, Draws: maxReplayDraws + 1}); err == nil {
		t.Fatal("SetState accepted a draw count past the replay bound")
	}
	if got := s.State(); got != before {
		t.Errorf("failed SetState mutated the source: %+v, want %+v", got, before)
	}
}
