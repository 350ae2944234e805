package xrand

import "fmt"

// maxReplayDraws bounds how many generator steps SetState will replay.
// Real runs draw a few source steps per reference, so realistic warmups
// stay orders of magnitude below this; a count beyond it can only come
// from a corrupt snapshot, and replaying it would stall the decoder.
const maxReplayDraws = 1 << 30

// SourceState is the serializable identity of a Source's generator
// position: reseeding with Seed and advancing Draws steps reproduces the
// exact stream the source would emit from here on.
type SourceState struct {
	Seed  int64
	Draws uint64
}

// State captures the source's position for serialization.
func (s *Source) State() SourceState {
	return SourceState{Seed: s.seed, Draws: s.n}
}

// SetState repositions the source in place: the generator is reseeded
// with st.Seed and fast-forwarded st.Draws steps. Mutating in place
// keeps every rand.Rand wrapped around this source valid, so consumers
// need no rewiring. A draw count past the replay bound is rejected and
// leaves the source untouched.
func (s *Source) SetState(st SourceState) error {
	if st.Draws > maxReplayDraws {
		return fmt.Errorf("xrand: %d draws exceeds the replay bound (corrupt state?)", st.Draws)
	}
	s.Seed(st.Seed)
	for i := uint64(0); i < st.Draws; i++ {
		s.rng.step()
	}
	s.n = st.Draws
	return nil
}
