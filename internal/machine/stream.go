package machine

import (
	"context"
	"fmt"
	"sync"

	"seesaw/internal/addr"
	"seesaw/internal/trace"
	"seesaw/internal/workload"
)

// A Stream is one measured-phase reference stream, recorded once and
// replayed into every machine that would have generated it. Generation
// never reads execution state, so every cell with the same StreamKey
// draws the same records whatever its caches, TLBs or CPU; the runner
// gives each group of such cells one Stream. The paper works the same
// way: each workload's Pin trace is recorded once and replayed into
// every timing configuration.
//
// A Stream reaches a machine on the context passed to Measure (see
// WithStream). The first machine to measure with it records the stream
// from a clone of its own generator at the warmup boundary; every
// machine, the recorder included, then reads its measured-phase records
// from the stream instead of its generator. A machine whose generator
// would draw a different stream fails with a *StreamMismatchError
// instead of replaying. Warmup, Step, traces and any Measure without a
// stream on its context generate live.
//
// Records are packed to 9 bytes per reference: generated data
// addresses are 8-byte aligned, so the access kind and the dependence
// flag ride in the low bits of the address word, the gap takes a byte,
// and the thread comes from the machine's schedule. A modelled
// instruction fetch takes a second word: its 4-byte-aligned address
// with the taken-branch flag in bit 0.
type Stream struct {
	mu       sync.Mutex
	recorded bool
	replays  int

	// What the stream was recorded from: the recorder's profile, its
	// generator state at the warmup boundary, and the boundary's
	// reference index.
	profile workload.Profile
	state   workload.GeneratorState
	start   int

	// One entry per measured reference, in reference order; fetch is
	// nil unless the I-cache is modelled.
	data  []uint64
	gaps  []uint8
	fetch []uint64
}

// Bits packed below an 8-byte-aligned data address and a 4-byte-aligned
// fetch address.
const (
	storeBit  = 1 << 0
	depBit    = 1 << 1
	dataLow   = 7
	jumpedBit = 1 << 0
	fetchLow  = 3
)

// NewStream returns an empty stream; the first machine that measures
// with it records it.
func NewStream() *Stream { return &Stream{} }

// streamCtxKey keys a Stream in a context.
type streamCtxKey struct{}

// WithStream returns ctx carrying s: a machine whose Measure starts at
// its warmup boundary under that context replays its measured phase
// from s (recording it first if nobody has).
func WithStream(ctx context.Context, s *Stream) context.Context {
	return context.WithValue(ctx, streamCtxKey{}, s)
}

// Counts reports whether the stream has been recorded and how
// many machines have replayed it, the recorder included.
func (s *Stream) Counts() (recorded bool, replays int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.recorded, s.replays
}

// StreamKey identifies a measured-phase stream: two configs with equal
// keys generate the same records from their warmup boundary to the end
// of the measured phase. The boundary's generator state is a function
// of the warmup signature, and the measured phase draws Refs records
// from it. The key keeps only the signature fields the generator reads:
// memhog, the promotion and splinter cadences and the co-runner's slice
// length shape physical memory and the OS, but data addresses come from
// the memory manager's virtual bump allocator and the generator draws
// from its own seeded RNG, so those four fields are zero in every key.
type StreamKey struct {
	WarmupSignature
	Refs int
}

// StreamKey returns the config's stream key with defaults applied. ok
// is false for a trace replay, whose records come from its trace.
func (c Config) StreamKey() (key StreamKey, ok bool) {
	if c.Trace != nil {
		return StreamKey{}, false
	}
	d := c.WithDefaults()
	sig := d.WarmupSignature()
	sig.MemhogFraction, sig.PromoteScanEvery, sig.SplinterEvery, sig.CoRunSliceRefs = 0, 0, 0, 0
	return StreamKey{WarmupSignature: sig, Refs: d.Refs}, true
}

// StreamMismatchError is the failure of a machine offered a recorded
// stream that its own generator would not draw.
type StreamMismatchError struct {
	// What names the first disagreement.
	What string
}

// Error implements error.
func (e *StreamMismatchError) Error() string {
	return "sim: recorded stream does not match this machine: " + e.What
}

// useStream attaches the stream ctx carries, if any, to a machine at its
// warmup boundary: it records the stream if nobody has, or checks that
// the recording is what this machine would generate.
func (m *Machine) useStream(ctx context.Context) error {
	s, _ := ctx.Value(streamCtxKey{}).(*Stream)
	if s == nil || m.stream != nil || m.cfg.Trace != nil || m.globalRef != m.cfg.WarmupRefs {
		return nil
	}
	st := m.gen.State()
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.recorded {
		if err := s.record(m, st); err != nil {
			return err
		}
	} else if err := s.matches(m, st); err != nil {
		return err
	}
	s.replays++
	m.stream = s
	return nil
}

// matches checks that m, at its warmup boundary with generator state
// st, would generate exactly the recorded stream.
func (s *Stream) matches(m *Machine, st workload.GeneratorState) error {
	switch {
	case m.gen.Profile() != s.profile:
		return &StreamMismatchError{What: fmt.Sprintf("workload %s, recorded from %s", m.gen.Profile().Name, s.profile.Name)}
	case !st.Equal(s.state):
		return &StreamMismatchError{What: "generator state at the warmup boundary"}
	case m.globalRef != s.start:
		return &StreamMismatchError{What: fmt.Sprintf("boundary at reference %d, recorded at %d", m.globalRef, s.start)}
	case m.cfg.Refs != len(s.gaps):
		return &StreamMismatchError{What: fmt.Sprintf("%d measured references, recorded %d", m.cfg.Refs, len(s.gaps))}
	case m.cfg.ICache != (s.fetch != nil):
		return &StreamMismatchError{What: "instruction fetches modelled on one side only"}
	}
	return nil
}

// record draws m's measured phase from a clone of its generator, an
// epoch at a time through m's epoch buffer and the same draw a live
// fill uses, and packs it. m's own generator does not move.
func (s *Stream) record(m *Machine, st workload.GeneratorState) error {
	n, icache := m.cfg.Refs, m.cfg.ICache
	data, gaps := make([]uint64, n), make([]uint8, n)
	var fetch []uint64
	if icache {
		fetch = make([]uint64, n)
	}
	g := m.gen.Clone()
	buf := &m.epoch
	if buf.recs == nil {
		buf.alloc()
	}
	for at := 0; at < n; at += len(buf.recs) {
		k := min(epochRefs, n-at)
		buf.recs, buf.ivas, buf.jumps = buf.recs[:k], buf.ivas[:k], buf.jumps[:k]
		m.draw(g, m.globalRef+at, buf, icache)
		for j, rec := range buf.recs {
			if uint64(rec.VA)&dataLow != 0 || rec.Kind > trace.Store {
				return fmt.Errorf("sim: cannot pack generated record %d (%s at %#x)", m.globalRef+at+j, rec.Kind, uint64(rec.VA))
			}
			w := uint64(rec.VA) | uint64(rec.Kind)
			if rec.Dep {
				w |= depBit
			}
			data[at+j], gaps[at+j] = w, rec.Gap
			if icache {
				iva := uint64(buf.ivas[j])
				if iva&fetchLow != 0 {
					return fmt.Errorf("sim: cannot pack generated fetch %d at %#x", m.globalRef+at+j, iva)
				}
				if buf.jumps[j] {
					iva |= jumpedBit
				}
				fetch[at+j] = iva
			}
		}
	}
	s.profile, s.state, s.start = m.gen.Profile(), st, m.globalRef
	s.data, s.gaps, s.fetch = data, gaps, fetch
	s.recorded = true
	return nil
}

// replay fills e with the recorded records of the epoch starting at
// reference g, taking each record's thread from the schedule.
func (s *Stream) replay(e *epochBuf, g int, schedule []int) {
	at := g - s.start
	gaps := s.gaps[at : at+len(e.recs)]
	pos := g % len(schedule)
	for j, w := range s.data[at : at+len(e.recs)] {
		e.recs[j] = trace.Record{
			Kind: trace.Kind(w & storeBit),
			VA:   addr.VAddr(w &^ dataLow),
			TID:  uint8(schedule[pos]),
			Gap:  gaps[j],
			Dep:  w&depBit != 0,
		}
		if pos++; pos == len(schedule) {
			pos = 0
		}
	}
	if s.fetch == nil {
		return
	}
	for j, w := range s.fetch[at : at+len(e.recs)] {
		e.ivas[j], e.jumps[j] = addr.VAddr(w&^fetchLow), w&jumpedBit != 0
	}
}
