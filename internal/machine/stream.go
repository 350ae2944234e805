package machine

import (
	"context"
	"fmt"
	"sync"

	"seesaw/internal/addr"
	"seesaw/internal/tlb"
	"seesaw/internal/trace"
)

// A Stream is one front end's measured phase, recorded once and
// replayed into the back end of every machine that would have run the
// same front end. The front end never reads an L1 (frontend.go), so
// every cell with the same StreamKey translates the same references and
// raises the same OS events whatever its caches, TFT, coherence or
// clock; the runner gives each group of such cells one Stream. The
// paper works the same way: each workload's trace, OS activity
// included, is recorded once and replayed into every cache design.
//
// A Stream reaches a machine on the context passed to Measure (see
// WithStream). The first machine to measure with it runs its own front
// end into the recording and publishes each epoch as it goes; every
// machine, the recorder included, replays the recording into its own
// back end, following behind the recorder rather than waiting for the
// whole phase. A machine whose front end differs fails with a
// *StreamMismatchError instead of replaying. If the recorder fails,
// times out or is canceled before it finishes, the recording is
// abandoned: a member that has not started measures live, and one
// caught behind it builds its own front end, catches it up over the
// references it already replayed, and goes on live. Warmup, Step,
// traces, cells with metrics or the invariant checker (their hooks
// watch the live front end), a measured phase too long to record (see
// maxRecordingBytes) and any Measure without a stream on its context run
// live.
//
// Each reference packs to 17 bytes: its data address with the access
// kind and dependence flag in the low bits (generated data addresses are
// 8-byte aligned), its gap, and its translation (packXlat); the thread
// comes from the machine's schedule. A modelled instruction fetch adds
// its 4-byte-aligned address with the taken-branch flag in bit 0 and
// its translation. OS events and co-runner references are a list of
// osEvents.
type Stream struct {
	mu   sync.Mutex
	cond sync.Cond

	claimed, recorded, abandoned bool
	replays                      int

	// key is the recorder's front-end key and start its warmup boundary.
	key   string
	start int

	// One entry per measured reference, in reference order, written by
	// the recorder before it publishes them; fetch and fxlat are nil
	// unless the I-cache is modelled.
	data, xlat   []uint64
	gaps         []uint8
	fetch, fxlat []uint64

	// What the recorder has published: the first done references, the
	// events they raised, the promoted frames those events name, and,
	// once recorded, the front end's statistics at the end of the phase.
	done   int
	events []osEvent
	frames []addr.PAddr
	stats  frontStats
}

// maxRecordingBytes caps a recording's per-reference arrays. A group
// whose measured phase would record more runs every member live, so a
// long measured phase costs no more memory than live generation does
// (a recording lives until its group drains).
const maxRecordingBytes = 16 << 20

// recordingBytes is the size of cfg's recording: 17 bytes per measured
// reference, 33 with the I-cache.
func recordingBytes(cfg Config) int {
	per := 17
	if cfg.ICache {
		per += 16
	}
	return cfg.Refs * per
}

// An osEvent is an OS event a recorded reference raised, applied after
// the reference's own accesses in the order the front end raised them.
type osEvent struct {
	at   int32 // the raising reference, counted from the boundary
	kind evKind
	core uint8  // flushTFT and coRef
	gap  uint8  // coRef
	asid uint16 // invlpg
	// invlpg: a is the region base; promote: the old frames are
	// frames[a:b]; coRef: a and b are the packed data word and
	// translation.
	a, b uint64
}

type evKind uint8

const (
	evInvlpg evKind = iota
	evPromote
	evFlushTFT
	evCoRef
)

// Bits packed below an 8-byte-aligned data address and a 4-byte-aligned
// fetch address.
const (
	storeBit  = 1 << 0
	depBit    = 1 << 1
	dataLow   = 7
	jumpedBit = 1 << 0
	fetchLow  = 3
)

// A translation packs into one word: the page size in bits 0-1, the TLB
// source in bits 2-3, FilledL1Super in bit 4, giga in bit 5, superValid+1
// in bits 6-13, the extra cycles in bits 14-25 and the physical frame
// number (PA >> 12) above them; the PA's low 12 bits are the virtual
// address's at every page size.
const (
	xFilledBit  = 1 << 4
	xGigaBit    = 1 << 5
	xSuperShift = 6
	xExtraShift = 14
	xPFNShift   = 26
)

// packData packs a data reference's address, kind and dependence flag.
func packData(rec *trace.Record) (uint64, bool) {
	if uint64(rec.VA)&dataLow != 0 || rec.Kind > trace.Store {
		return 0, false
	}
	w := uint64(rec.VA) | uint64(rec.Kind)
	if rec.Dep {
		w |= depBit
	}
	return w, true
}

// unpackData is packData's inverse for a reference on thread tid.
func unpackData(w uint64, gap uint8, tid int) trace.Record {
	return trace.Record{
		Kind: trace.Kind(w & storeBit),
		VA:   addr.VAddr(w &^ dataLow),
		TID:  uint8(tid),
		Gap:  gap,
		Dep:  w&depBit != 0,
	}
}

// packXlat packs a translation; it fails on a field out of its bits'
// range.
func packXlat(x *xlat) (uint64, bool) {
	pfn := uint64(x.PA) >> 12
	if x.Size < 0 || x.Size > 3 || x.Source < 0 || x.Source > 3 || x.ExtraCycles < 0 || x.ExtraCycles >= 1<<12 ||
		x.superValid < -1 || x.superValid >= 1<<8-1 || pfn >= 1<<(64-xPFNShift) {
		return 0, false
	}
	w := uint64(x.Size) | uint64(x.Source)<<2 | uint64(x.superValid+1)<<xSuperShift |
		uint64(x.ExtraCycles)<<xExtraShift | pfn<<xPFNShift
	if x.FilledL1Super {
		w |= xFilledBit
	}
	if x.giga {
		w |= xGigaBit
	}
	return w, true
}

// unpackXlat is packXlat's inverse for a translation of va.
func unpackXlat(w uint64, va addr.VAddr) xlat {
	return xlat{
		Result: tlb.Result{
			PA:            addr.PAddr(w>>xPFNShift<<12 | uint64(va)&0xfff),
			Size:          addr.PageSize(w & 3),
			Source:        tlb.Source(w >> 2 & 3),
			ExtraCycles:   int(w >> xExtraShift & (1<<12 - 1)),
			FilledL1Super: w&xFilledBit != 0,
		},
		superValid: int(w>>xSuperShift&0xff) - 1,
		giga:       w&xGigaBit != 0,
	}
}

// NewStream returns an empty stream; the first machine that measures
// with it records it.
func NewStream() *Stream {
	s := &Stream{}
	s.cond.L = &s.mu
	return s
}

// streamCtxKey keys a Stream in a context.
type streamCtxKey struct{}

// WithStream returns ctx carrying s: a machine whose Measure starts at
// its warmup boundary under that context replays its measured phase
// from s (recording it first if nobody has).
func WithStream(ctx context.Context, s *Stream) context.Context {
	return context.WithValue(ctx, streamCtxKey{}, s)
}

// Counts reports whether the stream has been recorded to the end and
// how many machines have replayed it, the recorder included.
func (s *Stream) Counts() (recorded bool, replays int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.recorded, s.replays
}

// StreamKey identifies a front end's measured phase: two configs with
// equal keys translate the same references and raise the same OS
// events, in the same order, from their warmup boundary to the end of
// the measured phase. It is the config's canonical key with defaults
// applied and every field only the back end reads cleared: the L1
// design and geometry, the TFT, the coherence mode, prefetch, energy
// prices and the timing-only fields. The zero key is no config's.
type StreamKey struct{ key string }

// StreamKey returns the config's front-end key. ok is false for a trace
// replay, which has no canonical key, and for a config with metrics or
// the invariant checker, whose hooks watch the live front end: such a
// cell never shares one.
func (c Config) StreamKey() (key StreamKey, ok bool) {
	if c.Trace != nil || c.Metrics != nil || c.CheckInvariants {
		return StreamKey{}, false
	}
	d := c.WithDefaults()
	var z Config
	d.CacheKind, d.L1Size, d.L1Ways, d.Partitions = z.CacheKind, z.L1Size, z.L1Ways, z.Partitions
	d.Policy, d.WayPredict, d.Replacement, d.TFT = z.Policy, z.WayPredict, z.Replacement, z.TFT
	d.CoherenceMode, d.Prefetch, d.Prices = z.CoherenceMode, z.Prefetch, z.Prices
	k, _ := timingKey(d)
	return StreamKey{key: k}, true
}

// StreamMismatchError is the failure of a machine offered a recording
// of a front end other than its own.
type StreamMismatchError struct {
	// What names the disagreement.
	What string
}

// Error implements error.
func (e *StreamMismatchError) Error() string {
	return "sim: recorded stream does not match this machine: " + e.What
}

// join attaches a machine with config cfg and front-end key key: the
// first to join claims the recording (record), a later one replays it,
// and one that arrives after the recording was abandoned runs live.
func (s *Stream) join(cfg Config, key string) (record, live bool, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch {
	case !s.claimed:
		n := cfg.Refs
		s.claimed, s.key, s.start = true, key, cfg.WarmupRefs
		s.data, s.xlat, s.gaps = make([]uint64, n), make([]uint64, n), make([]uint8, n)
		if cfg.ICache {
			s.fetch, s.fxlat = make([]uint64, n), make([]uint64, n)
		}
		record = true
	case s.key != key:
		return false, false, &StreamMismatchError{What: fmt.Sprintf(
			"the front end of %s (seed %d, %d+%d references) differs from the recorder's",
			cfg.Workload.Name, cfg.Seed, cfg.WarmupRefs, cfg.Refs)}
	case s.abandoned:
		return false, true, nil
	}
	s.replays++
	return record, false, nil
}

// publish makes the recorder's first done references and their events
// visible to the followers; stats, set with the last reference, marks
// the recording finished.
func (s *Stream) publish(r *recorder, done int, stats *frontStats) {
	s.mu.Lock()
	s.done, s.events, s.frames = done, r.events, r.frames
	if stats != nil {
		s.recorded, s.stats = true, *stats
	}
	s.mu.Unlock()
	s.cond.Broadcast()
}

// abandon marks an unfinished recording dead, waking its followers.
func (s *Stream) abandon() {
	s.mu.Lock()
	s.abandoned = true
	s.mu.Unlock()
	s.cond.Broadcast()
}

// await blocks until the first done references are published and
// returns the events and frames published with them. ok is false when
// the recording was abandoned short of them.
func (s *Stream) await(done int) (events []osEvent, frames []addr.PAddr, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for s.done < done && !s.abandoned {
		s.cond.Wait()
	}
	return s.events, s.frames, s.done >= done
}

// recorder is the sink of a front end recording its measured phase into
// a Stream: each reference is packed at its index and each OS event
// appended in order. The first output it cannot pack sets err, which
// ends the recording.
type recorder struct {
	s      *Stream
	at     int // the reference being recorded, counted from the boundary
	events []osEvent
	frames []addr.PAddr
	err    error
}

func (r *recorder) fail(what string, v uint64) {
	if r.err == nil {
		r.err = fmt.Errorf("sim: cannot pack %s of reference %d (%#x)", what, r.s.start+r.at, v)
	}
}

func (r *recorder) ref(i int, rec *trace.Record, x *xlat) {
	r.at = i - r.s.start
	w, ok := packData(rec)
	if !ok {
		r.fail("generated record", uint64(rec.VA))
	}
	t, ok := packXlat(x)
	if !ok {
		r.fail("translation", uint64(x.PA))
	}
	r.s.data[r.at], r.s.gaps[r.at], r.s.xlat[r.at] = w, rec.Gap, t
}

func (r *recorder) fetch(tid int, iva addr.VAddr, jumped bool, tr *tlb.Result) {
	w := uint64(iva)
	if w&fetchLow != 0 {
		r.fail("generated fetch", w)
	}
	if jumped {
		w |= jumpedBit
	}
	t, ok := packXlat(&xlat{Result: *tr})
	if !ok {
		r.fail("fetch translation", uint64(tr.PA))
	}
	r.s.fetch[r.at], r.s.fxlat[r.at] = w, t
}

func (r *recorder) coRef(c int, rec *trace.Record, x *xlat) {
	w, ok := packData(rec)
	if !ok {
		r.fail("co-runner record", uint64(rec.VA))
	}
	t, ok := packXlat(x)
	if !ok {
		r.fail("co-runner translation", uint64(x.PA))
	}
	r.events = append(r.events, osEvent{at: int32(r.at), kind: evCoRef, core: uint8(c), gap: rec.Gap, a: w, b: t})
}

func (r *recorder) invlpg(asid uint16, vaBase addr.VAddr) {
	r.events = append(r.events, osEvent{at: int32(r.at), kind: evInvlpg, asid: asid, a: uint64(vaBase)})
}

func (r *recorder) promote(oldFrames []addr.PAddr) {
	lo := len(r.frames)
	r.frames = append(r.frames, oldFrames...)
	r.events = append(r.events, osEvent{at: int32(r.at), kind: evPromote, a: uint64(lo), b: uint64(len(r.frames))})
}

func (r *recorder) flushTFT(c int) {
	r.events = append(r.events, osEvent{at: int32(r.at), kind: evFlushTFT, core: uint8(c)})
}

// replay drives be through the recorded references [g, g+n) and, after
// each, the events it raised, starting at event k of the published
// events evs; it returns the event cursor past them.
func (s *Stream) replay(be *backEnd, schedule []int, evs []osEvent, frames []addr.PAddr, k, g, n int) int {
	at := g - s.start
	pos := g % len(schedule)
	for j := at; j < at+n; j++ {
		rec := unpackData(s.data[j], s.gaps[j], schedule[pos])
		x := unpackXlat(s.xlat[j], rec.VA)
		be.ref(s.start+j, &rec, &x)
		if s.fetch != nil {
			w := s.fetch[j]
			iva := addr.VAddr(w &^ fetchLow)
			ix := unpackXlat(s.fxlat[j], iva)
			be.fetch(int(rec.TID), iva, w&jumpedBit != 0, &ix.Result)
		}
		for ; k < len(evs) && int(evs[k].at) == j; k++ {
			ev := &evs[k]
			switch ev.kind {
			case evInvlpg:
				be.invlpg(ev.asid, addr.VAddr(ev.a))
			case evPromote:
				be.promote(frames[ev.a:ev.b])
			case evFlushTFT:
				be.flushTFT(int(ev.core))
			case evCoRef:
				rec := unpackData(ev.a, ev.gap, int(ev.core))
				x := unpackXlat(ev.b, rec.VA)
				be.coRef(int(ev.core), &rec, &x)
			}
		}
		if pos++; pos == len(schedule) {
			pos = 0
		}
	}
	return k
}

// useStream attaches the stream ctx carries, if any, to a machine at its
// warmup boundary whose front end may share one: the first to attach
// records it and readies both halves, the others ready only their back
// end. A machine offered a recording of another front end fails with a
// *StreamMismatchError and attaches nothing.
func (m *Machine) useStream(ctx context.Context) error {
	s, _ := ctx.Value(streamCtxKey{}).(*Stream)
	if s == nil || m.stream != nil || m.globalRef != m.cfg.WarmupRefs {
		return nil
	}
	key, ok := m.cfg.StreamKey()
	if !ok || m.cfg.Refs == 0 || recordingBytes(m.cfg) > maxRecordingBytes {
		return nil
	}
	record, live, err := s.join(m.cfg, key.key)
	if err != nil || live {
		return err
	}
	m.stream, m.evAt = s, 0
	if record {
		m.rec = &recorder{s: s}
	}
	if err := m.ensureBack(); err != nil {
		return err
	}
	if record {
		return m.ensureFront(m.rec)
	}
	return nil
}

// recordEpoch runs the recorder's front end over the next epoch of the
// measured phase into the recording and publishes it, with the front
// end's final statistics after the last epoch. The recorder records the
// whole phase before its back end replays any of it, so its followers
// trail the front end alone.
func (m *Machine) recordEpoch() error {
	r, g := m.rec, m.fe.at
	s, end := r.s, m.cfg.WarmupRefs+m.cfg.Refs
	n := min(epochRefs-g%epochRefs, end-g)
	if _, err := m.frontEpoch(g, n); err != nil {
		return err
	}
	if r.err != nil {
		return r.err
	}
	var stats *frontStats
	if g+n == end {
		st := m.fe.stats()
		stats = &st
		m.rec = nil // finished: nothing left to abandon
	}
	s.publish(r, g+n-s.start, stats)
	return nil
}

// replayEpoch replays the n-reference measured epoch at the cursor from
// the attached recording into the back end, once it is published. It
// reports false, having run nothing, when the recording was abandoned
// short of the epoch.
func (m *Machine) replayEpoch(n int) bool {
	s, g := m.stream, m.globalRef
	evs, frames, ok := s.await(g + n - s.start)
	if !ok {
		return false
	}
	m.evAt = s.replay(m.be, m.schedule, evs, frames, m.evAt, g, n)
	m.globalRef += n
	return true
}

// abandonRecording abandons the recording this machine left
// unfinished, if any, so its followers go on live.
func (m *Machine) abandonRecording() {
	if m.rec != nil {
		m.rec.s.abandon()
		m.rec = nil
	}
}

// leaveStream detaches a recording abandoned short of the cursor and
// readies the machine to go on live. A front end behind the cursor (a
// follower's, built here from its OS half at the boundary) first catches
// up over the references the back end already took from the recording,
// its output discarded: the front end never reads the back end, so it
// reaches exactly the state the recorder's had there.
func (m *Machine) leaveStream() error {
	m.stream, m.rec = nil, nil
	if err := m.ensureFront(discard{}); err != nil {
		return err
	}
	if m.fe.at > m.globalRef {
		return fmt.Errorf("sim: front end stopped at reference %d, past the recording's end at %d", m.fe.at, m.globalRef)
	}
	for g := m.fe.at; g < m.globalRef; {
		n := min(epochRefs-g%epochRefs, m.globalRef-g)
		if _, err := m.frontEpoch(g, n); err != nil {
			return err
		}
		g += n
	}
	return nil
}
