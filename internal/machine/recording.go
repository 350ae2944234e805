package machine

import (
	"context"
	"fmt"

	"seesaw/internal/addr"
	"seesaw/internal/tlb"
	"seesaw/internal/trace"
)

// A recording is one front end's measured phase, captured once so that a
// group's pass (group.go) replays it into the back end of every cell
// that would have run the same front end. The front end never reads an
// L1 (frontend.go), so every cell with the same GroupKey translates the
// same references and raises the same OS events whatever its caches,
// TFT, coherence or clock. The paper works the same way: each workload's
// trace, OS activity included, is recorded once and replayed into every
// cache design.
//
// Each reference packs to 17 bytes: its data address with the access
// kind and dependence flag in the low bits (generated data addresses are
// 8-byte aligned), its gap, and its translation (packXlat); the thread
// comes from the machine's schedule. A modelled instruction fetch adds
// its 4-byte-aligned address with the taken-branch flag in bit 0 and
// its translation. OS events and co-runner references are a list of
// osEvents.
type recording struct {
	// start is the warmup boundary, the first recorded reference.
	start int

	// One entry per measured reference, in reference order; fetch and
	// fxlat are nil unless the I-cache is modelled.
	data, xlat   []uint64
	gaps         []uint8
	fetch, fxlat []uint64

	// The events the references raised, in order, the promoted frames
	// those events name, and the front end's statistics at the end of
	// the phase.
	events []osEvent
	frames []addr.PAddr
	stats  frontStats
}

// maxRecordingBytes caps a recording's per-reference arrays. A config
// whose measured phase would record more groups only with its timing
// siblings (GroupKey), whose pass runs live, so a long measured phase
// costs no more memory than live generation does.
const maxRecordingBytes = 16 << 20

// recordingBytes is the size of the recording of cfg (defaults applied):
// 17 bytes per measured reference, 33 with the I-cache.
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

// newRecording returns an empty recording of cfg's measured phase.
func newRecording(cfg Config) *recording {
	n := cfg.Refs
	r := &recording{start: cfg.WarmupRefs, data: make([]uint64, n), xlat: make([]uint64, n), gaps: make([]uint8, n)}
	if cfg.ICache {
		r.fetch, r.fxlat = make([]uint64, n), make([]uint64, n)
	}
	return r
}

// recorder is the sink of a front end recording its measured phase: each
// reference is packed at its index and each OS event appended in order.
// The first output it cannot pack sets err, which ends the recording.
type recorder struct {
	r   *recording
	at  int // the reference being recorded, counted from the boundary
	err error
}

func (w *recorder) fail(what string, v uint64) {
	if w.err == nil {
		w.err = fmt.Errorf("sim: cannot pack %s of reference %d (%#x)", what, w.r.start+w.at, v)
	}
}

func (w *recorder) ref(i int, rec *trace.Record, x *xlat) {
	w.at = i - w.r.start
	d, ok := packData(rec)
	if !ok {
		w.fail("generated record", uint64(rec.VA))
	}
	t, ok := packXlat(x)
	if !ok {
		w.fail("translation", uint64(x.PA))
	}
	w.r.data[w.at], w.r.gaps[w.at], w.r.xlat[w.at] = d, rec.Gap, t
}

func (w *recorder) fetch(tid int, iva addr.VAddr, jumped bool, tr *tlb.Result) {
	f := uint64(iva)
	if f&fetchLow != 0 {
		w.fail("generated fetch", f)
	}
	if jumped {
		f |= jumpedBit
	}
	t, ok := packXlat(&xlat{Result: *tr})
	if !ok {
		w.fail("fetch translation", uint64(tr.PA))
	}
	w.r.fetch[w.at], w.r.fxlat[w.at] = f, t
}

func (w *recorder) coRef(c int, rec *trace.Record, x *xlat) {
	d, ok := packData(rec)
	if !ok {
		w.fail("co-runner record", uint64(rec.VA))
	}
	t, ok := packXlat(x)
	if !ok {
		w.fail("co-runner translation", uint64(x.PA))
	}
	w.event(osEvent{kind: evCoRef, core: uint8(c), gap: rec.Gap, a: d, b: t})
}

func (w *recorder) invlpg(asid uint16, vaBase addr.VAddr) {
	w.event(osEvent{kind: evInvlpg, asid: asid, a: uint64(vaBase)})
}

func (w *recorder) promote(oldFrames []addr.PAddr) {
	lo := len(w.r.frames)
	w.r.frames = append(w.r.frames, oldFrames...)
	w.event(osEvent{kind: evPromote, a: uint64(lo), b: uint64(len(w.r.frames))})
}

func (w *recorder) flushTFT(c int) {
	w.event(osEvent{kind: evFlushTFT, core: uint8(c)})
}

// event appends ev, raised by the reference being recorded.
func (w *recorder) event(ev osEvent) {
	ev.at = int32(w.at)
	w.r.events = append(w.r.events, ev)
}

// record runs the machine's front end, at its warmup boundary, over the
// whole measured phase into a new recording, polling ctx before each
// epoch.
func (m *Machine) record(ctx context.Context) (*recording, error) {
	r := newRecording(m.cfg)
	w := &recorder{r: r}
	if err := m.ensureFront(w); err != nil {
		return nil, err
	}
	end := m.cfg.WarmupRefs + m.cfg.Refs
	for g := m.fe.at; g < end; {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		n := min(epochRefs-g%epochRefs, end-g)
		if _, err := m.frontEpoch(g, n); err != nil {
			return nil, err
		}
		if w.err != nil {
			return nil, w.err
		}
		g += n
	}
	r.stats = m.fe.stats()
	return r, nil
}

// replay drives be through the recorded references [g, g+n) and, after
// each, the events it raised, starting at event k; it returns the event
// cursor past them.
func (r *recording) replay(be *backEnd, schedule []int, k, g, n int) int {
	at := g - r.start
	pos := g % len(schedule)
	for j := at; j < at+n; j++ {
		rec := unpackData(r.data[j], r.gaps[j], schedule[pos])
		x := unpackXlat(r.xlat[j], rec.VA)
		be.ref(r.start+j, &rec, &x)
		if r.fetch != nil {
			w := r.fetch[j]
			iva := addr.VAddr(w &^ fetchLow)
			ix := unpackXlat(r.fxlat[j], iva)
			be.fetch(int(rec.TID), iva, w&jumpedBit != 0, &ix.Result)
		}
		for ; k < len(r.events) && int(r.events[k].at) == j; k++ {
			ev := &r.events[k]
			switch ev.kind {
			case evInvlpg:
				be.invlpg(ev.asid, addr.VAddr(ev.a))
			case evPromote:
				be.promote(r.frames[ev.a:ev.b])
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

// replayAll replays the whole recording into be an epoch at a time,
// calling poll before each epoch and stopping at its first error.
func (r *recording) replayAll(be *backEnd, schedule []int, poll func() error) error {
	end := r.start + len(r.gaps)
	for g, k := r.start, 0; g < end; {
		if err := poll(); err != nil {
			return err
		}
		n := min(epochRefs-g%epochRefs, end-g)
		k = r.replay(be, schedule, k, g, n)
		g += n
	}
	return nil
}
