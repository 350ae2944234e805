package machine

import (
	"bytes"
	"compress/flate"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/gob"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"seesaw/internal/osmm"
	"seesaw/internal/physmem"
	"seesaw/internal/workload"
	"seesaw/internal/xrand"
)

// SnapshotSchemaVersion identifies the binary snapshot wire format.
// Bump it whenever the encoded state's shape or meaning changes — any
// new field in a component State struct, a changed serialization order,
// a semantic change to how state is applied. The store folds it into
// every snapshot key and prunes entries whose header disagrees, so old
// rungs are recomputed rather than mis-resumed.
//
// Version 6 encodes each address space as its page table, next VA and
// no-huge regions; version 5 also carried the memory manager's
// per-chunk records (each base page's frame), its explicit 1GB
// mappings and its mapped and superpage byte counts, all of which the
// page table holds, and the table's per-size counts, which its decoder
// now recounts. Since version 5 only the OS half travels, with the
// cursor at or below the warmup boundary; version 4 also carried every
// cache, TLB, directory, CPU and hook state, none of which warmup ever
// changes. Since version 4 no pre-generated records travel (version
// 3's BatchCur/BatchNext): a machine never draws records past its
// reference cursor.
// Since version 3, physical memory is encoded as the buddy's free
// blocks and the memhog's pinned frames only; version 2 also carried
// the buddy's heap arrays and the hog's frame index. Since version 2,
// Config travels as-is, CacheKind as its registry name; version 1
// stored CacheKind as an int enum. Older versions no longer decode.
const SnapshotSchemaVersion = 6

// snapMagic opens every encoded snapshot. The leading byte is
// deliberately non-ASCII so a snapshot is never mistaken for text.
var snapMagic = [8]byte{0x9e, 'S', 'E', 'E', 'S', 'N', 'A', 'P'}

// snapHeaderLen is magic(8) + version(2) + payload length(8) + CRC32(4).
const snapHeaderLen = 8 + 2 + 8 + 4

func crc32Of(b []byte) uint32 { return crc32.ChecksumIEEE(b) }

// maxSnapPayload bounds the declared payload length so a corrupt header
// cannot make the decoder allocate unbounded memory.
const maxSnapPayload = 1 << 32

// Typed snapshot decoding errors. Callers (the store's GC, the ladder's
// resume path, the fuzz battery) distinguish them with errors.Is; none
// of the decode paths panic on hostile input.
var (
	// ErrSnapshotTruncated: the data ends before the header or the
	// declared payload does.
	ErrSnapshotTruncated = errors.New("machine: truncated snapshot")
	// ErrSnapshotCorrupt: bad magic, checksum mismatch, undecodable
	// payload, or decoded state that contradicts its own config.
	ErrSnapshotCorrupt = errors.New("machine: corrupt snapshot")
	// ErrSnapshotSchema: the snapshot was written by a different
	// SnapshotSchemaVersion.
	ErrSnapshotSchema = errors.New("machine: snapshot schema mismatch")
)

// snapshotState is the serialized OS half of a machine: the config it
// was built from, the reference cursor, and the state of every
// component warmup mutates. Decoding builds a machine from the config
// (which re-creates all config-derived structure and wiring) and
// restores each OS component in place, so every cross-component
// pointer — memhog to buddy, manager to page tables — stays valid
// without rewiring. The microarchitecture is never encoded: Resume
// builds it fresh, exactly as at the warmup boundary of a cold run.
type snapshotState struct {
	Cfg       Config
	GlobalRef int

	RNG    xrand.SourceState
	Buddy  physmem.BuddyState
	Hog    *physmem.MemhogState
	Mgr    osmm.ManagerState
	Gen    workload.GeneratorState
	CoGens []workload.GeneratorState
}

// captureState serializes the machine's OS half, which must be built.
func (m *Machine) captureState() *snapshotState {
	fe := m.fe
	st := &snapshotState{
		Cfg:       m.cfg,
		GlobalRef: m.globalRef,
		RNG:       fe.rngSrc.State(),
		Buddy:     fe.buddy.State(),
		Mgr:       fe.mgr.State(),
		Gen:       fe.gen.State(),
	}
	if fe.hog != nil {
		hs := fe.hog.State()
		st.Hog = &hs
	}
	for _, g := range fe.coGens {
		st.CoGens = append(st.CoGens, g.State())
	}
	return st
}

// applyState restores a captured state onto a machine whose OS half
// was freshly built from the same config. Every component is mutated in
// place; any disagreement between the state and the built machine's
// shape is a corruption error, never a panic.
func (m *Machine) applyState(st *snapshotState) error {
	if st.GlobalRef < 0 || st.GlobalRef > m.cfg.WarmupRefs {
		return fmt.Errorf("reference cursor %d outside the warmup phase [0,%d]", st.GlobalRef, m.cfg.WarmupRefs)
	}
	fe := m.fe
	if err := fe.rngSrc.SetState(st.RNG); err != nil {
		return err
	}
	if err := fe.buddy.SetState(st.Buddy); err != nil {
		return err
	}
	if (st.Hog != nil) != (fe.hog != nil) {
		return fmt.Errorf("state and config disagree about a memhog")
	}
	if st.Hog != nil {
		if err := fe.hog.SetState(*st.Hog); err != nil {
			return err
		}
	}
	if err := fe.mgr.SetState(st.Mgr); err != nil {
		return err
	}
	if err := fe.gen.SetState(st.Gen); err != nil {
		return err
	}
	if len(st.CoGens) != len(fe.coGens) {
		return fmt.Errorf("state has %d co-runner generators, machine has %d", len(st.CoGens), len(fe.coGens))
	}
	for i, gs := range st.CoGens {
		if err := fe.coGens[i].SetState(gs); err != nil {
			return err
		}
	}
	m.globalRef = st.GlobalRef
	return nil
}

// MarshalBinary encodes the snapshot into the versioned binary format:
// an integrity header (magic, SnapshotSchemaVersion, payload length,
// CRC32) over a flate-compressed gob of the machine's OS half, config
// included. Encoding is deterministic — no map ranges reach the
// encoder — so equal snapshots produce equal bytes.
func (s *Snapshot) MarshalBinary() ([]byte, error) {
	if err := s.m.ensureOS(); err != nil {
		return nil, err
	}
	st := s.m.captureState()
	var payload bytes.Buffer
	fw, err := flate.NewWriter(&payload, flate.BestSpeed)
	if err != nil {
		return nil, err
	}
	if err := gob.NewEncoder(fw).Encode(st); err != nil {
		return nil, fmt.Errorf("machine: encoding snapshot: %w", err)
	}
	if err := fw.Close(); err != nil {
		return nil, err
	}
	out := make([]byte, snapHeaderLen+payload.Len())
	copy(out, snapMagic[:])
	binary.BigEndian.PutUint16(out[8:], SnapshotSchemaVersion)
	binary.BigEndian.PutUint64(out[10:], uint64(payload.Len()))
	binary.BigEndian.PutUint32(out[18:], crc32Of(payload.Bytes()))
	copy(out[snapHeaderLen:], payload.Bytes())
	return out, nil
}

// PeekSnapshotVersion reads a snapshot's schema version from its header
// without decoding the payload — the store's GC pass uses it to prune
// stale rungs by reading a handful of bytes per file.
func PeekSnapshotVersion(data []byte) (int, error) {
	if len(data) < snapHeaderLen {
		return 0, ErrSnapshotTruncated
	}
	if !bytes.Equal(data[:8], snapMagic[:]) {
		return 0, fmt.Errorf("%w: bad magic", ErrSnapshotCorrupt)
	}
	return int(binary.BigEndian.Uint16(data[8:10])), nil
}

// UnmarshalBinary decodes data into s: the header is verified (magic,
// schema version, length, checksum), the state payload decoded, a fresh
// machine built from the embedded config, and every OS component
// restored in place. All failures return typed errors (ErrSnapshotTruncated,
// ErrSnapshotSchema, ErrSnapshotCorrupt); hostile input never panics
// and never yields a machine that would silently mis-resume.
func (s *Snapshot) UnmarshalBinary(data []byte) (err error) {
	v, err := PeekSnapshotVersion(data)
	if err != nil {
		return err
	}
	if v != SnapshotSchemaVersion {
		return fmt.Errorf("%w: snapshot v%d, binary v%d", ErrSnapshotSchema, v, SnapshotSchemaVersion)
	}
	plen := binary.BigEndian.Uint64(data[10:18])
	if plen > maxSnapPayload {
		return fmt.Errorf("%w: declared payload of %d bytes", ErrSnapshotCorrupt, plen)
	}
	if uint64(len(data)-snapHeaderLen) < plen {
		return ErrSnapshotTruncated
	}
	payload := data[snapHeaderLen : snapHeaderLen+int(plen)]
	if crc32Of(payload) != binary.BigEndian.Uint32(data[18:22]) {
		return fmt.Errorf("%w: checksum mismatch", ErrSnapshotCorrupt)
	}
	// gob and flate are not guaranteed panic-free on adversarial input;
	// the battery fuzzes this path, so convert panics into the typed
	// corruption error instead of crashing the decoder's process.
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%w: decode panic: %v", ErrSnapshotCorrupt, r)
		}
	}()
	var st snapshotState
	fr := flate.NewReader(bytes.NewReader(payload))
	if derr := gob.NewDecoder(io.LimitReader(fr, maxSnapPayload)).Decode(&st); derr != nil {
		return fmt.Errorf("%w: %v", ErrSnapshotCorrupt, derr)
	}
	// Build validates the whole config, so one whose microarchitecture
	// cannot be built is corrupt here, never a failure after Resume.
	m, berr := Build(st.Cfg)
	if berr == nil {
		berr = m.ensureOS()
	}
	if berr != nil {
		return fmt.Errorf("%w: embedded config: %v", ErrSnapshotCorrupt, berr)
	}
	if aerr := m.applyState(&st); aerr != nil {
		return fmt.Errorf("%w: %v", ErrSnapshotCorrupt, aerr)
	}
	s.m = m
	return nil
}

// UnmarshalSnapshot decodes an encoded snapshot. See
// Snapshot.UnmarshalBinary for the error contract.
func UnmarshalSnapshot(data []byte) (*Snapshot, error) {
	s := &Snapshot{}
	if err := s.UnmarshalBinary(data); err != nil {
		return nil, err
	}
	return s, nil
}

// Ref returns the reference index the snapshot was taken at — the rung
// depth when it lives in the store's ladder.
func (s *Snapshot) Ref() int { return s.m.globalRef }

// Signature returns the warmup signature of the snapshot's config.
func (s *Snapshot) Signature() WarmupSignature { return s.m.cfg.WarmupSignature() }

// Ref returns the machine's current reference index: references
// [0, WarmupRefs) are the warmup phase, [WarmupRefs, WarmupRefs+Refs)
// the measured phase.
func (m *Machine) Ref() int { return m.globalRef }

// WarmupTo advances the warmup phase to reference n (at most the warmup
// boundary), so ladder climbers can warm in rung-sized chunks and
// snapshot between them. It is a no-op if the machine is already at or
// past n; Warmup(ctx) is WarmupTo(ctx, WarmupRefs).
func (m *Machine) WarmupTo(ctx context.Context, n int) error {
	if n > m.cfg.WarmupRefs {
		return fmt.Errorf("sim: warmup target %d beyond the warmup boundary %d", n, m.cfg.WarmupRefs)
	}
	if n <= m.globalRef {
		return nil
	}
	return m.run(ctx, n)
}

// PrefixHash is the content address of this config's warmup prefix: hex
// SHA-256 over the warmup signature and the snapshot schema version.
// Two configs share a prefix hash exactly when a warmup rung computed
// for one resumes the other bit-identically, so the store keys machine
// snapshots by (PrefixHash, refs). Folding SnapshotSchemaVersion in
// means a binary whose snapshot format changed looks at fresh keys.
func (c Config) PrefixHash() string {
	h := sha256.New()
	fmt.Fprintf(h, "seesaw-snap-v%d|%+v", SnapshotSchemaVersion, c.WarmupSignature())
	return hex.EncodeToString(h.Sum(nil))
}
