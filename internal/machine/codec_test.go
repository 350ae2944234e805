package machine

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"testing"

	"seesaw/internal/faults"
	"seesaw/internal/metrics"
	"seesaw/internal/workload"
)

// hookedConfig is testConfig with every hook attached: a resumed
// machine must build its recorder, checker, and injector fresh, exactly
// as a cold run reaches its measured phase with them.
func hookedConfig(t *testing.T, kind CacheKind) Config {
	t.Helper()
	cfg := testConfig(t, kind)
	cfg.CheckInvariants = true
	cfg.Metrics = &metrics.Config{EpochRefs: 5_000}
	cfg.Faults = &faults.Config{Schedule: "mix", Every: 6_000}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	return cfg
}

// encodeDecode round-trips a snapshot through the binary codec.
func encodeDecode(t *testing.T, snap *Snapshot) *Snapshot {
	t.Helper()
	data, err := snap.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	got, err := UnmarshalSnapshot(data)
	if err != nil {
		t.Fatal(err)
	}
	return got
}

// osHeavyConfig is hookedConfig with every OS-side option that shapes
// the warm image turned on at once: instruction caches over a
// transparently huge text region, a co-runner address space that
// context switches take real timeslices from, and 70% of memory pinned
// by memhog.
func osHeavyConfig(t *testing.T, kind CacheKind) Config {
	t.Helper()
	cfg := hookedConfig(t, kind)
	co, err := workload.ByName("astar")
	if err != nil {
		t.Fatal(err)
	}
	cfg.ICache = true
	cfg.TextHuge = true
	cfg.CoRunner = &co
	cfg.ContextSwitchEvery = 10_000
	cfg.CoRunSliceRefs = 500
	cfg.MemhogFraction = 0.7
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	return cfg
}

// TestCodecRoundTripMidEpoch is the differential battery's core case:
// for every registered cache design, with every hook attached, and
// again with I-cache, co-runner and heavy memhog, a machine is stopped
// mid-warmup (inside an epoch, off every rung and cadence boundary),
// snapshotted, encoded, decoded, resumed, warmed to the boundary and
// measured — and the report must match a cold run byte for byte, from
// a config equal to the original field for field. A direct (unencoded)
// resume is compared too, so a failure distinguishes "the OS copy is
// wrong" from "the codec is wrong". This is the codec leg of the zoo
// conformance battery (see zoo_test.go).
func TestCodecRoundTripMidEpoch(t *testing.T) {
	for _, name := range DesignNames() {
		t.Run(name, func(t *testing.T) {
			for _, variant := range []struct {
				name string
				cfg  func(*testing.T, CacheKind) Config
			}{{"hooked", hookedConfig}, {"os-heavy", osHeavyConfig}} {
				cfg := variant.cfg(t, CacheKind(name))
				want := reportText(t, mustBuild(t, cfg))

				m := mustBuild(t, cfg)
				if err := m.WarmupTo(context.Background(), 12_345); err != nil {
					t.Fatal(err)
				}
				snap, err := m.Snapshot()
				if err != nil {
					t.Fatal(err)
				}
				if got := reportText(t, snap.Resume()); !bytes.Equal(want, got) {
					t.Errorf("%s: direct resume differs from the cold run:\nwant:\n%s\ngot:\n%s", variant.name, want, got)
				}
				dec := encodeDecode(t, snap)
				if !reflect.DeepEqual(dec.m.cfg, snap.m.cfg) {
					t.Errorf("%s: decoded config differs:\nwant %+v\ngot  %+v", variant.name, snap.m.cfg, dec.m.cfg)
				}
				if dec.Ref() != 12_345 {
					t.Errorf("%s: decoded snapshot sits at ref %d, want 12345", variant.name, dec.Ref())
				}
				if got := reportText(t, dec.Resume()); !bytes.Equal(want, got) {
					t.Errorf("%s: decoded resume differs from the cold run:\nwant:\n%s\ngot:\n%s", variant.name, want, got)
				}
			}
		})
	}
}

// TestConfigWireRoundTrip: the config a snapshot carries on the wire
// decodes to the built machine's config field for field, for every
// registered design, with every hook's config (the pointer fields) set.
// The snapshot is taken before warmup, so this isolates the config leg
// of the codec from the component state TestCodecRoundTripMidEpoch
// exercises.
func TestConfigWireRoundTrip(t *testing.T) {
	for _, name := range DesignNames() {
		m, err := Build(hookedConfig(t, CacheKind(name)))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		snap, err := m.Snapshot()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := encodeDecode(t, snap).Resume().Config(); !reflect.DeepEqual(m.Config(), got) {
			t.Errorf("%s: wire round trip changed the config:\nin:  %+v\nout: %+v", name, m.Config(), got)
		}
	}
}

// TestCodecDeterministic: encoding the same snapshot twice — and
// encoding its own decode — yields identical bytes. The ladder's
// crash-resume guarantee ("restart produces a byte-identical table")
// leans on the codec never ranging over a map.
func TestCodecDeterministic(t *testing.T) {
	cfg := hookedConfig(t, KindSeesaw)
	m := warmMaster(t, cfg)
	snap, err := m.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	a, err := snap.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	b, err := snap.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Error("two encodings of one snapshot differ")
	}
	dec, err := UnmarshalSnapshot(a)
	if err != nil {
		t.Fatal(err)
	}
	c, err := dec.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, c) {
		t.Error("re-encoding a decoded snapshot changes the bytes")
	}
}

// TestCodecMetadata: the header peek, the rung depth, and the signature
// survive the round trip; the prefix hash separates configs by warmup
// identity only.
func TestCodecMetadata(t *testing.T) {
	cfg := testConfig(t, KindSeesaw)
	m := warmMaster(t, cfg)
	snap, err := m.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	data, err := snap.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if v, err := PeekSnapshotVersion(data); err != nil || v != SnapshotSchemaVersion {
		t.Errorf("PeekSnapshotVersion = %d, %v; want %d, nil", v, err, SnapshotSchemaVersion)
	}
	if snap.Ref() != cfg.WarmupRefs {
		t.Errorf("snapshot rung = %d, want the warmup boundary %d", snap.Ref(), cfg.WarmupRefs)
	}
	dec, err := UnmarshalSnapshot(data)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Ref() != snap.Ref() || dec.Signature() != snap.Signature() {
		t.Error("decoded snapshot's rung or signature differs from the encoded one's")
	}

	// Measured-phase parameters must not move the prefix hash; warmup
	// parameters must.
	other := testConfig(t, KindPIPT)
	if cfg.PrefixHash() != other.PrefixHash() {
		t.Error("cache kind changed the prefix hash; it is a measured-phase parameter")
	}
	reseeded := cfg
	reseeded.Seed = 43
	if cfg.PrefixHash() == reseeded.PrefixHash() {
		t.Error("seed did not change the prefix hash")
	}
}

// TestCodecErrors: every class of damaged input maps to its typed
// error, and none of them panic.
func TestCodecErrors(t *testing.T) {
	cfg := testConfig(t, KindBaseline)
	m := warmMaster(t, cfg)
	snap, err := m.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	data, err := snap.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name string
		data []byte
		want error
	}{
		{"empty", nil, ErrSnapshotTruncated},
		{"header only", data[:snapHeaderLen], ErrSnapshotTruncated},
		{"half payload", data[:snapHeaderLen+(len(data)-snapHeaderLen)/2], ErrSnapshotTruncated},
		{"bad magic", append([]byte("NOTASNAP"), data[8:]...), ErrSnapshotCorrupt},
		{"version skew", func() []byte {
			d := append([]byte(nil), data...)
			d[8], d[9] = 0xff, 0xfe
			return d
		}(), ErrSnapshotSchema},
		{"retired version 1", func() []byte {
			d := append([]byte(nil), data...)
			d[8], d[9] = 0, 1
			return d
		}(), ErrSnapshotSchema},
		{"retired version 5", func() []byte {
			d := append([]byte(nil), data...)
			d[8], d[9] = 0, 5
			return d
		}(), ErrSnapshotSchema},
		{"unregistered design", func() []byte {
			bad := snap.Resume()
			bad.cfg.CacheKind = "no-such-design"
			d, err := (&Snapshot{m: bad}).MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			return d
		}(), ErrSnapshotCorrupt},
		{"cursor past boundary", func() []byte {
			// A well-formed payload whose cursor sits inside the
			// measured phase: the microarchitecture it would need is
			// not in the snapshot, so the decoder must refuse it.
			bad := snap.Resume()
			bad.globalRef = cfg.WarmupRefs + 1
			d, err := (&Snapshot{m: bad}).MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			return d
		}(), ErrSnapshotCorrupt},
		{"flipped payload byte", func() []byte {
			d := append([]byte(nil), data...)
			d[len(d)/2] ^= 0x40
			return d
		}(), ErrSnapshotCorrupt},
		{"flipped checksum", func() []byte {
			d := append([]byte(nil), data...)
			d[20] ^= 0x01
			return d
		}(), ErrSnapshotCorrupt},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := UnmarshalSnapshot(tc.data); !errors.Is(err, tc.want) {
				t.Errorf("got err %v, want %v", err, tc.want)
			}
		})
	}
}

// TestWarmupTo: climbing the warmup in chunks lands on the same state
// as one uninterrupted warmup — the resumed-from-rung continuation is
// byte-identical to the cold run — and the boundary/ordering rules
// hold.
func TestWarmupTo(t *testing.T) {
	ctx := context.Background()
	cfg := testConfig(t, KindSeesaw)
	cold, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := reportText(t, cold)

	m, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, rung := range []int{5_000, 12_000, cfg.WarmupRefs} {
		if err := m.WarmupTo(ctx, rung); err != nil {
			t.Fatal(err)
		}
		if m.Ref() != rung {
			t.Fatalf("after WarmupTo(%d), Ref() = %d", rung, m.Ref())
		}
		// Round-trip the mid-warmup machine through the codec and keep
		// climbing on the decoded copy — exactly the ladder's resume path.
		snap, err := m.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		m = encodeDecode(t, snap).Resume()
		if m.Ref() != rung {
			t.Fatalf("decoded rung sits at %d, want %d", m.Ref(), rung)
		}
	}
	if err := m.WarmupTo(ctx, 5_000); err != nil {
		t.Errorf("WarmupTo below the cursor should be a no-op, got %v", err)
	}
	if err := m.WarmupTo(ctx, cfg.WarmupRefs+1); err == nil {
		t.Error("WarmupTo past the warmup boundary did not fail")
	}
	if err := m.Measure(ctx); err != nil {
		t.Fatal(err)
	}
	r, err := m.Report()
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := r.WriteText(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, got.Bytes()) {
		t.Errorf("ladder-climbed run differs from cold run:\ncold:\n%s\nladdered:\n%s", want, got.Bytes())
	}
}

// FuzzSnapshotCodec throws arbitrary and systematically damaged bytes
// at the decoder: it must never panic, must return one of the typed
// errors on anything it rejects, and anything it accepts must sit at or
// below its warmup boundary and actually run. Seeded with genuine
// encoded snapshots, one at the boundary and one mid-warmup, so
// mutations explore the interesting region around valid input.
func FuzzSnapshotCodec(f *testing.F) {
	p, err := workload.ByName("redis")
	if err != nil {
		f.Fatal(err)
	}
	cfg := Config{
		Workload:   p,
		Seed:       7,
		Refs:       400,
		WarmupRefs: 300,
		CacheKind:  KindSeesaw,
		L1Size:     32 << 10,
		FreqGHz:    1.33,
		CPUKind:    "inorder",
		MemBytes:   512 << 20,
	}
	if err := cfg.Validate(); err != nil {
		f.Fatal(err)
	}
	m, err := Build(cfg)
	if err != nil {
		f.Fatal(err)
	}
	if err := m.Warmup(context.Background()); err != nil {
		f.Fatal(err)
	}
	snap, err := m.Snapshot()
	if err != nil {
		f.Fatal(err)
	}
	valid, err := snap.MarshalBinary()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)-3])
	f.Add([]byte{})
	f.Add(snapMagic[:])
	corrupt := append([]byte(nil), valid...)
	corrupt[len(corrupt)/3] ^= 0x80
	f.Add(corrupt)
	mid, err := Build(cfg)
	if err != nil {
		f.Fatal(err)
	}
	if err := mid.WarmupTo(context.Background(), 123); err != nil {
		f.Fatal(err)
	}
	midSnap, err := mid.Snapshot()
	if err != nil {
		f.Fatal(err)
	}
	rung, err := midSnap.MarshalBinary()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(rung)

	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := UnmarshalSnapshot(data)
		if err != nil {
			if !errors.Is(err, ErrSnapshotTruncated) && !errors.Is(err, ErrSnapshotCorrupt) &&
				!errors.Is(err, ErrSnapshotSchema) {
				t.Fatalf("decoder returned an untyped error: %v", err)
			}
			return
		}
		// Accepted input must lie inside the warmup phase, yield a
		// machine that can run a few references, and re-encode without
		// failing.
		if s.Ref() < 0 || s.Ref() > s.m.cfg.WarmupRefs {
			t.Fatalf("decoder accepted cursor %d outside the warmup phase [0,%d]", s.Ref(), s.m.cfg.WarmupRefs)
		}
		re := s.Resume()
		total := re.Config().WarmupRefs + re.Config().Refs
		for i := 0; i < 50 && re.Ref() < total; i++ {
			if err := re.Step(); err != nil {
				t.Fatalf("decoded machine failed to step: %v", err)
			}
		}
		if _, err := s.MarshalBinary(); err != nil {
			t.Fatalf("decoded snapshot failed to re-encode: %v", err)
		}
	})
}
