package osmm

import (
	"math/rand"
	"testing"

	"seesaw/internal/addr"
	"seesaw/internal/physmem"
)

// builtManager builds a manager with two processes holding superpage,
// base-page, and 1GB mappings, plus a splinter so the chunk records are
// non-trivial.
func builtManager(t *testing.T) (*Manager, *Process, addr.VAddr) {
	t.Helper()
	buddy := physmem.MustNew(2 << 30)
	m := NewManager(buddy, rand.New(rand.NewSource(7)), true)
	p, err := m.NewProcess(1)
	if err != nil {
		t.Fatal(err)
	}
	base, err := m.Mmap(p, 8<<20)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.MmapHuge(p, 4<<20, false); err != nil {
		t.Fatal(err)
	}
	if err := m.Splinter(p, base); err != nil {
		t.Fatal(err)
	}
	p2, err := m.NewProcess(2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Mmap(p2, 2<<20); err != nil {
		t.Fatal(err)
	}
	return m, p, base
}

// freshTwin rebuilds the same manager/process structure without any
// mappings — the "Build from config" half a snapshot restore starts
// from.
func freshTwin(t *testing.T) *Manager {
	t.Helper()
	m := NewManager(physmem.MustNew(2<<30), rand.New(rand.NewSource(7)), true)
	if _, err := m.NewProcess(1); err != nil {
		t.Fatal(err)
	}
	if _, err := m.NewProcess(2); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestManagerStateRoundTrip: a manager restored from a captured state
// translates every mapping identically, preserves the superpage/base
// split per chunk, and keeps the *Process pointer identities.
func TestManagerStateRoundTrip(t *testing.T) {
	m, p, base := builtManager(t)
	m2 := freshTwin(t)
	p2before := m2.Process(1)
	if err := m2.SetState(m.State()); err != nil {
		t.Fatal(err)
	}
	if m2.Process(1) != p2before {
		t.Error("SetState replaced a process instead of mutating it in place")
	}
	if m2.Stats != m.Stats {
		t.Errorf("restored stats %+v, want %+v", m2.Stats, m.Stats)
	}
	rp := m2.Process(1)
	for off := uint64(0); off < 12<<20; off += 1 << 20 {
		va := base + addr.VAddr(off)
		pa0, s0, ok0 := p.PT.Translate(va)
		pa1, s1, ok1 := rp.PT.Translate(va)
		if pa0 != pa1 || s0 != s1 || ok0 != ok1 {
			t.Errorf("Translate(%#x): original %#x/%v/%v, restored %#x/%v/%v",
				uint64(va), uint64(pa0), s0, ok0, uint64(pa1), s1, ok1)
		}
	}
	if got, want := rp.SuperBytes(), p.SuperBytes(); got != want {
		t.Errorf("restored superpage bytes %d, want %d", got, want)
	}
	if got, want := rp.MappedBytes(), p.MappedBytes(); got != want {
		t.Errorf("restored mapped bytes %d, want %d", got, want)
	}
	// The no-huge region mapped after the 8MB one stays unpromotable.
	if err := m2.Promote(rp, base+8<<20); err == nil {
		t.Error("restored manager promoted a region mapped with superpages disallowed")
	}
	if err := m2.Promote(rp, base); err != nil {
		t.Errorf("restored manager cannot promote the splintered chunk: %v", err)
	}
}

// TestManagerStateRejections: process-set mismatches and corrupt nested
// page-table states are rejected.
func TestManagerStateRejections(t *testing.T) {
	m, _, _ := builtManager(t)

	short := freshTwin(t)
	if _, err := short.NewProcess(3); err != nil {
		t.Fatal(err)
	}
	if err := short.SetState(m.State()); err == nil {
		t.Error("accepted a state with the wrong process count")
	}

	renamed := m.State()
	renamed.Procs = append([]ProcessState(nil), renamed.Procs...)
	renamed.Procs[0].ASID = 42
	if err := freshTwin(t).SetState(renamed); err == nil {
		t.Error("accepted a state naming an unknown ASID")
	}

	corrupt := m.State()
	corrupt.Procs = append([]ProcessState(nil), corrupt.Procs...)
	corrupt.Procs[0].PT.Root.ChildIdx = append(corrupt.Procs[0].PT.Root.ChildIdx, 999)
	if err := freshTwin(t).SetState(corrupt); err == nil {
		t.Error("accepted a corrupt nested page-table state")
	}
}

// TestManagerClone: the clone owns its own address spaces — unmapping
// on the clone leaves the original intact.
func TestManagerClone(t *testing.T) {
	m, p, base := builtManager(t)
	buddy2 := m.Buddy.Clone()
	c := m.Clone(buddy2, rand.New(rand.NewSource(7)), nil)
	cp := c.Process(1)
	if cp == p {
		t.Fatal("clone shares a process with the original")
	}
	pa0, s0, ok0 := p.PT.Translate(base)
	pa1, s1, ok1 := cp.PT.Translate(base)
	if pa0 != pa1 || s0 != s1 || ok0 != ok1 {
		t.Errorf("clone translates %#x/%v/%v, original %#x/%v/%v",
			uint64(pa1), s1, ok1, uint64(pa0), s0, ok0)
	}
	c.Munmap(cp, base, 2<<20)
	if _, _, ok := p.PT.Translate(base); !ok {
		t.Error("unmapping on the clone unmapped the original")
	}
	if err := c.Promote(cp, base+8<<20); err == nil {
		t.Error("clone promoted a region mapped with superpages disallowed")
	}
}
