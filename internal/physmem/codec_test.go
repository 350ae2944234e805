package physmem

import (
	"encoding/binary"
	"math/rand"
	"testing"

	"seesaw/internal/addr"
)

// The fragmented fixture's memory is not a power of two, so an aligned
// top-order block can run past its end; fragBase is where its second,
// smaller initial block starts.
const (
	fragBytes = 96 << 20
	fragBase  = 1 << 14
)

// fragmented builds a buddy with non-trivial free-block structure: a mix
// of allocations and frees that forces splits and leaves holes. Memory
// starts as an order-14 block at frame 0 and an order-13 block at
// fragBase; the allocations split the smaller one, so frames
// fragBase..fragBase+39 are allocated and every third one freed again,
// and a 2MB page follows them.
func fragmented(t *testing.T) *Buddy {
	t.Helper()
	b, err := New(fragBytes)
	if err != nil {
		t.Fatal(err)
	}
	var frames []addr.PAddr
	for i := 0; i < 40; i++ {
		pa, ok := b.Alloc(addr.Page4K)
		if !ok {
			t.Fatal("allocation failed")
		}
		frames = append(frames, pa)
	}
	if _, ok := b.Alloc(addr.Page2M); !ok {
		t.Fatal("2MB allocation failed")
	}
	for i := 0; i < len(frames); i += 3 {
		b.Free(frames[i], addr.Page4K)
	}
	return b
}

// TestBuddyStateRoundTrip: an allocator restored from a captured state
// has the same free memory and hands out the same frames in the same
// order.
func TestBuddyStateRoundTrip(t *testing.T) {
	b := fragmented(t)
	fresh := MustNew(fragBytes)
	if err := fresh.SetState(b.State()); err != nil {
		t.Fatal(err)
	}
	if fresh.FreeBytes() != b.FreeBytes() {
		t.Fatalf("restored FreeBytes %d, want %d", fresh.FreeBytes(), b.FreeBytes())
	}
	if err := fresh.checkInvariants(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		size := addr.Page4K
		if i%10 == 9 {
			size = addr.Page2M
		}
		pa0, ok0 := b.Alloc(size)
		pa1, ok1 := fresh.Alloc(size)
		if pa0 != pa1 || ok0 != ok1 {
			t.Fatalf("alloc %d diverged: original %#x/%v, restored %#x/%v",
				i, uint64(pa0), ok0, uint64(pa1), ok1)
		}
	}
}

// TestBuddyStateRejections: states from a different geometry, with
// inconsistent free-block arrays, or whose blocks do not describe a
// memory (misaligned, out of range, overlapping, miscounted) are
// rejected, and a rejected state leaves the allocator untouched.
func TestBuddyStateRejections(t *testing.T) {
	b := fragmented(t)

	if err := MustNew(32 << 20).SetState(b.State()); err == nil {
		t.Error("accepted a state from a larger memory")
	}

	// block finds the free block headed by frame; each case below edits
	// one block and keeps FreeCount consistent with the edit, so only
	// the property under test is wrong.
	block := func(s BuddyState, frame uint64) int {
		t.Helper()
		for i, f := range s.FreeFrames {
			if f == frame {
				return i
			}
		}
		t.Fatalf("no free block at frame %d", frame)
		return 0
	}
	grow := func(s *BuddyState, i, order int) {
		s.FreeCount += 1<<order - 1<<s.FreeOrders[i]
		s.FreeOrders[i] = order
	}
	for _, tc := range []struct {
		name string
		mut  func(*BuddyState)
	}{
		{"mismatched free-block arrays", func(s *BuddyState) { s.FreeFrames = s.FreeFrames[:len(s.FreeFrames)-1] }},
		{"a free frame beyond the memory", func(s *BuddyState) { s.FreeFrames[len(s.FreeFrames)-1] = s.TotalFrames }},
		{"a free order past the allocator's maximum", func(s *BuddyState) { s.FreeOrders[0] = Order1G + 1 }},
		{"a negative free order", func(s *BuddyState) { s.FreeOrders[0] = -1 }},
		{"a misaligned block", func(s *BuddyState) { grow(s, block(*s, fragBase+3), 1) }},
		// An order-14 block at fragBase is aligned but runs past the
		// memory's end at 1.5 × fragBase.
		{"a block running past the end of memory", func(s *BuddyState) {
			i := block(*s, fragBase)
			s.FreeFrames, s.FreeOrders = s.FreeFrames[:i+1], s.FreeOrders[:i+1]
			s.FreeOrders[i] = 14
			s.FreeCount = 2 * fragBase
		}},
		{"a block overlapping its neighbour", func(s *BuddyState) { grow(s, block(*s, fragBase), 2) }},
		{"a repeated block", func(s *BuddyState) {
			s.FreeFrames = append(s.FreeFrames[:2:2], s.FreeFrames[1:]...)
			s.FreeOrders = append(s.FreeOrders[:2:2], s.FreeOrders[1:]...)
			s.FreeCount += 1 << s.FreeOrders[1]
		}},
		{"a free count that disagrees with the blocks", func(s *BuddyState) { s.FreeCount++ }},
	} {
		st := b.State()
		tc.mut(&st)
		dst := MustNew(fragBytes)
		if err := dst.SetState(st); err == nil {
			t.Errorf("accepted %s", tc.name)
		}
		if dst.FreeBytes() != fragBytes || dst.checkInvariants() != nil {
			t.Errorf("rejecting %s changed the allocator", tc.name)
		}
	}
}

// TestMemhogStateRoundTrip: a hog restored from a captured state holds
// the same pinned set and compacts identically.
func TestMemhogStateRoundTrip(t *testing.T) {
	b := MustNew(64 << 20)
	h, err := Run(b, rand.New(rand.NewSource(7)), 0.3, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	h.Compact()

	b2 := MustNew(64 << 20)
	if err := b2.SetState(b.State()); err != nil {
		t.Fatal(err)
	}
	h2, err := Run(b2, rand.New(rand.NewSource(99)), 0, 0) // empty hog over matching memory
	if err != nil {
		t.Fatal(err)
	}
	if err := h2.SetState(h.State()); err != nil {
		t.Fatal(err)
	}
	if h2.Migrations != h.Migrations || h2.Compactions != h.Compactions {
		t.Errorf("restored counters %d/%d, want %d/%d",
			h2.Migrations, h2.Compactions, h.Migrations, h.Compactions)
	}
	// Note: b2's state was captured before h2's restore, so both buddies
	// and both hogs now agree; compaction must behave the same way.
	if got, want := h2.Compact(), h.Compact(); got != want {
		t.Errorf("restored hog compaction = %v, original = %v", got, want)
	}
}

// TestMemhogStateRejections: a frame outside memory, a frame pinned
// twice and a negative cursor are corrupt states, and rejecting them
// leaves the hog untouched.
func TestMemhogStateRejections(t *testing.T) {
	b := MustNew(64 << 20)
	h, err := Run(b, rand.New(rand.NewSource(7)), 0.2, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	pinned := h.PinnedBytes()

	beyond := h.State()
	beyond.Frames[0] = b.TotalBytes() / 4096
	if err := h.SetState(beyond); err == nil {
		t.Error("accepted a pinned frame beyond the memory")
	}

	twice := h.State()
	twice.Frames[1] = twice.Frames[0]
	if err := h.SetState(twice); err == nil {
		t.Error("accepted a frame pinned twice")
	}

	cursor := h.State()
	cursor.Cursor = -1
	if err := h.SetState(cursor); err == nil {
		t.Error("accepted a negative cursor")
	}

	if h.PinnedBytes() != pinned {
		t.Errorf("rejected states changed the hog's pinned memory: %d -> %d", pinned, h.PinnedBytes())
	}
	if err := h.checkInvariants(); err != nil {
		t.Errorf("rejected states left the hog inconsistent: %v", err)
	}
}

// fuzzBytes is small, and not a power of two, so fuzzed blocks can run
// past the end of memory.
const fuzzBytes = 6 << 20

// FuzzBuddyState feeds arbitrary free blocks and free counts to
// SetState. Each 3-byte group of blocks is a little-endian uint16 head
// frame and a signed order byte. A state must either be rejected with
// an error, or yield an allocator whose bookkeeping recounts cleanly and
// that survives a fixed allocate, fragment, compact and free script.
func FuzzBuddyState(f *testing.F) {
	encode := func(s BuddyState) []byte {
		var out []byte
		for i, fr := range s.FreeFrames {
			out = binary.LittleEndian.AppendUint16(out, uint16(fr))
			out = append(out, byte(int8(s.FreeOrders[i])))
		}
		return out
	}
	b := MustNew(fuzzBytes)
	f.Add(encode(b.State()), b.State().FreeCount)
	var held []uint64
	for i := 0; i < 20; i++ {
		fr, _ := b.AllocOrder(i % 3)
		held = append(held, fr)
	}
	b.AllocOrder(Order2M)
	for i := 0; i < len(held); i += 2 {
		b.FreeOrder(held[i], i%3)
	}
	f.Add(encode(b.State()), b.State().FreeCount)
	f.Add([]byte{}, uint64(0))
	f.Add([]byte{0, 4, 10}, uint64(1024)) // order 10 at frame 1024 runs past the end
	f.Add([]byte{1, 0, 1}, uint64(2))     // misaligned

	f.Fuzz(func(t *testing.T, blocks []byte, count uint64) {
		b := MustNew(fuzzBytes)
		s := BuddyState{FreeCount: count, TotalFrames: b.totalFrames}
		for ; len(blocks) >= 3; blocks = blocks[3:] {
			s.FreeFrames = append(s.FreeFrames, uint64(binary.LittleEndian.Uint16(blocks)))
			s.FreeOrders = append(s.FreeOrders, int(int8(blocks[2])))
		}
		if err := b.SetState(s); err != nil {
			return
		}
		if err := b.checkInvariants(); err != nil {
			t.Fatalf("accepted state fails its invariants: %v", err)
		}
		free := b.FreeBytes()
		type block struct {
			frame uint64
			order int
		}
		var live []block
		for i := 0; i < 64; i++ {
			order := []int{0, 0, 1, 3, Order2M}[i%5]
			if fr, ok := b.AllocOrder(order); ok {
				live = append(live, block{fr, order})
			}
		}
		h, err := Run(b, rand.New(rand.NewSource(1)), 0.3, 0.9)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 4; i++ {
			h.Compact()
		}
		if err := h.checkInvariants(); err != nil {
			t.Fatalf("after the script: %v", err)
		}
		if err := h.Release(); err != nil {
			t.Fatal(err)
		}
		for _, bl := range live {
			if err := b.FreeOrder(bl.frame, bl.order); err != nil {
				t.Fatal(err)
			}
		}
		if err := b.checkInvariants(); err != nil {
			t.Fatalf("after freeing everything: %v", err)
		}
		if b.FreeBytes() != free {
			t.Fatalf("free bytes %d after freeing everything, %d before", b.FreeBytes(), free)
		}
	})
}
