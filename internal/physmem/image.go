package physmem

import (
	"math"
	"math/rand"
	"sync"

	"seesaw/internal/xrand"
)

// hogTouch is the fraction of memory memhog transiently allocates
// before freeing the excess: on a long-uptime loaded system essentially
// all memory has been touched.
const hogTouch = 0.97

// imageCap is how many fragmentation images the process keeps. The
// simulator's runs share a handful of (seed, size, fraction) keys, and
// runs of one key tend to run next to each other, so two images answer
// nearly every request while bounding the memory the images hold.
const imageCap = 2

// An image is memory right after memhog fragmented it: the allocator,
// the frames the hog pins in pin order, and the RNG source that drove
// it. It is built once, by the first request for its key, and read-only
// after that.
type image struct {
	key   imageKey
	once  sync.Once
	buddy *Buddy
	pins  []uint32
	src   *xrand.Source
	err   error
}

type imageKey struct {
	seed     int64
	memBytes uint64
	fraction float64
}

// images holds the most recently requested images, most recent first.
// What it holds changes only what a request costs, never what it
// returns.
var images struct {
	sync.Mutex
	recent []*image
}

// Fragmented returns fresh physical memory of memBytes with memhog
// pinning fraction of it, and the RNG source that drove memhog, seeded
// with seed and positioned after it: exactly what Run with touch 0.97
// leaves behind on New(memBytes) and a rand.Rand over
// xrand.NewSource(seed). With fraction 0 memhog does not run: the hog
// is nil and the source fresh. Repeated keys are restored from a
// process-wide memo of recent images, so they cost a copy instead of a
// run; every result is the caller's own.
func Fragmented(seed int64, memBytes uint64, fraction float64) (*Buddy, *Memhog, *xrand.Source, error) {
	if fraction == 0 || memBytes/4096 > math.MaxUint32 {
		return fragment(seed, memBytes, fraction)
	}
	img := lookupImage(imageKey{seed, memBytes, fraction})
	var b *Buddy
	var h *Memhog
	var src *xrand.Source
	img.once.Do(func() { b, h, src = img.build() })
	if img.err != nil || b != nil {
		// The run that built the image hands its own result back.
		return b, h, src, img.err
	}
	b = img.buddy.Clone()
	h = &Memhog{buddy: b, frames: make([]uint64, 0, len(img.pins)), at: make([]uint32, b.totalFrames), movable: make([]uint32, len(b.small))}
	for _, f := range img.pins {
		h.pin(uint64(f))
	}
	return b, h, img.src.Clone(), nil
}

// fragment runs memhog on fresh memory without the memo.
func fragment(seed int64, memBytes uint64, fraction float64) (*Buddy, *Memhog, *xrand.Source, error) {
	b, err := New(memBytes)
	if err != nil {
		return nil, nil, nil, err
	}
	src := xrand.NewSource(seed)
	if fraction == 0 {
		return b, nil, src, nil
	}
	h, err := Run(b, rand.New(src), fraction, hogTouch)
	if err != nil {
		return nil, nil, nil, err
	}
	return b, h, src, nil
}

// lookupImage returns the image for k, making it the most recent and
// adding it unbuilt, in place of the least recent, when it is missing.
func lookupImage(k imageKey) *image {
	images.Lock()
	defer images.Unlock()
	i := 0
	for i < len(images.recent) && images.recent[i].key != k {
		i++
	}
	var img *image
	switch {
	case i < len(images.recent):
		img = images.recent[i]
	case len(images.recent) < imageCap:
		images.recent = append(images.recent, nil)
	default:
		i--
	}
	if img == nil {
		img = &image{key: k}
	}
	copy(images.recent[1:i+1], images.recent[:i])
	images.recent[0] = img
	return img
}

// build runs memhog for the image's key, keeps a compact copy of the
// result and returns the result itself. The copy holds the pinned
// frames as 32-bit frame numbers; the hog's index and census are
// rebuilt from them on every restore.
func (img *image) build() (*Buddy, *Memhog, *xrand.Source) {
	b, h, src, err := fragment(img.key.seed, img.key.memBytes, img.key.fraction)
	if err != nil {
		img.err = err
		return nil, nil, nil
	}
	img.pins = make([]uint32, len(h.frames))
	for i, f := range h.frames {
		img.pins[i] = uint32(f)
	}
	img.buddy, img.src = b.Clone(), src.Clone()
	return b, h, src
}
