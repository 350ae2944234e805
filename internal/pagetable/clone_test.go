package pagetable

import (
	"testing"

	"seesaw/internal/addr"
)

// TestClone: the clone translates identically and is fully independent —
// promotes and unmaps on either side never leak to the other.
func TestClone(t *testing.T) {
	pt := New()
	va4 := addr.VAddr(0x7f00_1234_5000)
	va2 := addr.VAddr(0x7f00_0020_0000)
	va1 := addr.VAddr(0x40000000)
	if err := pt.Map(va4, 0xabc, addr.Page4K); err != nil {
		t.Fatal(err)
	}
	if err := pt.Map(va2, 5, addr.Page2M); err != nil {
		t.Fatal(err)
	}
	if err := pt.Map(va1, 2, addr.Page1G); err != nil {
		t.Fatal(err)
	}

	c := pt.Clone()
	for _, va := range []addr.VAddr{va4 + 0x123, va2 + 12345, va1 + 99} {
		pa0, s0, ok0 := pt.Translate(va)
		pa1, s1, ok1 := c.Translate(va)
		if pa0 != pa1 || s0 != s1 || ok0 != ok1 {
			t.Errorf("Translate(%#x): original %#x/%v/%v, clone %#x/%v/%v",
				uint64(va), uint64(pa0), s0, ok0, uint64(pa1), s1, ok1)
		}
	}
	for _, s := range []addr.PageSize{addr.Page4K, addr.Page2M, addr.Page1G} {
		if pt.Count(s) != c.Count(s) {
			t.Errorf("Count(%v): original %d, clone %d", s, pt.Count(s), c.Count(s))
		}
	}

	// Splinter the original's 2MB page; the clone must keep it whole.
	if _, err := pt.Splinter(va2); err != nil {
		t.Fatal(err)
	}
	if _, s, ok := c.Translate(va2 + 12345); !ok || s != addr.Page2M {
		t.Errorf("clone saw the original's splinter: size=%v ok=%v", s, ok)
	}
	// Unmap the clone's 4KB page; the original must keep it.
	if err := c.Unmap(va4, addr.Page4K); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := pt.Translate(va4); !ok {
		t.Error("original lost a page unmapped on the clone")
	}
}
