package core_test

import "testing"

// Free hands a block back to Alloc by its 16-rounded size, Release forgets
// the free blocks above its mark, and HeapBytesUsed counts live blocks only.
func TestHeapFreeReuse(t *testing.T) {
	_, m := newMips()
	used := func() uint64 { return m.ArenaStats().HeapBytesUsed }
	base := used()

	a, err := m.Alloc(8)
	if err != nil {
		t.Fatal(err)
	}
	b, err := m.Alloc(40)
	if err != nil {
		t.Fatal(err)
	}
	if got := used() - base; got != 16+48 {
		t.Fatalf("two live blocks use %d bytes, want 64", got)
	}
	if err := m.Free(a, 8); err != nil {
		t.Fatal(err)
	}
	if got := used() - base; got != 48 {
		t.Fatalf("after Free: %d bytes used, want 48", got)
	}
	if c, _ := m.Alloc(33); c == a || c == b {
		t.Fatalf("Alloc(33) reused a block of another size (%#x)", c)
	}
	if c, _ := m.Alloc(12); c != a {
		t.Fatalf("Alloc(12) = %#x, want the freed 16-byte block %#x", c, a)
	}

	for _, bad := range []struct {
		addr uint64
		n    int
	}{{a + 4, 8}, {0x1000, 8}, {b + 4096, 8}, {a, -1}} {
		if m.Free(bad.addr, bad.n) == nil {
			t.Errorf("Free(%#x, %d) of something Alloc never returned succeeded", bad.addr, bad.n)
		}
	}

	// Sustained alloc/free of one size stays put.
	steady := used()
	for i := 0; i < 1000; i++ {
		p, err := m.Alloc(16)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Free(p, 16); err != nil {
			t.Fatal(err)
		}
	}
	if got := used(); got != steady {
		t.Fatalf("1000 alloc/free pairs moved HeapBytesUsed from %d to %d", steady, got)
	}

	// A block freed above a mark is gone with the Release, not handed out
	// again from under the bump pointer.
	mk := m.Mark()
	p, _ := m.Alloc(64)
	if err := m.Free(p, 64); err != nil {
		t.Fatal(err)
	}
	m.Release(mk)
	if got := used(); got != steady {
		t.Fatalf("after Release: %d bytes used, want %d", got, steady)
	}
	q, _ := m.Alloc(64)
	r, _ := m.Alloc(64)
	if q == r {
		t.Fatalf("two live blocks share address %#x", q)
	}
}
