package core_test

import "testing"

// An unloaded unit hands its blocks back to Alloc by their 16-rounded size,
// Release forgets the free blocks above its mark, and HeapBytesUsed counts
// live blocks only.
func TestHeapFreeReuse(t *testing.T) {
	_, m := newMips()
	used := func() uint64 { return m.ArenaStats().HeapBytesUsed }
	base := used()
	// allocFree is one block of n bytes through a unit's whole life.
	allocFree := func(n int) {
		t.Helper()
		u := m.NewUnit()
		if _, err := u.Alloc(n); err != nil {
			t.Fatal(err)
		}
		u.Unload()
		u.Unload() // a second Unload frees nothing twice
	}

	ua := m.NewUnit()
	a, err := ua.Alloc(8)
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
	if got := ua.HeapBytes(); got != 16 {
		t.Fatalf("unit holds %d heap bytes, want 16", got)
	}
	ua.Unload()
	if got := used() - base; got != 48 {
		t.Fatalf("after Unload: %d bytes used, want 48", got)
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
		allocFree(16)
	}
	if got := used(); got != steady {
		t.Fatalf("1000 alloc/free pairs moved HeapBytesUsed from %d to %d", steady, got)
	}

	// A block freed above a mark is gone with the Release, not handed out
	// again from under the bump pointer.
	mk := m.Mark()
	allocFree(64)
	late := m.NewUnit()
	if _, err := late.Alloc(64); err != nil {
		t.Fatal(err)
	}
	m.Release(mk)
	late.Unload() // its block is the bump pointer's again: nothing to free
	if got := used(); got != steady {
		t.Fatalf("after Release: %d bytes used, want %d", got, steady)
	}
	q, _ := m.Alloc(64)
	r, _ := m.Alloc(64)
	if q == r {
		t.Fatalf("two live blocks share address %#x", q)
	}
}
