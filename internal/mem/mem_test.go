package mem

import (
	"errors"
	"testing"
	"testing/quick"
)

func TestLoadStoreEndianness(t *testing.T) {
	le := New(4096, false)
	be := New(4096, true)
	if err := le.Store(16, 4, 0x11223344); err != nil {
		t.Fatal(err)
	}
	if err := be.Store(16, 4, 0x11223344); err != nil {
		t.Fatal(err)
	}
	lb, _ := le.ReadBytes(16, 4)
	bb, _ := be.ReadBytes(16, 4)
	if lb[0] != 0x44 || lb[3] != 0x11 {
		t.Errorf("little-endian bytes %x", lb)
	}
	if bb[0] != 0x11 || bb[3] != 0x44 {
		t.Errorf("big-endian bytes %x", bb)
	}
}

func TestRoundtripQuick(t *testing.T) {
	m := New(1<<16, false)
	f := func(off uint16, v uint64, size uint8) bool {
		sz := []int{1, 2, 4, 8}[size%4]
		addr := uint64(off) &^ uint64(sz-1)
		if err := m.Store(addr, sz, v); err != nil {
			return false
		}
		got, err := m.Load(addr, sz)
		if err != nil {
			return false
		}
		mask := ^uint64(0)
		if sz < 8 {
			mask = 1<<(8*sz) - 1
		}
		return got == v&mask
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestAlignmentAndBounds(t *testing.T) {
	m := New(64, false)
	if _, err := m.Load(2, 4); err == nil {
		t.Error("misaligned load should fail")
	}
	if err := m.Store(7, 2, 0); err == nil {
		t.Error("misaligned store should fail")
	}
	if _, err := m.Load(64, 4); err == nil {
		t.Error("out-of-range load should fail")
	}
	if _, err := m.Load(^uint64(0)-3, 4); err == nil {
		t.Error("wrapping load should fail")
	}
	if err := m.WriteBytes(60, []byte{1, 2, 3, 4, 5}); err == nil {
		t.Error("out-of-range WriteBytes should fail")
	}
}

func TestCacheModel(t *testing.T) {
	m := New(1<<16, false)
	c, err := NewCache(16, 4, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	m.AttachCache(c)

	// First read of a line misses; the second hits.
	if _, err := m.Load(0, 4); err != nil {
		t.Fatal(err)
	}
	if m.PenaltyCycles() != 10 {
		t.Errorf("first read penalty %d, want 10", m.PenaltyCycles())
	}
	if _, err := m.Load(4, 4); err != nil { // same 16-byte line
		t.Fatal(err)
	}
	if m.PenaltyCycles() != 10 {
		t.Errorf("hit should add nothing, got %d", m.PenaltyCycles())
	}
	// Writes cost the write-through path and do not allocate.
	if err := m.Store(256, 4, 1); err != nil {
		t.Fatal(err)
	}
	if m.PenaltyCycles() != 11 {
		t.Errorf("write penalty, got %d", m.PenaltyCycles())
	}
	if _, err := m.Load(256, 4); err != nil {
		t.Fatal(err)
	}
	if m.PenaltyCycles() != 21 {
		t.Errorf("read after write should miss (no write-allocate), got %d", m.PenaltyCycles())
	}
	// Conflict eviction: line 0 and line 0+4*16 map to the same set.
	if _, err := m.Load(0, 4); err != nil { // still cached? it was; hit
		t.Fatal(err)
	}
	before := m.PenaltyCycles()
	if _, err := m.Load(4*16, 4); err != nil { // evicts line 0's set
		t.Fatal(err)
	}
	if _, err := m.Load(0, 4); err != nil { // misses again
		t.Fatal(err)
	}
	if m.PenaltyCycles() != before+20 {
		t.Errorf("conflict misses, got %d want %d", m.PenaltyCycles(), before+20)
	}
	hits, misses, writes := c.Stats()
	if hits == 0 || misses == 0 || writes != 1 {
		t.Errorf("stats h=%d m=%d w=%d", hits, misses, writes)
	}

	m.FlushCache()
	before = m.PenaltyCycles()
	if _, err := m.Load(0, 4); err != nil {
		t.Fatal(err)
	}
	if m.PenaltyCycles() != before+10 {
		t.Error("flush should force a miss")
	}

	m.ResetStats()
	if m.PenaltyCycles() != 0 {
		t.Error("ResetStats")
	}
}

func TestFetchWordUncosted(t *testing.T) {
	m := New(4096, false)
	fc, err := NewCache(16, 16, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	m.AttachCache(fc)
	if err := m.Store(128, 4, 0xdeadbeef); err != nil {
		t.Fatal(err)
	}
	m.ResetStats()
	w, err := m.FetchWord(128)
	if err != nil {
		t.Fatal(err)
	}
	if w != 0xdeadbeef {
		t.Errorf("fetch got %#x", w)
	}
	if m.PenaltyCycles() != 0 {
		t.Error("instruction fetch should not charge the data cache")
	}
}

func TestAccessors(t *testing.T) {
	m := New(128, true)
	if !m.BigEndian() {
		t.Error("BigEndian")
	}
	if m.Size() != 128 {
		t.Error("Size")
	}
	w, err := m.Bytes(8, 4)
	if err != nil {
		t.Fatal(err)
	}
	w[0] = 0xab
	v, err := m.Load(8, 4)
	if err != nil {
		t.Fatal(err)
	}
	if v>>24 != 0xab {
		t.Errorf("Bytes window not aliased: %#x", v)
	}
	if _, err := m.Bytes(120, 16); err == nil {
		t.Error("out-of-range Bytes should fail")
	}
}

func TestMachineConfigs(t *testing.T) {
	for _, mc := range []MachineConfig{DEC3100, DEC5000} {
		m, err := mc.Build(false)
		if err != nil {
			t.Fatal(err)
		}
		if m.Cache() == nil {
			t.Errorf("%s: no cache attached", mc.Name)
		}
		if m.Cache().SizeBytes() != 64<<10 {
			t.Errorf("%s: cache is %d bytes, want 64KB", mc.Name, m.Cache().SizeBytes())
		}
	}
	if mu, err := Uncosted.Build(true); err != nil || mu.Cache() != nil {
		t.Errorf("Uncosted should build cacheless (err %v)", err)
	}
	if us := DEC5000.Micros(2500); us != 100 {
		t.Errorf("25MHz: 2500 cycles = %v us, want 100", us)
	}
}

// TestRawAccessorsRefuseWrap: a range whose end wraps past 2^64 is out of
// range for the raw accessors too, not a slice-bounds panic.
func TestRawAccessorsRefuseWrap(t *testing.T) {
	m := New(4096, false)
	const addr, n = 1<<64 - 8, 16
	if err := m.WriteBytes(addr, make([]byte, n)); err == nil {
		t.Error("WriteBytes across 2^64 should fail")
	}
	if _, err := m.ReadBytes(addr, n); err == nil {
		t.Error("ReadBytes across 2^64 should fail")
	}
	if _, err := m.Bytes(addr, n); err == nil {
		t.Error("Bytes across 2^64 should fail")
	}
}

// nopHook intercepts every access and faults none.
type nopHook struct{}

func (nopHook) FetchFault(_ uint64, w uint32) (uint32, error) { return w, nil }
func (nopHook) LoadFault(uint64, int) error                   { return nil }
func (nopHook) StoreFault(uint64, int) error                  { return nil }

// TestFastAccessorsAgree holds Load4/Load8/Store4/Store8 to Load and Store
// at every address within 16 bytes of either end of memory (and at the
// top of the address space), on both byte orders: on a plain memory each
// answers exactly when Load or Store would succeed, with the same value or
// the same bytes written.  With a fault hook or a cache model attached
// they decline even an aligned in-range access, and answer again once it
// is gone.
func TestFastAccessorsAgree(t *testing.T) {
	const size = 256
	var addrs []uint64
	for a := uint64(0); a < 16; a++ {
		addrs = append(addrs, a, size/2-8+a, size-16+a, size+a, 1<<64-16+a)
	}
	for _, big := range []bool{false, true} {
		m, ref := New(size, big), New(size, big)
		for i := uint64(0); i < size; i++ {
			b := byte(i*7 + 3)
			if err := m.Store(i, 1, uint64(b)); err != nil {
				t.Fatal(err)
			}
			if err := ref.Store(i, 1, uint64(b)); err != nil {
				t.Fatal(err)
			}
		}
		m.SetStoreFloor(size / 2) // stores below it decline, and Store says ErrReadOnly
		ref.SetStoreFloor(size / 2)
		for _, a := range addrs {
			want4, err4 := ref.Load(a, 4)
			if v, ok := m.Load4(a); ok != (err4 == nil) || ok && uint64(v) != want4 {
				t.Errorf("big %v: Load4(%#x) = %#x, %v; Load gives %#x, %v", big, a, v, ok, want4, err4)
			}
			want8, err8 := ref.Load(a, 8)
			if v, ok := m.Load8(a); ok != (err8 == nil) || ok && v != want8 {
				t.Errorf("big %v: Load8(%#x) = %#x, %v; Load gives %#x, %v", big, a, v, ok, want8, err8)
			}
			v := 0x0102030405060708 ^ a
			if ok, err := m.Store4(a, uint32(v)), ref.Store(a, 4, uint64(uint32(v))); ok != (err == nil) {
				t.Errorf("big %v: Store4(%#x) = %v; Store gives %v", big, a, ok, err)
			}
			if ok, err := m.Store8(a, v), ref.Store(a, 8, v); ok != (err == nil) {
				t.Errorf("big %v: Store8(%#x) = %v; Store gives %v", big, a, ok, err)
			}
			err, errM := ref.Store(a, 1, 0), m.Store(a, 1, 0)
			if (a < size/2) != errors.Is(err, ErrReadOnly) || (errM == nil) != (err == nil) {
				t.Errorf("big %v: Store(%#x) with the floor at %#x gives %v", big, a, size/2, err)
			}
		}
		got, _ := m.ReadBytes(0, size)
		want, _ := ref.ReadBytes(0, size)
		if string(got) != string(want) {
			t.Errorf("big %v: the fast stores wrote other bytes than Store", big)
		}

		c, err := NewCache(16, 4, 10, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, attach := range []struct {
			name    string
			on, off func()
		}{
			{"fault hook", func() { m.SetFaultHook(nopHook{}) }, func() { m.SetFaultHook(nil) }},
			{"cache model", func() { m.AttachCache(c) }, func() { m.AttachCache(nil) }},
		} {
			attach.on()
			_, ok4 := m.Load4(8)
			_, ok8 := m.Load8(8)
			if ok4 || ok8 || m.Store4(8, 1) || m.Store8(8, 1) {
				t.Errorf("big %v: with a %s attached a fast accessor answered", big, attach.name)
			}
			attach.off()
			if _, ok := m.Load4(8); !ok {
				t.Errorf("big %v: with the %s gone again Load4 still declines", big, attach.name)
			}
		}
	}
}
