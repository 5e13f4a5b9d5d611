// Package mem provides the simulated memory system under the ISA
// simulators: a flat byte-addressable memory with natural-alignment
// checking, plus an optional direct-mapped data-cache cost model used to
// reproduce the paper's DECstation measurements (Tables 3 and 4).
package mem

import (
	"encoding/binary"
	"errors"
	"fmt"
	"unsafe"
)

// ErrReadOnly is a simulated store below the store floor: into code or a
// trap vector on a machine's memory.
var ErrReadOnly = errors.New("mem: store below the store floor")

// Memory is a flat simulated memory.  Loads and stores are bounds- and
// alignment-checked; misaligned accesses are errors, which catches a large
// class of code generation bugs (the paper's "most common error" was
// instruction mis-mapping).
type Memory struct {
	data []byte
	// [lo, hi) is what a simulated load or fetch may touch and [wlo, hi)
	// what a simulated store may: the one bounds pair check compares
	// against, the store's with its own floor.  New makes both the whole
	// memory; SetStoreFloor raises wlo.
	lo, wlo, hi uint64
	// load and store are the windows the fast accessors answer in (open):
	// empty while a fault hook or cache model is attached.
	load, store window
	big         bool
	dc          *Cache
	// penaltyCycles accumulates memory-system stall cycles charged by
	// the cache model.
	penaltyCycles uint64
	// hook, when set, intercepts accesses for fault injection
	// (internal/faultinject); nil in normal operation.
	hook FaultHook
}

// window is where a fast accessor answers, in one test: addr-lo <=
// last[n/8] for n bytes.  An empty one, lo 1 and last 0, admits address 1.
type window struct{ lo, last [2]uint64 }

// open sets the windows: the bounds pairs while plain.
func (m *Memory) open() {
	plain := m.hook == nil && m.dc == nil
	m.load, m.store = span(m.lo, m.hi, plain), span(m.wlo, m.hi, plain)
}

// span is the window of [lo, hi) if open, else the empty one.
func span(lo, hi uint64, open bool) (w window) {
	for k, n := range [2]uint64{4, 8} {
		if w.lo[k] = 1; open && hi-lo >= n {
			w.lo[k], w.last[k] = lo, hi-lo-n
		}
	}
	return w
}

// FaultHook intercepts memory operations for fault injection.  A hook may
// force an error on any access or corrupt fetched instruction words; the
// rest of the stack must degrade to typed errors under either.
type FaultHook interface {
	// FetchFault is consulted after every successful instruction fetch;
	// it may rewrite the word (bit flips) or replace it with an error.
	FetchFault(addr uint64, w uint32) (uint32, error)
	// LoadFault runs before a data load; a non-nil error aborts it.
	LoadFault(addr uint64, size int) error
	// StoreFault runs before a data store; a non-nil error aborts it.
	StoreFault(addr uint64, size int) error
}

// SetFaultHook installs (or with nil removes) a fault-injection hook.
func (m *Memory) SetFaultHook(h FaultHook) {
	m.hook = h
	m.open()
}

// HasFaultHook reports whether a fault-injection hook is installed.  The
// threaded execution engine (internal/exec) skips per-instruction fetches,
// so it must yield to the fetch/switch engine whenever a hook could
// intercept them.
func (m *Memory) HasFaultHook() bool { return m.hook != nil }

// New returns a memory of the given size.  bigEndian selects the byte
// order (SPARC is big-endian; the DECstation MIPS and Alpha are little).
func New(size int, bigEndian bool) *Memory {
	m := &Memory{data: make([]byte, size), hi: uint64(size), big: bigEndian}
	m.open()
	return m
}

// Size returns the memory size in bytes.
func (m *Memory) Size() uint64 { return uint64(len(m.data)) }

// BigEndian reports the configured byte order.
func (m *Memory) BigEndian() bool { return m.big }

// SetStoreFloor refuses simulated stores below addr with ErrReadOnly;
// loads, fetches and the raw accessors are unaffected.
func (m *Memory) SetStoreFloor(addr uint64) { m.wlo = max(m.lo, addr); m.open() }

// within reports whether the n bytes at addr lie inside [lo, hi), with no
// wrap past 2^64 on the way: the one range test of this package.
func within(addr, n, lo, hi uint64) bool {
	return addr-lo <= hi-lo && n <= hi-addr
}

// check is the checks of a load or fetch (lo is m.lo) or a store (m.wlo).
func (m *Memory) check(addr uint64, size int, lo uint64) error {
	if !within(addr, uint64(size), lo, m.hi) {
		if within(addr, uint64(size), m.lo, m.hi) {
			return fmt.Errorf("%w: [%#x,+%d) is below %#x", ErrReadOnly, addr, size, lo)
		}
		return fmt.Errorf("mem: access [%#x,+%d) out of range (size %#x)", addr, size, len(m.data))
	}
	if addr&uint64(size-1) != 0 {
		return fmt.Errorf("mem: misaligned %d-byte access at %#x", size, addr)
	}
	return nil
}

// Load reads a size-byte value (1, 2, 4 or 8) zero-extended into a uint64,
// charging the cache model for a data read.
func (m *Memory) Load(addr uint64, size int) (uint64, error) {
	if err := m.check(addr, size, m.lo); err != nil {
		return 0, err
	}
	if m.hook != nil {
		if err := m.hook.LoadFault(addr, size); err != nil {
			return 0, err
		}
	}
	if m.dc != nil {
		m.penaltyCycles += m.dc.access(addr, false)
	}
	return m.loadRaw(addr, size), nil
}

// Load4, Load8, Store4 and Store8 are the forms of Load and Store the
// simulators' run loops inline.  Each answers only when the access needs
// nothing but the copy: an aligned address inside its window, which is
// empty while a fault hook or a cache model is attached.  Otherwise it
// declines (ok false), touching nothing, and the caller takes Load or
// Store, which give the error, call the hook and charge the cache.

// at is the n bytes at addr, inside a window: the window test has checked
// what a slice expression would check again.
func at[T [4]byte | [8]byte](m *Memory, addr uint64) *T {
	return (*T)(unsafe.Add(unsafe.Pointer(unsafe.SliceData(m.data)), addr))
}

// Load4 is Load(addr, 4) when that is a plain copy.
func (m *Memory) Load4(addr uint64) (v uint32, ok bool) {
	if addr&3 != 0 || addr-m.load.lo[0] > m.load.last[0] {
		return 0, false
	}
	if m.big {
		return binary.BigEndian.Uint32(at[[4]byte](m, addr)[:]), true
	}
	return binary.LittleEndian.Uint32(at[[4]byte](m, addr)[:]), true
}

// Load8 is Load(addr, 8) when that is a plain copy.
func (m *Memory) Load8(addr uint64) (v uint64, ok bool) {
	if addr&7 != 0 || addr-m.load.lo[1] > m.load.last[1] {
		return 0, false
	}
	if m.big {
		return binary.BigEndian.Uint64(at[[8]byte](m, addr)[:]), true
	}
	return binary.LittleEndian.Uint64(at[[8]byte](m, addr)[:]), true
}

// Store4 is Store(addr, 4, v) when that is a plain copy.
func (m *Memory) Store4(addr uint64, v uint32) (ok bool) {
	if addr&3 != 0 || addr-m.store.lo[0] > m.store.last[0] {
		return false
	}
	if m.big {
		binary.BigEndian.PutUint32(at[[4]byte](m, addr)[:], v)
	} else {
		binary.LittleEndian.PutUint32(at[[4]byte](m, addr)[:], v)
	}
	return true
}

// Store8 is Store(addr, 8, v) when that is a plain copy.
func (m *Memory) Store8(addr uint64, v uint64) (ok bool) {
	if addr&7 != 0 || addr-m.store.lo[1] > m.store.last[1] {
		return false
	}
	if m.big {
		binary.BigEndian.PutUint64(at[[8]byte](m, addr)[:], v)
	} else {
		binary.LittleEndian.PutUint64(at[[8]byte](m, addr)[:], v)
	}
	return true
}

// loadRaw reads without cost accounting or checks (callers have checked).
func (m *Memory) loadRaw(addr uint64, size int) uint64 {
	b := m.data[addr : addr+uint64(size)]
	if m.big {
		switch size {
		case 1:
			return uint64(b[0])
		case 2:
			return uint64(binary.BigEndian.Uint16(b))
		case 4:
			return uint64(binary.BigEndian.Uint32(b))
		default:
			return binary.BigEndian.Uint64(b)
		}
	}
	switch size {
	case 1:
		return uint64(b[0])
	case 2:
		return uint64(binary.LittleEndian.Uint16(b))
	case 4:
		return uint64(binary.LittleEndian.Uint32(b))
	default:
		return binary.LittleEndian.Uint64(b)
	}
}

// Store writes the low size bytes of v, charging the cache model for a
// data write.
func (m *Memory) Store(addr uint64, size int, v uint64) error {
	if err := m.check(addr, size, m.wlo); err != nil {
		return err
	}
	if m.hook != nil {
		if err := m.hook.StoreFault(addr, size); err != nil {
			return err
		}
	}
	if m.dc != nil {
		m.penaltyCycles += m.dc.access(addr, true)
	}
	b := m.data[addr : addr+uint64(size)]
	if m.big {
		switch size {
		case 1:
			b[0] = byte(v)
		case 2:
			binary.BigEndian.PutUint16(b, uint16(v))
		case 4:
			binary.BigEndian.PutUint32(b, uint32(v))
		default:
			binary.BigEndian.PutUint64(b, v)
		}
		return nil
	}
	switch size {
	case 1:
		b[0] = byte(v)
	case 2:
		binary.LittleEndian.PutUint16(b, uint16(v))
	case 4:
		binary.LittleEndian.PutUint32(b, uint32(v))
	default:
		binary.LittleEndian.PutUint64(b, v)
	}
	return nil
}

// FetchWord reads an instruction word without data-cache accounting
// (instruction fetch is modelled as free; both compared systems in every
// experiment fetch from the same cache-resident loops).
func (m *Memory) FetchWord(addr uint64) (uint32, error) {
	if err := m.check(addr, 4, m.lo); err != nil {
		return 0, err
	}
	w := uint32(m.loadRaw(addr, 4))
	if m.hook != nil {
		return m.hook.FetchFault(addr, w)
	}
	return w, nil
}

// WriteBytes, ReadBytes and Bytes are the loader's and the tests' raw
// access: no cost accounting, and the bounds are the whole memory.

// WriteBytes copies raw bytes into memory.
func (m *Memory) WriteBytes(addr uint64, p []byte) error {
	if !within(addr, uint64(len(p)), 0, m.Size()) {
		return fmt.Errorf("mem: WriteBytes [%#x,+%d) out of range", addr, len(p))
	}
	copy(m.data[addr:], p)
	return nil
}

// ReadBytes copies n raw bytes out of memory.
func (m *Memory) ReadBytes(addr uint64, n int) ([]byte, error) {
	if !within(addr, uint64(n), 0, m.Size()) {
		return nil, fmt.Errorf("mem: ReadBytes [%#x,+%d) out of range", addr, n)
	}
	out := make([]byte, n)
	copy(out, m.data[addr:])
	return out, nil
}

// Bytes returns a writable window of n bytes into memory.
func (m *Memory) Bytes(addr uint64, n int) ([]byte, error) {
	if !within(addr, uint64(n), 0, m.Size()) {
		return nil, fmt.Errorf("mem: Bytes [%#x,+%d) out of range", addr, n)
	}
	return m.data[addr : addr+uint64(n)], nil
}

// AttachCache installs a data-cache cost model.
func (m *Memory) AttachCache(c *Cache) {
	m.dc = c
	m.open()
}

// Cache returns the attached cache model (nil if none).
func (m *Memory) Cache() *Cache { return m.dc }

// PenaltyCycles returns the stall cycles accumulated by the cache model.
func (m *Memory) PenaltyCycles() uint64 { return m.penaltyCycles }

// ResetStats clears accumulated penalty cycles and cache statistics.
func (m *Memory) ResetStats() {
	m.penaltyCycles = 0
	if m.dc != nil {
		m.dc.ResetStats()
	}
}

// FlushCache invalidates every cache line (the Table 4 "uncached" rows
// flush between trials).
func (m *Memory) FlushCache() {
	if m.dc != nil {
		m.dc.Flush()
	}
}
