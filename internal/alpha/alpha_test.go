package alpha

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/mem"
)

func newMachine() (*Backend, *core.Machine) {
	b := New()
	m := mem.New(1<<24, false)
	return b, core.NewMachine(b, NewCPU(m), m)
}

// TestSmallMemSynthesisCost is experiment E6 (§6.2): the Alpha lacks byte
// and halfword memory instructions, so VCODE synthesizes them; the paper
// notes an unsigned store byte costs eleven instructions in the worst
// case.  We pin the instruction counts of our sequences so regressions in
// the synthesis are visible.
func TestSmallMemSynthesisCost(t *testing.T) {
	b := New()
	cases := []struct {
		t     core.Type
		store bool
		words int
	}{
		{core.TypeUC, false, 3}, // lda, ldq_u, extbl
		{core.TypeC, false, 5},  // + sll, sra sign extension
		{core.TypeUS, false, 3},
		{core.TypeS, false, 5},
		{core.TypeUC, true, 6}, // lda, ldq_u, insbl, mskbl, bis, stq_u
		{core.TypeUS, true, 6},
		{core.TypeI, false, 1}, // ldl exists
		{core.TypeL, true, 1},  // stq exists
	}
	for _, c := range cases {
		buf := core.NewBuf(16)
		var err error
		if c.store {
			err = b.Store(buf, c.t, core.GPR(1), core.GPR(2), 8)
		} else {
			err = b.Load(buf, c.t, core.GPR(1), core.GPR(2), 8)
		}
		if err != nil {
			t.Fatalf("%s store=%v: %v", c.t, c.store, err)
		}
		if buf.Len() != c.words {
			t.Errorf("%s store=%v: %d words, want %d", c.t, c.store, buf.Len(), c.words)
		}
	}
}

// TestByteStorePreservesNeighbors checks the read-modify-write sequence
// touches only its byte.
func TestByteStorePreservesNeighbors(t *testing.T) {
	b, m := newMachine()
	addr, err := m.Alloc(16)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Mem().Store(addr, 8, 0x1122334455667788); err != nil {
		t.Fatal(err)
	}
	a := core.NewAsm(b)
	args, err := a.Begin("%p%i", core.Leaf)
	if err != nil {
		t.Fatal(err)
	}
	a.Stuci(args[1], args[0], 3)
	a.Retv()
	fn, err := a.End()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Call(fn, core.P(addr), core.I(0xAB)); err != nil {
		t.Fatal(err)
	}
	got, err := m.Mem().Load(addr, 8)
	if err != nil {
		t.Fatal(err)
	}
	if got != 0x11223344AB667788 {
		t.Fatalf("quad after byte store: %#x", got)
	}
}

// TestDivisionEmulated checks that integer division routes through the
// runtime helpers (§5.2) — including inside a declared leaf procedure,
// the "VCODE ignores client hints" case — and preserves the borrowed
// registers.
func TestDivisionEmulated(t *testing.T) {
	b, m := newMachine()
	a := core.NewAsm(b)
	args, err := a.Begin("%i%i", core.Leaf) // leaf! the helper call must still work
	if err != nil {
		t.Fatal(err)
	}
	// Hold values in other argument registers to verify preservation.
	sentinel := a.T(0)
	a.Seti(sentinel, 12345)
	a.Divi(args[0], args[0], args[1])
	a.Addi(args[0], args[0], sentinel)
	a.Reti(args[0])
	fn, err := a.End()
	if err != nil {
		t.Fatal(err)
	}
	got, err := m.Call(fn, core.I(-37), core.I(5))
	if err != nil {
		t.Fatal(err)
	}
	if got.Int() != -7+12345 {
		t.Fatalf("got %d, want %d", got.Int(), -7+12345)
	}
}

// TestCanonicalForm32 checks 32-bit values stay sign-extended through
// shifts and arithmetic (the Alpha canonical form).
func TestCanonicalForm32(t *testing.T) {
	b, m := newMachine()
	a := core.NewAsm(b)
	args, err := a.Begin("%u%u", core.Leaf)
	if err != nil {
		t.Fatal(err)
	}
	// ((x << y) >> y) for unsigned 32-bit must mask correctly.
	a.Lshu(args[0], args[0], args[1])
	a.Rshu(args[0], args[0], args[1])
	a.Retu(args[0])
	fn, err := a.End()
	if err != nil {
		t.Fatal(err)
	}
	got, err := m.Call(fn, core.U(0xffffffff), core.U(8))
	if err != nil {
		t.Fatal(err)
	}
	if got.Uint() != 0x00ffffff {
		t.Fatalf("got %#x, want 0x00ffffff", got.Uint())
	}
}

// TestWideConstants materializes 64-bit constants.
func TestWideConstants(t *testing.T) {
	b, m := newMachine()
	for _, v := range []int64{0, 1, -1, 0x7fff, 0x8000, -0x8000, -0x8001,
		0x12345678, -0x12345678, 0x123456789abcdef0, -0x123456789abcdef0,
		1 << 62, -(1 << 62), 0x8000_0000_0000_0000 - 1} {
		a := core.NewAsm(b)
		_, err := a.Begin("", core.Leaf)
		if err != nil {
			t.Fatal(err)
		}
		r, err := a.GetReg(core.Temp)
		if err != nil {
			t.Fatal(err)
		}
		a.Setl(r, v)
		a.Retl(r)
		fn, err := a.End()
		if err != nil {
			t.Fatal(err)
		}
		got, err := m.Call(fn)
		if err != nil {
			t.Fatalf("%#x: %v", v, err)
		}
		if got.Int() != v {
			t.Errorf("Setl(%#x) returned %#x", v, got.Int())
		}
	}
}

// TestDisasm checks a few encodings round-trip through Disasm.
func TestDisasm(t *testing.T) {
	b := New()
	buf := core.NewBuf(8)
	if err := b.Load(buf, core.TypeL, core.GPR(1), core.GPR(30), 16); err != nil {
		t.Fatal(err)
	}
	if s := b.Disasm(buf.At(0), 0); !strings.Contains(s, "ldq t0, 16(sp)") {
		t.Errorf("disasm: %q", s)
	}
	if s := b.Disasm(fixed.Ret, 0); !strings.Contains(s, "ret") {
		t.Errorf("ret disasm: %q", s)
	}
}
