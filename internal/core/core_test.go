package core

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/exec"
)

// fakeBackend is a minimal backend for exercising the Asm lifecycle
// without a real target; emission produces recognizable words.
type fakeBackend struct{ conv *CallConv }

func newFake() *fakeBackend {
	g := GPR
	return &fakeBackend{conv: &CallConv{
		IntArgs:       []Reg{g(4), g(5), g(6), g(7)},
		FPArgs:        []Reg{FPR(12)},
		RetInt:        g(2),
		RetFP:         FPR(0),
		RA:            g(31),
		SP:            g(29),
		Zero:          g(0),
		CallerSaved:   []Reg{g(8), g(9), g(10), g(7), g(6), g(5), g(4)},
		CalleeSaved:   []Reg{g(16), g(17), g(18)},
		CallerSavedFP: []Reg{FPR(4), FPR(6)},
		CalleeSavedFP: []Reg{FPR(20)},
		StackAlign:    8,
		SlotBytes:     4,
		HardTemp:      []Reg{g(8), g(9)},
		HardVar:       []Reg{g(16), g(17), g(18)},
	}}
}

func (f *fakeBackend) Name() string           { return "fake" }
func (f *fakeBackend) PtrBytes() int          { return 4 }
func (f *fakeBackend) DefaultConv() *CallConv { return f.conv }
func (f *fakeBackend) BranchDelaySlots() int  { return 1 }
func (f *fakeBackend) LoadDelay() int         { return 1 }
func (f *fakeBackend) BigEndian() bool        { return false }
func (f *fakeBackend) ScratchReg() Reg        { return GPR(1) }
func (f *fakeBackend) ScratchFPR() Reg        { return FPR(30) }
func (f *fakeBackend) RetAddrOffset() int     { return 0 }

func (f *fakeBackend) ALU(b *Buf, op Op, t Type, rd, rs1, rs2 Reg) error {
	b.Emit(0x10000000 | uint32(op))
	return nil
}

func (f *fakeBackend) ALUImm(b *Buf, op Op, t Type, rd, rs Reg, imm int64) error {
	b.Emit(0x11000000 | uint32(op))
	return nil
}

func (f *fakeBackend) Unary(b *Buf, op Op, t Type, rd, rs Reg) error {
	b.Emit(0x12000000 | uint32(op))
	return nil
}

func (f *fakeBackend) SetImm(b *Buf, t Type, rd Reg, imm int64) error {
	b.Emit(0x13000000)
	return nil
}

func (f *fakeBackend) Cvt(b *Buf, from, to Type, rd, rs Reg) error {
	b.Emit(0x14000000)
	return nil
}

func (f *fakeBackend) Load(b *Buf, t Type, rd, base Reg, off int64) error {
	b.Emit(0x15000000)
	return nil
}

func (f *fakeBackend) Store(b *Buf, t Type, rs, base Reg, off int64) error {
	b.Emit(0x16000000)
	return nil
}

func (f *fakeBackend) Branch(b *Buf, op Op, t Type, rs1, rs2 Reg) (int, error) {
	site := b.Len()
	b.Emit(0x17000000)
	b.Emit(0) // delay nop
	return site, nil
}

func (f *fakeBackend) BranchImm(b *Buf, op Op, t Type, rs Reg, imm int64) (int, error) {
	site := b.Len()
	b.Emit(0x17100000)
	b.Emit(0)
	return site, nil
}

// fakeFixed is the fake's declared words: a jump and a label call that
// fakeISA decodes, a one-word call, an address pair of two numbers.
var fakeFixed = Fixed{
	Jump:        0x18000000,
	CallLabel:   0x19100000,
	Branch:      'b',
	Call:        []uint32{0x19000000},
	Addr:        [2]Word{{W: 0x1a000000}, {W: 0x1a100000}},
	AddrShift:   16,
	JumpReg:     Word{W: 0x18100000},
	CallReg:     Word{W: 0x19200000},
	FrameAdjust: 0x1c000000,
	Ret:         0x1b000000,
}

// fakeISA decodes what End patches: the fake's branch, jump, label-call
// and call words (a 16-bit displacement from the delay slot, as on mips), its
// immediate load and its stack-pointer adjust (a 16-bit number each); what
// the loader would relocate, its address pair; and the row a mapping can
// give cmoveq.
var fakeISA = exec.NewTable([]exec.Row{
	exec.Ins("br", 0x17000000, 0xff000000, " b", 0).As(exec.KindBranch),
	exec.Ins("j", 0x18000000, 0xfff00000, " b", 0).As(exec.KindBranch),
	exec.Ins("call", 0x19100000, 0xfff00000, " b", 0).As(exec.KindCall),
	exec.Ins("ext", 0x19000000, 0xfff00000, " b", 0).As(exec.KindCall),
	exec.Ins("ld", 0x15000000, 0xfff00000, " i", 0),
	exec.Ins("adj", 0x1c000000, 0xffff0000, " i", 0),
	exec.Ins("hi", 0x1a000000, 0xfff00000, " i", 0),
	exec.Ins("lo", 0x1a100000, 0xfff00000, " i", 0),
	exec.Ins("cmoveq", 0x1e000000, 0xff000000, "", 0),
}, map[byte]exec.Field{
	'b': {Width: 16, Signed: true, Scale: 2, Target: true, PC: 4},
	'i': {Width: 16, Signed: true, Fmt: "%d", Slot: exec.SlotImm},
}, nil, 0)

func (f *fakeBackend) ISA() *exec.Table { return fakeISA }

// fakeTemplates is the fake's mapping: no generic emitter has a row, no
// extension is in hardware, nothing is emulated.  It follows fakeISA, which
// NewTemplates reads the fixed words through.
var fakeTemplates = NewTemplates(newFake(), &fakeFixed, Mapping{})

func (f *fakeBackend) Templates() *Templates { return fakeTemplates }

func (f *fakeBackend) Disasm(w uint32, pc uint64) string { return "?" }

func (f *fakeBackend) Classify(w uint32, pc uint64) exec.Insn {
	return exec.Insn{Kind: exec.KindOther}
}

// --- tests ---

func TestParseSig(t *testing.T) {
	cases := []struct {
		in   string
		want []Type
		ok   bool
	}{
		{"", nil, true},
		{"%v", nil, true},
		{"%i", []Type{TypeI}, true},
		{"%i%p%d", []Type{TypeI, TypeP, TypeD}, true},
		{"%ul%f", []Type{TypeUL, TypeF}, true},
		{"i", nil, false},
		{"%z", nil, false},
	}
	for _, c := range cases {
		got, err := ParseSig(c.in)
		if (err == nil) != c.ok {
			t.Errorf("ParseSig(%q) error = %v, want ok=%v", c.in, err, c.ok)
			continue
		}
		if !c.ok {
			continue
		}
		if len(got) != len(c.want) {
			t.Errorf("ParseSig(%q) = %v, want %v", c.in, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("ParseSig(%q)[%d] = %v, want %v", c.in, i, got[i], c.want[i])
			}
		}
	}
}

func TestTypeProperties(t *testing.T) {
	if !TypeI.IsSigned() || TypeU.IsSigned() || TypeD.IsSigned() {
		t.Error("signedness wrong")
	}
	if !TypeF.IsFloat() || TypeP.IsFloat() {
		t.Error("floatness wrong")
	}
	if TypeL.Size(4) != 4 || TypeL.Size(8) != 8 || TypeD.Size(4) != 8 || TypeC.Size(8) != 1 {
		t.Error("sizes wrong")
	}
	if !TypeS.IsSubWord() || TypeI.IsSubWord() {
		t.Error("subword wrong")
	}
	if TypeUL.Letter() != "ul" || TypeUL.CName() != "unsigned long" {
		t.Error("names wrong")
	}
}

func TestLifecycleErrors(t *testing.T) {
	a := NewAsm(newFake())
	// Emission before Begin sticks an error.
	a.Addii(GPR(8), GPR(8), 1)
	if a.Err() == nil {
		t.Fatal("emission before Begin should record an error")
	}
	if _, err := a.End(); !errors.Is(err, ErrState) {
		t.Fatalf("End before Begin: %v", err)
	}
	// A fresh Begin clears the slate.
	if _, err := a.Begin("%i", Leaf); err != nil {
		t.Fatal(err)
	}
	if a.Err() != nil {
		t.Fatal("Begin should reset the sticky error")
	}
	// Begin while building is rejected.
	if _, err := a.Begin("%i", Leaf); !errors.Is(err, ErrState) {
		t.Fatalf("nested Begin: %v", err)
	}
}

func TestUnboundLabel(t *testing.T) {
	a := NewAsm(newFake())
	args, _ := a.Begin("%i", Leaf)
	l := a.NewLabel()
	a.Bltii(args[0], 3, l)
	a.Reti(args[0])
	if _, err := a.End(); !errors.Is(err, ErrUnboundLabel) {
		t.Fatalf("End with unbound label: %v", err)
	}
}

func TestDoubleBind(t *testing.T) {
	a := NewAsm(newFake())
	_, _ = a.Begin("%i", Leaf)
	l := a.NewLabel()
	a.Bind(l)
	a.Bind(l)
	if a.Err() == nil {
		t.Fatal("double bind should error")
	}
}

func TestLeafCallRejected(t *testing.T) {
	a := NewAsm(newFake())
	_, _ = a.Begin("%i", Leaf)
	a.StartCall("%i")
	if !errors.Is(a.Err(), ErrLeafCall) {
		t.Fatalf("call in leaf: %v", a.Err())
	}
}

func TestBadTypeRejected(t *testing.T) {
	a := NewAsm(newFake())
	args, _ := a.Begin("%i%f", Leaf)
	// and on floats is illegal.
	a.ALU(OpAnd, TypeF, args[1], args[1], args[1])
	if !errors.Is(a.Err(), ErrBadType) {
		t.Fatalf("andf: %v", a.Err())
	}
}

func TestRegBankMismatch(t *testing.T) {
	a := NewAsm(newFake())
	args, _ := a.Begin("%i", Leaf)
	a.Addd(args[0], args[0], args[0]) // int reg used as double
	if !errors.Is(a.Err(), ErrBadReg) {
		t.Fatalf("bank mismatch: %v", a.Err())
	}
}

func TestRegAllocExhaustion(t *testing.T) {
	a := NewAsm(newFake())
	_, _ = a.Begin("", Leaf)
	// Fake backend: 7 caller-saved + 3 callee-saved available.
	var got []Reg
	for {
		r, err := a.GetReg(Temp)
		if err != nil {
			if !errors.Is(err, ErrRegExhausted) {
				t.Fatalf("unexpected alloc error: %v", err)
			}
			break
		}
		got = append(got, r)
	}
	if len(got) != 10 {
		t.Fatalf("allocated %d registers, want 10", len(got))
	}
	// Freeing one makes it available again.
	a.PutReg(got[3])
	r, err := a.GetReg(Temp)
	if err != nil || r != got[3] {
		t.Fatalf("PutReg/GetReg roundtrip: %v %v", r, err)
	}
}

func TestLeafVarPrefersCallerSaved(t *testing.T) {
	a := NewAsm(newFake())
	_, _ = a.Begin("", Leaf)
	r, err := a.GetReg(Var)
	if err != nil {
		t.Fatal(err)
	}
	if containsReg(a.Conv().CalleeSaved, r) {
		t.Errorf("leaf Var allocation took callee-saved %v first", r)
	}
	fn, err := func() (*Func, error) { a.Reti(r); return a.End() }()
	if err != nil {
		t.Fatal(err)
	}
	if fn.FrameBytes != 0 {
		t.Errorf("leaf using caller-saved for Var got a frame (%d bytes)", fn.FrameBytes)
	}
}

func TestNonLeafVarIsSaved(t *testing.T) {
	a := NewAsm(newFake())
	_, _ = a.Begin("", NonLeaf)
	r, err := a.GetReg(Var)
	if err != nil {
		t.Fatal(err)
	}
	if !containsReg(a.Conv().CalleeSaved, r) {
		t.Fatalf("non-leaf Var allocation returned caller-saved %v", r)
	}
	a.Reti(r)
	fn, err := a.End()
	if err != nil {
		t.Fatal(err)
	}
	if fn.FrameBytes == 0 {
		t.Error("callee-saved use should force a frame")
	}
}

func TestHardRegAssertion(t *testing.T) {
	a := NewAsm(newFake())
	_, _ = a.Begin("", Leaf)
	if r := a.T(0); !r.Valid() {
		t.Fatal("T(0) should exist")
	}
	if r := a.T(99); r != NoReg {
		t.Fatal("T(99) should fail")
	}
	if !errors.Is(a.Err(), ErrNoHardReg) {
		t.Fatalf("hard-reg assertion: %v", a.Err())
	}
}

func TestLocalsAligned(t *testing.T) {
	a := NewAsm(newFake())
	_, _ = a.Begin("", Leaf)
	o1 := a.Local(TypeC)
	o2 := a.Local(TypeD)
	o3 := a.Local(TypeI)
	if o2%8 != 0 {
		t.Errorf("double local at %d not 8-aligned", o2)
	}
	if o3%4 != 0 {
		t.Errorf("int local at %d not 4-aligned", o3)
	}
	if !(o1 < o2 && o2 < o3) {
		t.Errorf("locals not ascending: %d %d %d", o1, o2, o3)
	}
}

func TestEntryOffsetSkipsUnusedPrologue(t *testing.T) {
	bk := newFake()
	a := NewAsm(bk)
	args, _ := a.Begin("%i", Leaf)
	a.Addii(args[0], args[0], 1)
	a.Reti(args[0])
	fn, err := a.End()
	if err != nil {
		t.Fatal(err)
	}
	if reserved := newSaveLayout(bk.DefaultConv(), bk.PtrBytes()).prologueWords(); fn.Entry != reserved {
		t.Errorf("leaf entry = %d, want %d", fn.Entry, reserved)
	}
	// Direct-return rewriting: no jump word should remain.
	for i := fn.Entry; i < len(fn.Words); i++ {
		if fn.Words[i]&0xff000000 == 0x18000000 {
			t.Errorf("unpatched epilogue jump at %d", i)
		}
	}
}

func TestConvSetClass(t *testing.T) {
	conv := newFake().DefaultConv().Clone()
	r := conv.CallerSaved[0]
	if err := conv.SetClass(r, Var); err != nil {
		t.Fatal(err)
	}
	if conv.ClassOf(r) != Var {
		t.Errorf("reclassified register is %v", conv.ClassOf(r))
	}
	if err := conv.SetClass(conv.SP, Temp); err == nil {
		t.Error("reclassifying SP should fail")
	}
	conv.AllCalleeSaved()
	if len(conv.CallerSaved) != 0 {
		t.Error("AllCalleeSaved left caller-saved registers")
	}
}

func TestSaveLayoutStable(t *testing.T) {
	conv := newFake().DefaultConv()
	lay := newSaveLayout(conv, 4)
	off := lay.gprOff(conv.CalleeSaved[1])
	if off != 8 {
		t.Errorf("second callee-saved at %d, want 8", off)
	}
	if lay.gprOff(GPR(9)) != -1 {
		t.Error("caller-saved register should have no slot")
	}
	if lay.fprOff(conv.CalleeSavedFP[0])%8 != 0 {
		t.Error("FP slot not 8-aligned")
	}
	if lay.total%8 != 0 {
		t.Error("save area not 8-aligned")
	}
}

func TestValueRoundtrips(t *testing.T) {
	if I(-5).Int() != -5 || U(0xffffffff).Uint() != 0xffffffff {
		t.Error("int wrap")
	}
	if F(1.5).Float32() != 1.5 || D(-2.25).Float64() != -2.25 {
		t.Error("float wrap")
	}
	if L(-1).Int() != -1 || UL(1<<40).Uint() != 1<<40 {
		t.Error("long wrap")
	}
	if !strings.Contains(I(7).String(), "7:i") {
		t.Errorf("String: %s", I(7))
	}
}

func TestInsnCount(t *testing.T) {
	a := NewAsm(newFake())
	args, _ := a.Begin("%i", Leaf)
	a.Addii(args[0], args[0], 1)
	a.Addii(args[0], args[0], 2)
	a.Reti(args[0])
	if a.InsnCount() != 3 {
		t.Errorf("InsnCount = %d, want 3", a.InsnCount())
	}
}
