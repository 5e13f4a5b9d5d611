package core

import (
	"errors"
	"fmt"
	"testing"
)

// door describes one generic front door of Asm just far enough to provoke
// every rejection it can make: how to call it, one (op, type) pair it
// accepts, the pairs it must refuse, and which bank each register operand
// belongs to.
type door struct {
	name string
	call func(a *Asm, op Op, t Type, r []Reg, l Label)
	op   Op
	t    Type
	// banks gives, per register operand in signature order, a type of the
	// bank the operand must come from (the data type, or TypeP for an
	// address).
	banks []Type
	bad   []opType
}

type opType struct {
	op Op
	t  Type
}

var doors = []door{
	{name: "ALU", op: OpAdd, t: TypeI, banks: []Type{TypeI, TypeI, TypeI},
		bad:  []opType{{OpAnd, TypeF}, {OpAdd, TypeC}, {OpBlt, TypeI}, {Op(200), TypeI}, {OpAdd, Type(77)}},
		call: func(a *Asm, op Op, t Type, r []Reg, _ Label) { a.ALU(op, t, r[0], r[1], r[2]) }},
	{name: "ALU/f", op: OpMul, t: TypeD, banks: []Type{TypeD, TypeD, TypeD},
		call: func(a *Asm, op Op, t Type, r []Reg, _ Label) { a.ALU(op, t, r[0], r[1], r[2]) }},
	{name: "ALUI", op: OpAdd, t: TypeI, banks: []Type{TypeI, TypeI},
		bad:  []opType{{OpAdd, TypeF}, {OpMod, TypeD}, {OpNeg, TypeI}, {Op(200), TypeI}},
		call: func(a *Asm, op Op, t Type, r []Reg, _ Label) { a.ALUI(op, t, r[0], r[1], 7) }},
	{name: "Unary", op: OpNeg, t: TypeI, banks: []Type{TypeI, TypeI},
		bad:  []opType{{OpSet, TypeI}, {OpCom, TypeF}, {OpNeg, TypeU}, {OpAdd, TypeI}},
		call: func(a *Asm, op Op, t Type, r []Reg, _ Label) { a.Unary(op, t, r[0], r[1]) }},
	{name: "Unary/f", op: OpMov, t: TypeF, banks: []Type{TypeF, TypeF},
		call: func(a *Asm, op Op, t Type, r []Reg, _ Label) { a.Unary(op, t, r[0], r[1]) }},
	{name: "SetI", t: TypeP, banks: []Type{TypeP},
		bad:  []opType{{0, TypeF}, {0, TypeD}, {0, TypeUC}, {0, TypeV}},
		call: func(a *Asm, _ Op, t Type, r []Reg, _ Label) { a.SetI(t, r[0], 42) }},
	{name: "SetF", t: TypeF, banks: []Type{TypeF},
		call: func(a *Asm, _ Op, _ Type, r []Reg, _ Label) { a.SetF(r[0], 1.5) }},
	{name: "SetD", t: TypeD, banks: []Type{TypeD},
		call: func(a *Asm, _ Op, _ Type, r []Reg, _ Label) { a.SetD(r[0], 2.5) }},
	{name: "Ld", t: TypeUC, banks: []Type{TypeUC, TypeP, TypeP},
		bad:  []opType{{0, TypeV}, {0, Type(77)}},
		call: func(a *Asm, _ Op, t Type, r []Reg, _ Label) { a.Ld(t, r[0], r[1], r[2]) }},
	{name: "LdI", t: TypeD, banks: []Type{TypeD, TypeP},
		bad:  []opType{{0, TypeV}},
		call: func(a *Asm, _ Op, t Type, r []Reg, _ Label) { a.LdI(t, r[0], r[1], 8) }},
	{name: "St", t: TypeS, banks: []Type{TypeS, TypeP, TypeP},
		bad:  []opType{{0, TypeV}},
		call: func(a *Asm, _ Op, t Type, r []Reg, _ Label) { a.St(t, r[0], r[1], r[2]) }},
	{name: "StI", t: TypeF, banks: []Type{TypeF, TypeP},
		bad:  []opType{{0, TypeV}, {0, Type(77)}},
		call: func(a *Asm, _ Op, t Type, r []Reg, _ Label) { a.StI(t, r[0], r[1], 8) }},
	{name: "Br", op: OpBlt, t: TypeI, banks: []Type{TypeI, TypeI},
		bad:  []opType{{OpAdd, TypeI}, {OpBeq, TypeS}, {Op(200), TypeI}},
		call: func(a *Asm, op Op, t Type, r []Reg, l Label) { a.Br(op, t, r[0], r[1], l) }},
	{name: "Br/f", op: OpBge, t: TypeD, banks: []Type{TypeD, TypeD},
		call: func(a *Asm, op Op, t Type, r []Reg, l Label) { a.Br(op, t, r[0], r[1], l) }},
	{name: "BrI", op: OpBne, t: TypeU, banks: []Type{TypeU},
		bad:  []opType{{OpBlt, TypeF}, {OpSub, TypeI}, {OpBeq, TypeC}},
		call: func(a *Asm, op Op, t Type, r []Reg, l Label) { a.BrI(op, t, r[0], 3, l) }},
	{name: "Jmp",
		call: func(a *Asm, _ Op, _ Type, _ []Reg, l Label) { a.Jmp(l) }},
	{name: "Bind",
		call: func(a *Asm, _ Op, _ Type, _ []Reg, l Label) { a.Bind(l) }},
	{name: "Ret", t: TypeI, banks: []Type{TypeI},
		bad:  []opType{{0, TypeC}, {0, TypeV}},
		call: func(a *Asm, _ Op, t Type, r []Reg, _ Label) { a.Ret(t, r[0]) }},
	{name: "Ret/f", t: TypeD, banks: []Type{TypeD},
		call: func(a *Asm, _ Op, t Type, r []Reg, _ Label) { a.Ret(t, r[0]) }},
	{name: "RetVoid",
		call: func(a *Asm, _ Op, _ Type, _ []Reg, _ Label) { a.RetVoid() }},
	{name: "Nop",
		call: func(a *Asm, _ Op, _ Type, _ []Reg, _ Label) { a.Nop() }},
	// Cvt's pair is (from, to), carried in (Type(op), t); rd is in to's
	// bank, rs in from's.
	{name: "Cvt", op: Op(TypeI), t: TypeD, banks: []Type{TypeD, TypeI},
		bad:  []opType{{Op(TypeI), TypeI}, {Op(TypeC), TypeI}, {Op(TypeI), TypeV}},
		call: func(a *Asm, from Op, to Type, r []Reg, _ Label) { a.Cvt(Type(from), to, r[0], r[1]) }},
	{name: "Cvt/f2u", op: Op(TypeD), t: TypeL, banks: []Type{TypeL, TypeD},
		bad:  []opType{{Op(TypeD), TypeU}, {Op(TypeF), TypeP}, {Op(TypeF), TypeUL}},
		call: func(a *Asm, from Op, to Type, r []Reg, _ Label) { a.Cvt(Type(from), to, r[0], r[1]) }},
	{name: "Local", t: TypeD,
		bad:  []opType{{0, TypeV}},
		call: func(a *Asm, _ Op, t Type, _ []Reg, _ Label) { a.Local(t) }},
}

// The messages of every rejection, captured from the commit before the
// front doors were rewritten (57de026): the rewrite promised them byte for
// byte.  A register that names nothing reads the same at every door; an
// illegal pair (keyed by op and type number) and a register of the wrong
// bank each have their own.
const (
	outsideBeginEnd = "vcode: assembler used in wrong state: emission outside Begin/End"
	noSuchRegister  = "vcode: invalid register operand: r?"
)

var frontDoorGolden = map[string]string{
	"ALU/f/wrong bank/operand 0":   "vcode: invalid register operand: r9 used as d operand",
	"ALU/f/wrong bank/operand 1":   "vcode: invalid register operand: r9 used as d operand",
	"ALU/f/wrong bank/operand 2":   "vcode: invalid register operand: r9 used as d operand",
	"ALU/illegal/0,1":              "vcode: invalid type for operation: addc",
	"ALU/illegal/0,77":             "vcode: invalid type for operation: addType(77)",
	"ALU/illegal/20,5":             "vcode: invalid type for operation: blti",
	"ALU/illegal/200,5":            "vcode: invalid type for operation: Op(200)i",
	"ALU/illegal/5,10":             "vcode: invalid type for operation: andf",
	"ALU/wrong bank/operand 0":     "vcode: invalid register operand: f6 used as i operand",
	"ALU/wrong bank/operand 1":     "vcode: invalid register operand: f6 used as i operand",
	"ALU/wrong bank/operand 2":     "vcode: invalid register operand: f6 used as i operand",
	"ALUI/illegal/0,10":            "vcode: invalid type for operation: addfi",
	"ALUI/illegal/13,5":            "vcode: invalid type for operation: negii",
	"ALUI/illegal/200,5":           "vcode: invalid type for operation: Op(200)ii",
	"ALUI/illegal/4,11":            "vcode: invalid type for operation: moddi",
	"ALUI/wrong bank/operand 0":    "vcode: invalid register operand: f6 used as i operand",
	"ALUI/wrong bank/operand 1":    "vcode: invalid register operand: f6 used as i operand",
	"Br/f/wrong bank/operand 0":    "vcode: invalid register operand: r9 used as d operand",
	"Br/f/wrong bank/operand 1":    "vcode: invalid register operand: r9 used as d operand",
	"Br/illegal/0,5":               "vcode: invalid type for operation: addi",
	"Br/illegal/200,5":             "vcode: invalid type for operation: Op(200)i",
	"Br/illegal/24,3":              "vcode: invalid type for operation: beqs",
	"Br/wrong bank/operand 0":      "vcode: invalid register operand: f6 used as i operand",
	"Br/wrong bank/operand 1":      "vcode: invalid register operand: f6 used as i operand",
	"BrI/illegal/1,5":              "vcode: invalid type for operation: subii",
	"BrI/illegal/20,10":            "vcode: invalid type for operation: bltfi",
	"BrI/illegal/24,1":             "vcode: invalid type for operation: beqci",
	"BrI/wrong bank/operand 0":     "vcode: invalid register operand: f6 used as u operand",
	"Cvt/f2u/illegal/10,8":         "vcode: invalid type for operation: cvf2ul (float to unsigned is not in the VCODE set)",
	"Cvt/f2u/illegal/10,9":         "vcode: invalid type for operation: cvf2p (float to unsigned is not in the VCODE set)",
	"Cvt/f2u/illegal/11,6":         "vcode: invalid type for operation: cvd2u (float to unsigned is not in the VCODE set)",
	"Cvt/f2u/wrong bank/operand 0": "vcode: invalid register operand: f6 used as l operand",
	"Cvt/f2u/wrong bank/operand 1": "vcode: invalid register operand: r9 used as d operand",
	"Cvt/illegal/1,5":              "vcode: invalid type for operation: cvc2i",
	"Cvt/illegal/5,0":              "vcode: invalid type for operation: cvi2v",
	"Cvt/illegal/5,5":              "vcode: invalid type for operation: cvi2i",
	"Cvt/wrong bank/operand 0":     "vcode: invalid register operand: r9 used as d operand",
	"Cvt/wrong bank/operand 1":     "vcode: invalid register operand: f6 used as i operand",
	"Ld/illegal/0,0":               "vcode: invalid type for operation: ldv",
	"Ld/illegal/0,77":              "vcode: invalid type for operation: ldType(77)",
	"Ld/wrong bank/operand 0":      "vcode: invalid register operand: f6 used as uc operand",
	"Ld/wrong bank/operand 1":      "vcode: invalid register operand: f6 used as p operand",
	"Ld/wrong bank/operand 2":      "vcode: invalid register operand: f6 used as p operand",
	"LdI/illegal/0,0":              "vcode: invalid type for operation: ldvi",
	"LdI/wrong bank/operand 0":     "vcode: invalid register operand: r9 used as d operand",
	"LdI/wrong bank/operand 1":     "vcode: invalid register operand: f6 used as p operand",
	"Local/illegal/0,0":            "vcode: invalid type for operation: local of type v",
	"Ret/f/wrong bank/operand 0":   "vcode: invalid register operand: r9 used as d operand",
	"Ret/illegal/0,0":              "vcode: invalid type for operation: retv",
	"Ret/illegal/0,1":              "vcode: invalid type for operation: retc",
	"Ret/wrong bank/operand 0":     "vcode: invalid register operand: f6 used as i operand",
	"SetD/wrong bank/operand 0":    "vcode: invalid register operand: r9 used as d operand",
	"SetF/wrong bank/operand 0":    "vcode: invalid register operand: r9 used as f operand",
	"SetI/illegal/0,0":             "vcode: invalid type for operation: setvi",
	"SetI/illegal/0,10":            "vcode: invalid type for operation: setfi",
	"SetI/illegal/0,11":            "vcode: invalid type for operation: setdi",
	"SetI/illegal/0,2":             "vcode: invalid type for operation: setuci",
	"SetI/wrong bank/operand 0":    "vcode: invalid register operand: f6 used as p operand",
	"St/illegal/0,0":               "vcode: invalid type for operation: stv",
	"St/wrong bank/operand 0":      "vcode: invalid register operand: f6 used as s operand",
	"St/wrong bank/operand 1":      "vcode: invalid register operand: f6 used as p operand",
	"St/wrong bank/operand 2":      "vcode: invalid register operand: f6 used as p operand",
	"StI/illegal/0,0":              "vcode: invalid type for operation: stvi",
	"StI/illegal/0,77":             "vcode: invalid type for operation: stType(77)i",
	"StI/wrong bank/operand 0":     "vcode: invalid register operand: r9 used as f operand",
	"StI/wrong bank/operand 1":     "vcode: invalid register operand: f6 used as p operand",
	"Unary/f/wrong bank/operand 0": "vcode: invalid register operand: r9 used as f operand",
	"Unary/f/wrong bank/operand 1": "vcode: invalid register operand: r9 used as f operand",
	"Unary/illegal/0,5":            "vcode: invalid type for operation: addi",
	"Unary/illegal/10,10":          "vcode: invalid type for operation: comf",
	"Unary/illegal/13,6":           "vcode: invalid type for operation: negu",
	"Unary/illegal/14,5":           "vcode: invalid type for operation: seti",
	"Unary/wrong bank/operand 0":   "vcode: invalid register operand: f6 used as i operand",
	"Unary/wrong bank/operand 1":   "vcode: invalid register operand: f6 used as i operand",
}

// doorFixture is a building Asm on the fake backend with registers of both
// banks and a label in hand.
type doorFixture struct {
	a   *Asm
	gpr []Reg
	fpr []Reg
	l   Label
}

func newDoorFixture(t *testing.T) *doorFixture { return newDoorFixtureOn(t, newFake()) }

func newDoorFixtureOn(t *testing.T, bk Backend) *doorFixture {
	t.Helper()
	f := &doorFixture{a: NewAsm(bk)}
	args, err := f.a.Begin("%i%p%i%d", Leaf)
	if err != nil {
		t.Fatal(err)
	}
	f.gpr, f.fpr = args[:3], []Reg{args[3], FPR(4), FPR(6)}
	f.l = f.a.NewLabel()
	return f
}

// regs returns legal register operands for d.
func (f *doorFixture) regs(d *door) []Reg {
	r := make([]Reg, len(d.banks))
	for i, bt := range d.banks {
		if bt.IsFloat() {
			r[i] = f.fpr[i]
		} else {
			r[i] = f.gpr[i]
		}
	}
	return r
}

// rejected calls the door and holds it to a rejection: the sentinel, the
// golden message, nothing counted, nothing emitted, and the error sticky
// against a second, different offence.
func (f *doorFixture) rejected(t *testing.T, key string, want error, msg string, call func()) {
	t.Helper()
	a := f.a
	insns, words := a.InsnCount(), a.Buf().Len()
	call()
	err := a.Err()
	if !errors.Is(err, want) {
		t.Errorf("%s: error %v, want %v", key, err, want)
		return
	}
	if err.Error() != msg {
		t.Errorf("%s: message %q, golden %q", key, err, msg)
	}
	if a.InsnCount() != insns || a.Buf().Len() != words {
		t.Errorf("%s: a rejected instruction moved InsnCount %d->%d, Buf().Len() %d->%d",
			key, insns, a.InsnCount(), words, a.Buf().Len())
	}
	a.ALU(OpAnd, TypeF, NoReg, NoReg, NoReg)
	a.Bind(Label(99))
	if a.Err() != err {
		t.Errorf("%s: a later error replaced the first: %v", key, a.Err())
	}
}

// TestFrontDoorErrors is the rejection table of the generic emitters: every
// door, in every state it refuses to emit in, with every kind of operand it
// refuses.
func TestFrontDoorErrors(t *testing.T) {
	for i := range doors {
		d := &doors[i]
		legal := func(f *doorFixture) { d.call(f.a, d.op, d.t, f.regs(d), f.l) }

		t.Run(d.name+"/accepted", func(t *testing.T) {
			f := newDoorFixture(t)
			legal(f)
			if err := f.a.Err(); err != nil {
				t.Fatalf("the legal call was refused: %v", err)
			}
		})

		t.Run(d.name+"/before Begin", func(t *testing.T) {
			f := &doorFixture{a: NewAsm(newFake()), gpr: []Reg{GPR(8), GPR(9), GPR(10)}, fpr: []Reg{FPR(4), FPR(6), FPR(8)}}
			f.rejected(t, d.name, ErrState, outsideBeginEnd, func() { legal(f) })
		})

		t.Run(d.name+"/after End", func(t *testing.T) {
			f := newDoorFixture(t)
			f.a.RetVoid()
			if _, err := f.a.End(); err != nil {
				t.Fatal(err)
			}
			f.rejected(t, d.name, ErrState, outsideBeginEnd, func() { legal(f) })
		})

		t.Run(d.name+"/after a sticky error", func(t *testing.T) {
			f := newDoorFixture(t)
			f.a.ALU(OpAnd, TypeF, f.fpr[0], f.fpr[0], f.fpr[0])
			first := f.a.Err()
			insns, words := f.a.InsnCount(), f.a.Buf().Len()
			legal(f)
			if f.a.Err() != first || !errors.Is(first, ErrBadType) {
				t.Errorf("error %v, want the first one kept: %v", f.a.Err(), first)
			}
			if f.a.InsnCount() != insns || f.a.Buf().Len() != words {
				t.Error("emitted after a sticky error")
			}
			if _, err := f.a.End(); err != first {
				t.Errorf("End returned %v, want the first error", err)
			}
		})

		for _, b := range d.bad {
			key := fmt.Sprintf("%s/illegal/%d,%d", d.name, b.op, b.t)
			t.Run(key, func(t *testing.T) {
				f := newDoorFixture(t)
				f.rejected(t, key, ErrBadType, frontDoorGolden[key], func() { d.call(f.a, b.op, b.t, f.regs(d), f.l) })
			})
		}

		for pos, bt := range d.banks {
			other := GPR(9)
			if !bt.IsFloat() {
				other = FPR(6)
			}
			for _, c := range []struct {
				what string
				r    Reg
			}{{"NoReg", NoReg}, {"out of range", Reg(2 * fprBase)}, {"negative", Reg(-7)}, {"wrong bank", other}} {
				key := fmt.Sprintf("%s/%s/operand %d", d.name, c.what, pos)
				t.Run(key, func(t *testing.T) {
					f := newDoorFixture(t)
					r := f.regs(d)
					r[pos] = c.r
					msg := noSuchRegister
					if c.r.Valid() {
						msg = frontDoorGolden[key]
					}
					f.rejected(t, key, ErrBadReg, msg, func() { d.call(f.a, d.op, d.t, r, f.l) })
				})
			}
		}
	}
}

// TestFrontDoorFirstBadOperandWins: with several bad operands the message
// names the first in signature order, as the variadic check always did.
func TestFrontDoorFirstBadOperandWins(t *testing.T) {
	f := newDoorFixture(t)
	f.a.ALU(OpAdd, TypeI, f.gpr[0], FPR(4), NoReg)
	if got, want := fmt.Sprint(f.a.Err()), "vcode: invalid register operand: f4 used as i operand"; got != want {
		t.Errorf("ALU: %q, want %q", got, want)
	}
	f = newDoorFixture(t)
	f.a.Ld(TypeD, f.fpr[0], NoReg, FPR(4))
	if got, want := fmt.Sprint(f.a.Err()), "vcode: invalid register operand: r?"; got != want {
		t.Errorf("Ld: %q, want %q", got, want)
	}
	f = newDoorFixture(t)
	f.a.St(TypeI, FPR(4), NoReg, NoReg)
	if got, want := fmt.Sprint(f.a.Err()), "vcode: invalid register operand: f4 used as i operand"; got != want {
		t.Errorf("St: %q, want %q", got, want)
	}
}

// TestAllocatorDoorsOutsideBeginEnd: GetReg reports ErrState to its caller
// without making it sticky, PutReg is a no-op, and neither panics on an
// assembler that has never begun.
func TestAllocatorDoorsOutsideBeginEnd(t *testing.T) {
	a := NewAsm(newFake())
	check := func(when string) {
		t.Helper()
		if r, err := a.GetReg(Temp); err != ErrState || r != NoReg {
			t.Errorf("%s: GetReg = %v, %v; want NoReg, ErrState", when, r, err)
		}
		if r, err := a.GetFReg(Var); err != ErrState || r != NoReg {
			t.Errorf("%s: GetFReg = %v, %v; want NoReg, ErrState", when, r, err)
		}
		a.PutReg(GPR(8))
		a.PutReg(NoReg)
		if a.Err() != nil {
			t.Errorf("%s: the allocator doors left a sticky error: %v", when, a.Err())
		}
	}
	check("before Begin")
	if _, err := a.Begin("", Leaf); err != nil {
		t.Fatal(err)
	}
	a.RetVoid()
	if _, err := a.End(); err != nil {
		t.Fatal(err)
	}
	check("after End")
}

// TestBindLabelErrors: a label Bind cannot bind — one NewLabel never handed
// out, on either side of the table, or one already bound — is a sticky
// ErrBadLabel, not a panic, an untyped error or a register error.
func TestBindLabelErrors(t *testing.T) {
	for _, c := range []struct {
		name string
		bind func(a *Asm)
		want string
	}{
		{"negative", func(a *Asm) { a.Bind(Label(-1)) }, "vcode: invalid label: Bind of unknown label L-1"},
		{"past the end", func(a *Asm) { a.NewLabel(); a.Bind(Label(1)) }, "vcode: invalid label: Bind of unknown label L1"},
		{"bound twice", func(a *Asm) { l := a.NewLabel(); a.Bind(l); a.Bind(l) }, "vcode: invalid label: label L0 bound twice"},
	} {
		t.Run(c.name, func(t *testing.T) {
			a := NewAsm(newFake())
			if _, err := a.Begin("", Leaf); err != nil {
				t.Fatal(err)
			}
			c.bind(a)
			if err := a.Err(); !errors.Is(err, ErrBadLabel) || err.Error() != c.want {
				t.Fatalf("error %v, want ErrBadLabel %q", err, c.want)
			}
			if errors.Is(a.Err(), ErrBadReg) {
				t.Error("a label error is filed under ErrBadReg")
			}
			a.RetVoid()
			if _, err := a.End(); !errors.Is(err, ErrBadLabel) {
				t.Errorf("End returned %v, want the label error", err)
			}
		})
	}
}

// TestBranchToUnknownLabel: the three doors that reference a label refuse
// one NewLabel never handed out.
func TestBranchToUnknownLabel(t *testing.T) {
	for _, l := range []Label{-1, 5} {
		want := fmt.Sprintf("vcode: unbound label: reference to unknown label L%d", l)
		for _, d := range []struct {
			name string
			call func(f *doorFixture)
		}{
			{"Br", func(f *doorFixture) { f.a.Br(OpBlt, TypeI, f.gpr[0], f.gpr[1], l) }},
			{"BrI", func(f *doorFixture) { f.a.BrI(OpBlt, TypeI, f.gpr[0], 1, l) }},
			{"Jmp", func(f *doorFixture) { f.a.Jmp(l) }},
		} {
			f := newDoorFixture(t)
			d.call(f)
			if err := f.a.Err(); !errors.Is(err, ErrUnboundLabel) || err.Error() != want {
				t.Errorf("%s to L%d: %v, want %q", d.name, l, err, want)
			}
		}
	}
}

// failingBackend refuses every encoding, the way a port refuses an operand
// it cannot encode.
type failingBackend struct{ *fakeBackend }

var errEncode = errors.New("fake: cannot encode")

func (failingBackend) ALU(*Buf, Op, Type, Reg, Reg, Reg) error      { return errEncode }
func (failingBackend) ALUImm(*Buf, Op, Type, Reg, Reg, int64) error { return errEncode }
func (failingBackend) Unary(*Buf, Op, Type, Reg, Reg) error         { return errEncode }
func (failingBackend) SetImm(*Buf, Type, Reg, int64) error          { return errEncode }
func (failingBackend) Cvt(*Buf, Type, Type, Reg, Reg) error         { return errEncode }
func (failingBackend) Load(*Buf, Type, Reg, Reg, int64) error       { return errEncode }
func (failingBackend) LoadRR(*Buf, Type, Reg, Reg, Reg) error       { return errEncode }
func (failingBackend) Store(*Buf, Type, Reg, Reg, int64) error      { return errEncode }
func (failingBackend) StoreRR(*Buf, Type, Reg, Reg, Reg) error      { return errEncode }
func (failingBackend) Branch(*Buf, Op, Type, Reg, Reg) (int, error) { return 0, errEncode }
func (failingBackend) BranchImm(*Buf, Op, Type, Reg, int64) (int, error) {
	return 0, errEncode
}
func (failingBackend) Jump(*Buf) (int, error)            { return 0, errEncode }
func (failingBackend) LoadAddr(*Buf, Reg) ([]int, error) { return nil, errEncode }

// TestFrontDoorBackendError: an encoder's refusal becomes the sticky error
// of every door that reaches an encoder.
func TestFrontDoorBackendError(t *testing.T) {
	for i := range doors {
		d := &doors[i]
		switch d.name {
		case "Bind", "Nop", "Local":
			continue // no encoder that can fail behind them
		}
		f := newDoorFixtureOn(t, failingBackend{newFake()})
		d.call(f.a, d.op, d.t, f.regs(d), f.l)
		if f.a.Err() != errEncode {
			t.Errorf("%s: error %v, want the encoder's", d.name, f.a.Err())
		}
		if _, err := f.a.End(); err != errEncode {
			t.Errorf("%s: End returned %v, want the encoder's error", d.name, err)
		}
	}
}

// TestLegalityTablesAgree: the tables the front doors read are the four
// predicates, pair for pair, over the whole range an Op and a Type can
// hold — so an out-of-range op or type reads as illegal, not as a panic.
func TestLegalityTablesAgree(t *testing.T) {
	if numTypes > 16 {
		t.Fatalf("%d types no longer fit the tables' uint16 sets", numTypes)
	}
	for o := 0; o < 256; o++ {
		for ty := 0; ty < 256; ty++ {
			op, t2 := Op(o), Type(ty)
			bit := typeSet(1) << t2
			for _, c := range []struct {
				table string
				got   bool
				want  bool
			}{
				{"alu", legal.alu[op]&bit != 0, aluTypeOK(op, t2)},
				{"alui", legal.alui[op]&bit != 0, aluTypeOK(op, t2) && !t2.IsFloat()},
				{"unary", legal.unary[op]&bit != 0, unaryTypeOK(op, t2) && op != OpSet},
				{"br", legal.br[op]&bit != 0, branchTypeOK(op, t2)},
				{"bri", legal.bri[op]&bit != 0, branchTypeOK(op, t2) && !t2.IsFloat()},
				{"mem", legal.mem&bit != 0, memTypeOK(t2)},
				{"seti", legal.seti&bit != 0, unaryTypeOK(OpSet, t2) && !t2.IsFloat()},
				{"ret", legal.ret&bit != 0, unaryTypeOK(OpMov, t2)},
			} {
				if c.got != c.want {
					t.Errorf("legal.%s says %v for (%s, %s), the predicate says %v", c.table, c.got, op, t2, c.want)
				}
			}
		}
	}
}

// TestBankTestAgreesWithCheckRegs: the fixed-arity register test accepts
// exactly the operand triples the variadic check accepts.
func TestBankTestAgreesWithCheckRegs(t *testing.T) {
	probe := []Reg{NoReg, -7, 0, 1, 31, 63, 64, 65, 100, 127, 128, 129, 200, 0x140, 0x7fff, -0x8000}
	a := NewAsm(newFake())
	for _, ty := range []Type{TypeI, TypeP, TypeUC, TypeF, TypeD} {
		for _, x := range probe {
			for _, y := range probe {
				for _, z := range probe {
					a.err = nil
					want := a.checkRegs(ty, x, y, z)
					if got := bankOK(ty, x|y|z, x&y&z); got != want {
						t.Fatalf("bankOK(%s, %d, %d, %d) = %v, checkRegs says %v", ty, x, y, z, got, want)
					}
				}
			}
		}
	}
}
