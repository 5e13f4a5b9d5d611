package alpha

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/exec"
)

// Register numbers (OSF/1 conventional names).
const (
	rV0   = 0
	rA0   = 16
	rRA   = 26
	rPV   = 27 // procedure value: reserved for call sequences
	rAT   = 28 // assembler scratch
	rGP   = 29 // reserved; VCODE borrows it inside byte-store synthesis
	rSP   = 30
	rZero = 31
)

// Backend is the Alpha port of VCODE.  Its instruction table (isa.go)
// gives it ISA, Classify and Disasm.
type Backend struct {
	*exec.Table
	conv *core.CallConv
}

// New returns the Alpha backend.
func New() *Backend {
	return &Backend{Table: isa, conv: newConv()}
}

func newConv() *core.CallConv {
	g := core.GPR
	f := core.FPR
	return &core.CallConv{
		IntArgs: []core.Reg{g(16), g(17), g(18), g(19), g(20), g(21)},
		FPArgs:  []core.Reg{f(16), f(17), f(18), f(19), f(20), f(21)},
		RetInt:  g(rV0),
		RetFP:   f(0),
		RA:      g(rRA),
		SP:      g(rSP),
		Zero:    g(rZero),
		CallerSaved: []core.Reg{
			g(1), g(2), g(3), g(4), g(5), g(6), g(7), g(8), // t0-t7
			g(22), g(23), g(24), g(25), // t8-t11
			g(21), g(20), g(19), g(18), g(17), g(16), // unused args
		},
		CalleeSaved: []core.Reg{
			g(9), g(10), g(11), g(12), g(13), g(14), g(15), // s0-s6
		},
		CallerSavedFP: []core.Reg{
			f(10), f(11), f(12), f(13), f(14), f(15),
			f(22), f(23), f(24), f(25), f(26), f(27), f(28),
			f(21), f(20), f(19), f(18), f(17), f(16),
		},
		CalleeSavedFP: []core.Reg{f(2), f(3), f(4), f(5), f(6), f(7), f(8), f(9)},
		StackAlign:    16,
		SlotBytes:     8,
		HardTemp: []core.Reg{
			g(1), g(2), g(3), g(4), g(5), g(6), g(7), g(8), g(22), g(23), g(24), g(25),
		},
		HardVar:    []core.Reg{g(9), g(10), g(11), g(12), g(13), g(14)},
		HardTempFP: []core.Reg{f(10), f(11), f(12), f(13), f(14), f(15)},
		HardVarFP:  []core.Reg{f(2), f(3), f(4), f(5), f(6), f(7), f(8), f(9)},
	}
}

var gprNames = []string{
	"v0", "t0", "t1", "t2", "t3", "t4", "t5", "t6",
	"t7", "s0", "s1", "s2", "s3", "s4", "s5", "s6",
	"a0", "a1", "a2", "a3", "a4", "a5", "t8", "t9",
	"t10", "t11", "ra", "pv", "at", "gp", "sp", "zero",
}

func (*Backend) Name() string                  { return "alpha" }
func (*Backend) PtrBytes() int                 { return 8 }
func (a *Backend) DefaultConv() *core.CallConv { return a.conv }
func (*Backend) BranchDelaySlots() int         { return 0 }
func (*Backend) LoadDelay() int                { return 2 }
func (*Backend) BigEndian() bool               { return false }
func (*Backend) ScratchReg() core.Reg          { return core.GPR(rAT) }
func (*Backend) ScratchFPR() core.Reg          { return core.FPR(30) }
func (*Backend) RetAddrOffset() int            { return 0 }

func gn(r core.Reg) uint32 { return uint32(r.Num()) }

func is32(t core.Type) bool { return t == core.TypeI || t == core.TypeU }

// materialize loads an arbitrary 64-bit constant into register r using
// lda/ldah chunks (with the usual sign-carry corrections) and a shift for
// constants wider than 32 bits.
func materialize(b *core.Buf, r uint32, imm int64) {
	l0 := int64(int16(imm))
	v1 := (imm - l0) >> 16
	l1 := int64(int16(v1))
	v2 := (v1 - l1) >> 16
	l2 := int64(int16(v2))
	v3 := (v2 - l2) >> 16
	l3 := int64(int16(v3))

	if v2 == 0 && v3 == 0 {
		// 32-bit path: at most ldah + lda.
		switch {
		case l1 != 0 && l0 != 0:
			b.Emit(memFmt(opLdah, r, rZero, int32(l1)))
			b.Emit(memFmt(opLda, r, r, int32(l0)))
		case l1 != 0:
			b.Emit(memFmt(opLdah, r, rZero, int32(l1)))
		default:
			b.Emit(memFmt(opLda, r, rZero, int32(l0)))
		}
		return
	}
	// 64-bit path: build the upper 32 bits, shift, add the lower.
	switch {
	case l3 != 0 && l2 != 0:
		b.Emit(memFmt(opLdah, r, rZero, int32(l3)))
		b.Emit(memFmt(opLda, r, r, int32(l2)))
	case l3 != 0:
		b.Emit(memFmt(opLdah, r, rZero, int32(l3)))
	default:
		b.Emit(memFmt(opLda, r, rZero, int32(l2)))
	}
	b.Emit(opFmtL(opInts, r, 32, fnSll, r))
	if l1 != 0 {
		b.Emit(memFmt(opLdah, r, r, int32(l1)))
	}
	if l0 != 0 {
		b.Emit(memFmt(opLda, r, r, int32(l0)))
	}
}

// canon emits rd = the sign-extended low 32 bits of rs, the canonical form
// of a 32-bit value: the mapped addl rs, 0, rd.
func canon(b *core.Buf, rd, rs core.Reg) { templates.ALUImm(b, core.OpAdd, core.TypeI, rd, rs, 0) }

// ALU implements rd = rs1 op rs2: the mapped row, or a 32-bit shift.
func (a *Backend) ALU(b *core.Buf, op core.Op, t core.Type, rd, rs1, rs2 core.Reg) error {
	if templates.ALU(b, op, t, rd, rs1, rs2) {
		return nil
	}
	rs, err := widen(b, op, t, rs1)
	if err == nil {
		templates.ALU(b, op, core.TypeUL, rd, rs, rs2)
		canon(b, rd, rd)
	}
	return err
}

// ALUImm implements rd = rs op imm: the mapped row's literal form, a 32-bit
// shift, or the register form of imm set into at (at a 32-bit type, its low
// 32 bits sign-extended, as every 32-bit value is held).
func (a *Backend) ALUImm(b *core.Buf, op core.Op, t core.Type, rd, rs core.Reg, imm int64) error {
	if !fitsLit8(imm) {
		a.SetImm(b, t, core.GPR(rAT), imm)
		return a.ALU(b, op, t, rd, rs, core.GPR(rAT))
	}
	if templates.ALUImm(b, op, t, rd, rs, imm) {
		return nil
	}
	rs, err := widen(b, op, t, rs)
	if err == nil {
		templates.ALUImm(b, op, core.TypeUL, rd, rs, imm)
		canon(b, rd, rd)
	}
	return err
}

// widen starts a shift of a 32-bit type, which the Alpha has no word for:
// the quad shift re-canonicalized, of the source itself for a left shift
// and of the source zero-extended into at for a logical right shift.
func widen(b *core.Buf, op core.Op, t core.Type, rs core.Reg) (core.Reg, error) {
	switch {
	case op == core.OpLsh && is32(t):
		return rs, nil
	case op == core.OpRsh && t == core.TypeU:
		b.Emit(opFmtL(opInts, gn(rs), 0x0f, fnZapnot, rAT))
		return core.GPR(rAT), nil
	}
	return rs, fmt.Errorf("alpha: ALU op %s%s unsupported (division is emulated)", op, t)
}

// Unary implements rd = op rs: the mapped row, or a single's neg, which
// has none: promoted into f30, the double's, demoted.
func (a *Backend) Unary(b *core.Buf, op core.Op, t core.Type, rd, rs core.Reg) error {
	switch {
	case templates.Unary(b, op, t, rd, rs):
	case op == core.OpNeg && t == core.TypeF:
		b.Emit(fpFmt(opFlti, 31, gn(rs), fnCvtst, 30))
		templates.Unary(b, op, core.TypeD, core.FPR(30), core.FPR(30))
		b.Emit(fpFmt(opFlti, 31, 30, fnCvtts, gn(rd)))
	default:
		return fmt.Errorf("alpha: %s%s unsupported", op, t)
	}
	return nil
}

// SetImm implements rd = imm (canonical form for 32-bit types).
func (a *Backend) SetImm(b *core.Buf, t core.Type, rd core.Reg, imm int64) error {
	if is32(t) {
		imm = int64(int32(imm))
	}
	materialize(b, gn(rd), imm)
	return nil
}

// Cvt implements rd = (to)rs.  The 21064 moves values between the integer
// and FP banks through memory; VCODE uses a 16-byte scratch frame below SP.
func (a *Backend) Cvt(b *core.Buf, from, to core.Type, rd, rs core.Reg) error {
	switch {
	case from.IsInteger() && to.IsInteger():
		switch {
		case is32(to):
			canon(b, rd, rs)
		case from == core.TypeU:
			// Zero-extend the canonical 32-bit value.
			b.Emit(opFmtL(opInts, gn(rs), 0x0f, fnZapnot, gn(rd)))
		default:
			b.Emit(opFmtR(opIntl, gn(rs), gn(rs), fnBis, gn(rd)))
		}
	case from.IsInteger() && to.IsFloat():
		src := gn(rs)
		if from == core.TypeU {
			b.Emit(opFmtL(opInts, src, 0x0f, fnZapnot, rAT))
			src = rAT
		}
		b.Emit(memFmt(opLda, rSP, rSP, -16))
		b.Emit(memFmt(opStq, src, rSP, 0))
		b.Emit(memFmt(opLdt, 30, rSP, 0))
		b.Emit(memFmt(opLda, rSP, rSP, 16))
		if to == core.TypeF {
			b.Emit(fpFmt(opFlti, 31, 30, fnCvtqs, gn(rd)))
		} else {
			b.Emit(fpFmt(opFlti, 31, 30, fnCvtqt, gn(rd)))
		}
	case from.IsFloat() && to.IsInteger():
		src := gn(rs)
		if from == core.TypeF {
			b.Emit(fpFmt(opFlti, 31, src, fnCvtst, 30))
			src = 30
		}
		b.Emit(fpFmt(opFlti, 31, src, fnCvttqc, 30))
		b.Emit(memFmt(opLda, rSP, rSP, -16))
		b.Emit(memFmt(opStt, 30, rSP, 0))
		b.Emit(memFmt(opLdq, gn(rd), rSP, 0))
		b.Emit(memFmt(opLda, rSP, rSP, 16))
		if is32(to) {
			canon(b, rd, rd)
		}
	case from == core.TypeF && to == core.TypeD:
		b.Emit(fpFmt(opFlti, 31, gn(rs), fnCvtst, gn(rd)))
	case from == core.TypeD && to == core.TypeF:
		b.Emit(fpFmt(opFlti, 31, gn(rs), fnCvtts, gn(rd)))
	default:
		return fmt.Errorf("alpha: cv%s2%s unsupported", from.Letter(), to.Letter())
	}
	return nil
}

// Load implements rd = *(t*)(base+off): the mapped row, at an offset past
// 16 bits from at = base + off, and for a byte or halfword an unaligned quad
// load and an extract (§6.2).
func (a *Backend) Load(b *core.Buf, t core.Type, rd, base core.Reg, off int64) error {
	switch {
	case templates.Load(b, t, rd, base, off):
	case !fitsS16(off):
		return a.Load(b, t, rd, far(b, base, off), 0)
	case t.IsSubWord():
		// lda at, off(base); ldq_u rd, 0(at); ext{b,w}l rd, at, rd
		// [; sll/sra to sign-extend].
		d := gn(rd)
		b.Emit(memFmt(opLda, rAT, gn(base), int32(off)))
		b.Emit(memFmt(opLdqU, d, rAT, 0))
		ext, bits := uint32(fnExtbl), uint32(56)
		if t == core.TypeS || t == core.TypeUS {
			ext, bits = fnExtwl, 48
		}
		b.Emit(opFmtR(opInts, d, rAT, ext, d))
		if t.IsSigned() {
			b.Emit(opFmtL(opInts, d, bits, fnSll, d))
			b.Emit(opFmtL(opInts, d, bits, fnSra, d))
		}
	default:
		return fmt.Errorf("alpha: ld%s unsupported", t)
	}
	return nil
}

// Store implements *(t*)(base+off) = rs as Load does; a byte or halfword
// store is the read-modify-write sequence that costs the paper's
// eleven-instruction worst case on the real machine.
func (a *Backend) Store(b *core.Buf, t core.Type, rs, base core.Reg, off int64) error {
	switch {
	case templates.Store(b, t, rs, base, off):
	case !fitsS16(off):
		return a.Store(b, t, rs, far(b, base, off), 0)
	case t.IsSubWord():
		ins, msk := uint32(fnInsbl), uint32(fnMskbl)
		if t == core.TypeS || t == core.TypeUS {
			ins, msk = fnInswl, fnMskwl
		}
		b.Emit(memFmt(opLda, rAT, gn(base), int32(off)))
		b.Emit(memFmt(opLdqU, rGP, rAT, 0))
		b.Emit(opFmtR(opInts, gn(rs), rAT, ins, rPV))
		b.Emit(opFmtR(opInts, rGP, rAT, msk, rGP))
		b.Emit(opFmtR(opIntl, rGP, rPV, fnBis, rGP))
		b.Emit(memFmt(opStqU, rGP, rAT, 0))
	default:
		return fmt.Errorf("alpha: st%s unsupported", t)
	}
	return nil
}

// far materializes off into at and adds base, returning at.
func far(b *core.Buf, base core.Reg, off int64) core.Reg {
	materialize(b, rAT, off)
	templates.ALU(b, core.OpAdd, core.TypeP, core.GPR(rAT), core.GPR(rAT), base)
	return core.GPR(rAT)
}

// Branch implements a conditional branch: the mapped compare and branch,
// a single's after promoting both into f29 and f30, the double's.
func (a *Backend) Branch(b *core.Buf, op core.Op, t core.Type, rs1, rs2 core.Reg) (int, error) {
	if t == core.TypeF {
		b.Emit(fpFmt(opFlti, 31, gn(rs1), fnCvtst, 29))
		b.Emit(fpFmt(opFlti, 31, gn(rs2), fnCvtst, 30))
		t, rs1, rs2 = core.TypeD, core.FPR(29), core.FPR(30)
	}
	return core.Branch(a, b, op, t, rs1, rs2)
}

// BranchImm implements a conditional branch against imm: a mapped form,
// else imm set into at.
func (a *Backend) BranchImm(b *core.Buf, op core.Op, t core.Type, rs core.Reg, imm int64) (int, error) {
	return core.BranchImm(a, b, op, t, rs, imm)
}

// fixed is what core emits for a jump, a call, an address and a frame.  A
// call materializes its target in pv and jsr's through it.
var fixed = core.Fixed{
	Nop:         encNop,
	Jump:        brFmt(opBr, rZero, 0),
	CallLabel:   brFmt(opBsr, rRA, 0),
	Branch:      't',
	Call:        []uint32{memFmt(opLdah, rPV, rZero, 0), memFmt(opLda, rPV, rPV, 0), jmpFmt(rRA, rPV, hintJsr)},
	Addr:        [2]core.Word{{W: memFmt(opLdah, 0, rZero, 0), Reg: "a"}, {W: memFmt(opLda, 0, 0, 0), Reg: "ab"}},
	AddrShift:   16,
	JumpReg:     core.Word{W: jmpFmt(rZero, 0, hintJmp), Reg: "b"},
	CallReg:     core.Word{W: jmpFmt(rRA, 0, hintJsr), Reg: "b"},
	FrameAdjust: memFmt(opLda, rSP, rSP, 0),
	Ret:         jmpFmt(rZero, rRA, hintRet),
}

// templates is the port's instruction mapping.  The Alpha has no integer
// divide: division and remainder go through the machine's runtime helpers
// (§5.2).
var templates = core.NewTemplates(New(), &fixed, core.Mapping{
	ALU: []core.Rule{
		{Op: core.OpAdd, Types: "i u", Row: "addl", Regs: "cal", Imm: "addl"},
		{Op: core.OpAdd, Types: "l ul p", Row: "addq", Regs: "cal", Imm: "addq"},
		{Op: core.OpAdd, Types: "f", Row: "adds", Regs: "CAB"},
		{Op: core.OpAdd, Types: "d", Row: "addt", Regs: "CAB"},
		{Op: core.OpSub, Types: "i u", Row: "subl", Regs: "cal", Imm: "subl"},
		{Op: core.OpSub, Types: "l ul p", Row: "subq", Regs: "cal", Imm: "subq"},
		{Op: core.OpSub, Types: "f", Row: "subs", Regs: "CAB"},
		{Op: core.OpSub, Types: "d", Row: "subt", Regs: "CAB"},
		{Op: core.OpMul, Types: "i u", Row: "mull", Regs: "cal", Imm: "mull"},
		{Op: core.OpMul, Types: "l ul p", Row: "mulq", Regs: "cal", Imm: "mulq"},
		{Op: core.OpMul, Types: "f", Row: "muls", Regs: "CAB"},
		{Op: core.OpMul, Types: "d", Row: "mult", Regs: "CAB"},
		{Op: core.OpDiv, Types: "f", Row: "divs", Regs: "CAB"},
		{Op: core.OpDiv, Types: "d", Row: "divt", Regs: "CAB"},
		{Op: core.OpAnd, Types: "i u l ul", Row: "and", Regs: "cal", Imm: "and"},
		{Op: core.OpOr, Types: "i u l ul", Row: "bis", Regs: "cal", Imm: "bis"},
		{Op: core.OpXor, Types: "i u l ul", Row: "xor", Regs: "cal", Imm: "xor"},
		{Op: core.OpLsh, Types: "l ul", Row: "sll", Regs: "cal", Imm: "sll"},
		{Op: core.OpRsh, Types: "i l", Row: "sra", Regs: "cal", Imm: "sra"},
		{Op: core.OpRsh, Types: "ul", Row: "srl", Regs: "cal", Imm: "srl"},
	},
	Ld: []core.Mem{
		{Types: "i u", Row: "ldl", Regs: "abi"},
		{Types: "l ul p", Row: "ldq", Regs: "abi"},
		{Types: "f", Row: "lds", Regs: "Abi"},
		{Types: "d", Row: "ldt", Regs: "Abi"},
	},
	St: []core.Mem{
		{Types: "i u", Row: "stl", Regs: "abi"},
		{Types: "l ul p", Row: "stq", Regs: "abi"},
		{Types: "f", Row: "sts", Regs: "Abi"},
		{Types: "d", Row: "stt", Regs: "Abi"},
	},
	Unary: []core.ExtRule{
		{Name: "com", Types: "i u l ul", Row: "ornot", Regs: "cl", Fix: 'a', FixTo: rZero},
		{Name: "not", Types: "i u l ul", Row: "cmpeq", Regs: "ca", Fix: 'l', FixTo: 0},
		{Name: "mov", Types: "i u l ul p", Row: "bis", Regs: "cal"},
		{Name: "mov", Types: "f d", Row: "cpys", Regs: "CAB"},
		{Name: "neg", Types: "i", Row: "subl", Regs: "cl", Fix: 'a', FixTo: rZero},
		{Name: "neg", Types: "l", Row: "subq", Regs: "cl", Fix: 'a', FixTo: rZero},
		{Name: "neg", Types: "d", Row: "cpysn", Regs: "CAB"},
	},
	Br: []core.Cond{
		{Op: core.OpBeq, Types: "i u l ul p", Br: "beq", BrRegs: "_a"},
		{Op: core.OpBne, Types: "i u l ul p", Br: "bne", BrRegs: "_a"},
		{Op: core.OpBlt, Types: "i l", Br: "blt", BrRegs: "_a"},
		{Op: core.OpBle, Types: "i l", Br: "ble", BrRegs: "_a"},
		{Op: core.OpBgt, Types: "i l", Br: "bgt", BrRegs: "_a"},
		{Op: core.OpBge, Types: "i l", Br: "bge", BrRegs: "_a"},
		{Op: core.OpBeq, Types: "i u l ul p", Cmp: "cmpeq", Regs: "cal", Imm: "cmpeq", Br: "bne", BrRegs: "a"},
		{Op: core.OpBne, Types: "i u l ul p", Cmp: "cmpeq", Regs: "cal", Imm: "cmpeq", Br: "beq", BrRegs: "a"},
		{Op: core.OpBlt, Types: "i l", Cmp: "cmplt", Regs: "cal", Imm: "cmplt", Br: "bne", BrRegs: "a"},
		{Op: core.OpBge, Types: "i l", Cmp: "cmplt", Regs: "cal", Imm: "cmplt", Br: "beq", BrRegs: "a"},
		{Op: core.OpBle, Types: "i l", Cmp: "cmple", Regs: "cal", Imm: "cmple", Br: "bne", BrRegs: "a"},
		{Op: core.OpBgt, Types: "i l", Cmp: "cmple", Regs: "cal", Imm: "cmple", Br: "beq", BrRegs: "a"},
		{Op: core.OpBlt, Types: "u ul p", Cmp: "cmpult", Regs: "cal", Imm: "cmpult", Br: "bne", BrRegs: "a"},
		{Op: core.OpBge, Types: "u ul p", Cmp: "cmpult", Regs: "cal", Imm: "cmpult", Br: "beq", BrRegs: "a"},
		{Op: core.OpBle, Types: "u ul p", Cmp: "cmpule", Regs: "cal", Imm: "cmpule", Br: "bne", BrRegs: "a"},
		{Op: core.OpBgt, Types: "u ul p", Cmp: "cmpule", Regs: "cal", Imm: "cmpule", Br: "beq", BrRegs: "a"},
		{Op: core.OpBeq, Types: "d", Cmp: "cmpteq", Regs: "CAB", Br: "fbne", BrRegs: "A"},
		{Op: core.OpBne, Types: "d", Cmp: "cmpteq", Regs: "CAB", Br: "fbeq", BrRegs: "A"},
		{Op: core.OpBlt, Types: "d", Cmp: "cmptlt", Regs: "CAB", Br: "fbne", BrRegs: "A"},
		{Op: core.OpBge, Types: "d", Cmp: "cmptlt", Regs: "CAB", Br: "fbeq", BrRegs: "A"},
		{Op: core.OpBle, Types: "d", Cmp: "cmptle", Regs: "CAB", Br: "fbne", BrRegs: "A"},
		{Op: core.OpBgt, Types: "d", Cmp: "cmptle", Regs: "CAB", Br: "fbeq", BrRegs: "A"},
	},
	Ext: []core.ExtRule{
		{Name: "sqrt", Types: "f", Row: "sqrts", Regs: "CB", Fix: 'A', FixTo: rZero},
		{Name: "sqrt", Types: "d", Row: "sqrtt", Regs: "CB", Fix: 'A', FixTo: rZero},
	},
	Emulated: []core.Helper{
		{Op: core.OpDiv, Types: "i", Sym: "__div_i"},
		{Op: core.OpDiv, Types: "u", Sym: "__div_u"},
		{Op: core.OpDiv, Types: "l", Sym: "__div_l"},
		{Op: core.OpDiv, Types: "ul p", Sym: "__div_ul"},
		{Op: core.OpMod, Types: "i", Sym: "__mod_i"},
		{Op: core.OpMod, Types: "u", Sym: "__mod_u"},
		{Op: core.OpMod, Types: "l", Sym: "__mod_l"},
		{Op: core.OpMod, Types: "ul p", Sym: "__mod_ul"},
	},
})

func (*Backend) Templates() *core.Templates { return templates }
