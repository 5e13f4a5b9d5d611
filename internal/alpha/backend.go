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
	regs *core.RegFile
}

// New returns the Alpha backend.
func New() *Backend {
	regs := &core.RegFile{NumGPR: 32, NumFPR: 32, GPRName: gprNames, FPRName: fprNames}
	return &Backend{Table: isa, conv: newConv(), regs: regs}
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
func (a *Backend) RegFile() *core.RegFile      { return a.regs }
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

// canon32 sign-extends the low 32 bits of r into r (the canonical form).
func canon32(b *core.Buf, r uint32) {
	b.Emit(opFmtL(opInta, r, 0, fnAddl, r))
}

// ALU implements rd = rs1 op rs2.
func (a *Backend) ALU(b *core.Buf, op core.Op, t core.Type, rd, rs1, rs2 core.Reg) error {
	if t.IsFloat() {
		var fn uint32
		switch {
		case op == core.OpAdd && t == core.TypeF:
			fn = fnAdds
		case op == core.OpAdd:
			fn = fnAddt
		case op == core.OpSub && t == core.TypeF:
			fn = fnSubs
		case op == core.OpSub:
			fn = fnSubt
		case op == core.OpMul && t == core.TypeF:
			fn = fnMuls
		case op == core.OpMul:
			fn = fnMult
		case op == core.OpDiv && t == core.TypeF:
			fn = fnDivs
		case op == core.OpDiv:
			fn = fnDivt
		default:
			return fmt.Errorf("alpha: %s%s unsupported", op, t)
		}
		b.Emit(fpFmt(opFlti, gn(rs1), gn(rs2), fn, gn(rd)))
		return nil
	}
	return a.aluInt(b, op, t, gn(rd), gn(rs1), gn(rs2), 0, false)
}

// ALUImm implements rd = rs op imm.
func (a *Backend) ALUImm(b *core.Buf, op core.Op, t core.Type, rd, rs core.Reg, imm int64) error {
	if fitsLit8(imm) {
		return a.aluInt(b, op, t, gn(rd), gn(rs), 0, uint32(imm), true)
	}
	materialize(b, rAT, imm)
	return a.aluInt(b, op, t, gn(rd), gn(rs), rAT, 0, false)
}

// aluInt emits an integer binary operation in register or literal form.
func (a *Backend) aluInt(b *core.Buf, op core.Op, t core.Type, rd, rs1, rs2, lit uint32, isLit bool) error {
	emit := func(opc, fn uint32) {
		if isLit {
			b.Emit(opFmtL(opc, rs1, lit, fn, rd))
		} else {
			b.Emit(opFmtR(opc, rs1, rs2, fn, rd))
		}
	}
	w32 := is32(t)
	switch op {
	case core.OpAdd:
		if w32 {
			emit(opInta, fnAddl)
		} else {
			emit(opInta, fnAddq)
		}
	case core.OpSub:
		if w32 {
			emit(opInta, fnSubl)
		} else {
			emit(opInta, fnSubq)
		}
	case core.OpMul:
		if w32 {
			emit(opIntm, fnMull)
		} else {
			emit(opIntm, fnMulq)
		}
	case core.OpAnd:
		emit(opIntl, fnAnd)
	case core.OpOr:
		emit(opIntl, fnBis)
	case core.OpXor:
		emit(opIntl, fnXor)
	case core.OpLsh:
		if w32 {
			emit(opInts, fnSll)
			canon32(b, rd)
		} else {
			emit(opInts, fnSll)
		}
	case core.OpRsh:
		switch {
		case t.IsSigned():
			emit(opInts, fnSra) // canonical 32-bit values shift correctly
		case w32:
			// Zero-extend, 64-bit logical shift, re-canonicalize.
			b.Emit(opFmtL(opInts, rs1, 0x0f, fnZapnot, rAT))
			if isLit {
				b.Emit(opFmtL(opInts, rAT, lit, fnSrl, rd))
			} else {
				b.Emit(opFmtR(opInts, rAT, rs2, fnSrl, rd))
			}
			canon32(b, rd)
		default:
			emit(opInts, fnSrl)
		}
	default:
		return fmt.Errorf("alpha: ALU op %s%s unsupported (division is emulated)", op, t)
	}
	return nil
}

// Unary implements rd = op rs.
func (a *Backend) Unary(b *core.Buf, op core.Op, t core.Type, rd, rs core.Reg) error {
	if t.IsFloat() {
		switch {
		case op == core.OpMov:
			b.Emit(fpFmt(opFltl, gn(rs), gn(rs), fnCpys, gn(rd)))
		case op == core.OpNeg && t == core.TypeD:
			b.Emit(fpFmt(opFltl, gn(rs), gn(rs), fnCpysn, gn(rd)))
		case op == core.OpNeg: // single: promote, flip the sign, demote
			b.Emit(fpFmt(opFlti, 31, gn(rs), fnCvtst, 30))
			b.Emit(fpFmt(opFltl, 30, 30, fnCpysn, 30))
			b.Emit(fpFmt(opFlti, 31, 30, fnCvtts, gn(rd)))
		default:
			return fmt.Errorf("alpha: %s%s unsupported", op, t)
		}
		return nil
	}
	d, s := gn(rd), gn(rs)
	switch op {
	case core.OpMov:
		b.Emit(opFmtR(opIntl, s, s, fnBis, d))
	case core.OpCom:
		b.Emit(opFmtR(opIntl, rZero, s, fnOrnot, d))
	case core.OpNot:
		b.Emit(opFmtL(opInta, s, 0, fnCmpeq, d))
	case core.OpNeg:
		if is32(t) {
			b.Emit(opFmtR(opInta, rZero, s, fnSubl, d))
		} else {
			b.Emit(opFmtR(opInta, rZero, s, fnSubq, d))
		}
	default:
		return fmt.Errorf("alpha: unary op %s unsupported", op)
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
			canonTo(b, gn(rs), gn(rd))
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
			canon32(b, gn(rd))
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

// canonTo emits rd = sign-extended low 32 bits of rs.
func canonTo(b *core.Buf, rs, rd uint32) {
	b.Emit(opFmtL(opInta, rs, 0, fnAddl, rd))
}

// Load implements rd = *(t*)(base+off), synthesizing byte/halfword
// accesses from unaligned quad loads (§6.2).
func (a *Backend) Load(b *core.Buf, t core.Type, rd, base core.Reg, off int64) error {
	d, bs := gn(rd), gn(base)
	if !fitsS16(off) {
		materialize(b, rAT, off)
		b.Emit(opFmtR(opInta, rAT, bs, fnAddq, rAT))
		bs, off = rAT, 0
	}
	switch t {
	case core.TypeI, core.TypeU:
		b.Emit(memFmt(opLdl, d, bs, int32(off)))
	case core.TypeL, core.TypeUL, core.TypeP:
		b.Emit(memFmt(opLdq, d, bs, int32(off)))
	case core.TypeF:
		b.Emit(memFmt(opLds, d, bs, int32(off)))
	case core.TypeD:
		b.Emit(memFmt(opLdt, d, bs, int32(off)))
	case core.TypeC, core.TypeUC, core.TypeS, core.TypeUS:
		// lda at, off(base); ldq_u rd, 0(at); ext{b,w}l rd, at, rd
		// [; sll/sra to sign-extend].
		b.Emit(memFmt(opLda, rAT, bs, int32(off)))
		b.Emit(memFmt(opLdqU, d, rAT, 0))
		ext := uint32(fnExtbl)
		bits := uint32(56)
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

// Store implements *(t*)(base+off) = rs; byte/halfword stores use the
// read-modify-write sequence that costs the paper's eleven-instruction
// worst case on the real machine.
func (a *Backend) Store(b *core.Buf, t core.Type, rs, base core.Reg, off int64) error {
	s, bs := gn(rs), gn(base)
	if !fitsS16(off) {
		materialize(b, rAT, off)
		b.Emit(opFmtR(opInta, rAT, bs, fnAddq, rAT))
		bs, off = rAT, 0
	}
	switch t {
	case core.TypeI, core.TypeU:
		b.Emit(memFmt(opStl, s, bs, int32(off)))
	case core.TypeL, core.TypeUL, core.TypeP:
		b.Emit(memFmt(opStq, s, bs, int32(off)))
	case core.TypeF:
		b.Emit(memFmt(opSts, s, bs, int32(off)))
	case core.TypeD:
		b.Emit(memFmt(opStt, s, bs, int32(off)))
	case core.TypeC, core.TypeUC, core.TypeS, core.TypeUS:
		ins, msk := uint32(fnInsbl), uint32(fnMskbl)
		if t == core.TypeS || t == core.TypeUS {
			ins, msk = fnInswl, fnMskwl
		}
		b.Emit(memFmt(opLda, rAT, bs, int32(off)))
		b.Emit(memFmt(opLdqU, rGP, rAT, 0))
		b.Emit(opFmtR(opInts, s, rAT, ins, rPV))
		b.Emit(opFmtR(opInts, rGP, rAT, msk, rGP))
		b.Emit(opFmtR(opIntl, rGP, rPV, fnBis, rGP))
		b.Emit(memFmt(opStqU, rGP, rAT, 0))
	default:
		return fmt.Errorf("alpha: st%s unsupported", t)
	}
	return nil
}

// LoadRR implements rd = *(t*)(base+idx).
func (a *Backend) LoadRR(b *core.Buf, t core.Type, rd, base, idx core.Reg) error {
	b.Emit(opFmtR(opInta, gn(base), gn(idx), fnAddq, rAT))
	return a.Load(b, t, rd, core.GPR(rAT), 0)
}

// StoreRR implements *(t*)(base+idx) = rs.
func (a *Backend) StoreRR(b *core.Buf, t core.Type, rs, base, idx core.Reg) error {
	b.Emit(opFmtR(opInta, gn(base), gn(idx), fnAddq, rAT))
	return a.Store(b, t, rs, core.GPR(rAT), 0)
}

// Branch emits compare + branch and returns the patch site.
func (a *Backend) Branch(b *core.Buf, op core.Op, t core.Type, rs1, rs2 core.Reg) (int, error) {
	if t.IsFloat() {
		return a.fpBranch(b, op, t, rs1, rs2)
	}
	s1, s2 := gn(rs1), gn(rs2)
	signed := t.IsSigned()
	cmp := func(fn uint32, x, y uint32) {
		b.Emit(opFmtR(opInta, x, y, fn, rAT))
	}
	brTrue := uint32(opBne)
	switch op {
	case core.OpBeq:
		cmp(fnCmpeq, s1, s2)
	case core.OpBne:
		cmp(fnCmpeq, s1, s2)
		brTrue = opBeq
	case core.OpBlt:
		if signed {
			cmp(fnCmplt, s1, s2)
		} else {
			cmp(fnCmpult, s1, s2)
		}
	case core.OpBge:
		if signed {
			cmp(fnCmplt, s1, s2)
		} else {
			cmp(fnCmpult, s1, s2)
		}
		brTrue = opBeq
	case core.OpBle:
		if signed {
			cmp(fnCmple, s1, s2)
		} else {
			cmp(fnCmpule, s1, s2)
		}
	case core.OpBgt:
		if signed {
			cmp(fnCmple, s1, s2)
		} else {
			cmp(fnCmpule, s1, s2)
		}
		brTrue = opBeq
	default:
		return 0, fmt.Errorf("alpha: branch op %s", op)
	}
	site := b.Len()
	b.Emit(brFmt(brTrue, rAT, 0))
	return site, nil
}

func (a *Backend) fpBranch(b *core.Buf, op core.Op, t core.Type, rs1, rs2 core.Reg) (int, error) {
	f1, f2 := gn(rs1), gn(rs2)
	if t == core.TypeF {
		// Promote singles to T format in the two FP scratches.
		b.Emit(fpFmt(opFlti, 31, f1, fnCvtst, 29))
		b.Emit(fpFmt(opFlti, 31, f2, fnCvtst, 30))
		f1, f2 = 29, 30
	}
	brTrue := uint32(opFbne)
	switch op {
	case core.OpBeq:
		b.Emit(fpFmt(opFlti, f1, f2, fnCmpteq, 30))
	case core.OpBne:
		b.Emit(fpFmt(opFlti, f1, f2, fnCmpteq, 30))
		brTrue = opFbeq
	case core.OpBlt:
		b.Emit(fpFmt(opFlti, f1, f2, fnCmptlt, 30))
	case core.OpBge:
		b.Emit(fpFmt(opFlti, f1, f2, fnCmptlt, 30))
		brTrue = opFbeq
	case core.OpBle:
		b.Emit(fpFmt(opFlti, f1, f2, fnCmptle, 30))
	case core.OpBgt:
		b.Emit(fpFmt(opFlti, f1, f2, fnCmptle, 30))
		brTrue = opFbeq
	default:
		return 0, fmt.Errorf("alpha: fp branch op %s", op)
	}
	site := b.Len()
	b.Emit(brFmt(brTrue, 30, 0))
	return site, nil
}

// BranchImm compares rs against an immediate; comparisons with zero use
// the native compare-and-branch forms directly.
func (a *Backend) BranchImm(b *core.Buf, op core.Op, t core.Type, rs core.Reg, imm int64) (int, error) {
	if imm == 0 && (t.IsSigned() || op == core.OpBeq || op == core.OpBne) {
		var brOp uint32
		switch op {
		case core.OpBeq:
			brOp = opBeq
		case core.OpBne:
			brOp = opBne
		case core.OpBlt:
			brOp = opBlt
		case core.OpBle:
			brOp = opBle
		case core.OpBgt:
			brOp = opBgt
		case core.OpBge:
			brOp = opBge
		default:
			return 0, fmt.Errorf("alpha: branch op %s", op)
		}
		site := b.Len()
		b.Emit(brFmt(brOp, gn(rs), 0))
		return site, nil
	}
	if fitsLit8(imm) {
		signed := t.IsSigned()
		brTrue := uint32(opBne)
		lit := uint32(imm)
		s := gn(rs)
		switch op {
		case core.OpBeq:
			b.Emit(opFmtL(opInta, s, lit, fnCmpeq, rAT))
		case core.OpBne:
			b.Emit(opFmtL(opInta, s, lit, fnCmpeq, rAT))
			brTrue = opBeq
		case core.OpBlt:
			b.Emit(opFmtL(opInta, s, lit, pick(signed, fnCmplt, fnCmpult), rAT))
		case core.OpBge:
			b.Emit(opFmtL(opInta, s, lit, pick(signed, fnCmplt, fnCmpult), rAT))
			brTrue = opBeq
		case core.OpBle:
			b.Emit(opFmtL(opInta, s, lit, pick(signed, fnCmple, fnCmpule), rAT))
		case core.OpBgt:
			b.Emit(opFmtL(opInta, s, lit, pick(signed, fnCmple, fnCmpule), rAT))
			brTrue = opBeq
		default:
			return 0, fmt.Errorf("alpha: branch op %s", op)
		}
		site := b.Len()
		b.Emit(brFmt(brTrue, rAT, 0))
		return site, nil
	}
	materialize(b, rAT, imm)
	return a.Branch(b, op, t, rs, core.GPR(rAT))
}

func pick(cond bool, a, b uint32) uint32 {
	if cond {
		return a
	}
	return b
}

// fixed is what core emits for a jump, a call, an address and a frame.  A
// call materializes its target in pv and jsr's through it.
var fixed = core.Fixed{
	Nop:         encNop,
	Jump:        brFmt(opBr, rZero, 0),
	CallLabel:   brFmt(opBsr, rRA, 0),
	Call:        []uint32{memFmt(opLdah, rPV, rZero, 0), memFmt(opLda, rPV, rPV, 0), jmpFmt(rRA, rPV, hintJsr)},
	Addr:        [2]core.Word{{W: memFmt(opLdah, 0, rZero, 0), Reg: "a"}, {W: memFmt(opLda, 0, 0, 0), Reg: "ab"}},
	AddrShift:   16,
	JumpReg:     core.Word{W: jmpFmt(rZero, 0, hintJmp), Reg: "b"},
	CallReg:     core.Word{W: jmpFmt(rRA, 0, hintJsr), Reg: "b"},
	FrameAdjust: memFmt(opLda, rSP, rSP, 0),
	Ret:         jmpFmt(rZero, rRA, hintRet),
}

func (*Backend) Fixed() *core.Fixed { return &fixed }

// EmulatedOp: the Alpha has no integer divide; division and remainder go
// through the machine's runtime helpers (§5.2).
func (a *Backend) EmulatedOp(op core.Op, t core.Type) (string, bool) {
	if t.IsFloat() {
		return "", false
	}
	switch op {
	case core.OpDiv:
		switch t {
		case core.TypeI:
			return "__div_i", true
		case core.TypeU:
			return "__div_u", true
		case core.TypeL:
			return "__div_l", true
		default:
			return "__div_ul", true
		}
	case core.OpMod:
		switch t {
		case core.TypeI:
			return "__mod_i", true
		case core.TypeU:
			return "__mod_u", true
		case core.TypeL:
			return "__mod_l", true
		default:
			return "__mod_ul", true
		}
	}
	return "", false
}

// TryExt maps sqrt onto the hardware square-root group.
func (a *Backend) TryExt(b *core.Buf, name string, t core.Type, rd core.Reg, rs []core.Reg) (bool, error) {
	if name == "sqrt" && t.IsFloat() && len(rs) == 1 {
		fn := uint32(fnSqrtt)
		if t == core.TypeF {
			fn = fnSqrts
		}
		b.Emit(fpFmt(opFlts, 31, gn(rs[0]), fn, gn(rd)))
		return true, nil
	}
	return false, nil
}
