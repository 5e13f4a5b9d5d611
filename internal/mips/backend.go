package mips

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/exec"
)

// Register numbers in MIPS conventional naming.
const (
	rZero = 0
	rAT   = 1 // assembler temporary (the VCODE scratch)
	rV0   = 2
	rV1   = 3
	rA0   = 4
	rSP   = 29
	rS8   = 30
	rRA   = 31
)

// Backend is the MIPS port of VCODE.  Its instruction table (isa.go) gives
// it ISA, Classify and Disasm.
type Backend struct {
	*exec.Table
	conv *core.CallConv
}

// New returns the MIPS backend.
func New() *Backend {
	return &Backend{Table: isa, conv: newConv()}
}

func newConv() *core.CallConv {
	g := core.GPR
	f := core.FPR
	return &core.CallConv{
		IntArgs: []core.Reg{g(4), g(5), g(6), g(7)},
		FPArgs:  []core.Reg{f(12), f(14)},
		RetInt:  g(rV0),
		RetFP:   f(0),
		RA:      g(rRA),
		SP:      g(rSP),
		Zero:    g(rZero),
		CallerSaved: []core.Reg{
			g(8), g(9), g(10), g(11), g(12), g(13), g(14), g(15),
			g(24), g(25), g(rV1), g(7), g(6), g(5), g(4),
		},
		CalleeSaved: []core.Reg{
			g(16), g(17), g(18), g(19), g(20), g(21), g(22), g(23), g(rS8),
		},
		CallerSavedFP: []core.Reg{f(4), f(6), f(8), f(10), f(16), f(18), f(14), f(12)},
		CalleeSavedFP: []core.Reg{f(20), f(22), f(24), f(26), f(28)},
		StackAlign:    8,
		SlotBytes:     4,
		HardTemp: []core.Reg{
			g(8), g(9), g(10), g(11), g(12), g(13), g(14), g(15), g(24), g(25),
		},
		HardVar:    []core.Reg{g(16), g(17), g(18), g(19), g(20), g(21), g(22), g(23)},
		HardTempFP: []core.Reg{f(4), f(6), f(8), f(10), f(16), f(18)},
		HardVarFP:  []core.Reg{f(20), f(22), f(24), f(26), f(28)},
	}
}

var gprNames = []string{
	"zero", "at", "v0", "v1", "a0", "a1", "a2", "a3",
	"t0", "t1", "t2", "t3", "t4", "t5", "t6", "t7",
	"s0", "s1", "s2", "s3", "s4", "s5", "s6", "s7",
	"t8", "t9", "k0", "k1", "gp", "sp", "s8", "ra",
}

func (*Backend) Name() string                  { return "mips" }
func (*Backend) PtrBytes() int                 { return 4 }
func (m *Backend) DefaultConv() *core.CallConv { return m.conv }
func (*Backend) BranchDelaySlots() int         { return 1 }
func (*Backend) LoadDelay() int                { return 1 }
func (*Backend) BigEndian() bool               { return false }
func (*Backend) ScratchReg() core.Reg          { return core.GPR(rAT) }
func (*Backend) ScratchFPR() core.Reg          { return core.FPR(30) }
func (*Backend) RetAddrOffset() int            { return 0 }

func gn(r core.Reg) uint32 { return uint32(r.Num()) }

func fitsS16(v int64) bool { return v >= -32768 && v <= 32767 }

// materialize loads a 32-bit immediate into register r.
func materialize(b *core.Buf, r uint32, imm int64) {
	v := uint32(imm)
	switch {
	case fitsS16(int64(int32(v))):
		b.Emit(iType(opAddiu, rZero, r, uint16(v)))
	case v&0xffff == 0:
		b.Emit(iType(opLui, 0, r, uint16(v>>16)))
	case v>>16 == 0:
		b.Emit(iType(opOri, rZero, r, uint16(v)))
	default:
		b.Emit(iType(opLui, 0, r, uint16(v>>16)))
		b.Emit(iType(opOri, r, r, uint16(v)))
	}
}

func fpFmt(t core.Type) uint32 {
	if t == core.TypeD {
		return fmtD
	}
	return fmtS
}

// ALU implements rd = rs1 op rs2: the mapped row, or an integer multiply
// or divide into hi and lo and a move from the half op wants.
func (m *Backend) ALU(b *core.Buf, op core.Op, t core.Type, rd, rs1, rs2 core.Reg) error {
	if templates.ALU(b, op, t, rd, rs1, rs2) {
		return nil
	}
	mul, div, from := uint32(fnMultu), uint32(fnDivu), uint32(fnMflo)
	if t.IsSigned() {
		mul, div = fnMult, fnDiv
	}
	switch {
	case t.IsFloat():
		return fmt.Errorf("mips: %s%s unsupported", op, t)
	case op == core.OpMul:
		b.Emit(rType(mul, gn(rs1), gn(rs2), 0, 0))
	case op == core.OpDiv || op == core.OpMod:
		b.Emit(rType(div, gn(rs1), gn(rs2), 0, 0))
		if op == core.OpMod {
			from = fnMfhi
		}
	default:
		return fmt.Errorf("mips: ALU op %s unsupported", op)
	}
	b.Emit(rType(from, 0, 0, gn(rd), 0))
	return nil
}

// ALUImm implements rd = rs op imm: the mapped row, or the register form
// of imm materialized into AT.
func (m *Backend) ALUImm(b *core.Buf, op core.Op, t core.Type, rd, rs core.Reg, imm int64) error {
	if templates.ALUImm(b, op, t, rd, rs, imm) {
		return nil
	}
	materialize(b, rAT, imm)
	return m.ALU(b, op, t, rd, rs, core.GPR(rAT))
}

// Unary implements rd = op rs: every unary op is a mapped row.
func (m *Backend) Unary(b *core.Buf, op core.Op, t core.Type, rd, rs core.Reg) error {
	if !templates.Unary(b, op, t, rd, rs) {
		return fmt.Errorf("mips: %s%s unsupported", op, t)
	}
	return nil
}

// SetImm implements rd = imm.
func (m *Backend) SetImm(b *core.Buf, t core.Type, rd core.Reg, imm int64) error {
	materialize(b, gn(rd), imm)
	return nil
}

// Cvt implements rd = (to)rs.
func (m *Backend) Cvt(b *core.Buf, from, to core.Type, rd, rs core.Reg) error {
	switch {
	case from.IsInteger() && to.IsInteger():
		// All integer types are 32 bits on MIPS: a move suffices.
		b.Emit(rType(fnAddu, gn(rs), rZero, gn(rd), 0))
	case from.IsInteger() && to.IsFloat():
		// mtc1 rs -> rd; cvt rd <- (w)rd.
		b.Emit(fpRType(fmtMTC1, gn(rs), gn(rd), 0, 0))
		fn := uint32(fpCvtS)
		if to == core.TypeD {
			fn = fpCvtD
		}
		b.Emit(fpRType(fmtW, 0, gn(rd), gn(rd), fn))
	case from.IsFloat() && to.IsInteger():
		// cvt.w into the FP scratch, then mfc1 (truncating; the
		// simulator implements cvt.w with round-to-zero, the C
		// semantics VCODE wants).
		b.Emit(fpRType(fpFmt(from), 0, gn(rs), 30, fpCvtW))
		b.Emit(fpRType(fmtMFC1, gn(rd), 30, 0, 0))
	case from == core.TypeF && to == core.TypeD:
		b.Emit(fpRType(fmtS, 0, gn(rs), gn(rd), fpCvtD))
	case from == core.TypeD && to == core.TypeF:
		b.Emit(fpRType(fmtD, 0, gn(rs), gn(rd), fpCvtS))
	default:
		return fmt.Errorf("mips: cv%s2%s unsupported", from.Letter(), to.Letter())
	}
	return nil
}

// Load implements rd = *(t*)(base+off).
func (m *Backend) Load(b *core.Buf, t core.Type, rd, base core.Reg, off int64) error {
	if templates.Load(b, t, rd, base, off) {
		return nil
	}
	return far(b, templates.Load, t, rd, base, off)
}

// Store implements *(t*)(base+off) = rs.
func (m *Backend) Store(b *core.Buf, t core.Type, rs, base core.Reg, off int64) error {
	if templates.Store(b, t, rs, base, off) {
		return nil
	}
	return far(b, templates.Store, t, rs, base, off)
}

// far is a load or store at an offset past 16 bits: lui at, %hi(off);
// addu at, at, base; then the mapped word at %lo(off)(at).
func far(b *core.Buf, mem func(*core.Buf, core.Type, core.Reg, core.Reg, int64) bool, t core.Type, r, base core.Reg, off int64) error {
	hi, at := (off+0x8000)>>16, core.GPR(rAT)
	b.Emit(iType(opLui, 0, rAT, uint16(hi)))
	templates.ALU(b, core.OpAdd, core.TypeP, at, at, base)
	if !mem(b, t, r, at, off-hi<<16) {
		return fmt.Errorf("mips: memory access of type %s unsupported", t)
	}
	return nil
}

// Branch implements a conditional branch: every one is a mapped compare
// and branch.
func (m *Backend) Branch(b *core.Buf, op core.Op, t core.Type, rs1, rs2 core.Reg) (int, error) {
	return core.Branch(m, b, op, t, rs1, rs2)
}

// BranchImm implements a conditional branch against imm: a mapped form,
// else imm set into at.
func (m *Backend) BranchImm(b *core.Buf, op core.Op, t core.Type, rs core.Reg, imm int64) (int, error) {
	return core.BranchImm(m, b, op, t, rs, imm)
}

// fixed is what core emits for a jump, a call, an address and a frame.
var fixed = core.Fixed{
	Nop:         encNop,
	Jump:        iType(opBeq, rZero, rZero, 0),
	CallLabel:   iType(opRegimm, rZero, rtBal, 0),
	Branch:      'b',
	Call:        []uint32{jType(opJal, 0)},
	Addr:        [2]core.Word{{W: iType(opLui, 0, 0, 0), Reg: "t"}, {W: iType(opOri, 0, 0, 0), Reg: "ts"}},
	AddrShift:   16,
	JumpReg:     core.Word{W: rType(fnJr, 0, 0, 0, 0), Reg: "s"},
	CallReg:     core.Word{W: rType(fnJalr, 0, 0, rRA, 0), Reg: "s"},
	FrameAdjust: iType(opAddiu, rSP, rSP, 0),
	Ret:         rType(fnJr, rRA, 0, 0, 0),
}

// templates is the port's instruction mapping; MIPS emulates nothing.
var templates = core.NewTemplates(New(), &fixed, core.Mapping{
	ALU: []core.Rule{
		{Op: core.OpAdd, Types: "i u l ul p", Row: "addu", Regs: "dst", Imm: "addiu", ImmRegs: "tsi"},
		{Op: core.OpAdd, Types: "f", Row: "add.s", Regs: "DST"},
		{Op: core.OpAdd, Types: "d", Row: "add.d", Regs: "DST"},
		{Op: core.OpSub, Types: "i u l ul p", Row: "subu", Regs: "dst", Imm: "addiu", ImmRegs: "tsi", Neg: true},
		{Op: core.OpSub, Types: "f", Row: "sub.s", Regs: "DST"},
		{Op: core.OpSub, Types: "d", Row: "sub.d", Regs: "DST"},
		{Op: core.OpMul, Types: "f", Row: "mul.s", Regs: "DST"},
		{Op: core.OpMul, Types: "d", Row: "mul.d", Regs: "DST"},
		{Op: core.OpDiv, Types: "f", Row: "div.s", Regs: "DST"},
		{Op: core.OpDiv, Types: "d", Row: "div.d", Regs: "DST"},
		{Op: core.OpAnd, Types: "i u l ul", Row: "and", Regs: "dst", Imm: "andi", ImmRegs: "tsu"},
		{Op: core.OpOr, Types: "i u l ul", Row: "or", Regs: "dst", Imm: "ori", ImmRegs: "tsu"},
		{Op: core.OpXor, Types: "i u l ul", Row: "xor", Regs: "dst", Imm: "xori", ImmRegs: "tsu"},
		{Op: core.OpLsh, Types: "i u l ul", Row: "sllv", Regs: "dts", Imm: "sll", ImmRegs: "dth", Mask: 31},
		{Op: core.OpRsh, Types: "i l", Row: "srav", Regs: "dts", Imm: "sra", ImmRegs: "dth", Mask: 31},
		{Op: core.OpRsh, Types: "u ul", Row: "srlv", Regs: "dts", Imm: "srl", ImmRegs: "dth", Mask: 31},
	},
	Ld: []core.Mem{
		{Types: "c", Row: "lb", Regs: "tsi"},
		{Types: "uc", Row: "lbu", Regs: "tsi"},
		{Types: "s", Row: "lh", Regs: "tsi"},
		{Types: "us", Row: "lhu", Regs: "tsi"},
		{Types: "i u l ul p", Row: "lw", Regs: "tsi"},
		{Types: "f", Row: "lwc1", Regs: "Tsi"},
		{Types: "d", Row: "ldc1", Regs: "Tsi"},
	},
	St: []core.Mem{
		{Types: "c uc", Row: "sb", Regs: "tsi"},
		{Types: "s us", Row: "sh", Regs: "tsi"},
		{Types: "i u l ul p", Row: "sw", Regs: "tsi"},
		{Types: "f", Row: "swc1", Regs: "Tsi"},
		{Types: "d", Row: "sdc1", Regs: "Tsi"},
	},
	Unary: []core.ExtRule{
		{Name: "com", Types: "i u l ul", Row: "nor", Regs: "ds"},
		{Name: "not", Types: "i u l ul", Row: "sltiu", Regs: "ts", Fix: 'i', FixTo: 1},
		{Name: "mov", Types: "i u l ul p", Row: "move", Regs: "ds"},
		{Name: "mov", Types: "f", Row: "mov.s", Regs: "DS"},
		{Name: "mov", Types: "d", Row: "mov.d", Regs: "DS"},
		{Name: "neg", Types: "i l", Row: "subu", Regs: "dt"},
		{Name: "neg", Types: "f", Row: "neg.s", Regs: "DS"},
		{Name: "neg", Types: "d", Row: "neg.d", Regs: "DS"},
	},
	Br: []core.Cond{
		{Op: core.OpBeq, Types: "i u l ul p", Br: "beq", BrRegs: "_st"},
		{Op: core.OpBeq, Types: "i u l ul p", Br: "beq", BrRegs: "_s"},
		{Op: core.OpBne, Types: "i u l ul p", Br: "bne", BrRegs: "_st"},
		{Op: core.OpBne, Types: "i u l ul p", Br: "bne", BrRegs: "_s"},
		{Op: core.OpBlt, Types: "i l", Cmp: "slt", Regs: "dst", Br: "bne", BrRegs: "s", Imm: "slti", ImmRegs: "tsi"},
		{Op: core.OpBge, Types: "i l", Cmp: "slt", Regs: "dst", Br: "beq", BrRegs: "s", Imm: "slti", ImmRegs: "tsi"},
		{Op: core.OpBgt, Types: "i l", Cmp: "slt", Regs: "dts", Br: "bne", BrRegs: "s"},
		{Op: core.OpBle, Types: "i l", Cmp: "slt", Regs: "dts", Br: "beq", BrRegs: "s"},
		{Op: core.OpBgt, Types: "i l", Imm: "slti", ImmRegs: "tsi", Inc: true, Br: "beq", BrRegs: "s"},
		{Op: core.OpBle, Types: "i l", Imm: "slti", ImmRegs: "tsi", Inc: true, Br: "bne", BrRegs: "s"},
		{Op: core.OpBlt, Types: "u ul p", Cmp: "sltu", Regs: "dst", Br: "bne", BrRegs: "s", Imm: "sltiu", ImmRegs: "tsi", NonNeg: true},
		{Op: core.OpBge, Types: "u ul p", Cmp: "sltu", Regs: "dst", Br: "beq", BrRegs: "s", Imm: "sltiu", ImmRegs: "tsi", NonNeg: true},
		{Op: core.OpBgt, Types: "u ul p", Cmp: "sltu", Regs: "dts", Br: "bne", BrRegs: "s"},
		{Op: core.OpBle, Types: "u ul p", Cmp: "sltu", Regs: "dts", Br: "beq", BrRegs: "s"},
		{Op: core.OpBlt, Types: "f", Cmp: "c.lt.s", Regs: "_ST", Br: "bc1t"},
		{Op: core.OpBle, Types: "f", Cmp: "c.le.s", Regs: "_ST", Br: "bc1t"},
		{Op: core.OpBgt, Types: "f", Cmp: "c.lt.s", Regs: "_TS", Br: "bc1t"},
		{Op: core.OpBge, Types: "f", Cmp: "c.le.s", Regs: "_TS", Br: "bc1t"},
		{Op: core.OpBeq, Types: "f", Cmp: "c.eq.s", Regs: "_ST", Br: "bc1t"},
		{Op: core.OpBne, Types: "f", Cmp: "c.eq.s", Regs: "_ST", Br: "bc1f"},
		{Op: core.OpBlt, Types: "d", Cmp: "c.lt.d", Regs: "_ST", Br: "bc1t"},
		{Op: core.OpBle, Types: "d", Cmp: "c.le.d", Regs: "_ST", Br: "bc1t"},
		{Op: core.OpBgt, Types: "d", Cmp: "c.lt.d", Regs: "_TS", Br: "bc1t"},
		{Op: core.OpBge, Types: "d", Cmp: "c.le.d", Regs: "_TS", Br: "bc1t"},
		{Op: core.OpBeq, Types: "d", Cmp: "c.eq.d", Regs: "_ST", Br: "bc1t"},
		{Op: core.OpBne, Types: "d", Cmp: "c.eq.d", Regs: "_ST", Br: "bc1f"},
	},
	Ext: []core.ExtRule{
		{Name: "sqrt", Types: "f", Row: "sqrt.s", Regs: "DS"},
		{Name: "sqrt", Types: "d", Row: "sqrt.d", Regs: "DS"},
		{Name: "abs", Types: "f", Row: "abs.s", Regs: "DS"},
		{Name: "abs", Types: "d", Row: "abs.d", Regs: "DS"},
	},
})

func (*Backend) Templates() *core.Templates { return templates }
