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
	regs *core.RegFile
}

// New returns the MIPS backend.
func New() *Backend {
	regs := &core.RegFile{NumGPR: 32, NumFPR: 32, GPRName: gprNames, FPRName: exec.Numbered("f%d")}
	return &Backend{Table: isa, conv: newConv(), regs: regs}
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
func (m *Backend) RegFile() *core.RegFile      { return m.regs }
func (m *Backend) DefaultConv() *core.CallConv { return m.conv }
func (*Backend) BranchDelaySlots() int         { return 1 }
func (*Backend) LoadDelay() int                { return 1 }
func (*Backend) BigEndian() bool               { return false }
func (*Backend) ScratchReg() core.Reg          { return core.GPR(rAT) }
func (*Backend) ScratchFPR() core.Reg          { return core.FPR(30) }
func (*Backend) RetAddrOffset() int            { return 0 }

func gn(r core.Reg) uint32 { return uint32(r.Num()) }

func fitsS16(v int64) bool { return v >= -32768 && v <= 32767 }
func fitsU16(v int64) bool { return v >= 0 && v <= 0xffff }

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

// ALU implements rd = rs1 op rs2.
func (m *Backend) ALU(b *core.Buf, op core.Op, t core.Type, rd, rs1, rs2 core.Reg) error {
	if t.IsFloat() {
		var fn uint32
		switch op {
		case core.OpAdd:
			fn = fpAdd
		case core.OpSub:
			fn = fpSub
		case core.OpMul:
			fn = fpMul
		case core.OpDiv:
			fn = fpDiv
		default:
			return fmt.Errorf("mips: %s%s unsupported", op, t)
		}
		b.Emit(fpRType(fpFmt(t), gn(rs2), gn(rs1), gn(rd), fn))
		return nil
	}
	d, s1, s2 := gn(rd), gn(rs1), gn(rs2)
	switch op {
	case core.OpAdd:
		b.Emit(rType(fnAddu, s1, s2, d, 0))
	case core.OpSub:
		b.Emit(rType(fnSubu, s1, s2, d, 0))
	case core.OpAnd:
		b.Emit(rType(fnAnd, s1, s2, d, 0))
	case core.OpOr:
		b.Emit(rType(fnOr, s1, s2, d, 0))
	case core.OpXor:
		b.Emit(rType(fnXor, s1, s2, d, 0))
	case core.OpLsh:
		b.Emit(rType(fnSllv, s2, s1, d, 0))
	case core.OpRsh:
		if t.IsSigned() {
			b.Emit(rType(fnSrav, s2, s1, d, 0))
		} else {
			b.Emit(rType(fnSrlv, s2, s1, d, 0))
		}
	case core.OpMul:
		if t.IsSigned() {
			b.Emit(rType(fnMult, s1, s2, 0, 0))
		} else {
			b.Emit(rType(fnMultu, s1, s2, 0, 0))
		}
		b.Emit(rType(fnMflo, 0, 0, d, 0))
	case core.OpDiv, core.OpMod:
		if t.IsSigned() {
			b.Emit(rType(fnDiv, s1, s2, 0, 0))
		} else {
			b.Emit(rType(fnDivu, s1, s2, 0, 0))
		}
		if op == core.OpDiv {
			b.Emit(rType(fnMflo, 0, 0, d, 0))
		} else {
			b.Emit(rType(fnMfhi, 0, 0, d, 0))
		}
	default:
		return fmt.Errorf("mips: ALU op %s unsupported", op)
	}
	return nil
}

// ALUImm implements rd = rs op imm.
func (m *Backend) ALUImm(b *core.Buf, op core.Op, t core.Type, rd, rs core.Reg, imm int64) error {
	d, s := gn(rd), gn(rs)
	switch op {
	case core.OpAdd:
		if fitsS16(imm) {
			b.Emit(iType(opAddiu, s, d, uint16(imm)))
			return nil
		}
	case core.OpSub:
		if fitsS16(-imm) {
			b.Emit(iType(opAddiu, s, d, uint16(-imm)))
			return nil
		}
	case core.OpAnd:
		if fitsU16(imm) {
			b.Emit(iType(opAndi, s, d, uint16(imm)))
			return nil
		}
	case core.OpOr:
		if fitsU16(imm) {
			b.Emit(iType(opOri, s, d, uint16(imm)))
			return nil
		}
	case core.OpXor:
		if fitsU16(imm) {
			b.Emit(iType(opXori, s, d, uint16(imm)))
			return nil
		}
	case core.OpLsh:
		b.Emit(rType(fnSll, 0, s, d, uint32(imm&31)))
		return nil
	case core.OpRsh:
		if t.IsSigned() {
			b.Emit(rType(fnSra, 0, s, d, uint32(imm&31)))
		} else {
			b.Emit(rType(fnSrl, 0, s, d, uint32(imm&31)))
		}
		return nil
	}
	// Fall back: materialize into AT and use the register form.
	materialize(b, rAT, imm)
	return m.ALU(b, op, t, rd, rs, core.GPR(rAT))
}

// Unary implements rd = op rs.
func (m *Backend) Unary(b *core.Buf, op core.Op, t core.Type, rd, rs core.Reg) error {
	if t.IsFloat() {
		var fn uint32
		switch op {
		case core.OpMov:
			fn = fpMov
		case core.OpNeg:
			fn = fpNeg
		default:
			return fmt.Errorf("mips: %s%s unsupported", op, t)
		}
		b.Emit(fpRType(fpFmt(t), 0, gn(rs), gn(rd), fn))
		return nil
	}
	d, s := gn(rd), gn(rs)
	switch op {
	case core.OpMov:
		b.Emit(rType(fnAddu, s, rZero, d, 0))
	case core.OpNeg:
		b.Emit(rType(fnSubu, rZero, s, d, 0))
	case core.OpCom:
		b.Emit(rType(fnNor, s, rZero, d, 0))
	case core.OpNot:
		b.Emit(iType(opSltiu, s, d, 1))
	default:
		return fmt.Errorf("mips: unary op %s unsupported", op)
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

func memOpcode(t core.Type, store bool) (uint32, error) {
	if store {
		switch t {
		case core.TypeC, core.TypeUC:
			return opSb, nil
		case core.TypeS, core.TypeUS:
			return opSh, nil
		case core.TypeI, core.TypeU, core.TypeL, core.TypeUL, core.TypeP:
			return opSw, nil
		case core.TypeF:
			return opSwc1, nil
		case core.TypeD:
			return opSdc1, nil
		}
		return 0, fmt.Errorf("mips: st%s unsupported", t)
	}
	switch t {
	case core.TypeC:
		return opLb, nil
	case core.TypeUC:
		return opLbu, nil
	case core.TypeS:
		return opLh, nil
	case core.TypeUS:
		return opLhu, nil
	case core.TypeI, core.TypeU, core.TypeL, core.TypeUL, core.TypeP:
		return opLw, nil
	case core.TypeF:
		return opLwc1, nil
	case core.TypeD:
		return opLdc1, nil
	}
	return 0, fmt.Errorf("mips: ld%s unsupported", t)
}

func (m *Backend) mem(b *core.Buf, t core.Type, r, base core.Reg, off int64, store bool) error {
	op, err := memOpcode(t, store)
	if err != nil {
		return err
	}
	if fitsS16(off) {
		b.Emit(iType(op, gn(base), gn(r), uint16(off)))
		return nil
	}
	// lui at, %hi(off); addu at, at, base; op r, %lo(off)(at)
	hi := (off + 0x8000) >> 16
	lo := off - hi<<16
	b.Emit(iType(opLui, 0, rAT, uint16(hi)))
	b.Emit(rType(fnAddu, rAT, gn(base), rAT, 0))
	b.Emit(iType(op, rAT, gn(r), uint16(lo)))
	return nil
}

// Load implements rd = *(t*)(base+off).
func (m *Backend) Load(b *core.Buf, t core.Type, rd, base core.Reg, off int64) error {
	return m.mem(b, t, rd, base, off, false)
}

// Store implements *(t*)(base+off) = rs.
func (m *Backend) Store(b *core.Buf, t core.Type, rs, base core.Reg, off int64) error {
	return m.mem(b, t, rs, base, off, true)
}

// LoadRR implements rd = *(t*)(base+idx).
func (m *Backend) LoadRR(b *core.Buf, t core.Type, rd, base, idx core.Reg) error {
	b.Emit(rType(fnAddu, gn(base), gn(idx), rAT, 0))
	return m.mem(b, t, rd, core.GPR(rAT), 0, false)
}

// StoreRR implements *(t*)(base+idx) = rs.
func (m *Backend) StoreRR(b *core.Buf, t core.Type, rs, base, idx core.Reg) error {
	b.Emit(rType(fnAddu, gn(base), gn(idx), rAT, 0))
	return m.mem(b, t, rs, core.GPR(rAT), 0, true)
}

// Branch emits a conditional branch (delay-slot nop included) and returns
// the patch site.
func (m *Backend) Branch(b *core.Buf, op core.Op, t core.Type, rs1, rs2 core.Reg) (int, error) {
	if t.IsFloat() {
		return m.fpBranch(b, op, t, rs1, rs2)
	}
	s1, s2 := gn(rs1), gn(rs2)
	slt := func(a, c uint32) {
		fn := uint32(fnSlt)
		if !t.IsSigned() {
			fn = fnSltu
		}
		b.Emit(rType(fn, a, c, rAT, 0))
	}
	var site int
	switch op {
	case core.OpBeq:
		site = b.Len()
		b.Emit(iType(opBeq, s1, s2, 0))
	case core.OpBne:
		site = b.Len()
		b.Emit(iType(opBne, s1, s2, 0))
	case core.OpBlt:
		slt(s1, s2)
		site = b.Len()
		b.Emit(iType(opBne, rAT, rZero, 0))
	case core.OpBge:
		slt(s1, s2)
		site = b.Len()
		b.Emit(iType(opBeq, rAT, rZero, 0))
	case core.OpBgt:
		slt(s2, s1)
		site = b.Len()
		b.Emit(iType(opBne, rAT, rZero, 0))
	case core.OpBle:
		slt(s2, s1)
		site = b.Len()
		b.Emit(iType(opBeq, rAT, rZero, 0))
	default:
		return 0, fmt.Errorf("mips: branch op %s", op)
	}
	b.Emit(encNop)
	return site, nil
}

func (m *Backend) fpBranch(b *core.Buf, op core.Op, t core.Type, rs1, rs2 core.Reg) (int, error) {
	fm := fpFmt(t)
	cmp := func(fn, fs, ft uint32) { b.Emit(fpRType(fm, ft, fs, 0, fn)) }
	onTrue := true
	switch op {
	case core.OpBlt:
		cmp(fpCLt, gn(rs1), gn(rs2))
	case core.OpBle:
		cmp(fpCLe, gn(rs1), gn(rs2))
	case core.OpBgt:
		cmp(fpCLt, gn(rs2), gn(rs1))
	case core.OpBge:
		cmp(fpCLe, gn(rs2), gn(rs1))
	case core.OpBeq:
		cmp(fpCEq, gn(rs1), gn(rs2))
	case core.OpBne:
		cmp(fpCEq, gn(rs1), gn(rs2))
		onTrue = false
	default:
		return 0, fmt.Errorf("mips: fp branch op %s", op)
	}
	site := b.Len()
	tf := uint32(1)
	if !onTrue {
		tf = 0
	}
	b.Emit(opCop1<<26 | fmtBC<<21 | tf<<16)
	b.Emit(encNop)
	return site, nil
}

// BranchImm emits a conditional branch against an immediate.
func (m *Backend) BranchImm(b *core.Buf, op core.Op, t core.Type, rs core.Reg, imm int64) (int, error) {
	s := gn(rs)
	var site int
	switch {
	case (op == core.OpBeq || op == core.OpBne) && imm == 0:
		mop := uint32(opBeq)
		if op == core.OpBne {
			mop = opBne
		}
		site = b.Len()
		b.Emit(iType(mop, s, rZero, 0))
	case op == core.OpBlt && fitsS16(imm) && t.IsSigned():
		b.Emit(iType(opSlti, s, rAT, uint16(imm)))
		site = b.Len()
		b.Emit(iType(opBne, rAT, rZero, 0))
	case op == core.OpBge && fitsS16(imm) && t.IsSigned():
		b.Emit(iType(opSlti, s, rAT, uint16(imm)))
		site = b.Len()
		b.Emit(iType(opBeq, rAT, rZero, 0))
	case op == core.OpBle && t.IsSigned() && fitsS16(imm+1):
		b.Emit(iType(opSlti, s, rAT, uint16(imm+1)))
		site = b.Len()
		b.Emit(iType(opBne, rAT, rZero, 0))
	case op == core.OpBgt && t.IsSigned() && fitsS16(imm+1):
		b.Emit(iType(opSlti, s, rAT, uint16(imm+1)))
		site = b.Len()
		b.Emit(iType(opBeq, rAT, rZero, 0))
	case op == core.OpBlt && !t.IsSigned() && imm >= 0 && imm <= 32767:
		b.Emit(iType(opSltiu, s, rAT, uint16(imm)))
		site = b.Len()
		b.Emit(iType(opBne, rAT, rZero, 0))
	case op == core.OpBge && !t.IsSigned() && imm >= 0 && imm <= 32767:
		b.Emit(iType(opSltiu, s, rAT, uint16(imm)))
		site = b.Len()
		b.Emit(iType(opBeq, rAT, rZero, 0))
	default:
		// Materialize and compare registers; AT may serve as both the
		// comparison source and the slt destination.
		materialize(b, rAT, imm)
		return m.Branch(b, op, t, rs, core.GPR(rAT))
	}
	b.Emit(encNop)
	return site, nil
}

// Jump emits an unconditional intra-function jump (patched later).
func (m *Backend) Jump(b *core.Buf) (int, error) {
	site := b.Len()
	b.Emit(iType(opBeq, rZero, rZero, 0))
	b.Emit(encNop)
	return site, nil
}

// JumpReg emits jr r.
func (m *Backend) JumpReg(b *core.Buf, r core.Reg) error {
	b.Emit(rType(fnJr, gn(r), 0, 0, 0))
	b.Emit(encNop)
	return nil
}

// CallSite emits jal with a placeholder target.
func (m *Backend) CallSite(b *core.Buf) ([]int, error) {
	site := b.Len()
	b.Emit(jType(opJal, 0))
	b.Emit(encNop)
	return []int{site}, nil
}

// CallLabel emits bal (branch-and-link) for intra-function calls.
func (m *Backend) CallLabel(b *core.Buf) (int, error) {
	site := b.Len()
	b.Emit(iType(opRegimm, rZero, rtBal, 0))
	b.Emit(encNop)
	return site, nil
}

// CallReg emits jalr r.
func (m *Backend) CallReg(b *core.Buf, r core.Reg) error {
	b.Emit(rType(fnJalr, gn(r), 0, rRA, 0))
	b.Emit(encNop)
	return nil
}

// PatchCall resolves jal sites to an absolute target address.
func (m *Backend) PatchCall(b *core.Buf, sites []int, base, target uint64) error {
	for _, site := range sites {
		pc := base + 4*uint64(site) + 4 // address of the delay slot
		if pc&0xf0000000 != target&0xf0000000 {
			return fmt.Errorf("mips: jal target %#x outside 256MB segment of %#x", target, pc)
		}
		b.Set(site, jType(opJal, uint32(target>>2)))
	}
	return nil
}

// LoadAddr emits lui/ori materializing an address to be patched.
func (m *Backend) LoadAddr(b *core.Buf, rd core.Reg) ([]int, error) {
	s0 := b.Len()
	b.Emit(iType(opLui, 0, gn(rd), 0))
	b.Emit(iType(opOri, gn(rd), gn(rd), 0))
	return []int{s0, s0 + 1}, nil
}

// PatchAddr resolves a LoadAddr pair.
func (m *Backend) PatchAddr(b *core.Buf, sites []int, addr uint64) error {
	if len(sites) != 2 {
		return fmt.Errorf("mips: PatchAddr wants 2 sites, got %d", len(sites))
	}
	b.Set(sites[0], b.At(sites[0])&^0xffff|uint32(addr>>16&0xffff))
	b.Set(sites[1], b.At(sites[1])&^0xffff|uint32(addr&0xffff))
	return nil
}

// Nop emits the canonical nop.
func (m *Backend) Nop(b *core.Buf) { b.Emit(encNop) }

// IsNop reports whether w is the canonical nop.
func (m *Backend) IsNop(w uint32) bool { return w == encNop }

// RetEncoding returns jr ra.
func (m *Backend) RetEncoding(conv *core.CallConv) uint32 {
	return rType(fnJr, rRA, 0, 0, 0)
}

// MaxPrologueWords: frame push + RA + every callee-saved register.
func (m *Backend) MaxPrologueWords(conv *core.CallConv) int {
	return 2 + len(conv.CalleeSaved) + len(conv.CalleeSavedFP)
}

// Prologue writes the actual prologue into the tail of the reserved region
// [at, at+MaxPrologueWords) and returns the words used.
func (m *Backend) Prologue(b *core.Buf, at int, conv *core.CallConv, fr *core.Frame) (int, error) {
	if !fitsS16(fr.Size) {
		return 0, fmt.Errorf("mips: frame size %d out of range", fr.Size)
	}
	lay := core.NewSaveLayout(conv, 4)
	var w []uint32
	w = append(w, iType(opAddiu, rSP, rSP, uint16(-fr.Size)))
	if fr.SaveRA {
		w = append(w, iType(opSw, rSP, rRA, uint16(lay.RAOff())))
	}
	for _, r := range fr.SavedGPR {
		off := lay.GPROff(r)
		if off < 0 {
			return 0, fmt.Errorf("mips: %v saved but not callee-saved in convention", r)
		}
		w = append(w, iType(opSw, rSP, gn(r), uint16(off)))
	}
	for _, r := range fr.SavedFPR {
		off := lay.FPROff(r)
		if off < 0 {
			return 0, fmt.Errorf("mips: %v saved but not callee-saved in convention", r)
		}
		w = append(w, iType(opSdc1, rSP, gn(r), uint16(off)))
	}
	max := m.MaxPrologueWords(conv)
	if len(w) > max {
		return 0, fmt.Errorf("mips: prologue overflow (%d > %d words)", len(w), max)
	}
	start := at + max - len(w)
	for i, word := range w {
		b.Set(start+i, word)
	}
	return len(w), nil
}

// Epilogue restores saved registers, pops the frame and returns.
func (m *Backend) Epilogue(b *core.Buf, conv *core.CallConv, fr *core.Frame) error {
	lay := core.NewSaveLayout(conv, 4)
	if fr.SaveRA {
		b.Emit(iType(opLw, rSP, rRA, uint16(lay.RAOff())))
	}
	for _, r := range fr.SavedGPR {
		b.Emit(iType(opLw, rSP, gn(r), uint16(lay.GPROff(r))))
	}
	for _, r := range fr.SavedFPR {
		b.Emit(iType(opLdc1, rSP, gn(r), uint16(lay.FPROff(r))))
	}
	b.Emit(rType(fnJr, rRA, 0, 0, 0))
	// Pop the frame in the return's delay slot.
	b.Emit(iType(opAddiu, rSP, rSP, uint16(fr.Size)))
	return nil
}

// EmulatedOp: MIPS has hardware multiply and divide; nothing is emulated.
func (m *Backend) EmulatedOp(op core.Op, t core.Type) (string, bool) { return "", false }

// TryExt provides hardware implementations for extension instructions.
func (m *Backend) TryExt(b *core.Buf, name string, t core.Type, rd core.Reg, rs []core.Reg) (bool, error) {
	switch name {
	case "sqrt":
		if t.IsFloat() && len(rs) == 1 {
			b.Emit(fpRType(fpFmt(t), 0, gn(rs[0]), gn(rd), fpSqrt))
			return true, nil
		}
	case "abs":
		if t.IsFloat() && len(rs) == 1 {
			b.Emit(fpRType(fpFmt(t), 0, gn(rs[0]), gn(rd), fpAbs))
			return true, nil
		}
	}
	return false, nil
}
