package sparc

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/exec"
)

// Register numbers.
const (
	rG0 = 0 // hardwired zero
	rG1 = 1 // assembler scratch
	rG7 = 7 // second scratch, used inside the divide/modulus sequences
	rO0 = 8
	rSP = 14 // %o6
	rO7 = 15 // link register
	rL0 = 16
	rI0 = 24
	rFP = 30 // %i6 (unused in flat model, kept reserved)
)

// Backend is the SPARC V8 (flat model) port of VCODE.  Its instruction
// table (isa.go) gives it ISA, Classify and Disasm.
type Backend struct {
	*exec.Table
	conv *core.CallConv
	regs *core.RegFile
}

// New returns the SPARC backend.
func New() *Backend {
	regs := &core.RegFile{NumGPR: 32, NumFPR: 32, GPRName: gprNames, FPRName: fprNames}
	return &Backend{Table: isa, conv: newConv(), regs: regs}
}

func newConv() *core.CallConv {
	g := core.GPR
	f := core.FPR
	return &core.CallConv{
		IntArgs: []core.Reg{g(8), g(9), g(10), g(11), g(12), g(13)}, // %o0-%o5
		FPArgs:  []core.Reg{f(2), f(4)},
		RetInt:  g(rO0),
		RetFP:   f(0),
		RA:      g(rO7),
		SP:      g(rSP),
		Zero:    g(rG0),
		CallerSaved: []core.Reg{
			g(2), g(3), g(4), g(5), // %g2-%g5
			g(24), g(25), g(26), g(27), g(28), g(29), // %i0-%i5 (flat: temps)
			g(13), g(12), g(11), g(10), g(9), g(8), // unused %o args
		},
		CalleeSaved: []core.Reg{
			g(16), g(17), g(18), g(19), g(20), g(21), g(22), g(23), // %l0-%l7
		},
		CallerSavedFP: []core.Reg{f(8), f(10), f(12), f(14), f(16), f(18), f(4), f(2)},
		CalleeSavedFP: []core.Reg{f(20), f(22), f(24), f(26), f(28)},
		StackAlign:    8,
		SlotBytes:     4,
		HardTemp: []core.Reg{
			g(2), g(3), g(4), g(5), g(24), g(25), g(26), g(27), g(28), g(29),
		},
		HardVar:    []core.Reg{g(16), g(17), g(18), g(19), g(20), g(21), g(22), g(23)},
		HardTempFP: []core.Reg{f(8), f(10), f(12), f(14), f(16), f(18)},
		HardVarFP:  []core.Reg{f(20), f(22), f(24), f(26), f(28)},
	}
}

var gprNames = []string{
	"%g0", "%g1", "%g2", "%g3", "%g4", "%g5", "%g6", "%g7",
	"%o0", "%o1", "%o2", "%o3", "%o4", "%o5", "%sp", "%o7",
	"%l0", "%l1", "%l2", "%l3", "%l4", "%l5", "%l6", "%l7",
	"%i0", "%i1", "%i2", "%i3", "%i4", "%i5", "%fp", "%i7",
}

func (*Backend) Name() string                  { return "sparc" }
func (*Backend) PtrBytes() int                 { return 4 }
func (s *Backend) RegFile() *core.RegFile      { return s.regs }
func (s *Backend) DefaultConv() *core.CallConv { return s.conv }
func (*Backend) BranchDelaySlots() int         { return 1 }
func (*Backend) LoadDelay() int                { return 1 }
func (*Backend) BigEndian() bool               { return true }
func (*Backend) ScratchReg() core.Reg          { return core.GPR(rG1) }
func (*Backend) ScratchFPR() core.Reg          { return core.FPR(30) }
func (*Backend) RetAddrOffset() int            { return 8 }

func gn(r core.Reg) uint32 { return uint32(r.Num()) }

// materialize loads a 32-bit constant into register r.
func materialize(b *core.Buf, r uint32, imm int64) {
	v := uint32(imm)
	switch {
	case fitsS13(int64(int32(v))):
		b.Emit(fmt3i(2, r, op3Or, rG0, int32(v)))
	case v&0x3ff == 0:
		b.Emit(fmtSethi(r, v>>10))
	default:
		b.Emit(fmtSethi(r, v>>10))
		b.Emit(fmt3i(2, r, op3Or, r, int32(v&0x3ff)))
	}
}

// ALU implements rd = rs1 op rs2.
func (s *Backend) ALU(b *core.Buf, op core.Op, t core.Type, rd, rs1, rs2 core.Reg) error {
	if t.IsFloat() {
		var opf uint32
		switch {
		case op == core.OpAdd && t == core.TypeF:
			opf = opfFadds
		case op == core.OpAdd:
			opf = opfFaddd
		case op == core.OpSub && t == core.TypeF:
			opf = opfFsubs
		case op == core.OpSub:
			opf = opfFsubd
		case op == core.OpMul && t == core.TypeF:
			opf = opfFmuls
		case op == core.OpMul:
			opf = opfFmuld
		case op == core.OpDiv && t == core.TypeF:
			opf = opfFdivs
		case op == core.OpDiv:
			opf = opfFdivd
		default:
			return fmt.Errorf("sparc: %s%s unsupported", op, t)
		}
		b.Emit(fmtFP(op3FPop1, gn(rd), opf, gn(rs1), gn(rs2)))
		return nil
	}
	d, s1, s2 := gn(rd), gn(rs1), gn(rs2)
	switch op {
	case core.OpAdd:
		b.Emit(fmt3r(2, d, op3Add, s1, s2))
	case core.OpSub:
		b.Emit(fmt3r(2, d, op3Sub, s1, s2))
	case core.OpAnd:
		b.Emit(fmt3r(2, d, op3And, s1, s2))
	case core.OpOr:
		b.Emit(fmt3r(2, d, op3Or, s1, s2))
	case core.OpXor:
		b.Emit(fmt3r(2, d, op3Xor, s1, s2))
	case core.OpLsh:
		b.Emit(fmt3r(2, d, op3Sll, s1, s2))
	case core.OpRsh:
		if t.IsSigned() {
			b.Emit(fmt3r(2, d, op3Sra, s1, s2))
		} else {
			b.Emit(fmt3r(2, d, op3Srl, s1, s2))
		}
	case core.OpMul:
		if t.IsSigned() {
			b.Emit(fmt3r(2, d, op3Smul, s1, s2))
		} else {
			b.Emit(fmt3r(2, d, op3Umul, s1, s2))
		}
	case core.OpDiv, core.OpMod:
		// Seed the Y register with the upper dividend half, divide,
		// and for mod multiply back and subtract.  The sequence uses
		// %g7 internally so that %g1 stays free to carry a
		// materialized immediate divisor.
		if t.IsSigned() {
			b.Emit(fmt3i(2, rG7, op3Sra, s1, 31))
		} else {
			b.Emit(fmt3r(2, rG7, op3Or, rG0, rG0))
		}
		b.Emit(fmt3r(2, 0, op3WrY, rG7, rG0)) // wr %g7, %y
		fn := uint32(op3Sdiv)
		if !t.IsSigned() {
			fn = op3Udiv
		}
		if op == core.OpDiv {
			b.Emit(fmt3r(2, d, fn, s1, s2))
			return nil
		}
		b.Emit(fmt3r(2, rG7, fn, s1, s2))
		b.Emit(fmt3r(2, rG7, op3Smul, rG7, s2))
		b.Emit(fmt3r(2, d, op3Sub, s1, rG7))
	default:
		return fmt.Errorf("sparc: ALU op %s unsupported", op)
	}
	return nil
}

// ALUImm implements rd = rs op imm.
func (s *Backend) ALUImm(b *core.Buf, op core.Op, t core.Type, rd, rs core.Reg, imm int64) error {
	d, src := gn(rd), gn(rs)
	var op3 uint32
	switch op {
	case core.OpAdd:
		op3 = op3Add
	case core.OpSub:
		op3 = op3Sub
	case core.OpAnd:
		op3 = op3And
	case core.OpOr:
		op3 = op3Or
	case core.OpXor:
		op3 = op3Xor
	case core.OpLsh:
		b.Emit(fmt3i(2, d, op3Sll, src, int32(imm&31)))
		return nil
	case core.OpRsh:
		if t.IsSigned() {
			b.Emit(fmt3i(2, d, op3Sra, src, int32(imm&31)))
		} else {
			b.Emit(fmt3i(2, d, op3Srl, src, int32(imm&31)))
		}
		return nil
	default:
		materialize(b, rG1, imm)
		return s.ALU(b, op, t, rd, rs, core.GPR(rG1))
	}
	if fitsS13(imm) {
		b.Emit(fmt3i(2, d, op3, src, int32(imm)))
		return nil
	}
	materialize(b, rG1, imm)
	b.Emit(fmt3r(2, d, op3, src, rG1))
	return nil
}

// Unary implements rd = op rs.
func (s *Backend) Unary(b *core.Buf, op core.Op, t core.Type, rd, rs core.Reg) error {
	if t.IsFloat() {
		switch {
		case op == core.OpMov && t == core.TypeF:
			b.Emit(fmtFP(op3FPop1, gn(rd), opfFmovs, 0, gn(rs)))
		case op == core.OpMov: // move a double: two single moves
			b.Emit(fmtFP(op3FPop1, gn(rd), opfFmovs, 0, gn(rs)))
			b.Emit(fmtFP(op3FPop1, gn(rd)+1, opfFmovs, 0, gn(rs)+1))
		case op == core.OpNeg && t == core.TypeF:
			b.Emit(fmtFP(op3FPop1, gn(rd), opfFnegs, 0, gn(rs)))
		case op == core.OpNeg: // negate a double: flip the sign word
			b.Emit(fmtFP(op3FPop1, gn(rd), opfFnegs, 0, gn(rs)))
			if rd != rs {
				b.Emit(fmtFP(op3FPop1, gn(rd)+1, opfFmovs, 0, gn(rs)+1))
			}
		default:
			return fmt.Errorf("sparc: %s%s unsupported", op, t)
		}
		return nil
	}
	d, src := gn(rd), gn(rs)
	switch op {
	case core.OpMov:
		b.Emit(fmt3r(2, d, op3Or, rG0, src))
	case core.OpNeg:
		b.Emit(fmt3r(2, d, op3Sub, rG0, src))
	case core.OpCom:
		b.Emit(fmt3r(2, d, op3Xnor, src, rG0))
	case core.OpNot:
		// rd = (rs == 0): subcc %g0, rs, %g0 sets carry iff rs != 0;
		// addx captures it inverted via subcc/ addx trick:
		// subcc rs, 1, %g0  (carry set iff rs == 0, unsigned borrow)
		// addx %g0, 0, rd   (rd = carry)
		b.Emit(fmt3i(2, 0, op3SubCC, src, 1))
		b.Emit(fmt3i(2, d, 0x08 /* addx */, rG0, 0))
	default:
		return fmt.Errorf("sparc: unary op %s unsupported", op)
	}
	return nil
}

// SetImm implements rd = imm.
func (s *Backend) SetImm(b *core.Buf, t core.Type, rd core.Reg, imm int64) error {
	materialize(b, gn(rd), imm)
	return nil
}

// Cvt implements rd = (to)rs.  SPARC moves between the integer and FP
// banks through memory; VCODE uses a scratch slot just below the stack
// pointer.
func (s *Backend) Cvt(b *core.Buf, from, to core.Type, rd, rs core.Reg) error {
	switch {
	case from.IsInteger() && to.IsInteger():
		b.Emit(fmt3r(2, gn(rd), op3Or, rG0, gn(rs)))
	case from.IsInteger() && to.IsFloat():
		// st rs, [sp-8]; ldf [sp-8], rd; fitos/fitod rd, rd.
		b.Emit(fmt3i(3, gn(rs), op3St, rSP, -8))
		b.Emit(fmt3i(3, gn(rd), op3Ldf, rSP, -8))
		if to == core.TypeF {
			b.Emit(fmtFP(op3FPop1, gn(rd), opfFitos, 0, gn(rd)))
		} else {
			b.Emit(fmtFP(op3FPop1, gn(rd), opfFitod, 0, gn(rd)))
		}
	case from.IsFloat() && to.IsInteger():
		// fstoi/fdtoi into the FP scratch, store, load back.
		opf := uint32(opfFstoi)
		if from == core.TypeD {
			opf = opfFdtoi
		}
		b.Emit(fmtFP(op3FPop1, 30, opf, 0, gn(rs)))
		b.Emit(fmt3i(3, 30, op3Stf, rSP, -8))
		b.Emit(fmt3i(3, gn(rd), op3Ld, rSP, -8))
	case from == core.TypeF && to == core.TypeD:
		b.Emit(fmtFP(op3FPop1, gn(rd), opfFstod, 0, gn(rs)))
	case from == core.TypeD && to == core.TypeF:
		b.Emit(fmtFP(op3FPop1, gn(rd), opfFdtos, 0, gn(rs)))
	default:
		return fmt.Errorf("sparc: cv%s2%s unsupported", from.Letter(), to.Letter())
	}
	return nil
}

func memOp3(t core.Type, store bool) (uint32, error) {
	if store {
		switch t {
		case core.TypeC, core.TypeUC:
			return op3Stb, nil
		case core.TypeS, core.TypeUS:
			return op3Sth, nil
		case core.TypeI, core.TypeU, core.TypeL, core.TypeUL, core.TypeP:
			return op3St, nil
		case core.TypeF:
			return op3Stf, nil
		case core.TypeD:
			return op3Stdf, nil
		}
		return 0, fmt.Errorf("sparc: st%s unsupported", t)
	}
	switch t {
	case core.TypeC:
		return op3Ldsb, nil
	case core.TypeUC:
		return op3Ldub, nil
	case core.TypeS:
		return op3Ldsh, nil
	case core.TypeUS:
		return op3Lduh, nil
	case core.TypeI, core.TypeU, core.TypeL, core.TypeUL, core.TypeP:
		return op3Ld, nil
	case core.TypeF:
		return op3Ldf, nil
	case core.TypeD:
		return op3Lddf, nil
	}
	return 0, fmt.Errorf("sparc: ld%s unsupported", t)
}

func (s *Backend) mem(b *core.Buf, t core.Type, r, base core.Reg, off int64, store bool) error {
	op3, err := memOp3(t, store)
	if err != nil {
		return err
	}
	if fitsS13(off) {
		b.Emit(fmt3i(3, gn(r), op3, gn(base), int32(off)))
		return nil
	}
	materialize(b, rG1, off)
	b.Emit(fmt3r(3, gn(r), op3, gn(base), rG1))
	return nil
}

// Load implements rd = *(t*)(base+off).
func (s *Backend) Load(b *core.Buf, t core.Type, rd, base core.Reg, off int64) error {
	return s.mem(b, t, rd, base, off, false)
}

// Store implements *(t*)(base+off) = rs.
func (s *Backend) Store(b *core.Buf, t core.Type, rs, base core.Reg, off int64) error {
	return s.mem(b, t, rs, base, off, true)
}

// LoadRR uses SPARC's native register+register addressing.
func (s *Backend) LoadRR(b *core.Buf, t core.Type, rd, base, idx core.Reg) error {
	op3, err := memOp3(t, false)
	if err != nil {
		return err
	}
	b.Emit(fmt3r(3, gn(rd), op3, gn(base), gn(idx)))
	return nil
}

// StoreRR uses register+register addressing.
func (s *Backend) StoreRR(b *core.Buf, t core.Type, rs, base, idx core.Reg) error {
	op3, err := memOp3(t, true)
	if err != nil {
		return err
	}
	b.Emit(fmt3r(3, gn(rs), op3, gn(base), gn(idx)))
	return nil
}

func intCond(op core.Op, signed bool) uint32 {
	switch op {
	case core.OpBeq:
		return condE
	case core.OpBne:
		return condNE
	case core.OpBlt:
		if signed {
			return condL
		}
		return condCS
	case core.OpBle:
		if signed {
			return condLE
		}
		return condLEU
	case core.OpBgt:
		if signed {
			return condG
		}
		return condGU
	case core.OpBge:
		if signed {
			return condGE
		}
		return condCC
	}
	return condN
}

// Branch emits subcc + conditional branch + delay nop.
func (s *Backend) Branch(b *core.Buf, op core.Op, t core.Type, rs1, rs2 core.Reg) (int, error) {
	if t.IsFloat() {
		opf := uint32(opfFcmps)
		if t == core.TypeD {
			opf = opfFcmpd
		}
		b.Emit(fmtFP(op3FPop2, 0, opf, gn(rs1), gn(rs2)))
		b.Emit(encNop) // required gap between fcmp and fbcc
		var cond uint32
		switch op {
		case core.OpBeq:
			cond = fcondE
		case core.OpBne:
			cond = fcondNE
		case core.OpBlt:
			cond = fcondL
		case core.OpBle:
			cond = fcondLE
		case core.OpBgt:
			cond = fcondG
		case core.OpBge:
			cond = fcondGE
		default:
			return 0, fmt.Errorf("sparc: fp branch %s", op)
		}
		site := b.Len()
		b.Emit(fmtFBfcc(cond, 0))
		b.Emit(encNop)
		return site, nil
	}
	b.Emit(fmt3r(2, 0, op3SubCC, gn(rs1), gn(rs2)))
	site := b.Len()
	b.Emit(fmtBicc(intCond(op, t.IsSigned()), 0))
	b.Emit(encNop)
	return site, nil
}

// BranchImm compares against an immediate.
func (s *Backend) BranchImm(b *core.Buf, op core.Op, t core.Type, rs core.Reg, imm int64) (int, error) {
	if fitsS13(imm) {
		b.Emit(fmt3i(2, 0, op3SubCC, gn(rs), int32(imm)))
	} else {
		materialize(b, rG1, imm)
		b.Emit(fmt3r(2, 0, op3SubCC, gn(rs), rG1))
	}
	site := b.Len()
	b.Emit(fmtBicc(intCond(op, t.IsSigned()), 0))
	b.Emit(encNop)
	return site, nil
}

// fixed is what core emits for a jump, a call, an address and a frame.
var fixed = core.Fixed{
	Nop:         encNop,
	Jump:        fmtBicc(condA, 0),
	CallLabel:   fmtCall(0),
	Call:        []uint32{fmtCall(0)},
	Addr:        [2]core.Word{{W: fmtSethi(0, 0), Reg: "d"}, {W: fmt3i(2, 0, op3Or, 0, 0), Reg: "1d"}},
	AddrShift:   10,
	JumpReg:     core.Word{W: fmt3i(2, 0, op3Jmpl, 0, 0), Reg: "1"},
	CallReg:     core.Word{W: fmt3i(2, rO7, op3Jmpl, 0, 0), Reg: "1"},
	FrameAdjust: fmt3i(2, rSP, op3Add, rSP, 0),
	Ret:         fmt3i(2, 0, op3Jmpl, rO7, 8),
}

func (*Backend) Fixed() *core.Fixed { return &fixed }

// EmulatedOp: SPARC V8 has hardware multiply and divide.
func (s *Backend) EmulatedOp(op core.Op, t core.Type) (string, bool) { return "", false }

// TryExt provides hardware implementations for extensions.
func (s *Backend) TryExt(b *core.Buf, name string, t core.Type, rd core.Reg, rs []core.Reg) (bool, error) {
	switch name {
	case "sqrt":
		if t == core.TypeF && len(rs) == 1 {
			b.Emit(fmtFP(op3FPop1, gn(rd), opfFsqrts, 0, gn(rs[0])))
			return true, nil
		}
		if t == core.TypeD && len(rs) == 1 {
			b.Emit(fmtFP(op3FPop1, gn(rd), opfFsqrtd, 0, gn(rs[0])))
			return true, nil
		}
	case "abs":
		if t == core.TypeF && len(rs) == 1 {
			b.Emit(fmtFP(op3FPop1, gn(rd), opfFabss, 0, gn(rs[0])))
			return true, nil
		}
	}
	return false, nil
}
