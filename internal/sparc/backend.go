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
}

// New returns the SPARC backend.
func New() *Backend {
	return &Backend{Table: isa, conv: newConv()}
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

// ALU implements rd = rs1 op rs2: the mapped row, or an integer division,
// which seeds Y with the upper dividend half, divides, and for mod
// multiplies back and subtracts.  The sequence uses %g7 internally so that
// %g1 stays free to carry a materialized immediate divisor.
func (s *Backend) ALU(b *core.Buf, op core.Op, t core.Type, rd, rs1, rs2 core.Reg) error {
	if templates.ALU(b, op, t, rd, rs1, rs2) {
		return nil
	}
	if t.IsFloat() || op != core.OpDiv && op != core.OpMod {
		return fmt.Errorf("sparc: %s%s unsupported", op, t)
	}
	d, s1, s2, g7 := gn(rd), gn(rs1), gn(rs2), core.GPR(rG7)
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
	templates.ALU(b, core.OpMul, core.TypeI, g7, g7, rs2)
	templates.ALU(b, core.OpSub, core.TypeI, rd, rs1, g7)
	return nil
}

// ALUImm implements rd = rs op imm: the mapped row, or the register form
// of imm materialized into %g1.
func (s *Backend) ALUImm(b *core.Buf, op core.Op, t core.Type, rd, rs core.Reg, imm int64) error {
	if templates.ALUImm(b, op, t, rd, rs, imm) {
		return nil
	}
	materialize(b, rG1, imm)
	return s.ALU(b, op, t, rd, rs, core.GPR(rG1))
}

// Unary implements rd = op rs: the mapped row; not, which is subcc and
// addx; or a double's mov and neg, which are the single's on the sign word
// and a move of the other word (none for a neg in place).
func (s *Backend) Unary(b *core.Buf, op core.Op, t core.Type, rd, rs core.Reg) error {
	switch {
	case templates.Unary(b, op, t, rd, rs):
	case op == core.OpNot:
		// subcc rs, 1, %g0 borrows (sets carry) iff rs == 0; addx %g0, 0,
		// rd takes the carry.
		b.Emit(fmt3i(2, 0, op3SubCC, gn(rs), 1))
		b.Emit(fmt3i(2, gn(rd), op3Addx, rG0, 0))
	case t == core.TypeD && (op == core.OpMov || op == core.OpNeg):
		templates.Unary(b, op, core.TypeF, rd, rs)
		if op == core.OpMov || rd != rs {
			b.Emit(fmtFP(op3FPop1, gn(rd)+1, opfFmovs, 0, gn(rs)+1))
		}
	default:
		return fmt.Errorf("sparc: %s%s unsupported", op, t)
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

// Load implements rd = *(t*)(base+off): the mapped row, or its register
// form with off materialized into %g1.
func (s *Backend) Load(b *core.Buf, t core.Type, rd, base core.Reg, off int64) error {
	if templates.Load(b, t, rd, base, off) {
		return nil
	}
	materialize(b, rG1, off)
	if !templates.Indexed(b, false, t, rd, base, core.GPR(rG1)) {
		return fmt.Errorf("sparc: ld%s unsupported", t)
	}
	return nil
}

// Store implements *(t*)(base+off) = rs as Load does.
func (s *Backend) Store(b *core.Buf, t core.Type, rs, base core.Reg, off int64) error {
	if templates.Store(b, t, rs, base, off) {
		return nil
	}
	materialize(b, rG1, off)
	if !templates.Indexed(b, true, t, rs, base, core.GPR(rG1)) {
		return fmt.Errorf("sparc: st%s unsupported", t)
	}
	return nil
}

// Branch implements a conditional branch: every one is a mapped compare
// and branch.
func (s *Backend) Branch(b *core.Buf, op core.Op, t core.Type, rs1, rs2 core.Reg) (int, error) {
	return core.Branch(s, b, op, t, rs1, rs2)
}

// BranchImm implements a conditional branch against imm: a mapped form,
// else imm set into %g1.
func (s *Backend) BranchImm(b *core.Buf, op core.Op, t core.Type, rs core.Reg, imm int64) (int, error) {
	return core.BranchImm(s, b, op, t, rs, imm)
}

// fixed is what core emits for a jump, a call, an address and a frame.
var fixed = core.Fixed{
	Nop:         encNop,
	Jump:        fmtBicc(condA, 0),
	CallLabel:   fmtCall(0),
	Branch:      'b',
	Call:        []uint32{fmtCall(0)},
	Addr:        [2]core.Word{{W: fmtSethi(0, 0), Reg: "d"}, {W: fmt3i(2, 0, op3Or, 0, 0), Reg: "1d"}},
	AddrShift:   10,
	JumpReg:     core.Word{W: fmt3i(2, 0, op3Jmpl, 0, 0), Reg: "1"},
	CallReg:     core.Word{W: fmt3i(2, rO7, op3Jmpl, 0, 0), Reg: "1"},
	FrameAdjust: fmt3i(2, rSP, op3Add, rSP, 0),
	Ret:         fmt3i(2, 0, op3Jmpl, rO7, 8),
}

// templates is the port's instruction mapping; SPARC V8 multiplies and
// divides in hardware and emulates nothing.
var templates = core.NewTemplates(New(), &fixed, core.Mapping{
	ALU: []core.Rule{
		{Op: core.OpAdd, Types: "i u l ul p", Row: "add", Regs: "d12", Imm: "add"},
		{Op: core.OpAdd, Types: "f", Row: "fadds", Regs: "DAB"},
		{Op: core.OpAdd, Types: "d", Row: "faddd", Regs: "DAB"},
		{Op: core.OpSub, Types: "i u l ul p", Row: "sub", Regs: "d12", Imm: "sub"},
		{Op: core.OpSub, Types: "f", Row: "fsubs", Regs: "DAB"},
		{Op: core.OpSub, Types: "d", Row: "fsubd", Regs: "DAB"},
		{Op: core.OpMul, Types: "i l", Row: "smul", Regs: "d12"},
		{Op: core.OpMul, Types: "u ul p", Row: "umul", Regs: "d12"},
		{Op: core.OpMul, Types: "f", Row: "fmuls", Regs: "DAB"},
		{Op: core.OpMul, Types: "d", Row: "fmuld", Regs: "DAB"},
		{Op: core.OpDiv, Types: "f", Row: "fdivs", Regs: "DAB"},
		{Op: core.OpDiv, Types: "d", Row: "fdivd", Regs: "DAB"},
		{Op: core.OpAnd, Types: "i u l ul", Row: "and", Regs: "d12", Imm: "and"},
		{Op: core.OpOr, Types: "i u l ul", Row: "or", Regs: "d12", Imm: "or"},
		{Op: core.OpXor, Types: "i u l ul", Row: "xor", Regs: "d12", Imm: "xor"},
		{Op: core.OpLsh, Types: "i u l ul", Row: "sll", Regs: "d12", Imm: "sll", Mask: 31},
		{Op: core.OpRsh, Types: "i l", Row: "sra", Regs: "d12", Imm: "sra", Mask: 31},
		{Op: core.OpRsh, Types: "u ul", Row: "srl", Regs: "d12", Imm: "srl", Mask: 31},
	},
	Ld: []core.Mem{
		{Types: "c", Row: "ldsb", Regs: "d12"},
		{Types: "uc", Row: "ldub", Regs: "d12"},
		{Types: "s", Row: "ldsh", Regs: "d12"},
		{Types: "us", Row: "lduh", Regs: "d12"},
		{Types: "i u l ul p", Row: "ld", Regs: "d12"},
		{Types: "f", Row: "ldf", Regs: "D12"},
		{Types: "d", Row: "lddf", Regs: "D12"},
	},
	St: []core.Mem{
		{Types: "c uc", Row: "stb", Regs: "d12"},
		{Types: "s us", Row: "sth", Regs: "d12"},
		{Types: "i u l ul p", Row: "st", Regs: "d12"},
		{Types: "f", Row: "stf", Regs: "D12"},
		{Types: "d", Row: "stdf", Regs: "D12"},
	},
	Unary: []core.ExtRule{
		{Name: "com", Types: "i u l ul", Row: "xnor", Regs: "d1"},
		{Name: "mov", Types: "i u l ul p", Row: "or", Regs: "d2"},
		{Name: "mov", Types: "f", Row: "fmovs", Regs: "DB"},
		{Name: "neg", Types: "i l", Row: "sub", Regs: "d2"},
		{Name: "neg", Types: "f", Row: "fnegs", Regs: "DB"},
	},
	Br: []core.Cond{
		{Op: core.OpBeq, Types: "i u l ul p", Cmp: "subcc", Regs: "_12", Imm: "subcc", Br: "b", Fix: 'c', FixTo: condE},
		{Op: core.OpBne, Types: "i u l ul p", Cmp: "subcc", Regs: "_12", Imm: "subcc", Br: "b", Fix: 'c', FixTo: condNE},
		{Op: core.OpBlt, Types: "i l", Cmp: "subcc", Regs: "_12", Imm: "subcc", Br: "b", Fix: 'c', FixTo: condL},
		{Op: core.OpBle, Types: "i l", Cmp: "subcc", Regs: "_12", Imm: "subcc", Br: "b", Fix: 'c', FixTo: condLE},
		{Op: core.OpBgt, Types: "i l", Cmp: "subcc", Regs: "_12", Imm: "subcc", Br: "b", Fix: 'c', FixTo: condG},
		{Op: core.OpBge, Types: "i l", Cmp: "subcc", Regs: "_12", Imm: "subcc", Br: "b", Fix: 'c', FixTo: condGE},
		{Op: core.OpBlt, Types: "u ul p", Cmp: "subcc", Regs: "_12", Imm: "subcc", Br: "b", Fix: 'c', FixTo: condCS},
		{Op: core.OpBle, Types: "u ul p", Cmp: "subcc", Regs: "_12", Imm: "subcc", Br: "b", Fix: 'c', FixTo: condLEU},
		{Op: core.OpBgt, Types: "u ul p", Cmp: "subcc", Regs: "_12", Imm: "subcc", Br: "b", Fix: 'c', FixTo: condGU},
		{Op: core.OpBge, Types: "u ul p", Cmp: "subcc", Regs: "_12", Imm: "subcc", Br: "b", Fix: 'c', FixTo: condCC},
		{Op: core.OpBeq, Types: "f", Cmp: "fcmps", Regs: "_AB", Br: "fb", Fix: 'k', FixTo: fcondE},
		{Op: core.OpBne, Types: "f", Cmp: "fcmps", Regs: "_AB", Br: "fb", Fix: 'k', FixTo: fcondNE},
		{Op: core.OpBlt, Types: "f", Cmp: "fcmps", Regs: "_AB", Br: "fb", Fix: 'k', FixTo: fcondL},
		{Op: core.OpBle, Types: "f", Cmp: "fcmps", Regs: "_AB", Br: "fb", Fix: 'k', FixTo: fcondLE},
		{Op: core.OpBgt, Types: "f", Cmp: "fcmps", Regs: "_AB", Br: "fb", Fix: 'k', FixTo: fcondG},
		{Op: core.OpBge, Types: "f", Cmp: "fcmps", Regs: "_AB", Br: "fb", Fix: 'k', FixTo: fcondGE},
		{Op: core.OpBeq, Types: "d", Cmp: "fcmpd", Regs: "_AB", Br: "fb", Fix: 'k', FixTo: fcondE},
		{Op: core.OpBne, Types: "d", Cmp: "fcmpd", Regs: "_AB", Br: "fb", Fix: 'k', FixTo: fcondNE},
		{Op: core.OpBlt, Types: "d", Cmp: "fcmpd", Regs: "_AB", Br: "fb", Fix: 'k', FixTo: fcondL},
		{Op: core.OpBle, Types: "d", Cmp: "fcmpd", Regs: "_AB", Br: "fb", Fix: 'k', FixTo: fcondLE},
		{Op: core.OpBgt, Types: "d", Cmp: "fcmpd", Regs: "_AB", Br: "fb", Fix: 'k', FixTo: fcondG},
		{Op: core.OpBge, Types: "d", Cmp: "fcmpd", Regs: "_AB", Br: "fb", Fix: 'k', FixTo: fcondGE},
	},
	Gap: []string{"fcmps", "fcmpd"}, // an FP compare's result is not ready for the next word
	Ext: []core.ExtRule{
		{Name: "sqrt", Types: "f", Row: "fsqrts", Regs: "DB"},
		{Name: "sqrt", Types: "d", Row: "fsqrtd", Regs: "DB"},
		{Name: "abs", Types: "f", Row: "fabss", Regs: "DB"},
	},
})

func (*Backend) Templates() *core.Templates { return templates }
