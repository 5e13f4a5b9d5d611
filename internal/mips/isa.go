package mips

import "repro/internal/exec"

// This file is the MIPS instruction table: the one place a bit pattern
// is paired with a mnemonic, its operands, a control-flow kind and a
// threaded opcode, and a syntax letter with its field and the slot of
// the predecoded instruction it fills.  Classify, Disasm, Predecode and
// the core read it; a word verifies exactly when it has an opcode.  The
// fetch/switch Step in cpu.go deliberately does not: it is the
// independent oracle the table is tested against row by row.

// Which bits of the word a row of each decode group fixes.
const (
	maskOp      = 0x3f << 26
	maskSpecial = maskOp | 0x3f     // opcode, funct
	maskRegimm  = maskOp | 0x1f<<16 // opcode, rt
	maskCop1    = maskOp | 0x1f<<21 // opcode, fmt
	maskFP      = maskCop1 | 0x3f   // opcode, fmt, funct
	fieldRs     = 0x1f << 21
	fieldRt     = 0x1f << 16
)

// The syntax letters: d s t = rd rs rt, h = shamt, i = signed imm16,
// u = imm16 in hex, b = branch target (from the delay slot), j = jump
// target (within the 256MB region of the delay slot), D S T = the FP
// registers in the shamt, rd and rt fields (fd, fs, ft).
var fields = map[byte]exec.Field{
	'd': {Shift: 11, Width: 5, Names: gprNames, Slot: exec.SlotC},
	's': {Shift: 21, Width: 5, Names: gprNames, Slot: exec.SlotA},
	't': {Shift: 16, Width: 5, Names: gprNames, Slot: exec.SlotB},
	'h': {Shift: 6, Width: 5, Fmt: "%d", Slot: exec.SlotImm},
	'i': {Width: 16, Signed: true, Fmt: "%d", Slot: exec.SlotImm},
	'u': {Width: 16, Fmt: "%#x", Slot: exec.SlotImm},
	'b': {Width: 16, Signed: true, Scale: 2, Target: true, PC: 4},
	'j': {Width: 26, Scale: 2, Target: true, Region: true, PC: 4},
	'D': {Shift: 6, Width: 5, Names: fprNames, Slot: exec.SlotC},
	'S': {Shift: 11, Width: 5, Names: fprNames, Slot: exec.SlotA},
	'T': {Shift: 16, Width: 5, Names: fprNames, Slot: exec.SlotB},
}

var fprNames = exec.Numbered("$f%d")

var rows = []exec.Row{
	exec.Ins("nop", encNop, 0xffffffff, "", mSll),
	exec.Ins("sll", rType(fnSll, 0, 0, 0, 0), maskSpecial, " d, t, h", mSll).Writes('d'),
	exec.Ins("srl", rType(fnSrl, 0, 0, 0, 0), maskSpecial, " d, t, h", mSrl).Writes('d'),
	exec.Ins("sra", rType(fnSra, 0, 0, 0, 0), maskSpecial, " d, t, h", mSra).Writes('d'),
	exec.Ins("sllv", rType(fnSllv, 0, 0, 0, 0), maskSpecial, " d, t, s", mSllv).Writes('d'),
	exec.Ins("srlv", rType(fnSrlv, 0, 0, 0, 0), maskSpecial, " d, t, s", mSrlv).Writes('d'),
	exec.Ins("srav", rType(fnSrav, 0, 0, 0, 0), maskSpecial, " d, t, s", mSrav).Writes('d'),
	exec.Ins("jr", rType(fnJr, 0, 0, 0, 0), maskSpecial, " s", mJr).As(exec.KindJumpReg),
	exec.Ins("jalr", rType(fnJalr, 0, 0, 0, 0), maskSpecial, " d, s", mJalr).As(exec.KindCall).Writes('d'),
	exec.Ins("mfhi", rType(fnMfhi, 0, 0, 0, 0), maskSpecial, " d", mMfhi).Writes('d'),
	exec.Ins("mflo", rType(fnMflo, 0, 0, 0, 0), maskSpecial, " d", mMflo).Writes('d'),
	exec.Ins("mult", rType(fnMult, 0, 0, 0, 0), maskSpecial, " s, t", mMult),
	exec.Ins("multu", rType(fnMultu, 0, 0, 0, 0), maskSpecial, " s, t", mMultu),
	exec.Ins("div", rType(fnDiv, 0, 0, 0, 0), maskSpecial, " s, t", mDiv),
	exec.Ins("divu", rType(fnDivu, 0, 0, 0, 0), maskSpecial, " s, t", mDivu),
	exec.Ins("move", rType(fnAddu, 0, 0, 0, 0), maskSpecial|fieldRt, " d, s", mAddu),
	exec.Ins("addu", rType(fnAddu, 0, 0, 0, 0), maskSpecial, " d, s, t", mAddu).Writes('d'),
	exec.Ins("subu", rType(fnSubu, 0, 0, 0, 0), maskSpecial, " d, s, t", mSubu).Writes('d'),
	exec.Ins("and", rType(fnAnd, 0, 0, 0, 0), maskSpecial, " d, s, t", mAnd).Writes('d'),
	exec.Ins("or", rType(fnOr, 0, 0, 0, 0), maskSpecial, " d, s, t", mOr).Writes('d'),
	exec.Ins("xor", rType(fnXor, 0, 0, 0, 0), maskSpecial, " d, s, t", mXor).Writes('d'),
	exec.Ins("nor", rType(fnNor, 0, 0, 0, 0), maskSpecial, " d, s, t", mNor).Writes('d'),
	exec.Ins("slt", rType(fnSlt, 0, 0, 0, 0), maskSpecial, " d, s, t", mSlt).Writes('d'),
	exec.Ins("sltu", rType(fnSltu, 0, 0, 0, 0), maskSpecial, " d, s, t", mSltu).Writes('d'),

	exec.Ins("bltz", iType(opRegimm, 0, rtBltz, 0), maskRegimm, " s, b", mBltz).As(exec.KindBranch),
	exec.Ins("bgez", iType(opRegimm, 0, rtBgez, 0), maskRegimm, " s, b", mBgez).As(exec.KindBranch),
	exec.Ins("bal", iType(opRegimm, 0, rtBal, 0), maskRegimm|fieldRs, " b", mBal).As(exec.KindCall),
	exec.Ins("bgezal", iType(opRegimm, 0, rtBal, 0), maskRegimm, " s, b", mBal).As(exec.KindCall),
	exec.Ins("j", jType(opJ, 0), maskOp, " j", mJ).As(exec.KindBranch),
	exec.Ins("jal", jType(opJal, 0), maskOp, " j", mJal).As(exec.KindCall),
	exec.Ins("b", iType(opBeq, 0, 0, 0), maskOp|fieldRs|fieldRt, " b", mBeq).As(exec.KindBranch),
	exec.Ins("beq", iType(opBeq, 0, 0, 0), maskOp, " s, t, b", mBeq).As(exec.KindBranch),
	exec.Ins("bne", iType(opBne, 0, 0, 0), maskOp, " s, t, b", mBne).As(exec.KindBranch),
	exec.Ins("blez", iType(opBlez, 0, 0, 0), maskOp, " s, b", mBlez).As(exec.KindBranch),
	exec.Ins("bgtz", iType(opBgtz, 0, 0, 0), maskOp, " s, b", mBgtz).As(exec.KindBranch),

	exec.Ins("li", iType(opAddiu, 0, 0, 0), maskOp|fieldRs, " t, i", mAddiu),
	exec.Ins("addiu", iType(opAddiu, 0, 0, 0), maskOp, " t, s, i", mAddiu).Writes('t'),
	exec.Ins("slti", iType(opSlti, 0, 0, 0), maskOp, " t, s, i", mSlti).Writes('t'),
	exec.Ins("sltiu", iType(opSltiu, 0, 0, 0), maskOp, " t, s, i", mSltiu).Writes('t'),
	exec.Ins("andi", iType(opAndi, 0, 0, 0), maskOp, " t, s, u", mAndi).Writes('t'),
	exec.Ins("ori", iType(opOri, 0, 0, 0), maskOp, " t, s, u", mOri).Writes('t'),
	exec.Ins("xori", iType(opXori, 0, 0, 0), maskOp, " t, s, u", mXori).Writes('t'),
	exec.Ins("lui", iType(opLui, 0, 0, 0), maskOp, " t, u", mLui).Writes('t'),

	exec.Ins("lb", iType(opLb, 0, 0, 0), maskOp, " t, i(s)", mLb).Writes('t'),
	exec.Ins("lbu", iType(opLbu, 0, 0, 0), maskOp, " t, i(s)", mLbu).Writes('t'),
	exec.Ins("lh", iType(opLh, 0, 0, 0), maskOp, " t, i(s)", mLh).Writes('t'),
	exec.Ins("lhu", iType(opLhu, 0, 0, 0), maskOp, " t, i(s)", mLhu).Writes('t'),
	exec.Ins("lw", iType(opLw, 0, 0, 0), maskOp, " t, i(s)", mLw).Writes('t'),
	exec.Ins("lwc1", iType(opLwc1, 0, 0, 0), maskOp, " T, i(s)", mLwc1),
	exec.Ins("ldc1", iType(opLdc1, 0, 0, 0), maskOp, " T, i(s)", mLdc1),
	exec.Ins("sb", iType(opSb, 0, 0, 0), maskOp, " t, i(s)", mSb),
	exec.Ins("sh", iType(opSh, 0, 0, 0), maskOp, " t, i(s)", mSh),
	exec.Ins("sw", iType(opSw, 0, 0, 0), maskOp, " t, i(s)", mSw),
	exec.Ins("swc1", iType(opSwc1, 0, 0, 0), maskOp, " T, i(s)", mSwc1),
	exec.Ins("sdc1", iType(opSdc1, 0, 0, 0), maskOp, " T, i(s)", mSdc1),

	exec.Ins("mfc1", fpRType(fmtMFC1, 0, 0, 0, 0), maskCop1, " t, S", mMfc1).Writes('t'),
	exec.Ins("mtc1", fpRType(fmtMTC1, 0, 0, 0, 0), maskCop1, " t, S", mMtc1),
	exec.Ins("bc1f", fpRType(fmtBC, 0, 0, 0, 0), maskCop1|1<<16, " b", mBc1f).As(exec.KindBranch),
	exec.Ins("bc1t", fpRType(fmtBC, 1, 0, 0, 0), maskCop1|1<<16, " b", mBc1t).As(exec.KindBranch),

	exec.Ins("add.s", fpRType(fmtS, 0, 0, 0, fpAdd), maskFP, " D, S, T", mFAddS),
	exec.Ins("sub.s", fpRType(fmtS, 0, 0, 0, fpSub), maskFP, " D, S, T", mFSubS),
	exec.Ins("mul.s", fpRType(fmtS, 0, 0, 0, fpMul), maskFP, " D, S, T", mFMulS),
	exec.Ins("div.s", fpRType(fmtS, 0, 0, 0, fpDiv), maskFP, " D, S, T", mFDivS),
	exec.Ins("sqrt.s", fpRType(fmtS, 0, 0, 0, fpSqrt), maskFP, " D, S", mFSqrtS),
	exec.Ins("abs.s", fpRType(fmtS, 0, 0, 0, fpAbs), maskFP, " D, S", mFAbsS),
	exec.Ins("mov.s", fpRType(fmtS, 0, 0, 0, fpMov), maskFP, " D, S", mFMovS),
	exec.Ins("neg.s", fpRType(fmtS, 0, 0, 0, fpNeg), maskFP, " D, S", mFNegS),
	exec.Ins("cvt.d.s", fpRType(fmtS, 0, 0, 0, fpCvtD), maskFP, " D, S", mFCvtDS),
	exec.Ins("cvt.w.s", fpRType(fmtS, 0, 0, 0, fpCvtW), maskFP, " D, S", mFCvtWS),
	exec.Ins("c.eq.s", fpRType(fmtS, 0, 0, 0, fpCEq), maskFP, " S, T", mFCEqS),
	exec.Ins("c.lt.s", fpRType(fmtS, 0, 0, 0, fpCLt), maskFP, " S, T", mFCLtS),
	exec.Ins("c.le.s", fpRType(fmtS, 0, 0, 0, fpCLe), maskFP, " S, T", mFCLeS),

	exec.Ins("add.d", fpRType(fmtD, 0, 0, 0, fpAdd), maskFP, " D, S, T", mFAddD),
	exec.Ins("sub.d", fpRType(fmtD, 0, 0, 0, fpSub), maskFP, " D, S, T", mFSubD),
	exec.Ins("mul.d", fpRType(fmtD, 0, 0, 0, fpMul), maskFP, " D, S, T", mFMulD),
	exec.Ins("div.d", fpRType(fmtD, 0, 0, 0, fpDiv), maskFP, " D, S, T", mFDivD),
	exec.Ins("sqrt.d", fpRType(fmtD, 0, 0, 0, fpSqrt), maskFP, " D, S", mFSqrtD),
	exec.Ins("abs.d", fpRType(fmtD, 0, 0, 0, fpAbs), maskFP, " D, S", mFAbsD),
	exec.Ins("mov.d", fpRType(fmtD, 0, 0, 0, fpMov), maskFP, " D, S", mFMovD),
	exec.Ins("neg.d", fpRType(fmtD, 0, 0, 0, fpNeg), maskFP, " D, S", mFNegD),
	exec.Ins("cvt.s.d", fpRType(fmtD, 0, 0, 0, fpCvtS), maskFP, " D, S", mFCvtSD),
	exec.Ins("cvt.w.d", fpRType(fmtD, 0, 0, 0, fpCvtW), maskFP, " D, S", mFCvtWD),
	exec.Ins("c.eq.d", fpRType(fmtD, 0, 0, 0, fpCEq), maskFP, " S, T", mFCEqD),
	exec.Ins("c.lt.d", fpRType(fmtD, 0, 0, 0, fpCLt), maskFP, " S, T", mFCLtD),
	exec.Ins("c.le.d", fpRType(fmtD, 0, 0, 0, fpCLe), maskFP, " S, T", mFCLeD),

	exec.Ins("cvt.s.w", fpRType(fmtW, 0, 0, 0, fpCvtS), maskFP, " D, S", mFCvtSW),
	exec.Ins("cvt.d.w", fpRType(fmtW, 0, 0, 0, fpCvtD), maskFP, " D, S", mFCvtDW),
}

var isa = exec.NewTable(rows, fields, interlock, 0)
