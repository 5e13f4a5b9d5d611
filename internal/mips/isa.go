package mips

import (
	"repro/internal/exec"
	"repro/internal/verify"
)

// This file is the MIPS instruction table: the one place a bit pattern
// is paired with a mnemonic, an operand layout, a control-flow kind and
// a threaded opcode.  Classify (below), Disasm (disasm.go) and
// Predecode (threaded.go) read it, so a word verifies exactly when it
// has an opcode.  The fetch/switch Step in cpu.go deliberately does not:
// it is the independent oracle the table is tested against row by row.

// Operand layouts: which fields of the word Predecode unpacks.
const (
	layR     uint8 = iota // rs, rt, rd, shamt; rt is an interlock source
	layBr1                // rs, pc-relative target
	layBr2                // rs, rt, pc-relative target; rt is an interlock source
	layJ                  // 256MB-region absolute target
	layImmS               // rs, rt, sign-extended imm16
	layImmU               // rs, rt, zero-extended imm16
	layLoad               // layImmS; rt is the interlock-producing destination
	layStore              // layImmS; rt is an interlock source
	layFP                 // fs, ft, fd
	layFBr                // layFP plus a pc-relative target
)

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

// Disasm syntax letters: d s t = rd rs rt, h = shamt, i = signed imm16,
// u = imm16 in hex, b = branch target, j = jump target, D S T = the FP
// registers named by the shamt, rd and rt fields (fd, fs, ft).
var rows = []exec.Row{
	exec.Ins("nop", encNop, 0xffffffff, "", layR, mSll),
	exec.Ins("sll", rType(fnSll, 0, 0, 0, 0), maskSpecial, " d, t, h", layR, mSll),
	exec.Ins("srl", rType(fnSrl, 0, 0, 0, 0), maskSpecial, " d, t, h", layR, mSrl),
	exec.Ins("sra", rType(fnSra, 0, 0, 0, 0), maskSpecial, " d, t, h", layR, mSra),
	exec.Ins("sllv", rType(fnSllv, 0, 0, 0, 0), maskSpecial, " d, t, s", layR, mSllv),
	exec.Ins("srlv", rType(fnSrlv, 0, 0, 0, 0), maskSpecial, " d, t, s", layR, mSrlv),
	exec.Ins("srav", rType(fnSrav, 0, 0, 0, 0), maskSpecial, " d, t, s", layR, mSrav),
	exec.Ins("jr", rType(fnJr, 0, 0, 0, 0), maskSpecial, " s", layR, mJr).As(verify.KindJumpReg),
	exec.Ins("jalr", rType(fnJalr, 0, 0, 0, 0), maskSpecial, " d, s", layR, mJalr).As(verify.KindCall),
	exec.Ins("mfhi", rType(fnMfhi, 0, 0, 0, 0), maskSpecial, " d", layR, mMfhi),
	exec.Ins("mflo", rType(fnMflo, 0, 0, 0, 0), maskSpecial, " d", layR, mMflo),
	exec.Ins("mult", rType(fnMult, 0, 0, 0, 0), maskSpecial, " s, t", layR, mMult),
	exec.Ins("multu", rType(fnMultu, 0, 0, 0, 0), maskSpecial, " s, t", layR, mMultu),
	exec.Ins("div", rType(fnDiv, 0, 0, 0, 0), maskSpecial, " s, t", layR, mDiv),
	exec.Ins("divu", rType(fnDivu, 0, 0, 0, 0), maskSpecial, " s, t", layR, mDivu),
	exec.Ins("move", rType(fnAddu, 0, 0, 0, 0), maskSpecial|fieldRt, " d, s", layR, mAddu),
	exec.Ins("addu", rType(fnAddu, 0, 0, 0, 0), maskSpecial, " d, s, t", layR, mAddu),
	exec.Ins("subu", rType(fnSubu, 0, 0, 0, 0), maskSpecial, " d, s, t", layR, mSubu),
	exec.Ins("and", rType(fnAnd, 0, 0, 0, 0), maskSpecial, " d, s, t", layR, mAnd),
	exec.Ins("or", rType(fnOr, 0, 0, 0, 0), maskSpecial, " d, s, t", layR, mOr),
	exec.Ins("xor", rType(fnXor, 0, 0, 0, 0), maskSpecial, " d, s, t", layR, mXor),
	exec.Ins("nor", rType(fnNor, 0, 0, 0, 0), maskSpecial, " d, s, t", layR, mNor),
	exec.Ins("slt", rType(fnSlt, 0, 0, 0, 0), maskSpecial, " d, s, t", layR, mSlt),
	exec.Ins("sltu", rType(fnSltu, 0, 0, 0, 0), maskSpecial, " d, s, t", layR, mSltu),

	exec.Ins("bltz", iType(opRegimm, 0, rtBltz, 0), maskRegimm, " s, b", layBr1, mBltz).As(verify.KindBranch),
	exec.Ins("bgez", iType(opRegimm, 0, rtBgez, 0), maskRegimm, " s, b", layBr1, mBgez).As(verify.KindBranch),
	exec.Ins("bal", iType(opRegimm, 0, rtBal, 0), maskRegimm, " b", layBr1, mBal).As(verify.KindCall),
	exec.Ins("j", jType(opJ, 0), maskOp, " j", layJ, mJ).As(verify.KindBranch),
	exec.Ins("jal", jType(opJal, 0), maskOp, " j", layJ, mJal).As(verify.KindCall),
	exec.Ins("b", iType(opBeq, 0, 0, 0), maskOp|fieldRs|fieldRt, " b", layBr2, mBeq).As(verify.KindBranch),
	exec.Ins("beq", iType(opBeq, 0, 0, 0), maskOp, " s, t, b", layBr2, mBeq).As(verify.KindBranch),
	exec.Ins("bne", iType(opBne, 0, 0, 0), maskOp, " s, t, b", layBr2, mBne).As(verify.KindBranch),
	exec.Ins("blez", iType(opBlez, 0, 0, 0), maskOp, " s, b", layBr1, mBlez).As(verify.KindBranch),
	exec.Ins("bgtz", iType(opBgtz, 0, 0, 0), maskOp, " s, b", layBr1, mBgtz).As(verify.KindBranch),

	exec.Ins("li", iType(opAddiu, 0, 0, 0), maskOp|fieldRs, " t, i", layImmS, mAddiu),
	exec.Ins("addiu", iType(opAddiu, 0, 0, 0), maskOp, " t, s, i", layImmS, mAddiu),
	exec.Ins("slti", iType(opSlti, 0, 0, 0), maskOp, " t, s, i", layImmS, mSlti),
	exec.Ins("sltiu", iType(opSltiu, 0, 0, 0), maskOp, " t, s, i", layImmS, mSltiu),
	exec.Ins("andi", iType(opAndi, 0, 0, 0), maskOp, " t, s, u", layImmU, mAndi),
	exec.Ins("ori", iType(opOri, 0, 0, 0), maskOp, " t, s, u", layImmU, mOri),
	exec.Ins("xori", iType(opXori, 0, 0, 0), maskOp, " t, s, u", layImmU, mXori),
	exec.Ins("lui", iType(opLui, 0, 0, 0), maskOp, " t, u", layImmU, mLui),

	exec.Ins("lb", iType(opLb, 0, 0, 0), maskOp, " t, i(s)", layLoad, mLb),
	exec.Ins("lbu", iType(opLbu, 0, 0, 0), maskOp, " t, i(s)", layLoad, mLbu),
	exec.Ins("lh", iType(opLh, 0, 0, 0), maskOp, " t, i(s)", layLoad, mLh),
	exec.Ins("lhu", iType(opLhu, 0, 0, 0), maskOp, " t, i(s)", layLoad, mLhu),
	exec.Ins("lw", iType(opLw, 0, 0, 0), maskOp, " t, i(s)", layLoad, mLw),
	exec.Ins("lwc1", iType(opLwc1, 0, 0, 0), maskOp, " T, i(s)", layImmS, mLwc1),
	exec.Ins("ldc1", iType(opLdc1, 0, 0, 0), maskOp, " T, i(s)", layImmS, mLdc1),
	exec.Ins("sb", iType(opSb, 0, 0, 0), maskOp, " t, i(s)", layStore, mSb),
	exec.Ins("sh", iType(opSh, 0, 0, 0), maskOp, " t, i(s)", layStore, mSh),
	exec.Ins("sw", iType(opSw, 0, 0, 0), maskOp, " t, i(s)", layStore, mSw),
	exec.Ins("swc1", iType(opSwc1, 0, 0, 0), maskOp, " T, i(s)", layImmS, mSwc1),
	exec.Ins("sdc1", iType(opSdc1, 0, 0, 0), maskOp, " T, i(s)", layImmS, mSdc1),

	exec.Ins("mfc1", fpRType(fmtMFC1, 0, 0, 0, 0), maskCop1, " t, S", layFP, mMfc1),
	exec.Ins("mtc1", fpRType(fmtMTC1, 0, 0, 0, 0), maskCop1, " t, S", layFP, mMtc1),
	exec.Ins("bc1f", fpRType(fmtBC, 0, 0, 0, 0), maskCop1|1<<16, " b", layFBr, mBc1).As(verify.KindBranch),
	exec.Ins("bc1t", fpRType(fmtBC, 1, 0, 0, 0), maskCop1|1<<16, " b", layFBr, mBc1).As(verify.KindBranch),

	exec.Ins("add.s", fpRType(fmtS, 0, 0, 0, fpAdd), maskFP, " D, S, T", layFP, mFAddS),
	exec.Ins("sub.s", fpRType(fmtS, 0, 0, 0, fpSub), maskFP, " D, S, T", layFP, mFSubS),
	exec.Ins("mul.s", fpRType(fmtS, 0, 0, 0, fpMul), maskFP, " D, S, T", layFP, mFMulS),
	exec.Ins("div.s", fpRType(fmtS, 0, 0, 0, fpDiv), maskFP, " D, S, T", layFP, mFDivS),
	exec.Ins("sqrt.s", fpRType(fmtS, 0, 0, 0, fpSqrt), maskFP, " D, S", layFP, mFSqrtS),
	exec.Ins("abs.s", fpRType(fmtS, 0, 0, 0, fpAbs), maskFP, " D, S", layFP, mFAbsS),
	exec.Ins("mov.s", fpRType(fmtS, 0, 0, 0, fpMov), maskFP, " D, S", layFP, mFMovS),
	exec.Ins("neg.s", fpRType(fmtS, 0, 0, 0, fpNeg), maskFP, " D, S", layFP, mFNegS),
	exec.Ins("cvt.d.s", fpRType(fmtS, 0, 0, 0, fpCvtD), maskFP, " D, S", layFP, mFCvtDS),
	exec.Ins("cvt.w.s", fpRType(fmtS, 0, 0, 0, fpCvtW), maskFP, " D, S", layFP, mFCvtWS),
	exec.Ins("c.eq.s", fpRType(fmtS, 0, 0, 0, fpCEq), maskFP, " S, T", layFP, mFCEqS),
	exec.Ins("c.lt.s", fpRType(fmtS, 0, 0, 0, fpCLt), maskFP, " S, T", layFP, mFCLtS),
	exec.Ins("c.le.s", fpRType(fmtS, 0, 0, 0, fpCLe), maskFP, " S, T", layFP, mFCLeS),

	exec.Ins("add.d", fpRType(fmtD, 0, 0, 0, fpAdd), maskFP, " D, S, T", layFP, mFAddD),
	exec.Ins("sub.d", fpRType(fmtD, 0, 0, 0, fpSub), maskFP, " D, S, T", layFP, mFSubD),
	exec.Ins("mul.d", fpRType(fmtD, 0, 0, 0, fpMul), maskFP, " D, S, T", layFP, mFMulD),
	exec.Ins("div.d", fpRType(fmtD, 0, 0, 0, fpDiv), maskFP, " D, S, T", layFP, mFDivD),
	exec.Ins("sqrt.d", fpRType(fmtD, 0, 0, 0, fpSqrt), maskFP, " D, S", layFP, mFSqrtD),
	exec.Ins("abs.d", fpRType(fmtD, 0, 0, 0, fpAbs), maskFP, " D, S", layFP, mFAbsD),
	exec.Ins("mov.d", fpRType(fmtD, 0, 0, 0, fpMov), maskFP, " D, S", layFP, mFMovD),
	exec.Ins("neg.d", fpRType(fmtD, 0, 0, 0, fpNeg), maskFP, " D, S", layFP, mFNegD),
	exec.Ins("cvt.s.d", fpRType(fmtD, 0, 0, 0, fpCvtS), maskFP, " D, S", layFP, mFCvtSD),
	exec.Ins("cvt.w.d", fpRType(fmtD, 0, 0, 0, fpCvtW), maskFP, " D, S", layFP, mFCvtWD),
	exec.Ins("c.eq.d", fpRType(fmtD, 0, 0, 0, fpCEq), maskFP, " S, T", layFP, mFCEqD),
	exec.Ins("c.lt.d", fpRType(fmtD, 0, 0, 0, fpCLt), maskFP, " S, T", layFP, mFCLtD),
	exec.Ins("c.le.d", fpRType(fmtD, 0, 0, 0, fpCLe), maskFP, " S, T", layFP, mFCLeD),

	exec.Ins("cvt.s.w", fpRType(fmtW, 0, 0, 0, fpCvtS), maskFP, " D, S", layFP, mFCvtSW),
	exec.Ins("cvt.d.w", fpRType(fmtW, 0, 0, 0, fpCvtD), maskFP, " D, S", layFP, mFCvtDW),
}

var isa = exec.NewTable(rows)

// Static transfer targets: branch displacements are delay-slot-relative
// (pc+4), J-format targets are absolute within the 256MB region.
func branchTarget(w uint32, pc uint64) uint64 { return pc + 4 + uint64(int64(int16(w))<<2) }
func jumpTarget(w uint32, pc uint64) uint64   { return (pc+4)&0xf0000000 | uint64(w&0x03ffffff)<<2 }

// Classify decodes the control-flow behaviour of one MIPS word for the
// pre-install verifier; a word with no row is illegal.  jr/jalr are
// register-indirect and carry no target.
func (m *Backend) Classify(w uint32, pc uint64) verify.Insn {
	r := isa.Lookup(w)
	if r == nil {
		return verify.Insn{Kind: verify.KindIllegal}
	}
	switch r.Layout {
	case layBr1, layBr2, layFBr:
		return verify.Insn{Kind: r.Kind, Target: branchTarget(w, pc), HasTarget: true}
	case layJ:
		return verify.Insn{Kind: r.Kind, Target: jumpTarget(w, pc), HasTarget: true}
	}
	return verify.Insn{Kind: r.Kind}
}
