package sparc

import (
	"repro/internal/exec"
	"repro/internal/verify"
)

// This file is the SPARC instruction table: the one place a bit pattern
// is paired with a mnemonic, an operand layout, a control-flow kind and
// a threaded opcode, and a syntax letter with its field.  Classify,
// Disasm, Predecode and the core read it; a word verifies exactly when
// it has an opcode.  The fetch/switch Step in cpu.go deliberately does
// not: it is the independent oracle the table is tested against row by row.

// Operand layouts: which fields of the word Predecode unpacks.
const (
	laySethi uint8 = iota // rd, imm22<<10
	layBr                 // cond, pc-relative disp22
	layCall               // pc-relative disp30
	layArith              // rs1, operand2 (rs2 or simm13), rd
	layFP                 // rs1, rs2, rd as FP registers
)

// Which bits of the word a row of each format fixes.
const (
	maskOp  = 3 << 30
	maskOp2 = maskOp | 7<<22     // format 2: op, op2
	maskOp3 = maskOp | 0x3f<<19  // format 3: op, op3
	maskOpf = maskOp3 | 0x1ff<<5 // FPop: op, op3, opf
	fieldRd = 0x1f << 25
)

// The syntax letters: 1 = rs1, 2 = operand2 (simm13 when bit 13 is set,
// else rs2), d = rd, h = %hi(imm22), c k = integer / FP condition suffix,
// b = disp22 target, C = disp30 target (both from the branch itself),
// A B D = rs1 rs2 rd as FP registers.
var fields = map[byte]exec.Field{
	'1': {Shift: 14, Width: 5, Names: gprNames},
	'2': {Width: 13, Signed: true, Fmt: "%d", Sel: 13, Else: &exec.Field{Width: 5, Names: gprNames}},
	'd': {Shift: 25, Width: 5, Names: gprNames},
	'h': {Width: 22, Scale: 10, Fmt: "%%hi(%#x)"},
	'c': {Shift: 25, Width: 4, Names: iccNames[:]},
	'k': {Shift: 25, Width: 4, Names: fccNames[:]},
	'b': {Width: 22, Signed: true, Scale: 2, Target: true},
	'C': {Width: 30, Signed: true, Scale: 2, Target: true},
	'A': {Shift: 14, Width: 5, Names: fprNames},
	'B': {Width: 5, Names: fprNames},
	'D': {Shift: 25, Width: 5, Names: fprNames},
}

var fprNames = exec.Numbered("%%f%d")

// Condition suffixes of Bicc and FBfcc, indexed by the cond field.
// Bicc/FBfcc take any of the sixteen conditions (the handlers treat the
// ones VCODE never emits as "never"), so they are one row each.
var (
	iccNames = [16]string{"n", "e", "le", "l", "leu", "lu", "neg", "vs", "a", "ne", "g", "ge", "gu", "geu", "pos", "vc"}
	fccNames = [16]string{"n", "ne", "lg", "ul", "l", "ug", "g", "u", "a", "e", "ue", "ge", "uge", "le", "ule", "o"}
)

var rows = []exec.Row{
	exec.Ins("nop", encNop, 0xffffffff, "", laySethi, sSethi),
	exec.Ins("sethi", fmtSethi(0, 0), maskOp2, " h, d", laySethi, sSethi),
	exec.Ins("b", fmtBicc(0, 0), maskOp2, "c b", layBr, sBicc).As(verify.KindBranch),
	exec.Ins("fb", fmtFBfcc(0, 0), maskOp2, "k b", layBr, sFBfcc).As(verify.KindBranch),
	exec.Ins("call", fmtCall(0), maskOp, " C", layCall, sCall).As(verify.KindCall),

	exec.Ins("add", fmt3r(2, 0, op3Add, 0, 0), maskOp3, " 1, 2, d", layArith, sAdd),
	exec.Ins("and", fmt3r(2, 0, op3And, 0, 0), maskOp3, " 1, 2, d", layArith, sAnd),
	exec.Ins("or", fmt3r(2, 0, op3Or, 0, 0), maskOp3, " 1, 2, d", layArith, sOr),
	exec.Ins("xor", fmt3r(2, 0, op3Xor, 0, 0), maskOp3, " 1, 2, d", layArith, sXor),
	exec.Ins("sub", fmt3r(2, 0, op3Sub, 0, 0), maskOp3, " 1, 2, d", layArith, sSub),
	exec.Ins("andn", fmt3r(2, 0, op3Andn, 0, 0), maskOp3, " 1, 2, d", layArith, sAndn),
	exec.Ins("xnor", fmt3r(2, 0, op3Xnor, 0, 0), maskOp3, " 1, 2, d", layArith, sXnor),
	exec.Ins("addx", fmt3r(2, 0, op3Addx, 0, 0), maskOp3, " 1, 2, d", layArith, sAddx),
	exec.Ins("umul", fmt3r(2, 0, op3Umul, 0, 0), maskOp3, " 1, 2, d", layArith, sUmul),
	exec.Ins("smul", fmt3r(2, 0, op3Smul, 0, 0), maskOp3, " 1, 2, d", layArith, sSmul),
	exec.Ins("udiv", fmt3r(2, 0, op3Udiv, 0, 0), maskOp3, " 1, 2, d", layArith, sUdiv),
	exec.Ins("sdiv", fmt3r(2, 0, op3Sdiv, 0, 0), maskOp3, " 1, 2, d", layArith, sSdiv),
	exec.Ins("addcc", fmt3r(2, 0, op3AddCC, 0, 0), maskOp3, " 1, 2, d", layArith, sAddCC),
	exec.Ins("subcc", fmt3r(2, 0, op3SubCC, 0, 0), maskOp3, " 1, 2, d", layArith, sSubCC),
	exec.Ins("sll", fmt3r(2, 0, op3Sll, 0, 0), maskOp3, " 1, 2, d", layArith, sSll),
	exec.Ins("srl", fmt3r(2, 0, op3Srl, 0, 0), maskOp3, " 1, 2, d", layArith, sSrl),
	exec.Ins("sra", fmt3r(2, 0, op3Sra, 0, 0), maskOp3, " 1, 2, d", layArith, sSra),
	exec.Ins("rd", fmt3r(2, 0, op3RdY, 0, 0), maskOp3, " %y, d", layArith, sRdY),
	exec.Ins("wr", fmt3r(2, 0, op3WrY, 0, 0), maskOp3, " 1, 2, %y", layArith, sWrY),
	// jmpl that writes no link register is a jump or return; one that
	// does is an indirect call.
	exec.Ins("jmpl", fmt3r(2, 0, op3Jmpl, 0, 0), maskOp3|fieldRd, " 1+2, d", layArith, sJmpl).As(verify.KindJumpReg),
	exec.Ins("jmpl", fmt3r(2, 0, op3Jmpl, 0, 0), maskOp3, " 1+2, d", layArith, sJmpl).As(verify.KindCall),

	exec.Ins("fmovs", fmtFP(op3FPop1, 0, opfFmovs, 0, 0), maskOpf, " B, D", layFP, sFmovs),
	exec.Ins("fnegs", fmtFP(op3FPop1, 0, opfFnegs, 0, 0), maskOpf, " B, D", layFP, sFnegs),
	exec.Ins("fabss", fmtFP(op3FPop1, 0, opfFabss, 0, 0), maskOpf, " B, D", layFP, sFabss),
	exec.Ins("fsqrts", fmtFP(op3FPop1, 0, opfFsqrts, 0, 0), maskOpf, " B, D", layFP, sFsqrts),
	exec.Ins("fsqrtd", fmtFP(op3FPop1, 0, opfFsqrtd, 0, 0), maskOpf, " B, D", layFP, sFsqrtd),
	exec.Ins("fadds", fmtFP(op3FPop1, 0, opfFadds, 0, 0), maskOpf, " A, B, D", layFP, sFadds),
	exec.Ins("faddd", fmtFP(op3FPop1, 0, opfFaddd, 0, 0), maskOpf, " A, B, D", layFP, sFaddd),
	exec.Ins("fsubs", fmtFP(op3FPop1, 0, opfFsubs, 0, 0), maskOpf, " A, B, D", layFP, sFsubs),
	exec.Ins("fsubd", fmtFP(op3FPop1, 0, opfFsubd, 0, 0), maskOpf, " A, B, D", layFP, sFsubd),
	exec.Ins("fmuls", fmtFP(op3FPop1, 0, opfFmuls, 0, 0), maskOpf, " A, B, D", layFP, sFmuls),
	exec.Ins("fmuld", fmtFP(op3FPop1, 0, opfFmuld, 0, 0), maskOpf, " A, B, D", layFP, sFmuld),
	exec.Ins("fdivs", fmtFP(op3FPop1, 0, opfFdivs, 0, 0), maskOpf, " A, B, D", layFP, sFdivs),
	exec.Ins("fdivd", fmtFP(op3FPop1, 0, opfFdivd, 0, 0), maskOpf, " A, B, D", layFP, sFdivd),
	exec.Ins("fitos", fmtFP(op3FPop1, 0, opfFitos, 0, 0), maskOpf, " B, D", layFP, sFitos),
	exec.Ins("fitod", fmtFP(op3FPop1, 0, opfFitod, 0, 0), maskOpf, " B, D", layFP, sFitod),
	exec.Ins("fstoi", fmtFP(op3FPop1, 0, opfFstoi, 0, 0), maskOpf, " B, D", layFP, sFstoi),
	exec.Ins("fdtoi", fmtFP(op3FPop1, 0, opfFdtoi, 0, 0), maskOpf, " B, D", layFP, sFdtoi),
	exec.Ins("fstod", fmtFP(op3FPop1, 0, opfFstod, 0, 0), maskOpf, " B, D", layFP, sFstod),
	exec.Ins("fdtos", fmtFP(op3FPop1, 0, opfFdtos, 0, 0), maskOpf, " B, D", layFP, sFdtos),
	exec.Ins("fcmps", fmtFP(op3FPop2, 0, opfFcmps, 0, 0), maskOpf, " A, B", layFP, sFcmps),
	exec.Ins("fcmpd", fmtFP(op3FPop2, 0, opfFcmpd, 0, 0), maskOpf, " A, B", layFP, sFcmpd),

	exec.Ins("ld", fmt3r(3, 0, op3Ld, 0, 0), maskOp3, " [1+2], d", layArith, sLd),
	exec.Ins("ldub", fmt3r(3, 0, op3Ldub, 0, 0), maskOp3, " [1+2], d", layArith, sLdub),
	exec.Ins("lduh", fmt3r(3, 0, op3Lduh, 0, 0), maskOp3, " [1+2], d", layArith, sLduh),
	exec.Ins("ldsb", fmt3r(3, 0, op3Ldsb, 0, 0), maskOp3, " [1+2], d", layArith, sLdsb),
	exec.Ins("ldsh", fmt3r(3, 0, op3Ldsh, 0, 0), maskOp3, " [1+2], d", layArith, sLdsh),
	exec.Ins("ldf", fmt3r(3, 0, op3Ldf, 0, 0), maskOp3, " [1+2], D", layArith, sLdf),
	exec.Ins("lddf", fmt3r(3, 0, op3Lddf, 0, 0), maskOp3, " [1+2], D", layArith, sLddf),
	exec.Ins("st", fmt3r(3, 0, op3St, 0, 0), maskOp3, " d, [1+2]", layArith, sSt),
	exec.Ins("stb", fmt3r(3, 0, op3Stb, 0, 0), maskOp3, " d, [1+2]", layArith, sStb),
	exec.Ins("sth", fmt3r(3, 0, op3Sth, 0, 0), maskOp3, " d, [1+2]", layArith, sSth),
	exec.Ins("stf", fmt3r(3, 0, op3Stf, 0, 0), maskOp3, " D, [1+2]", layArith, sStf),
	exec.Ins("stdf", fmt3r(3, 0, op3Stdf, 0, 0), maskOp3, " D, [1+2]", layArith, sStdf),
}

var isa = exec.NewTable(rows, fields)
