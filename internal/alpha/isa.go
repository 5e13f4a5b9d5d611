package alpha

import "repro/internal/exec"

// This file is the Alpha instruction table: the one place a bit pattern
// is paired with a mnemonic, its operands, a control-flow kind and a
// threaded opcode, and a syntax letter with its field and the slot of
// the predecoded instruction it fills.  Classify, Disasm, Predecode and
// the core read it; a word verifies exactly when it has an opcode.  The
// fetch/switch Step in cpu.go deliberately does not: it is the
// independent oracle the table is tested against row by row.

// Which bits of the word a row of each format fixes.
const (
	maskOp      = 0x3f << 26
	maskOperate = maskOp | 0x7f<<5  // opcode, 7-bit function
	maskFP      = maskOp | 0x7ff<<5 // opcode, 11-bit function
	maskJump    = maskOp | 3<<14    // opcode, hint
	fieldRa     = 0x1f << 21
)

// The syntax letters: a b c = ra rb rc, l = operand2 (an 8-bit literal
// when bit 12 is set, else rb), i = disp16, t = branch target (from the
// updated pc), A B C = fa fb fc.
var fields = map[byte]exec.Field{
	'a': {Shift: 21, Width: 5, Names: gprNames, Slot: exec.SlotA},
	'b': rbField,
	'c': {Width: 5, Names: gprNames, Slot: exec.SlotC},
	'l': {Shift: 13, Width: 8, Fmt: "#%d", Slot: exec.SlotImm, Sel: 12, Else: &rbField},
	'i': {Width: 16, Signed: true, Fmt: "%d", Slot: exec.SlotImm},
	't': {Width: 21, Signed: true, Scale: 2, Target: true, PC: 4},
	'A': {Shift: 21, Width: 5, Names: fprNames, Slot: exec.SlotA},
	'B': {Shift: 16, Width: 5, Names: fprNames, Slot: exec.SlotB},
	'C': {Width: 5, Names: fprNames, Slot: exec.SlotC},
}

var rbField = exec.Field{Shift: 16, Width: 5, Names: gprNames, Slot: exec.SlotB}

var fprNames = exec.Numbered("f%d")

// A jump-format word that links into r31 is a plain jump or return; one
// that writes a real link register is an indirect call, whatever its hint
// says.
var rows = []exec.Row{
	exec.Ins("nop", encNop, 0xffffffff, "", aBis),

	exec.Ins("lda", memFmt(opLda, 0, 0, 0), maskOp, " a, i(b)", aLda).Writes('a'),
	exec.Ins("ldah", memFmt(opLdah, 0, 0, 0), maskOp, " a, i(b)", aLdah).Writes('a'),
	exec.Ins("ldl", memFmt(opLdl, 0, 0, 0), maskOp, " a, i(b)", aLdl).Writes('a'),
	exec.Ins("ldq", memFmt(opLdq, 0, 0, 0), maskOp, " a, i(b)", aLdq).Writes('a'),
	exec.Ins("ldq_u", memFmt(opLdqU, 0, 0, 0), maskOp, " a, i(b)", aLdqU).Writes('a'),
	exec.Ins("lds", memFmt(opLds, 0, 0, 0), maskOp, " A, i(b)", aLds),
	exec.Ins("ldt", memFmt(opLdt, 0, 0, 0), maskOp, " A, i(b)", aLdt),
	exec.Ins("stl", memFmt(opStl, 0, 0, 0), maskOp, " a, i(b)", aStl),
	exec.Ins("stq", memFmt(opStq, 0, 0, 0), maskOp, " a, i(b)", aStq),
	exec.Ins("stq_u", memFmt(opStqU, 0, 0, 0), maskOp, " a, i(b)", aStqU),
	exec.Ins("sts", memFmt(opSts, 0, 0, 0), maskOp, " A, i(b)", aSts),
	exec.Ins("stt", memFmt(opStt, 0, 0, 0), maskOp, " A, i(b)", aStt),

	exec.Ins("br", brFmt(opBr, 0, 0), maskOp, " a, t", aBr).As(exec.KindBranch).Writes('a'),
	exec.Ins("bsr", brFmt(opBsr, 0, 0), maskOp, " a, t", aBr).As(exec.KindCall).Writes('a'),
	exec.Ins("beq", brFmt(opBeq, 0, 0), maskOp, " a, t", aBeq).As(exec.KindBranch),
	exec.Ins("bne", brFmt(opBne, 0, 0), maskOp, " a, t", aBne).As(exec.KindBranch),
	exec.Ins("blt", brFmt(opBlt, 0, 0), maskOp, " a, t", aBlt).As(exec.KindBranch),
	exec.Ins("ble", brFmt(opBle, 0, 0), maskOp, " a, t", aBle).As(exec.KindBranch),
	exec.Ins("bgt", brFmt(opBgt, 0, 0), maskOp, " a, t", aBgt).As(exec.KindBranch),
	exec.Ins("bge", brFmt(opBge, 0, 0), maskOp, " a, t", aBge).As(exec.KindBranch),
	exec.Ins("fbeq", brFmt(opFbeq, 0, 0), maskOp, " A, t", aFbeq).As(exec.KindBranch),
	exec.Ins("fbne", brFmt(opFbne, 0, 0), maskOp, " A, t", aFbne).As(exec.KindBranch),
	exec.Ins("fblt", brFmt(opFblt, 0, 0), maskOp, " A, t", aFblt).As(exec.KindBranch),
	exec.Ins("fble", brFmt(opFble, 0, 0), maskOp, " A, t", aFble).As(exec.KindBranch),
	exec.Ins("fbgt", brFmt(opFbgt, 0, 0), maskOp, " A, t", aFbgt).As(exec.KindBranch),
	exec.Ins("fbge", brFmt(opFbge, 0, 0), maskOp, " A, t", aFbge).As(exec.KindBranch),

	exec.Ins("jmp", jmpFmt(31, 0, hintJmp), maskJump|fieldRa, " a, (b)", aJump).As(exec.KindJumpReg).Writes('a'),
	exec.Ins("jmp", jmpFmt(0, 0, hintJmp), maskJump, " a, (b)", aJump).As(exec.KindCall).Writes('a'),
	exec.Ins("jsr", jmpFmt(31, 0, hintJsr), maskJump|fieldRa, " a, (b)", aJump).As(exec.KindJumpReg).Writes('a'),
	exec.Ins("jsr", jmpFmt(0, 0, hintJsr), maskJump, " a, (b)", aJump).As(exec.KindCall).Writes('a'),
	exec.Ins("ret", jmpFmt(31, 0, hintRet), maskJump|fieldRa, " a, (b)", aJump).As(exec.KindJumpReg).Writes('a'),
	exec.Ins("ret", jmpFmt(0, 0, hintRet), maskJump, " a, (b)", aJump).As(exec.KindCall).Writes('a'),
	exec.Ins("jsr_coroutine", jmpFmt(31, 0, hintCo), maskJump|fieldRa, " a, (b)", aJump).As(exec.KindJumpReg).Writes('a'),
	exec.Ins("jsr_coroutine", jmpFmt(0, 0, hintCo), maskJump, " a, (b)", aJump).As(exec.KindCall).Writes('a'),

	exec.Ins("addl", opFmtR(opInta, 0, 0, fnAddl, 0), maskOperate, " a, l, c", aAddl).Writes('c'),
	exec.Ins("subl", opFmtR(opInta, 0, 0, fnSubl, 0), maskOperate, " a, l, c", aSubl).Writes('c'),
	exec.Ins("addq", opFmtR(opInta, 0, 0, fnAddq, 0), maskOperate, " a, l, c", aAddq).Writes('c'),
	exec.Ins("subq", opFmtR(opInta, 0, 0, fnSubq, 0), maskOperate, " a, l, c", aSubq).Writes('c'),
	exec.Ins("cmpult", opFmtR(opInta, 0, 0, fnCmpult, 0), maskOperate, " a, l, c", aCmpult).Writes('c'),
	exec.Ins("cmpeq", opFmtR(opInta, 0, 0, fnCmpeq, 0), maskOperate, " a, l, c", aCmpeq).Writes('c'),
	exec.Ins("cmpule", opFmtR(opInta, 0, 0, fnCmpule, 0), maskOperate, " a, l, c", aCmpule).Writes('c'),
	exec.Ins("cmplt", opFmtR(opInta, 0, 0, fnCmplt, 0), maskOperate, " a, l, c", aCmplt).Writes('c'),
	exec.Ins("cmple", opFmtR(opInta, 0, 0, fnCmple, 0), maskOperate, " a, l, c", aCmple).Writes('c'),

	exec.Ins("and", opFmtR(opIntl, 0, 0, fnAnd, 0), maskOperate, " a, l, c", aAnd).Writes('c'),
	exec.Ins("bic", opFmtR(opIntl, 0, 0, fnBic, 0), maskOperate, " a, l, c", aBic).Writes('c'),
	exec.Ins("bis", opFmtR(opIntl, 0, 0, fnBis, 0), maskOperate, " a, l, c", aBis).Writes('c'),
	exec.Ins("ornot", opFmtR(opIntl, 0, 0, fnOrnot, 0), maskOperate, " a, l, c", aOrnot).Writes('c'),
	exec.Ins("xor", opFmtR(opIntl, 0, 0, fnXor, 0), maskOperate, " a, l, c", aXor).Writes('c'),
	exec.Ins("eqv", opFmtR(opIntl, 0, 0, fnEqv, 0), maskOperate, " a, l, c", aEqv).Writes('c'),

	exec.Ins("mskbl", opFmtR(opInts, 0, 0, fnMskbl, 0), maskOperate, " a, l, c", aMskbl).Writes('c'),
	exec.Ins("extbl", opFmtR(opInts, 0, 0, fnExtbl, 0), maskOperate, " a, l, c", aExtbl).Writes('c'),
	exec.Ins("insbl", opFmtR(opInts, 0, 0, fnInsbl, 0), maskOperate, " a, l, c", aInsbl).Writes('c'),
	exec.Ins("mskwl", opFmtR(opInts, 0, 0, fnMskwl, 0), maskOperate, " a, l, c", aMskwl).Writes('c'),
	exec.Ins("extwl", opFmtR(opInts, 0, 0, fnExtwl, 0), maskOperate, " a, l, c", aExtwl).Writes('c'),
	exec.Ins("inswl", opFmtR(opInts, 0, 0, fnInswl, 0), maskOperate, " a, l, c", aInswl).Writes('c'),
	exec.Ins("zap", opFmtR(opInts, 0, 0, fnZap, 0), maskOperate, " a, l, c", aZap).Writes('c'),
	exec.Ins("zapnot", opFmtR(opInts, 0, 0, fnZapnot, 0), maskOperate, " a, l, c", aZapnot).Writes('c'),
	exec.Ins("srl", opFmtR(opInts, 0, 0, fnSrl, 0), maskOperate, " a, l, c", aSrl).Writes('c'),
	exec.Ins("sll", opFmtR(opInts, 0, 0, fnSll, 0), maskOperate, " a, l, c", aSll).Writes('c'),
	exec.Ins("sra", opFmtR(opInts, 0, 0, fnSra, 0), maskOperate, " a, l, c", aSra).Writes('c'),

	exec.Ins("mull", opFmtR(opIntm, 0, 0, fnMull, 0), maskOperate, " a, l, c", aMull).Writes('c'),
	exec.Ins("mulq", opFmtR(opIntm, 0, 0, fnMulq, 0), maskOperate, " a, l, c", aMulq).Writes('c'),

	exec.Ins("cpys", fpFmt(opFltl, 0, 0, fnCpys, 0), maskFP, " A, B, C", aCpys),
	exec.Ins("cpysn", fpFmt(opFltl, 0, 0, fnCpysn, 0), maskFP, " A, B, C", aCpysn),
	exec.Ins("sqrts", fpFmt(opFlts, 0, 0, fnSqrts, 0), maskFP, " B, C", aSqrts),
	exec.Ins("sqrtt", fpFmt(opFlts, 0, 0, fnSqrtt, 0), maskFP, " B, C", aSqrtt),

	exec.Ins("adds", fpFmt(opFlti, 0, 0, fnAdds, 0), maskFP, " A, B, C", aAdds),
	exec.Ins("subs", fpFmt(opFlti, 0, 0, fnSubs, 0), maskFP, " A, B, C", aSubs),
	exec.Ins("muls", fpFmt(opFlti, 0, 0, fnMuls, 0), maskFP, " A, B, C", aMuls),
	exec.Ins("divs", fpFmt(opFlti, 0, 0, fnDivs, 0), maskFP, " A, B, C", aDivs),
	exec.Ins("addt", fpFmt(opFlti, 0, 0, fnAddt, 0), maskFP, " A, B, C", aAddt),
	exec.Ins("subt", fpFmt(opFlti, 0, 0, fnSubt, 0), maskFP, " A, B, C", aSubt),
	exec.Ins("mult", fpFmt(opFlti, 0, 0, fnMult, 0), maskFP, " A, B, C", aMultT),
	exec.Ins("divt", fpFmt(opFlti, 0, 0, fnDivt, 0), maskFP, " A, B, C", aDivt),
	exec.Ins("cmpteq", fpFmt(opFlti, 0, 0, fnCmpteq, 0), maskFP, " A, B, C", aCmpteq),
	exec.Ins("cmptlt", fpFmt(opFlti, 0, 0, fnCmptlt, 0), maskFP, " A, B, C", aCmptlt),
	exec.Ins("cmptle", fpFmt(opFlti, 0, 0, fnCmptle, 0), maskFP, " A, B, C", aCmptle),
	exec.Ins("cvtts", fpFmt(opFlti, 0, 0, fnCvtts, 0), maskFP, " B, C", aCvtts),
	exec.Ins("cvttq/c", fpFmt(opFlti, 0, 0, fnCvttqc, 0), maskFP, " B, C", aCvttqc),
	exec.Ins("cvtqs", fpFmt(opFlti, 0, 0, fnCvtqs, 0), maskFP, " B, C", aCvtqs),
	exec.Ins("cvtqt", fpFmt(opFlti, 0, 0, fnCvtqt, 0), maskFP, " B, C", aCvtqt),
	exec.Ins("cvtst", fpFmt(opFlti, 0, 0, fnCvtst, 0), maskFP, " B, C", aCvtst),
}

var isa = exec.NewTable(rows, fields, interlock, 31)
