package alpha

import "repro/internal/exec"

// This file is the Alpha instruction table: the one place a bit pattern
// is paired with a mnemonic, an operand layout, a control-flow kind and
// a threaded opcode, and a syntax letter with its field.  Classify,
// Disasm, Predecode and the core read it; a word verifies exactly when
// it has an opcode.  The fetch/switch Step in cpu.go deliberately does
// not: it is the independent oracle the table is tested against row by row.

// Operand layouts: which fields of the word Predecode unpacks.
const (
	layMem     uint8 = iota // ra, rb, sign-extended disp16
	layMemHi                // layMem with the displacement shifted left 16 (ldah)
	layLoad                 // layMem; ra is the interlock-producing destination
	layBr                   // ra, pc-relative disp21
	layJump                 // ra, rb
	layOperate              // ra, operand2 (rb or 8-bit literal), rc; rb is an interlock source
	layFP                   // fa, fb, fc
)

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
	'a': {Shift: 21, Width: 5, Names: gprNames},
	'b': rbField,
	'c': {Width: 5, Names: gprNames},
	'l': {Shift: 13, Width: 8, Fmt: "#%d", Sel: 12, Else: &rbField},
	'i': {Width: 16, Signed: true, Fmt: "%d"},
	't': {Width: 21, Signed: true, Scale: 2, Target: true, PC: 4},
	'A': {Shift: 21, Width: 5, Names: fprNames},
	'B': {Shift: 16, Width: 5, Names: fprNames},
	'C': {Width: 5, Names: fprNames},
}

var rbField = exec.Field{Shift: 16, Width: 5, Names: gprNames}

var fprNames = exec.Numbered("f%d")

// A jump-format word that links into r31 is a plain jump or return; one
// that writes a real link register is an indirect call, whatever its hint
// says.
var rows = []exec.Row{
	exec.Ins("nop", encNop, 0xffffffff, "", layOperate, aBis),

	exec.Ins("lda", memFmt(opLda, 0, 0, 0), maskOp, " a, i(b)", layMem, aLda),
	exec.Ins("ldah", memFmt(opLdah, 0, 0, 0), maskOp, " a, i(b)", layMemHi, aLda),
	exec.Ins("ldl", memFmt(opLdl, 0, 0, 0), maskOp, " a, i(b)", layLoad, aLdl),
	exec.Ins("ldq", memFmt(opLdq, 0, 0, 0), maskOp, " a, i(b)", layLoad, aLdq),
	exec.Ins("ldq_u", memFmt(opLdqU, 0, 0, 0), maskOp, " a, i(b)", layLoad, aLdqU),
	exec.Ins("lds", memFmt(opLds, 0, 0, 0), maskOp, " A, i(b)", layMem, aLds),
	exec.Ins("ldt", memFmt(opLdt, 0, 0, 0), maskOp, " A, i(b)", layMem, aLdt),
	exec.Ins("stl", memFmt(opStl, 0, 0, 0), maskOp, " a, i(b)", layMem, aStl),
	exec.Ins("stq", memFmt(opStq, 0, 0, 0), maskOp, " a, i(b)", layMem, aStq),
	exec.Ins("stq_u", memFmt(opStqU, 0, 0, 0), maskOp, " a, i(b)", layMem, aStqU),
	exec.Ins("sts", memFmt(opSts, 0, 0, 0), maskOp, " A, i(b)", layMem, aSts),
	exec.Ins("stt", memFmt(opStt, 0, 0, 0), maskOp, " A, i(b)", layMem, aStt),

	exec.Ins("br", brFmt(opBr, 0, 0), maskOp, " a, t", layBr, aBr).As(exec.KindBranch),
	exec.Ins("bsr", brFmt(opBsr, 0, 0), maskOp, " a, t", layBr, aBr).As(exec.KindCall),
	exec.Ins("beq", brFmt(opBeq, 0, 0), maskOp, " a, t", layBr, aBeq).As(exec.KindBranch),
	exec.Ins("bne", brFmt(opBne, 0, 0), maskOp, " a, t", layBr, aBne).As(exec.KindBranch),
	exec.Ins("blt", brFmt(opBlt, 0, 0), maskOp, " a, t", layBr, aBlt).As(exec.KindBranch),
	exec.Ins("ble", brFmt(opBle, 0, 0), maskOp, " a, t", layBr, aBle).As(exec.KindBranch),
	exec.Ins("bgt", brFmt(opBgt, 0, 0), maskOp, " a, t", layBr, aBgt).As(exec.KindBranch),
	exec.Ins("bge", brFmt(opBge, 0, 0), maskOp, " a, t", layBr, aBge).As(exec.KindBranch),
	exec.Ins("fbeq", brFmt(opFbeq, 0, 0), maskOp, " A, t", layBr, aFbeq).As(exec.KindBranch),
	exec.Ins("fbne", brFmt(opFbne, 0, 0), maskOp, " A, t", layBr, aFbne).As(exec.KindBranch),
	exec.Ins("fblt", brFmt(opFblt, 0, 0), maskOp, " A, t", layBr, aFblt).As(exec.KindBranch),
	exec.Ins("fble", brFmt(opFble, 0, 0), maskOp, " A, t", layBr, aFble).As(exec.KindBranch),
	exec.Ins("fbgt", brFmt(opFbgt, 0, 0), maskOp, " A, t", layBr, aFbgt).As(exec.KindBranch),
	exec.Ins("fbge", brFmt(opFbge, 0, 0), maskOp, " A, t", layBr, aFbge).As(exec.KindBranch),

	exec.Ins("jmp", jmpFmt(31, 0, hintJmp), maskJump|fieldRa, " a, (b)", layJump, aJump).As(exec.KindJumpReg),
	exec.Ins("jmp", jmpFmt(0, 0, hintJmp), maskJump, " a, (b)", layJump, aJump).As(exec.KindCall),
	exec.Ins("jsr", jmpFmt(31, 0, hintJsr), maskJump|fieldRa, " a, (b)", layJump, aJump).As(exec.KindJumpReg),
	exec.Ins("jsr", jmpFmt(0, 0, hintJsr), maskJump, " a, (b)", layJump, aJump).As(exec.KindCall),
	exec.Ins("ret", jmpFmt(31, 0, hintRet), maskJump|fieldRa, " a, (b)", layJump, aJump).As(exec.KindJumpReg),
	exec.Ins("ret", jmpFmt(0, 0, hintRet), maskJump, " a, (b)", layJump, aJump).As(exec.KindCall),
	exec.Ins("jsr_coroutine", jmpFmt(31, 0, hintCo), maskJump|fieldRa, " a, (b)", layJump, aJump).As(exec.KindJumpReg),
	exec.Ins("jsr_coroutine", jmpFmt(0, 0, hintCo), maskJump, " a, (b)", layJump, aJump).As(exec.KindCall),

	exec.Ins("addl", opFmtR(opInta, 0, 0, fnAddl, 0), maskOperate, " a, l, c", layOperate, aAddl),
	exec.Ins("subl", opFmtR(opInta, 0, 0, fnSubl, 0), maskOperate, " a, l, c", layOperate, aSubl),
	exec.Ins("addq", opFmtR(opInta, 0, 0, fnAddq, 0), maskOperate, " a, l, c", layOperate, aAddq),
	exec.Ins("subq", opFmtR(opInta, 0, 0, fnSubq, 0), maskOperate, " a, l, c", layOperate, aSubq),
	exec.Ins("cmpult", opFmtR(opInta, 0, 0, fnCmpult, 0), maskOperate, " a, l, c", layOperate, aCmpult),
	exec.Ins("cmpeq", opFmtR(opInta, 0, 0, fnCmpeq, 0), maskOperate, " a, l, c", layOperate, aCmpeq),
	exec.Ins("cmpule", opFmtR(opInta, 0, 0, fnCmpule, 0), maskOperate, " a, l, c", layOperate, aCmpule),
	exec.Ins("cmplt", opFmtR(opInta, 0, 0, fnCmplt, 0), maskOperate, " a, l, c", layOperate, aCmplt),
	exec.Ins("cmple", opFmtR(opInta, 0, 0, fnCmple, 0), maskOperate, " a, l, c", layOperate, aCmple),

	exec.Ins("and", opFmtR(opIntl, 0, 0, fnAnd, 0), maskOperate, " a, l, c", layOperate, aAnd),
	exec.Ins("bic", opFmtR(opIntl, 0, 0, fnBic, 0), maskOperate, " a, l, c", layOperate, aBic),
	exec.Ins("bis", opFmtR(opIntl, 0, 0, fnBis, 0), maskOperate, " a, l, c", layOperate, aBis),
	exec.Ins("ornot", opFmtR(opIntl, 0, 0, fnOrnot, 0), maskOperate, " a, l, c", layOperate, aOrnot),
	exec.Ins("xor", opFmtR(opIntl, 0, 0, fnXor, 0), maskOperate, " a, l, c", layOperate, aXor),
	exec.Ins("eqv", opFmtR(opIntl, 0, 0, fnEqv, 0), maskOperate, " a, l, c", layOperate, aEqv),

	exec.Ins("mskbl", opFmtR(opInts, 0, 0, fnMskbl, 0), maskOperate, " a, l, c", layOperate, aMskbl),
	exec.Ins("extbl", opFmtR(opInts, 0, 0, fnExtbl, 0), maskOperate, " a, l, c", layOperate, aExtbl),
	exec.Ins("insbl", opFmtR(opInts, 0, 0, fnInsbl, 0), maskOperate, " a, l, c", layOperate, aInsbl),
	exec.Ins("mskwl", opFmtR(opInts, 0, 0, fnMskwl, 0), maskOperate, " a, l, c", layOperate, aMskwl),
	exec.Ins("extwl", opFmtR(opInts, 0, 0, fnExtwl, 0), maskOperate, " a, l, c", layOperate, aExtwl),
	exec.Ins("inswl", opFmtR(opInts, 0, 0, fnInswl, 0), maskOperate, " a, l, c", layOperate, aInswl),
	exec.Ins("zap", opFmtR(opInts, 0, 0, fnZap, 0), maskOperate, " a, l, c", layOperate, aZap),
	exec.Ins("zapnot", opFmtR(opInts, 0, 0, fnZapnot, 0), maskOperate, " a, l, c", layOperate, aZapnot),
	exec.Ins("srl", opFmtR(opInts, 0, 0, fnSrl, 0), maskOperate, " a, l, c", layOperate, aSrl),
	exec.Ins("sll", opFmtR(opInts, 0, 0, fnSll, 0), maskOperate, " a, l, c", layOperate, aSll),
	exec.Ins("sra", opFmtR(opInts, 0, 0, fnSra, 0), maskOperate, " a, l, c", layOperate, aSra),

	exec.Ins("mull", opFmtR(opIntm, 0, 0, fnMull, 0), maskOperate, " a, l, c", layOperate, aMull),
	exec.Ins("mulq", opFmtR(opIntm, 0, 0, fnMulq, 0), maskOperate, " a, l, c", layOperate, aMulq),

	exec.Ins("cpys", fpFmt(opFltl, 0, 0, fnCpys, 0), maskFP, " A, B, C", layFP, aCpys),
	exec.Ins("cpysn", fpFmt(opFltl, 0, 0, fnCpysn, 0), maskFP, " A, B, C", layFP, aCpysn),
	exec.Ins("sqrts", fpFmt(opFlts, 0, 0, fnSqrts, 0), maskFP, " B, C", layFP, aSqrts),
	exec.Ins("sqrtt", fpFmt(opFlts, 0, 0, fnSqrtt, 0), maskFP, " B, C", layFP, aSqrtt),

	exec.Ins("adds", fpFmt(opFlti, 0, 0, fnAdds, 0), maskFP, " A, B, C", layFP, aAdds),
	exec.Ins("subs", fpFmt(opFlti, 0, 0, fnSubs, 0), maskFP, " A, B, C", layFP, aSubs),
	exec.Ins("muls", fpFmt(opFlti, 0, 0, fnMuls, 0), maskFP, " A, B, C", layFP, aMuls),
	exec.Ins("divs", fpFmt(opFlti, 0, 0, fnDivs, 0), maskFP, " A, B, C", layFP, aDivs),
	exec.Ins("addt", fpFmt(opFlti, 0, 0, fnAddt, 0), maskFP, " A, B, C", layFP, aAddt),
	exec.Ins("subt", fpFmt(opFlti, 0, 0, fnSubt, 0), maskFP, " A, B, C", layFP, aSubt),
	exec.Ins("mult", fpFmt(opFlti, 0, 0, fnMult, 0), maskFP, " A, B, C", layFP, aMultT),
	exec.Ins("divt", fpFmt(opFlti, 0, 0, fnDivt, 0), maskFP, " A, B, C", layFP, aDivt),
	exec.Ins("cmpteq", fpFmt(opFlti, 0, 0, fnCmpteq, 0), maskFP, " A, B, C", layFP, aCmpteq),
	exec.Ins("cmptlt", fpFmt(opFlti, 0, 0, fnCmptlt, 0), maskFP, " A, B, C", layFP, aCmptlt),
	exec.Ins("cmptle", fpFmt(opFlti, 0, 0, fnCmptle, 0), maskFP, " A, B, C", layFP, aCmptle),
	exec.Ins("cvtts", fpFmt(opFlti, 0, 0, fnCvtts, 0), maskFP, " B, C", layFP, aCvtts),
	exec.Ins("cvttq/c", fpFmt(opFlti, 0, 0, fnCvttqc, 0), maskFP, " B, C", layFP, aCvttqc),
	exec.Ins("cvtqs", fpFmt(opFlti, 0, 0, fnCvtqs, 0), maskFP, " B, C", layFP, aCvtqs),
	exec.Ins("cvtqt", fpFmt(opFlti, 0, 0, fnCvtqt, 0), maskFP, " B, C", layFP, aCvtqt),
	exec.Ins("cvtst", fpFmt(opFlti, 0, 0, fnCvtst, 0), maskFP, " B, C", layFP, aCvtst),
}

var isa = exec.NewTable(rows, fields)
