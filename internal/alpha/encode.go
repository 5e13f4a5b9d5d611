// Package alpha is the Alpha port of VCODE: a 64-bit, little-endian
// target in the 21064 mould — no branch delay slots, no byte/halfword
// memory instructions (they are synthesized from ldq_u/extbl/insbl/mskbl,
// the paper's §6.2 worst case), and no integer divide (VCODE routes
// division through runtime emulation helpers, §5.2).  32-bit values are
// kept in canonical form: sign-extended to 64 bits, as the architecture
// handbook specifies.
package alpha

// Memory-format opcodes.
const (
	opLda  = 0x08
	opLdah = 0x09
	opLdqU = 0x0b
	opStqU = 0x0f
	opLds  = 0x22
	opLdt  = 0x23
	opSts  = 0x26
	opStt  = 0x27
	opLdl  = 0x28
	opLdq  = 0x29
	opStl  = 0x2c
	opStq  = 0x2d
)

// Branch-format opcodes.
const (
	opBr   = 0x30
	opFbeq = 0x31
	opFblt = 0x32
	opFble = 0x33
	opBsr  = 0x34
	opFbne = 0x35
	opFbge = 0x36
	opFbgt = 0x37
	opBeq  = 0x39
	opBlt  = 0x3a
	opBle  = 0x3b
	opBne  = 0x3d
	opBge  = 0x3e
	opBgt  = 0x3f
)

// Operate-format opcodes and function codes.
const (
	opInta = 0x10
	opIntl = 0x11
	opInts = 0x12
	opIntm = 0x13
	opJump = 0x1a
	opFlts = 0x14 // sqrt group
	opFlti = 0x16 // IEEE arithmetic
	opFltl = 0x17 // FP copy/sign ops
)

const (
	fnAddl   = 0x00
	fnSubl   = 0x09
	fnAddq   = 0x20
	fnSubq   = 0x29
	fnCmpult = 0x1d
	fnCmpeq  = 0x2d
	fnCmpule = 0x3d
	fnCmplt  = 0x4d
	fnCmple  = 0x6d

	fnAnd   = 0x00
	fnBic   = 0x08
	fnBis   = 0x20
	fnOrnot = 0x28
	fnXor   = 0x40
	fnEqv   = 0x48

	fnMskbl  = 0x02
	fnExtbl  = 0x06
	fnInsbl  = 0x0b
	fnMskwl  = 0x12
	fnExtwl  = 0x16
	fnInswl  = 0x1b
	fnZap    = 0x30
	fnZapnot = 0x31
	fnSrl    = 0x34
	fnSll    = 0x39
	fnSra    = 0x3c

	fnMull = 0x00
	fnMulq = 0x20
)

// FLTI function codes.
const (
	fnAdds   = 0x080
	fnSubs   = 0x081
	fnMuls   = 0x082
	fnDivs   = 0x083
	fnAddt   = 0x0a0
	fnSubt   = 0x0a1
	fnMult   = 0x0a2
	fnDivt   = 0x0a3
	fnCmpteq = 0x0a5
	fnCmptlt = 0x0a6
	fnCmptle = 0x0a7
	fnCvtts  = 0x0ac
	fnCvttqc = 0x02f // cvttq/c: truncating convert to quad
	fnCvtqs  = 0x0bc
	fnCvtqt  = 0x0be
	fnCvtst  = 0x2ac
)

// FLTL function codes.
const (
	fnCpys  = 0x020
	fnCpysn = 0x021
)

// FLTS (sqrt group) function codes.
const (
	fnSqrts = 0x08b
	fnSqrtt = 0x0ab
)

// Jump-format hints.
const (
	hintJmp = 0
	hintJsr = 1
	hintRet = 2
	hintCo  = 3 // jsr_coroutine
)

// memFmt builds a memory-format instruction.
func memFmt(op, ra, rb uint32, disp int32) uint32 {
	return op<<26 | ra<<21 | rb<<16 | uint32(disp)&0xffff
}

// brFmt builds a branch-format instruction (disp21 patched later).
func brFmt(op, ra uint32, disp int32) uint32 {
	return op<<26 | ra<<21 | uint32(disp)&0x1fffff
}

// opFmtR builds a register-form operate instruction.
func opFmtR(op, ra, rb, fn, rc uint32) uint32 {
	return op<<26 | ra<<21 | rb<<16 | fn<<5 | rc
}

// opFmtL builds a literal-form operate instruction (0 <= lit < 256).
func opFmtL(op, ra, lit, fn, rc uint32) uint32 {
	return op<<26 | ra<<21 | lit<<13 | 1<<12 | fn<<5 | rc
}

// fpFmt builds an FP operate instruction (11-bit function).
func fpFmt(op, fa, fb, fn, fc uint32) uint32 {
	return op<<26 | fa<<21 | fb<<16 | fn<<5 | fc
}

// jmpFmt builds a jump-format instruction.
func jmpFmt(ra, rb, hint uint32) uint32 {
	return opJump<<26 | ra<<21 | rb<<16 | hint<<14
}

// encNop is bis r31, r31, r31.
var encNop = opFmtR(opIntl, 31, 31, fnBis, 31)

func fitsS16(v int64) bool  { return v >= -32768 && v <= 32767 }
func fitsLit8(v int64) bool { return v >= 0 && v <= 255 }
