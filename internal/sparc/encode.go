// Package sparc is the SPARC V8 port of VCODE: encoders, the core.Backend
// retarget, a disassembler and a cycle-counted simulator.  The port uses
// the "flat" register model (as -mflat compilers do): no register windows,
// explicit callee-saved spills in the prologue — which keeps VCODE's
// register classification meaningful and matches the paper's observation
// that the VCODE model is window-agnostic.  SPARC is big-endian, has one
// branch delay slot, 13-bit immediates, and condition-code-based branches.
package sparc

// Format 3 op3 values (op=2, arithmetic/logic).
const (
	op3Add   = 0x00
	op3And   = 0x01
	op3Or    = 0x02
	op3Xor   = 0x03
	op3Sub   = 0x04
	op3Andn  = 0x05
	op3Xnor  = 0x07
	op3Addx  = 0x08
	op3Umul  = 0x0a
	op3Smul  = 0x0b
	op3Udiv  = 0x0e
	op3Sdiv  = 0x0f
	op3AddCC = 0x10
	op3SubCC = 0x14
	op3Sll   = 0x25
	op3Srl   = 0x26
	op3Sra   = 0x27
	op3RdY   = 0x28
	op3WrY   = 0x30
	op3Jmpl  = 0x38
	op3FPop1 = 0x34
	op3FPop2 = 0x35
)

// Format 3 op3 values (op=3, memory).
const (
	op3Ld   = 0x00
	op3Ldub = 0x01
	op3Lduh = 0x02
	op3St   = 0x04
	op3Stb  = 0x05
	op3Sth  = 0x06
	op3Ldsb = 0x09
	op3Ldsh = 0x0a
	op3Ldf  = 0x20
	op3Lddf = 0x23
	op3Stf  = 0x24
	op3Stdf = 0x27
)

// FPop1 opf values.
const (
	opfFmovs  = 0x001
	opfFnegs  = 0x005
	opfFabss  = 0x009
	opfFsqrts = 0x029
	opfFsqrtd = 0x02a
	opfFadds  = 0x041
	opfFaddd  = 0x042
	opfFsubs  = 0x045
	opfFsubd  = 0x046
	opfFmuls  = 0x049
	opfFmuld  = 0x04a
	opfFdivs  = 0x04d
	opfFdivd  = 0x04e
	opfFitos  = 0x0c4
	opfFdtos  = 0x0c6
	opfFitod  = 0x0c8
	opfFstod  = 0x0c9
	opfFstoi  = 0x0d1
	opfFdtoi  = 0x0d2
)

// FPop2 opf values.
const (
	opfFcmps = 0x051
	opfFcmpd = 0x052
)

// Bicc condition codes.
const (
	condN   = 0 // never
	condE   = 1 // equal (Z)
	condLE  = 2 // signed <=
	condL   = 3 // signed <
	condLEU = 4 // unsigned <=
	condCS  = 5 // carry set: unsigned <
	condNE  = 9
	condG   = 10 // signed >
	condGE  = 11 // signed >=
	condGU  = 12 // unsigned >
	condCC  = 13 // carry clear: unsigned >=
	condA   = 8  // always
)

// FBfcc condition codes (subset: ordered comparisons).
const (
	fcondNE = 1
	fcondL  = 4
	fcondG  = 6
	fcondE  = 9
	fcondGE = 11
	fcondLE = 13
)

// fmt3r builds an op=2/3 register-register instruction.
func fmt3r(op, rd, op3, rs1, rs2 uint32) uint32 {
	return op<<30 | rd<<25 | op3<<19 | rs1<<14 | rs2
}

// fmt3i builds an op=2/3 register-immediate instruction (i=1, simm13).
func fmt3i(op, rd, op3, rs1 uint32, simm13 int32) uint32 {
	return op<<30 | rd<<25 | op3<<19 | rs1<<14 | 1<<13 | uint32(simm13)&0x1fff
}

// fmtSethi builds sethi %hi(imm22), rd.
func fmtSethi(rd, imm22 uint32) uint32 {
	return 0<<30 | rd<<25 | 4<<22 | imm22&0x3fffff
}

// fmtBicc builds an integer branch (op2=2); disp22 is patched later.
func fmtBicc(cond uint32, disp22 int32) uint32 {
	return 0<<30 | cond<<25 | 2<<22 | uint32(disp22)&0x3fffff
}

// fmtFBfcc builds an FP branch (op2=6).
func fmtFBfcc(cond uint32, disp22 int32) uint32 {
	return 0<<30 | cond<<25 | 6<<22 | uint32(disp22)&0x3fffff
}

// fmtCall builds the call instruction (op=1, disp30).
func fmtCall(disp30 int32) uint32 {
	return 1<<30 | uint32(disp30)&0x3fffffff
}

// fmtFP builds an FPop instruction.
func fmtFP(op3, rd, opf, rs1, rs2 uint32) uint32 {
	return 2<<30 | rd<<25 | op3<<19 | rs1<<14 | opf<<5 | rs2
}

// encNop is sethi 0, %g0.
const encNop uint32 = 0x01000000

func fitsS13(v int64) bool { return v >= -4096 && v <= 4095 }
