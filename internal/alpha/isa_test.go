package alpha

import (
	"testing"

	"repro/internal/isatest"
	"repro/internal/mem"
)

// tableUnderTest pairs the instruction table and its three readers with
// a fresh switch-engine CPU, the oracle they are held to.
func tableUnderTest() *isatest.ISA {
	m := mem.New(1<<16, false)
	return &isatest.ISA{Rows: rows, Dec: New(), CPU: NewCPU(m), Mem: m}
}

// TestISATableLegality: a word verifies exactly when the oracle decodes
// it and exactly when it predecodes to a real handler.
func TestISATableLegality(t *testing.T) { tableUnderTest().CheckLegality(t) }

// TestISATableRows: every row round-trips through the oracle, the
// predecoder, the classifier and the disassembler.
func TestISATableRows(t *testing.T) { tableUnderTest().CheckRows(t) }

// TestDisasmListing pins the disassembly of one instruction of each
// operand layout (and each alias), at pc 0x1000.
func TestDisasmListing(t *testing.T) {
	b := New()
	for _, tc := range []struct {
		w    uint32
		want string
	}{
		{encNop, "nop"}, // alias of bis
		{memFmt(opLda, 30, 30, -32), "lda sp, -32(sp)"},              // layMem
		{memFmt(opLdah, 29, 27, 1), "ldah gp, 1(pv)"},                // layMemHi
		{memFmt(opLdq, 1, 30, 16), "ldq t0, 16(sp)"},                 // layLoad
		{memFmt(opStl, 1, 30, 8), "stl t0, 8(sp)"},                   // layMem, store
		{memFmt(opLdt, 2, 30, 24), "ldt f2, 24(sp)"},                 // layMem, FP register
		{brFmt(opBr, 31, 3), "br zero, 0x1010"},                      // layBr
		{brFmt(opBsr, 26, -4), "bsr ra, 0xff4"},                      // layBr, call, backward
		{brFmt(opFblt, 2, -1), "fblt f2, 0x1000"},                    // layBr, FP register
		{jmpFmt(31, 26, hintRet), "ret zero, (ra)"},                  // layJump
		{jmpFmt(26, 27, hintJsr), "jsr ra, (pv)"},                    // layJump, links
		{opFmtR(opInta, 1, 2, fnAddq, 3), "addq t0, t1, t2"},         // layOperate, register
		{opFmtL(opInts, 1, 255, fnZapnot, 1), "zapnot t0, #255, t0"}, // layOperate, literal
		{fpFmt(opFlti, 1, 2, fnAddt, 3), "addt f1, f2, f3"},          // layFP, three operands
		{fpFmt(opFlti, 31, 2, fnCvttqc, 3), "cvttq/c f2, f3"},        // layFP, two operands
		{0x4d088f48, ".word 0x4d088f48"},                             // INTM funct 0x7a: no such instruction
	} {
		if got := b.Disasm(tc.w, 0x1000); got != tc.want {
			t.Errorf("Disasm(%#08x) = %q, want %q", tc.w, got, tc.want)
		}
	}
}
