package sparc

import (
	"testing"

	"repro/internal/isatest"
	"repro/internal/mem"
)

// tableUnderTest pairs the instruction table and its three readers with
// a fresh switch-engine CPU, the oracle they are held to.
func tableUnderTest() *isatest.ISA {
	m := mem.New(1<<16, true)
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
		{encNop, "nop"}, // alias of sethi
		{fmtSethi(1, 0x12345), "sethi %hi(0x48d1400), %g1"},         // laySethi
		{fmtBicc(condNE, 4), "bne 0x1010"},                          // layBr
		{fmtBicc(condA, -2), "ba 0xff8"},                            // layBr, backward
		{fmtFBfcc(fcondL, 3), "fbl 0x100c"},                         // layBr, FP condition
		{fmtCall(16), "call 0x1040"},                                // layCall
		{fmt3r(2, 16, op3Add, 8, 9), "add %o0, %o1, %l0"},           // layArith, register operand2
		{fmt3i(2, 0, op3SubCC, 8, 3), "subcc %o0, 3, %g0"},          // layArith, immediate operand2
		{fmt3r(2, 9, op3RdY, 0, 0), "rd %y, %o1"},                   // layArith, Y register
		{fmt3i(2, 0, op3Jmpl, 15, 8), "jmpl %o7+8, %g0"},            // layArith, return
		{fmt3i(2, 15, op3Jmpl, 1, 0), "jmpl %g1+0, %o7"},            // layArith, indirect call
		{fmtFP(op3FPop1, 4, opfFaddd, 0, 2), "faddd %f0, %f2, %f4"}, // layFP, three operands
		{fmtFP(op3FPop1, 1, opfFitos, 0, 3), "fitos %f3, %f1"},      // layFP, two operands
		{fmtFP(op3FPop2, 0, opfFcmpd, 0, 2), "fcmpd %f0, %f2"},      // layFP, compare
		{fmt3i(3, 8, op3Ld, 14, 64), "ld [%sp+64], %o0"},            // layArith, load
		{fmt3r(3, 8, op3Ldsb, 9, 10), "ldsb [%o1+%o2], %o0"},        // layArith, load, register index
		{fmt3i(3, 8, op3St, 14, -8), "st %o0, [%sp+-8]"},            // layArith, store
		{fmt3i(3, 2, op3Stdf, 30, -16), "stdf %f2, [%fp+-16]"},      // layArith, FP store
		{0x9acb0442, ".word 0x9acb0442"},                            // op3 0x19: no such instruction
	} {
		if got := b.Disasm(tc.w, 0x1000); got != tc.want {
			t.Errorf("Disasm(%#08x) = %q, want %q", tc.w, got, tc.want)
		}
	}
}
