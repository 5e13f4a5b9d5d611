package sparc

import (
	"testing"

	"repro/internal/core"
	"repro/internal/isatest"
	"repro/internal/mem"
)

// tableUnderTest pairs the instruction table and its three readers with
// a fresh switch-engine CPU, the oracle they are held to.
func tableUnderTest() *isatest.ISA {
	m := mem.New(1<<16, true)
	c := NewCPU(m)
	return &isatest.ISA{Rows: rows, Table: isa, Dec: New(), CPU: c, Mem: m, Stepped: [2]uint16{sLdub, sNumPlain}, Branch: c.cond,
		New: func() (core.ThreadedCPU, *mem.Memory) {
			m := mem.New(1<<16, true)
			return NewCPU(m), m
		},
		Load: func(r uint32) uint32 { return fmt3i(3, r, op3Ld, 0, isatest.LoadAddr) },
		Use:  func(r uint32) uint32 { return fmt3r(2, 0, op3Or, r, r) },
	}
}

// TestISATableLegality: a word verifies exactly when the oracle decodes
// it and exactly when it predecodes to a real handler.
func TestISATableLegality(t *testing.T) { tableUnderTest().CheckLegality(t) }

// TestISATableRows: every row round-trips through the oracle, the
// predecoder, the classifier and the disassembler.
func TestISATableRows(t *testing.T) { tableUnderTest().CheckRows(t) }

// TestISATableFolds: every pc-relative branch row has a case in the
// switch the run loop folds branches with, and it agrees with the oracle.
func TestISATableFolds(t *testing.T) { tableUnderTest().CheckFolds(t) }

// TestISATableFields: every field the table declares writes and reads
// back within its range, and every target it gives is where the oracle
// lands.
func TestISATableFields(t *testing.T) { tableUnderTest().CheckFields(t) }

// TestISATableStep: every row leaves the same state on both engines, and
// every register field of every row costs the same load-use bubbles on
// both.
func TestISATableStep(t *testing.T) { tableUnderTest().CheckStep(t) }

// TestDisasmListing pins the disassembly of one instruction of each
// instruction format (and each alias), at pc 0x1000.
func TestDisasmListing(t *testing.T) {
	b := New()
	for _, tc := range []struct {
		w    uint32
		want string
	}{
		{encNop, "nop"}, // alias of sethi
		{fmtSethi(1, 0x12345), "sethi %hi(0x48d1400), %g1"},         // format 2, sethi
		{fmtBicc(condNE, 4), "bne 0x1010"},                          // format 2, branch
		{fmtBicc(condA, -2), "ba 0xff8"},                            // format 2, branch, backward
		{fmtFBfcc(fcondL, 3), "fbl 0x100c"},                         // format 2, branch, FP condition
		{fmtCall(16), "call 0x1040"},                                // format 1
		{fmt3r(2, 16, op3Add, 8, 9), "add %o0, %o1, %l0"},           // format 3, register operand2
		{fmt3i(2, 0, op3SubCC, 8, 3), "subcc %o0, 3, %g0"},          // format 3, immediate operand2
		{fmt3r(2, 9, op3RdY, 0, 0), "rd %y, %o1"},                   // format 3, Y register
		{fmt3i(2, 0, op3Jmpl, 15, 8), "jmpl %o7+8, %g0"},            // format 3, return
		{fmt3i(2, 15, op3Jmpl, 1, 0), "jmpl %g1+0, %o7"},            // format 3, indirect call
		{fmtFP(op3FPop1, 4, opfFaddd, 0, 2), "faddd %f0, %f2, %f4"}, // FPop, three operands
		{fmtFP(op3FPop1, 1, opfFitos, 0, 3), "fitos %f3, %f1"},      // FPop, two operands
		{fmtFP(op3FPop2, 0, opfFcmpd, 0, 2), "fcmpd %f0, %f2"},      // FPop, compare
		{fmt3i(3, 8, op3Ld, 14, 64), "ld [%sp+64], %o0"},            // format 3, load
		{fmt3r(3, 8, op3Ldsb, 9, 10), "ldsb [%o1+%o2], %o0"},        // format 3, load, register index
		{fmt3i(3, 8, op3St, 14, -8), "st %o0, [%sp+-8]"},            // format 3, store
		{fmt3i(3, 2, op3Stdf, 30, -16), "stdf %f2, [%fp+-16]"},      // format 3, FP store
		{0x9acb0442, ".word 0x9acb0442"},                            // op3 0x19: no such instruction
	} {
		if got := b.Disasm(tc.w, 0x1000); got != tc.want {
			t.Errorf("Disasm(%#08x) = %q, want %q", tc.w, got, tc.want)
		}
	}
}
