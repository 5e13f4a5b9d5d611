package alpha

import (
	"testing"

	"repro/internal/core"
	"repro/internal/isatest"
	"repro/internal/mem"
)

// tableUnderTest pairs the instruction table and its three readers with
// a fresh switch-engine CPU, the oracle they are held to.
func tableUnderTest() *isatest.ISA {
	m := mem.New(1<<16, false)
	c := NewCPU(m)
	return &isatest.ISA{Rows: rows, Table: isa, Dec: New(), CPU: c, Mem: m, Stepped: [2]uint16{aLds, aNumPlain}, Branch: c.branch,
		New: func() (core.ThreadedCPU, *mem.Memory) {
			m := mem.New(1<<16, false)
			return NewCPU(m), m
		},
		Load: func(r uint32) uint32 { return memFmt(opLdq, r, 31, isatest.LoadAddr) },
		Use:  func(r uint32) uint32 { return opFmtR(opIntl, r, r, fnBis, 31) },
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
		{encNop, "nop"}, // alias of bis
		{memFmt(opLda, 30, 30, -32), "lda sp, -32(sp)"},              // memory format
		{memFmt(opLdah, 29, 27, 1), "ldah gp, 1(pv)"},                // memory format, ldah
		{memFmt(opLdq, 1, 30, 16), "ldq t0, 16(sp)"},                 // memory format, load
		{memFmt(opStl, 1, 30, 8), "stl t0, 8(sp)"},                   // memory format, store
		{memFmt(opLdt, 2, 30, 24), "ldt f2, 24(sp)"},                 // memory format, FP register
		{brFmt(opBr, 31, 3), "br zero, 0x1010"},                      // branch format
		{brFmt(opBsr, 26, -4), "bsr ra, 0xff4"},                      // branch format, call, backward
		{brFmt(opFblt, 2, -1), "fblt f2, 0x1000"},                    // branch format, FP register
		{jmpFmt(31, 26, hintRet), "ret zero, (ra)"},                  // jump format
		{jmpFmt(26, 27, hintJsr), "jsr ra, (pv)"},                    // jump format, links
		{opFmtR(opInta, 1, 2, fnAddq, 3), "addq t0, t1, t2"},         // operate format, register
		{opFmtL(opInts, 1, 255, fnZapnot, 1), "zapnot t0, #255, t0"}, // operate format, literal
		{fpFmt(opFlti, 1, 2, fnAddt, 3), "addt f1, f2, f3"},          // FP operate, three operands
		{fpFmt(opFlti, 31, 2, fnCvttqc, 3), "cvttq/c f2, f3"},        // FP operate, two operands
		{0x4d088f48, ".word 0x4d088f48"},                             // INTM funct 0x7a: no such instruction
	} {
		if got := b.Disasm(tc.w, 0x1000); got != tc.want {
			t.Errorf("Disasm(%#08x) = %q, want %q", tc.w, got, tc.want)
		}
	}
}
