package mips

import (
	"testing"

	"repro/internal/isatest"
	"repro/internal/mem"
)

// tableUnderTest pairs the instruction table and its three readers with
// a fresh switch-engine CPU, the oracle they are held to.
func tableUnderTest() *isatest.ISA {
	m := mem.New(1<<16, false)
	c := NewCPU(m)
	return &isatest.ISA{Rows: rows, Table: isa, Dec: New(), CPU: c, Mem: m, Branch: c.branch}
}

// TestISATableLegality: a word verifies exactly when the oracle decodes
// it and exactly when it predecodes to a real handler.
func TestISATableLegality(t *testing.T) { tableUnderTest().CheckLegality(t) }

// TestISATableRows: every row round-trips through the oracle, the
// predecoder, the classifier and the disassembler.
func TestISATableRows(t *testing.T) { tableUnderTest().CheckRows(t) }

// TestISATableFolds: every pc-relative branch row has a case in the
// switch RunBody folds branches with, and it agrees with the oracle.
func TestISATableFolds(t *testing.T) { tableUnderTest().CheckFolds(t) }

// TestISATableFields: every field the table declares writes and reads
// back within its range, and every target it gives is where the oracle
// lands.
func TestISATableFields(t *testing.T) { tableUnderTest().CheckFields(t) }

// TestDisasmListing pins the disassembly of one instruction of each
// operand layout (and each alias), at pc 0x1000.
func TestDisasmListing(t *testing.T) {
	b := New()
	for _, tc := range []struct {
		w    uint32
		want string
	}{
		{encNop, "nop"}, // alias of sll
		{rType(fnAddu, 4, 5, 2, 0), "addu v0, a0, a1"},         // layR
		{rType(fnAddu, 4, 0, 2, 0), "move v0, a0"},             // alias of addu
		{rType(fnSll, 0, 5, 2, 3), "sll v0, a1, 3"},            // layR, shamt
		{rType(fnJalr, 25, 0, 31, 0), "jalr ra, t9"},           // layR, call
		{iType(opBlez, 4, 0, 3), "blez a0, 0x1010"},            // layBr1
		{iType(opRegimm, 4, rtBgez, 1), "bgez a0, 0x1008"},     // layBr1, REGIMM
		{iType(opBne, 4, 5, 0xfffe), "bne a0, a1, 0xffc"},      // layBr2, backward
		{iType(opBeq, 0, 0, 2), "b 0x100c"},                    // alias of beq
		{jType(opJal, 0x100), "jal 0x400"},                     // layJ
		{iType(opAddiu, 29, 29, 0xffe0), "addiu sp, sp, -32"},  // layImmS
		{iType(opAddiu, 0, 2, 7), "li v0, 7"},                  // alias of addiu
		{iType(opOri, 2, 2, 0xbeef), "ori v0, v0, 0xbeef"},     // layImmU
		{iType(opLw, 29, 31, 20), "lw ra, 20(sp)"},             // layLoad
		{iType(opSw, 29, 31, 20), "sw ra, 20(sp)"},             // layStore
		{iType(opLdc1, 29, 2, 8), "ldc1 $f2, 8(sp)"},           // layImmS, FP register
		{fpRType(fmtD, 4, 2, 0, fpAdd), "add.d $f0, $f2, $f4"}, // layFP, three operands
		{fpRType(fmtS, 0, 2, 0, fpCvtD), "cvt.d.s $f0, $f2"},   // layFP, two operands
		{fpRType(fmtD, 4, 2, 0, fpCLt), "c.lt.d $f2, $f4"},     // layFP, compare
		{fpRType(fmtMTC1, 4, 2, 0, 0), "mtc1 a0, $f2"},         // layFP, GPR operand
		{fpRType(fmtBC, 1, 0, 0, 0) | 2, "bc1t 0x100c"},        // layFBr
		{0x469ca343, ".word 0x469ca343"},                       // div.w: no such instruction
	} {
		if got := b.Disasm(tc.w, 0x1000); got != tc.want {
			t.Errorf("Disasm(%#08x) = %q, want %q", tc.w, got, tc.want)
		}
	}
}
