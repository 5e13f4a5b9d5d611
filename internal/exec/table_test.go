package exec

import (
	"math/rand"
	"testing"
)

// TestLookupIsFirstMatch holds the decode index to its specification on
// random tables: Lookup returns exactly the row a first-match scan in
// declaration order would, including for overlapping rows, rows that fix
// scattered bits, and tables too small to need an index.
func TestLookupIsFirstMatch(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		rows := make([]Row, rng.Intn(40))
		for i := range rows {
			mask := uint32(0xfc000000) // a shared major field, as every real ISA has
			for k := rng.Intn(4); k > 0; k-- {
				mask |= uint32(1<<uint(1+rng.Intn(11))-1) << uint(rng.Intn(26))
			}
			if rng.Intn(8) == 0 {
				mask = rng.Uint32()
			}
			rows[i] = Row{Mask: mask, Match: rng.Uint32() & mask, Op: uint16(i)}
		}
		tab := NewTable(rows)
		for k := 0; k < 2000; k++ {
			w := rng.Uint32()
			if len(rows) > 0 && k%2 == 0 { // half the probes hit some row's pattern
				r := rows[rng.Intn(len(rows))]
				w = r.Match | w&^r.Mask
			}
			var want *Row
			for i := range rows {
				if w&rows[i].Mask == rows[i].Match {
					want = &rows[i]
					break
				}
			}
			got := tab.Lookup(w)
			if (got == nil) != (want == nil) || got != nil && got.Op != want.Op {
				t.Fatalf("trial %d: Lookup(%#08x) = %v, first-match scan = %v", trial, w, got, want)
			}
		}
	}
}

// TestMarkRuns: Run is the number of plain instructions from each one on,
// a transfer's is 0 and ends the run before it, a run longer than the
// field holds saturates (and is then executed in pieces), and Stall marks
// the instruction that reads what its array predecessor loads — unless
// that is the register the interlock never charges.
func TestMarkRuns(t *testing.T) {
	const never = 31
	code := make([]Instr, 70000)
	for i := range code {
		code[i] = Instr{Run: 1, SrcA: NoReg, SrcB: NoReg, LoadReg: NoReg}
	}
	code[10].Run = 0 // a transfer
	code[3].LoadReg, code[4].SrcA = 7, 7
	code[5].LoadReg, code[6].SrcB = 8, 8
	code[7].LoadReg, code[8].SrcA = never, never
	code[9].LoadReg, code[10].SrcA = 9, 9 // a transfer pays a bubble too
	MarkRuns(code, never, 0)
	for i, want := range map[int]uint16{0: 10, 9: 1, 10: 0, 11: 65535, 69999 - 65535: 65535, 69999 - 65534: 65535, 69999 - 65533: 65534, 69998: 2, 69999: 1} {
		if got := code[i].Run; got != want {
			t.Errorf("code[%d].Run = %d, want %d", i, got, want)
		}
	}
	for i := 0; i < 12; i++ {
		if want := i == 4 || i == 6 || i == 10; (code[i].Stall == 1) != want {
			t.Errorf("code[%d].Stall = %d, want set: %v", i, code[i].Stall, want)
		}
	}
}

// TestMarkRunsKeepsFolds: FFold survives predecode only on a branch whose
// target is in the body and, on an ISA with a delay slot, whose slot is
// an in-body nop.
func TestMarkRunsKeepsFolds(t *testing.T) {
	for _, slots := range []int{0, 1} {
		code := []Instr{
			{Flags: FFold, Target: 2}, {Flags: FNop, Run: 1}, // nop slot
			{Flags: FFold, Target: External},    // leaves the body
			{Flags: FFold, Target: 0}, {Run: 1}, // a slot that is not a nop
			{Flags: FFold, Target: 5}, // no slot in the body: a branch to itself
		}
		MarkRuns(code, NoReg, slots)
		want := map[int]bool{0: true, 3: slots == 0, 5: slots == 0}
		for i := range code {
			if got := code[i].Flags&FFold != 0; got != want[i] {
				t.Errorf("slots %d: code[%d] keeps FFold: %v, want %v", slots, i, got, want[i])
			}
		}
	}
}
