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
		tab := NewTable(rows, nil, nil, 0)
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

// TestNewTableRefuses: a declaration Predecode could not follow panics
// when the table is built, at package start: a row naming a field with no
// slot or a register slot the field does not fit, or two fields that fill
// one slot (a target fills Imm, where it goes when it leaves the body).
func TestNewTableRefuses(t *testing.T) {
	reg := Field{Width: 5, Names: Numbered("r%d"), Slot: SlotA}
	for name, fields := range map[string]map[byte]Field{
		"no slot":         {'a': {Width: 5}},
		"signed register": {'a': {Width: 5, Signed: true, Slot: SlotB}},
		"register form":   {'a': {Width: 8, Slot: SlotImm, Sel: 12, Else: &Field{Width: 5}}},
		"one slot twice":  {'a': reg, 'b': reg},
		"target and Imm":  {'a': {Width: 8, Slot: SlotImm}, 'b': {Width: 8, Target: true}},
		"both forms":      {'a': reg, 'b': {Width: 8, Slot: SlotImm, Sel: 12, Else: &reg}},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: NewTable accepted it", name)
				}
			}()
			NewTable([]Row{Ins("x", 0, 0, " a, b", 0)}, fields, nil, 0)
		}()
	}
}

// TestDecodeUnpacksBySlot: each letter's value lands in its field's slot;
// a field of two forms puts its number form in Imm with FImm, its register
// form in its own slot; and an alias reads the letters of the row it
// specialises, so a nop that is "or r31, r31, r31" unpacks 31s, not zeros.
func TestDecodeUnpacksBySlot(t *testing.T) {
	reg := func(shift uint8, s Slot) Field { return Field{Shift: shift, Width: 5, Names: Numbered("r%d"), Slot: s} }
	lit := reg(16, SlotB)
	tab := NewTable([]Row{
		Ins("nop", 0xffff001f, 0xffffffff, "", 7),
		Ins("or", 0xfc000000, 0xfc000000, " a, l, c", 7),
	}, map[byte]Field{
		'a': reg(21, SlotA), 'c': reg(0, SlotC),
		'l': {Shift: 13, Width: 3, Signed: true, Slot: SlotImm, Sel: 12, Else: &lit},
	}, nil, 0)
	for _, tc := range []struct {
		w    uint32
		want Instr
	}{
		{0xffff001f, Instr{Op: 7, Run: 1, A: 31, B: 31, C: 31}},
		{0xfc000000 | 3<<21 | 5<<16 | 7, Instr{Op: 7, Run: 1, A: 3, B: 5, C: 7}},
		{0xfc000000 | 3<<21 | 6<<13 | 1<<12 | 7, Instr{Op: 7, Run: 1, A: 3, C: 7, Imm: -2, Flags: FImm}},
	} {
		b := &Body{Code: make([]Instr, 1)}
		(&Port{Never: NoReg}).Decode(tab, b, []uint32{tc.w}, nil)
		if tc.want.SrcA, tc.want.SrcB, tc.want.LoadReg = NoReg, NoReg, NoReg; b.Code[0] != tc.want {
			t.Errorf("%#08x: %+v, want %+v", tc.w, b.Code[0], tc.want)
		}
	}
}
