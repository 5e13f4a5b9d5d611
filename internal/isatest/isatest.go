// Package isatest holds the checks that keep a backend's instruction
// table (exec.Row rows and the exec.Field declaration of their operand
// letters: the verifier, disassembler, threaded predecoder and the core's
// templates and patcher all read it) honest against the backend's
// fetch/switch simulator, which decodes on its own and is the oracle.
// The three backends' tests and FuzzStep targets call it; nothing
// outside tests imports it.
package isatest

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/exec/diff"
	"repro/internal/mem"
	"repro/internal/verify"
)

// ISA is one backend as the checks see it.  CPU must execute out of Mem.
type ISA struct {
	Rows  []exec.Row // in declaration order: the first match wins
	Table *exec.Table
	Dec   verify.Decoder   // the backend: Classify and Disasm
	CPU   core.ThreadedCPU // Step is the oracle, Predecode the table's reader, Run what executes its output
	Mem   *mem.Memory
	// Branch is the port's Cond: whether a predecoded instruction of a
	// pc-relative branch row is taken.  The run loop folds a branch by it.
	Branch func(in *exec.Instr) bool
	// Stepped is the plain opcodes [lo, hi) the port's Loop has no case
	// for, the last of its plain ones: the run loop hands them to Step.
	Stepped [2]uint16
	// New makes another simulator with its own memory, for CheckStep's
	// two engines.  Load is a word that loads register r from LoadAddr,
	// as the load-use interlock tracks a load; Use one that reads r.
	New       func() (core.ThreadedCPU, *mem.Memory)
	Load, Use func(r uint32) uint32
}

const base = 0x100 // where the word under test is placed

// LoadAddr is where ISA.Load loads from; CheckStep keeps zero there.
const LoadAddr = 0x200

// row is the specification Table.Lookup is an index of: a first-match
// scan in declaration order.
func (a *ISA) row(w uint32) *exec.Row {
	for i := range a.Rows {
		if r := &a.Rows[i]; w&r.Mask == r.Match {
			return r
		}
	}
	return nil
}

// oracleStep executes w on the simulator.  It reports whether the
// simulator's own decode accepts w — every decode fault in the three cpu.go
// files reads "...: unknown ...", which memory and alignment faults do not
// — whether w transferred control: it completed, and left the simulator
// anywhere but at the next word with nothing pending, and whether it
// faulted otherwise.
func (a *ISA) oracleStep(t testing.TB, w uint32) (runs, transfers, faults bool) {
	if err := a.Mem.Store(base, 4, uint64(w)); err != nil {
		t.Fatal(err)
	}
	a.CPU.SetPC(base)
	if err := a.CPU.Step(); err != nil {
		runs = !strings.Contains(err.Error(), ": unknown ")
		return runs, false, runs
	}
	return true, a.CPU.PC() != base+4 || a.CPU.PendingDelay(), false
}

// CheckWords asserts that legality is one fact for every word given: the
// verifier calls a word illegal exactly when the oracle faults decoding
// it and exactly when Predecode hands it to a bad-op handler (an opcode
// no row names).  It returns how many of the words are legal.
func (a *ISA) CheckWords(t testing.TB, words []uint32) (legal int) {
	t.Helper()
	rowOp := map[uint16]bool{}
	for _, r := range a.Rows {
		rowOp[r.Op] = true
	}
	body := a.CPU.Predecode(words, base)
	bad := 0
	for i, w := range words {
		verifies := a.Dec.Classify(w, base).Kind != exec.KindIllegal
		runs, _, _ := a.oracleStep(t, w)
		handled := rowOp[body.Code[i].Op]
		if verifies {
			legal++
		}
		if verifies != runs || verifies != handled {
			if bad++; bad <= 10 {
				t.Errorf("%#08x (%s): verifier accepts=%v, oracle runs=%v, predecoded to a row's handler=%v",
					w, a.Dec.Disasm(w, base), verifies, runs, handled)
			}
		}
	}
	if bad > 10 {
		t.Errorf("... and %d more disagreements", bad-10)
	}
	return legal
}

// synth returns a word of row r with its don't-care bits drawn from rng.
func synth(r *exec.Row, rng *rand.Rand) uint32 { return r.Match | rng.Uint32()&^r.Mask }

// CheckLegality runs CheckWords over 2^20 seeded random words and over
// every row with its don't-care bits randomised.
func (a *ISA) CheckLegality(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	words := make([]uint32, 1<<20, 1<<20+64*len(a.Rows))
	for i := range words {
		words[i] = rng.Uint32()
	}
	for i := range a.Rows {
		for k := 0; k < 64; k++ {
			words = append(words, synth(&a.Rows[i], rng))
		}
	}
	legal := a.CheckWords(t, words)
	t.Logf("%d of %d words legal, by verifier, oracle and predecoder alike", legal, len(words))
}

// scramble gives every register one of a few values that between them
// make every branch condition true on some trial and false on another.
func (a *ISA) scramble(rng *rand.Rand) { scramble(rng, a.CPU) }

// scramble gives every register of cpus the same one of those values.
func scramble(rng *rand.Rand, cpus ...core.ThreadedCPU) {
	pick := func() uint64 { return [...]uint64{0, 1, ^uint64(0), rng.Uint64()}[rng.Intn(4)] }
	for i := 0; i < 32; i++ {
		g, f := pick(), pick()
		for _, c := range cpus {
			c.SetReg(core.GPR(i), g)
			c.SetFReg(core.FPR(i), f, true)
		}
	}
}

// checkLoop holds the port's Loop, on c, whose registers are the oracle's
// before it stepped w, the one plain word in body, to running the word
// exactly when its opcode is not one the port hands to Step and it did
// not fault on the oracle (an access a fast accessor declines).
func (a *ISA) checkLoop(t *testing.T, r *exec.Row, w uint32, c core.ThreadedCPU, body *exec.Body, faults bool) {
	in := &body.Code[0]
	handed := in.Op >= a.Stepped[0] && in.Op < a.Stepped[1]
	c.SetPC(base)
	if i, _ := c.Loop(body.Code, 0, 1); (i == 1) != (!handed && !faults) {
		t.Errorf("%s %#08x: Loop ran it: %v; the port hands its opcode to Step: %v; it faults on the oracle: %v",
			r.Name, w, i == 1, handed, faults)
	}
}

// CheckRows is the per-row round trip: words synthesised from each row's
// match plus seeded operand bits execute on the oracle without a decode
// fault, predecode to that row's opcode, classify as its kind, and
// disassemble to its mnemonic.  A row listed earlier may specialise some
// of a later row's words (an alias such as nop, or jmpl without a link
// register; it must name the same opcode, and its kind and mnemonic
// are then the expected ones), but never all of them.
//
// It also holds "plain" to be one fact.  Predecode derives the runs
// the run loop executes without looking from Kind == exec.KindOther, so: a
// word predecodes to Run >= 1 exactly when its row is of that kind; no
// such word ever transfers control on the oracle, whatever the registers
// hold; every row of another kind does on some trial; rows that share an
// opcode (one switch case, or one handler) agree; and the port's Loop
// runs every plain word but those it hands to Step (ISA.Stepped) and the
// accesses that fault, and runs none of those (delete a case of Loop and
// this fails).  Trials are the outer loop, so the condition codes a branch
// row tests are whatever the previous sweep's compares left.
func (a *ISA) CheckRows(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	loop, _ := a.New()
	reached := make([]bool, len(a.Rows))
	transferred := make([]bool, len(a.Rows))
	plainOp := map[uint16]bool{}
	for i := range a.Rows {
		r := &a.Rows[i]
		plain := r.Kind == exec.KindOther
		if was, seen := plainOp[r.Op]; seen && was != plain {
			t.Errorf("%s: shares opcode %d with a row that disagrees on whether it is plain", r.Name, r.Op)
		}
		plainOp[r.Op] = plain
	}
	for k := 0; k < 256; k++ {
		a.scramble(rng)
		for i := range a.Rows {
			r := &a.Rows[i]
			w := synth(r, rng)
			want := a.row(w)
			if want == r {
				reached[i] = true
			} else if want.Op != r.Op {
				t.Errorf("%s %#08x: claimed by %s, which has another opcode (%d, not %d)",
					r.Name, w, want.Name, want.Op, r.Op)
			}
			plain := want.Kind == exec.KindOther
			for i := 0; plain && i < 32; i++ {
				loop.SetReg(core.GPR(i), a.CPU.Reg(core.GPR(i)))
			}
			runs, transfers, faults := a.oracleStep(t, w)
			if !runs {
				t.Errorf("%s %#08x: the oracle faults decoding it", r.Name, w)
			}
			if transfers && plain {
				t.Errorf("%s %#08x: its row is plain, and the oracle transfers control", r.Name, w)
			}
			transferred[i] = transferred[i] || transfers
			body := a.CPU.Predecode([]uint32{w}, base)
			if op := body.Code[0].Op; op != r.Op {
				t.Errorf("%s %#08x: predecoded to opcode %d, want %d", r.Name, w, op, r.Op)
			}
			if run := body.Code[0].Run; (run >= 1) != plain {
				t.Errorf("%s %#08x: predecoded to Run %d, and its row's kind is %v", r.Name, w, run, want.Kind)
			}
			if plain {
				a.checkLoop(t, r, w, loop, body, faults)
			}
			if kind := a.Dec.Classify(w, base).Kind; kind != want.Kind {
				t.Errorf("%s %#08x: classified %v, want %v", r.Name, w, kind, want.Kind)
			}
			if s := a.Dec.Disasm(w, base); !strings.HasPrefix(s, want.Name) || strings.HasPrefix(s, ".word") {
				t.Errorf("%s %#08x: disassembles to %q, want mnemonic %q", r.Name, w, s, want.Name)
			}
		}
	}
	for i := range a.Rows {
		r := &a.Rows[i]
		if !reached[i] {
			t.Errorf("%s (match %#08x mask %#08x) is unreachable: earlier rows claim every word of it", r.Name, r.Match, r.Mask)
		}
		if r.Kind != exec.KindOther && !transferred[i] {
			t.Errorf("%s: its row is a transfer (%v), and the oracle fell through on every trial", r.Name, r.Kind)
		}
	}
}

// CheckFolds is the table walk behind the run loop's fold: Predecode may mark
// any instruction of a pc-relative branch row (exec.KindBranch) for
// the port's loop to resolve by Branch, which on every trial must decide
// taken as the oracle's Step does (a row it has no case for fails here).
// Each trial first steps every row's word on the oracle, so the condition
// codes and registers the branches test vary.
func (a *ISA) CheckFolds(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	failed := make([]bool, len(a.Rows))
	for k := 0; k < 256; k++ {
		a.scramble(rng)
		for i := range a.Rows {
			r := &a.Rows[i]
			w := synth(r, rng)
			_, transfers, _ := a.oracleStep(t, w)
			if r.Kind != exec.KindBranch || a.row(w).Kind != exec.KindBranch || failed[i] ||
				a.Dec.Classify(w, base).Target == base+4 { // taken or not, the oracle lands on the next word
				continue
			}
			in := a.CPU.Predecode([]uint32{w}, base).Code[0]
			taken, ok := a.branch(t, r, &in)
			if ok && taken != transfers {
				t.Errorf("%s %#08x: Branch says taken=%v, the oracle transferred=%v", r.Name, w, taken, transfers)
				ok = false
			}
			failed[i] = !ok
		}
	}
}

// branch calls a.Branch, reporting a panic as a failure of r.
func (a *ISA) branch(t *testing.T, r *exec.Row, in *exec.Instr) (taken, ok bool) {
	defer func() {
		if p := recover(); p != nil {
			t.Errorf("%s: Branch: %v", r.Name, p)
			ok = false
		}
	}()
	return a.Branch(in), true
}

// CheckFields holds the field declaration to the oracle.  For every row
// and every field its syntax names (in the form each trial's word
// selects), a value written through the field reads back and leaves the
// word's other bits alone, and one step past either end of the field's
// range is refused.  For every row with a target field, the table's
// target is where the oracle lands when it takes the transfer, with the
// displacement at either end of the field's range or anywhere between.
func (a *ISA) CheckFields(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	pick := func(f *exec.Field, k int) int64 {
		lo, hi := f.Range()
		return [...]int64{lo, hi, lo + rng.Int63n(hi-lo+1)}[k%3] &^ (1<<f.Scale - 1)
	}
	var nop uint32 // the delay slot land steps after a transfer
	for _, r := range a.Rows {
		if r.Name == "nop" {
			nop = r.Match
		}
	}
	for i := range a.Rows {
		r := &a.Rows[i]
		var target *exec.Field
		for _, c := range []byte(r.Syntax) {
			decl := a.Table.Field(c)
			if decl == nil {
				continue
			}
			if decl.Target {
				target = decl
			}
			for k := 0; k < 48; k++ {
				w := synth(r, rng)
				f := decl.In(w)
				v := pick(f, k)
				got, ok := f.Put(w, v)
				if !ok || decl.In(got) != f || f.Get(got) != v || (got^w)&^(f.Bits()<<f.Shift) != 0 {
					t.Errorf("%s %c %#08x: put %d gives %#08x (ok %v), which reads back %d", r.Name, c, w, v, got, ok, f.Get(got))
					break
				}
				lo, hi := f.Range()
				if _, ok := f.Put(w, hi+1<<f.Scale); ok {
					t.Errorf("%s %c: %d, past the top of the field, is accepted", r.Name, c, hi+1<<f.Scale)
				}
				if _, ok := f.Put(w, lo-1<<f.Scale); ok {
					t.Errorf("%s %c: %d, past the bottom of the field, is accepted", r.Name, c, lo-1<<f.Scale)
				}
			}
		}
		if target == nil {
			continue
		}
		taken := 0
		for k := 0; k < 48; k++ {
			v := pick(target, k)
			for try := 0; try < 64; try++ {
				w, _ := target.Put(synth(r, rng), v)
				a.scramble(rng)
				a.oracleStep(t, synth(&a.Rows[rng.Intn(len(a.Rows))], rng)) // vary the condition codes
				pc, ok := a.land(t, w, nop)
				if !ok {
					continue
				}
				if want := a.Table.Classify(w, base); !want.HasTarget || want.Target != pc {
					t.Errorf("%s %#08x: the table's target is %#x (%v), the oracle lands at %#x", r.Name, w, want.Target, want.HasTarget, pc)
				}
				taken++
				break
			}
		}
		if taken == 0 {
			t.Errorf("%s: the oracle never took the transfer", r.Name)
		}
	}
}

// land steps the transfer w on the oracle, and slot in its delay slot
// when there is one, and reports where it landed if it took the transfer.
func (a *ISA) land(t *testing.T, w, slot uint32) (pc uint64, taken bool) {
	if err := a.Mem.Store(base+4, 4, uint64(slot)); err != nil {
		t.Fatal(err)
	}
	if runs, _, _ := a.oracleStep(t, w); !runs {
		return 0, false
	}
	if a.CPU.PendingDelay() {
		if err := a.CPU.Step(); err != nil {
			t.Fatalf("%#08x: the slot after it: %v", w, err)
		}
		return a.CPU.PC(), true
	}
	return a.CPU.PC(), a.CPU.PC() != base+4
}

// CheckStep holds the threaded engine to the oracle row by row, on two
// simulators that start alike: Step runs on one, Predecode and Run on the
// other.  Every row's words, followed by a nop for a transfer's delay
// slot, run on a scrambled state and must leave the same state and error:
// this pins the operands each row's handler reads.  Then, for every
// register field of every row and every register X, two bodies run from
// zeroed registers: a tracked load into X and the row's word with X in
// the field, and that word and a read of X.  Both must charge the same
// cycles, which pins the interlock metadata (SrcA, SrcB, LoadReg) row by
// row.  A row's number field holds an offset that, from zeroed
// registers, addresses mapped memory clear of the code.
func (a *ISA) CheckStep(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var p [2]core.ThreadedCPU
	var m [2]*mem.Memory
	p[0], m[0] = a.New()
	p[1], m[1] = a.New()
	run := func(r *exec.Row, what string, words ...uint32) {
		for i := range p {
			for k, w := range words {
				if err := m[i].Store(base+4*uint64(k), 4, uint64(w)); err != nil {
					t.Fatal(err)
				}
			}
			p[i].SetPC(base)
			p[i].ResetStats()
		}
		var errs [2]error
		for range words { // as Run does, the oracle stops where control leaves the words
			if pc := p[0].PC(); !p[0].PendingDelay() && (pc < base || pc >= base+4*uint64(len(words))) {
				break
			}
			if errs[0] = p[0].Step(); errs[0] != nil {
				break
			}
		}
		port, st, _ := p[1].Threaded()
		_, errs[1] = port.Run(p[1], st, p[1].Predecode(words, base), 0, uint64(len(words)))
		d := diff.ErrDiff(errs[0], errs[1]) + diff.StateDiff(p[0], p[1])
		if p[0].PendingDelay() != p[1].PendingDelay() {
			d += "a delay slot pending on one engine only\n"
		}
		if d != "" {
			t.Errorf("%s %s%s %#08x: %s", a.Dec.(core.Backend).Name(), r.Name, what, words, d)
		}
	}
	var nop uint32 // a transfer's delay slot, where it has one
	for _, r := range a.Rows {
		if r.Name == "nop" {
			nop = r.Match
		}
	}
	for k := 0; k < 64; k++ {
		for i := range a.Rows {
			r := &a.Rows[i]
			scramble(rng, p[0], p[1])
			run(r, "", synth(r, rng), nop)
		}
	}
	for i := range a.Rows {
		r := &a.Rows[i]
		var num *exec.Field
		for _, c := range []byte(r.Syntax) {
			if f := a.Table.Field(c); f != nil && !f.Target && f.Names == nil {
				num = f
			}
		}
		for _, c := range []byte(r.Syntax) {
			decl := a.Table.Field(c)
			f := decl.In(0) // a number-or-register field's register form
			for x := 0; f != nil && x < len(f.Names); x++ {
				w := synth(r, rng)
				if decl != f {
					w &^= 1 << decl.Sel
				} else if num != nil {
					w, _ = num.Put(w, 0x400) // unchanged where num cannot hold it
				}
				w, _ = f.Put(w, int64(x))
				for _, body := range [][]uint32{{a.Load(uint32(x)), w}, {w, a.Use(uint32(x))}} {
					for i := range p {
						for n := 0; n < 32; n++ {
							p[i].SetReg(core.GPR(n), 0)
						}
						if err := m[i].Store(LoadAddr, 8, 0); err != nil {
							t.Fatal(err)
						}
					}
					run(r, fmt.Sprintf(", %c = %d,", c, x), body...)
				}
			}
		}
	}
}
