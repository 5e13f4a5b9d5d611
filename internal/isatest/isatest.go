// Package isatest holds the checks that keep a backend's instruction
// table (exec.Row rows: the verifier, disassembler and threaded
// predecoder all read it) honest against the backend's fetch/switch
// simulator, which decodes on its own and is the oracle.  The three
// backends' tests and FuzzStep targets call it; nothing outside tests
// imports it.
package isatest

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/mem"
	"repro/internal/verify"
)

// ISA is one backend as the checks see it.  CPU must execute out of Mem.
type ISA struct {
	Rows []exec.Row       // in declaration order: the first match wins
	Dec  verify.Decoder   // the backend: Classify and Disasm
	CPU  core.ThreadedCPU // Step is the oracle, Predecode the table's reader, RunBody what executes its output
	Mem  *mem.Memory
}

const base = 0x100 // where the word under test is placed

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
// — and whether w transferred control: it completed, and left the
// simulator anywhere but at the next word with nothing pending.
func (a *ISA) oracleStep(t testing.TB, w uint32) (runs, transfers bool) {
	if err := a.Mem.Store(base, 4, uint64(w)); err != nil {
		t.Fatal(err)
	}
	a.CPU.SetPC(base)
	if err := a.CPU.Step(); err != nil {
		return !strings.Contains(err.Error(), ": unknown "), false
	}
	return true, a.CPU.PC() != base+4 || a.CPU.PendingDelay()
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
		verifies := a.Dec.Classify(w, base).Kind != verify.KindIllegal
		runs, _ := a.oracleStep(t, w)
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
func (a *ISA) scramble(rng *rand.Rand) {
	pick := func() uint64 { return [...]uint64{0, 1, ^uint64(0), rng.Uint64()}[rng.Intn(4)] }
	for i := 0; i < 32; i++ {
		a.CPU.SetReg(core.GPR(i), pick())
		a.CPU.SetFReg(core.FPR(i), pick(), true)
	}
}

// runPlain has RunBody execute the one plain word in body.  Whether the
// word faults (its operands are random) is not the point: an opcode that
// Predecode marks plain and plain has no case for panics.
func (a *ISA) runPlain(t *testing.T, r *exec.Row, body *exec.Body) {
	defer func() {
		if p := recover(); p != nil {
			t.Errorf("%s: RunBody: %v", r.Name, p)
		}
	}()
	a.CPU.SetPC(base)
	_, _ = a.CPU.RunBody(body, 0, 1)
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
// RunBody executes without looking from Kind == verify.KindOther, so: a
// word predecodes to Run >= 1 exactly when its row is of that kind; no
// such word ever transfers control on the oracle, whatever the registers
// hold; every row of another kind does on some trial; rows that share an
// opcode (one switch case, or one handler) agree; and RunBody executes
// every plain word (an opcode marked plain that plain has no case for
// panics).  Trials are the outer loop, so the condition codes a branch
// row tests are whatever the previous sweep's compares left.
func (a *ISA) CheckRows(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	reached := make([]bool, len(a.Rows))
	transferred := make([]bool, len(a.Rows))
	plainOp := map[uint16]bool{}
	for i := range a.Rows {
		r := &a.Rows[i]
		plain := r.Kind == verify.KindOther
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
			runs, transfers := a.oracleStep(t, w)
			if !runs {
				t.Errorf("%s %#08x: the oracle faults decoding it", r.Name, w)
			}
			plain := want.Kind == verify.KindOther
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
				a.runPlain(t, r, body)
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
		if r.Kind != verify.KindOther && !transferred[i] {
			t.Errorf("%s: its row is a transfer (%v), and the oracle fell through on every trial", r.Name, r.Kind)
		}
	}
}
