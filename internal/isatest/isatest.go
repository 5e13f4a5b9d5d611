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

	"repro/internal/exec"
	"repro/internal/mem"
	"repro/internal/verify"
)

// CPU is the slice of a backend simulator the checks drive: Step is the
// oracle, Predecode the table's reader.
type CPU interface {
	SetPC(pc uint64)
	Step() error
	Predecode(words []uint32, base uint64) *exec.Body
}

// ISA is one backend as the checks see it.  CPU must execute out of Mem.
type ISA struct {
	Rows []exec.Row     // in declaration order: the first match wins
	Dec  verify.Decoder // the backend: Classify and Disasm
	CPU  CPU
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

// oracleRuns reports whether the simulator's own decode accepts w: every
// decode fault in the three cpu.go files reads "...: unknown ...", which
// memory and alignment faults do not.
func (a *ISA) oracleRuns(t testing.TB, w uint32) bool {
	if err := a.Mem.Store(base, 4, uint64(w)); err != nil {
		t.Fatal(err)
	}
	a.CPU.SetPC(base)
	err := a.CPU.Step()
	return err == nil || !strings.Contains(err.Error(), ": unknown ")
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
		runs := a.oracleRuns(t, w)
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

// CheckRows is the per-row round trip: words synthesised from each row's
// match plus seeded operand bits execute on the oracle without a decode
// fault, predecode to that row's handler, classify as its kind, and
// disassemble to its mnemonic.  A row listed earlier may specialise some
// of a later row's words (an alias such as nop, or jmpl without a link
// register; it must name the same handler, and its kind and mnemonic
// are then the expected ones), but never all of them.
func (a *ISA) CheckRows(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for i := range a.Rows {
		r := &a.Rows[i]
		reached := false
		for k := 0; k < 256; k++ {
			w := synth(r, rng)
			want := a.row(w)
			if want == r {
				reached = true
			} else if want.Op != r.Op {
				t.Errorf("%s %#08x: claimed by %s, which runs another handler (%d, not %d)",
					r.Name, w, want.Name, want.Op, r.Op)
			}
			if !a.oracleRuns(t, w) {
				t.Errorf("%s %#08x: the oracle faults decoding it", r.Name, w)
			}
			if op := a.CPU.Predecode([]uint32{w}, base).Code[0].Op; op != r.Op {
				t.Errorf("%s %#08x: predecoded to handler %d, want %d", r.Name, w, op, r.Op)
			}
			if kind := a.Dec.Classify(w, base).Kind; kind != want.Kind {
				t.Errorf("%s %#08x: classified %v, want %v", r.Name, w, kind, want.Kind)
			}
			if s := a.Dec.Disasm(w, base); !strings.HasPrefix(s, want.Name) || strings.HasPrefix(s, ".word") {
				t.Errorf("%s %#08x: disassembles to %q, want mnemonic %q", r.Name, w, s, want.Name)
			}
		}
		if !reached {
			t.Errorf("%s (match %#08x mask %#08x) is unreachable: earlier rows claim every word of it", r.Name, r.Match, r.Mask)
		}
	}
}
