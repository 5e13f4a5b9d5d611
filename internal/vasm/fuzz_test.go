package vasm

import (
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/mips"
)

// FuzzVasmParse feeds arbitrary source through the full assemble path —
// parse, emit, install (which runs the pre-install verifier) — on a
// fresh machine.  Any input must yield a program or an error; a panic
// fails the fuzz run.
func FuzzVasmParse(f *testing.F) {
	f.Add(factSrc)
	f.Add(callSrc)
	f.Add(recSrc)
	f.Add(".func f (%i) leaf\n reti arg0\n.end\n")
	f.Add(".func f (%i) leaf\n.reg a\n seti a, 9\nloop:\n subii arg0, arg0, 1\n bgtii arg0, 0, loop\n reti a\n.end\n")
	f.Add(".func f () leaf\n.local x 8\n retv\n.end\n")
	f.Add(".func f (%i)\n startcall (%i)\n setarg 0, arg0\n callsym missing\n retv\n.end\n")
	f.Add("; comment only\n")
	f.Add(".func")
	f.Add(".end")
	// Regression: a register jump or call with no operand panicked.
	f.Add(".func f (%i) leaf\n jmpr\n.end")
	f.Add(".func f (%i)\n callr\n.end")
	f.Add(".func f\u00a0(%i) leaf ; no-break space\n reti\targ0,\xa0\n.end")
	f.Fuzz(func(t *testing.T, src string) {
		checkTokens(t, src)
		// 4 MB: the heap is what lies between the halves and the last MB,
		// so anything smaller has none and no source with a function in
		// it would get past the function-table allocation.
		m := mem.New(1<<22, false)
		machine := core.NewMachine(mips.New(), mips.NewCPU(m), m)
		prog, err := Assemble(machine, src)
		if err == nil && prog == nil {
			t.Error("nil program without error")
		}
	})
}

// checkTokens holds the tokeniser to the definition it replaced: lines are
// split at "\n", a line ends at its first ';', commas are spaces, and
// tokens are what strings.Fields finds.
func checkTokens(t *testing.T, src string) {
	t.Helper()
	p := &parser{src: src}
	p.tokenise()
	lines := strings.Split(src, "\n")
	if len(p.lines) != len(lines) {
		t.Fatalf("%q: %d lines, want %d", src, len(p.lines), len(lines))
	}
	for i, raw := range lines {
		if semi := strings.IndexByte(raw, ';'); semi >= 0 {
			raw = raw[:semi]
		}
		want := strings.Fields(strings.ReplaceAll(raw, ",", " "))
		var got []string
		for _, tk := range p.lineToks(i) {
			got = append(got, p.text(tk))
		}
		if !slices.Equal(got, want) {
			t.Fatalf("%q: line %d: tokens %q, want %q", src, i+1, got, want)
		}
	}
}

// TestTokeniseMatchesFields runs checkTokens over seeded strings made of
// the pieces that decide a boundary: ASCII and Unicode white space, commas,
// semicolons, line ends, bytes that look like the start or the inside of a
// white-space rune, and ordinary text.
func TestTokeniseMatchesFields(t *testing.T) {
	pieces := []string{" ", "\t", ",", ";", "\n", "\n", "\r", "\v", "\f", "a", "r1", ".func", ".end", ":", "%i", "0x1f",
		"\u00a0", "\u0085", "\u1680", "\u2003", "\u2028", "\u2029", "\u202f", "\u3000", "\u200b", "\ufeff", "\u00e9",
		"\xa0", "\x85", "\xc2", "\xe2", "\xe2\x80", "\x80", "\xff", "\x00", "\x1f", "\x7f"}
	rng := rand.New(rand.NewSource(41))
	for i := 0; i < 5000; i++ {
		var sb strings.Builder
		for n := rng.Intn(24); n > 0; n-- {
			sb.WriteString(pieces[rng.Intn(len(pieces))])
		}
		checkTokens(t, sb.String())
	}
	for _, src := range []string{factSrc, callSrc, recSrc, localSrc, doubleSrc, dataSrc, callsymSrc} {
		checkTokens(t, src)
	}
}
