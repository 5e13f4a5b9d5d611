package mips

import (
	"fmt"

	"repro/internal/core"
)

// Disasm decodes one instruction word at byte address pc into DEC-style
// assembly, for debugging generated code and for the quickstart example's
// listing output: the row's mnemonic, then its syntax with each field
// letter (see isa.go) expanded.  A word with no row prints as ".word".
func (m *Backend) Disasm(w uint32, pc uint64) string {
	return isa.Disasm(w, func(c byte) string {
		switch c {
		case 'd':
			return gprNames[w>>11&31]
		case 's':
			return gprNames[w>>21&31]
		case 't':
			return gprNames[w>>16&31]
		case 'h':
			return fmt.Sprintf("%d", w>>6&31)
		case 'i':
			return fmt.Sprintf("%d", int16(w))
		case 'u':
			return fmt.Sprintf("%#x", w&0xffff)
		case 'b':
			return fmt.Sprintf("%#x", branchTarget(w, pc))
		case 'j':
			return fmt.Sprintf("%#x", jumpTarget(w, pc))
		case 'D':
			return fmt.Sprintf("$f%d", w>>6&31)
		case 'S':
			return fmt.Sprintf("$f%d", w>>11&31)
		case 'T':
			return fmt.Sprintf("$f%d", w>>16&31)
		}
		return ""
	})
}

// DisasmFunc renders a generated function, one instruction per line,
// marking the entry point.  The unused head of the reserved prologue
// region (before the entry point) is summarized rather than listed.
func DisasmFunc(b *Backend, f *core.Func) []string {
	out := make([]string, 0, len(f.Words))
	if f.Entry > 0 {
		out = append(out, fmt.Sprintf("   [%d reserved prologue words unused; entry at +%d]", f.Entry, f.Entry))
	}
	for i := f.Entry; i < len(f.Words); i++ {
		w := f.Words[i]
		mark := "  "
		if i == f.Entry {
			mark = "=>"
		}
		out = append(out, fmt.Sprintf("%s %3d: %08x  %s", mark, i, w, b.Disasm(w, uint64(4*i))))
	}
	return out
}
