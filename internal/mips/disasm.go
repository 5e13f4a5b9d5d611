package mips

import (
	"fmt"

	"repro/internal/core"
)

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
