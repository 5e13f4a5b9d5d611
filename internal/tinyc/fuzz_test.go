package tinyc

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/mips"
)

// FuzzTinyCCompile parses arbitrary source and, when it parses, compiles
// it through codegen and install (including the pre-install verifier).
// Both stages must reject bad input with errors, never panic.
func FuzzTinyCCompile(f *testing.F) {
	f.Add(programs)
	f.Add("int f(int n) { return n + 1; }")
	f.Add("int f(int n) { int s = 0; while (n > 0) { s = s + n; n = n - 1; } return s; }")
	f.Add("double f(double x) { return x * 2.0; }")
	f.Add("int f(int n) { if (n % 2 == 0) return 0; return f(n - 1); }")
	f.Add("int f() { return g(); } int g() { return 7; }")
	f.Add("int f(")
	f.Add("{}")
	f.Add("int 0bad() { return; }")
	// Regression: pathological nesting must be rejected by the parse
	// depth limit, not overflow the goroutine stack.
	f.Add("int f() { return " + strings.Repeat("(", 2000) + "1")
	f.Add("int f() " + strings.Repeat("{", 2000))
	f.Add("int f() { return " + strings.Repeat("!", 2000) + "1; }")
	f.Fuzz(func(t *testing.T, src string) {
		checkLex(t, src)
		prog, err := Parse(src)
		if err != nil {
			return
		}
		m := mem.New(1<<22, false)
		machine := core.NewMachine(mips.New(), mips.NewCPU(m), m)
		_ = NewCompiler(machine).Compile(prog)
	})
}
