package tinyc

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
)

// coldSource is a program the size of the ones the repository's benchmark
// compiles (go run ./bench, workloads compile_install and serve_cold): one
// function of a dozen statements — declarations, a loop, an if/else — per
// scale, over the same eight variables.
func coldSource(scale int) string {
	var sb strings.Builder
	sb.WriteString("int main(int n) {\n\tint a = n * 5 + 7; int b = a - 3; int c = a + b * 2; int d = c - a + 5;\n" +
		"\tint s = 0; int t = 1; int i = 0; int k = 0;\n")
	for r := 0; r < scale; r++ {
		fmt.Fprintf(&sb, "\ti = 0;\n\twhile (i < %d) {\n\t\ts = s + i * %d + n; t = t + s - i;\n", 8+r, 3+r)
		fmt.Fprintf(&sb, "\t\tif (i > %d) t = t - a; else t = t + b;\n\t\ti = i + 1;\n\t}\n", 3+r)
		fmt.Fprintf(&sb, "\tk = d * 3 - b; c = k + c - %d; d = c * 2 + d; // round %d\n", 7+r, r)
		sb.WriteString("\tif (d == a) d = d + 1;\n")
	}
	sb.WriteString("\treturn a + b + c + d + s + t + k;\n}\n")
	return sb.String()
}

// coldOp takes src from text to resident code and back out of the machine
// — what a cold request costs before and after its one call — and returns
// the words it generated.
func coldOp(tb testing.TB, m *core.Machine, src string) (words int) {
	prog, err := Parse(src)
	if err != nil {
		tb.Fatal(err)
	}
	c := NewCompiler(m)
	if err := c.Compile(prog); err != nil {
		tb.Fatal(err)
	}
	for _, fn := range c.Unit().Funcs() {
		words += len(fn.Words)
	}
	c.Unit().Unload()
	return words
}

// TestColdPathAllocBudget pins what Parse + Compile + Install + Unload of
// a corpus-sized program may allocate — per program, not per token, node,
// scope or function: the count at twice the source length is the same.
// Measured: 24 on every backend (the tokens, the nodes, the identifier
// table and the names; the Program with its functions, parameters and
// function index; the Compiler and its Funcs; the Unit and its members;
// the scope stack, the name bindings, the signature buffer, the loop stack;
// the Func with its Words and Params; Install's four), where PR 17's parent
// allocated 164.
func TestColdPathAllocBudget(t *testing.T) {
	const ceiling = 28
	for _, tg := range targets() {
		m := tg.mk()
		for _, scale := range []int{1, 2} {
			src := coldSource(scale)
			coldOp(t, m, src) // the first build grows the recycled assembler
			got := testing.AllocsPerRun(50, func() { coldOp(t, m, src) })
			t.Logf("%s: %d-byte source: %.0f allocations", tg.name, len(src), got)
			if got > ceiling {
				t.Errorf("%s: %d-byte source: %.0f allocations per Parse+Compile+Install+Unload, budget %d",
					tg.name, len(src), got, ceiling)
			}
		}
	}
}

// BenchmarkColdPath is the same operation timed, per backend; ns per
// generated word is ns/op over the words metric.
func BenchmarkColdPath(b *testing.B) {
	src := coldSource(1)
	for _, tg := range targets() {
		b.Run(tg.name, func(b *testing.B) {
			m := tg.mk()
			words := coldOp(b, m, src)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				coldOp(b, m, src)
			}
			b.ReportMetric(float64(words), "words")
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(words), "ns/word")
		})
	}
}
