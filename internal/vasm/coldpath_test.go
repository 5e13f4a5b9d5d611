package vasm

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/regtest"
)

// coldSource is a program the size of the ones the repository's benchmark
// assembles (go run ./bench, workload compile_install): one leaf function
// of six registers and 30*scale instructions, every fifth a forward branch.
func coldSource(scale int) string {
	var sb strings.Builder
	sb.WriteString("; cold-path program\n.func cold (%p%i) leaf\n")
	for r := 0; r < 6; r++ {
		fmt.Fprintf(&sb, ".reg r%d temp i\n", r)
	}
	for r := 0; r < 6; r++ {
		fmt.Fprintf(&sb, "    addii r%d, arg1, %d\n", r, 3+r)
	}
	for i := 0; i < 30*scale-7; i++ {
		a, b, c := i%6, (i+1)%6, (i+3)%6
		switch i % 5 {
		case 0:
			fmt.Fprintf(&sb, "    addi r%d, r%d, r%d\n", a, b, c)
		case 1:
			fmt.Fprintf(&sb, "    mulii r%d, r%d, %d\n", a, b, 3+i)
		case 2:
			fmt.Fprintf(&sb, "    xori r%d, r%d, r%d ; mix\n", a, b, c)
		case 3:
			fmt.Fprintf(&sb, "    bltii r%d, %d, L%d\n", a, i, i)
		default:
			fmt.Fprintf(&sb, "    subii r%d, r%d, 1\nL%d:\n", a, b, i-1)
		}
	}
	sb.WriteString("    reti r0\n.end\n")
	return sb.String()
}

// coldOp takes src from text to resident code and back out of the machine
// — what a cold request costs before and after its one call — and returns
// the words it generated.
func coldOp(tb testing.TB, m *core.Machine, src string) (words int) {
	prog, err := Assemble(m, src)
	if err != nil {
		tb.Fatal(err)
	}
	for _, fn := range prog.Unit.Funcs() {
		words += len(fn.Words)
	}
	prog.Unit.Unload()
	return words
}

// TestColdPathAllocBudget pins what Assemble + Install + Unload of a
// corpus-sized program may allocate — per program, not per line, token,
// name or function: the count at twice the source length is the same.
// Measured: 17 on every backend (the token and line indexes; the Program,
// its Funcs and Order; the Unit and its members; the symbol table; the
// Func with its Words and Params; Install's three), where PR 17's parent
// allocated 251.  A program with .data adds the unit's name map and block
// list.
func TestColdPathAllocBudget(t *testing.T) {
	const ceiling = 17
	for _, tg := range regtest.Targets() {
		m := tg.NewMachine()
		for _, scale := range []int{1, 2} {
			src := coldSource(scale)
			coldOp(t, m, src) // the first build grows the recycled assembler
			got := testing.AllocsPerRun(50, func() { coldOp(t, m, src) })
			t.Logf("%s: %d-instruction source: %.0f allocations", tg.Name, 30*scale, got)
			if got > ceiling {
				t.Errorf("%s: %d-instruction source: %.0f allocations per Assemble+Install+Unload, budget %d",
					tg.Name, 30*scale, got, ceiling)
			}
		}
	}
}

// BenchmarkColdPath is the same operation timed, per backend; ns per
// generated word is ns/op over the words metric.
func BenchmarkColdPath(b *testing.B) {
	src := coldSource(1)
	for _, tg := range regtest.Targets() {
		b.Run(tg.Name, func(b *testing.B) {
			m := tg.NewMachine()
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
