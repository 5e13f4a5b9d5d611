package jit

import (
	"testing"

	"repro/internal/mem"
)

// coldFunc is a function the size of the ones the repository's benchmark
// compiles (go run ./bench, workload compile_install): FibIter's two dozen
// bytecodes — four locals, a loop with a fused compare — once per scale.
func coldFunc(scale int) *Func {
	f := &Func{Name: "cold", NArgs: 1, NVars: 4, Consts: []int32{0, 1}}
	emit := func(op Op, a int) { f.Code = append(f.Code, Insn{Op: op, A: a}) }
	for r := 0; r < scale; r++ {
		emit(OpPushK, 0)
		emit(OpStoreVar, 0) // a = 0
		emit(OpPushK, 1)
		emit(OpStoreVar, 1) // b = 1
		emit(OpLoadArg, 0)
		emit(OpStoreVar, 3) // n = arg0
		head := len(f.Code)
		emit(OpLoadVar, 3)
		emit(OpPushK, 0)
		emit(OpGt, 0)
		emit(OpJz, head+17)
		emit(OpLoadVar, 0)
		emit(OpLoadVar, 1)
		emit(OpAdd, 0)
		emit(OpStoreVar, 2) // t = a + b
		emit(OpLoadVar, 1)
		emit(OpStoreVar, 0) // a = b
		emit(OpLoadVar, 2)
		emit(OpStoreVar, 1) // b = t
		emit(OpLoadVar, 3)
		emit(OpPushK, 1)
		emit(OpSub, 0)
		emit(OpStoreVar, 3) // n = n - 1
		emit(OpJmp, head)
	}
	emit(OpLoadVar, 0)
	emit(OpRet, 0)
	return f
}

// coldOp takes f from bytecode to resident code and back out of the
// machine — what a cold request costs before and after its one call — and
// returns the words it generated.
func coldOp(tb testing.TB, m *Machine, f *Func) int {
	fn, err := m.Compile(f)
	if err != nil {
		tb.Fatal(err)
	}
	if err := m.Core().Install(fn); err != nil {
		tb.Fatal(err)
	}
	if err := m.Core().Uninstall(fn); err != nil {
		tb.Fatal(err)
	}
	return len(fn.Words)
}

// TestColdPathAllocBudget pins what Compile + Install + Uninstall of a
// corpus-sized function may allocate — per function, not per bytecode: the
// count at twice the length is the same.  Measured: 8 on every backend
// (validation's table, the register table, the Func with its Words and
// Params, and Install's three: its body lives in the machine's shadow of
// the code region), where the parent commit allocated 36.
func TestColdPathAllocBudget(t *testing.T) {
	const ceiling = 8
	for _, target := range []string{"mips", "sparc", "alpha"} {
		m, err := NewMachineTarget(target, mem.Uncosted)
		if err != nil {
			t.Fatal(err)
		}
		for _, scale := range []int{1, 2} {
			f := coldFunc(scale)
			coldOp(t, m, f) // the first build grows the recycled assembler
			got := testing.AllocsPerRun(50, func() { coldOp(t, m, f) })
			t.Logf("%s: %d bytecodes: %.0f allocations", target, len(f.Code), got)
			if got > ceiling {
				t.Errorf("%s: %d bytecodes: %.0f allocations per Compile+Install+Uninstall, budget %d",
					target, len(f.Code), got, ceiling)
			}
		}
	}
}

// BenchmarkColdPath is the same operation timed, per backend; ns per
// generated word is ns/op over the words metric.
func BenchmarkColdPath(b *testing.B) {
	f := coldFunc(1)
	for _, target := range []string{"mips", "sparc", "alpha"} {
		b.Run(target, func(b *testing.B) {
			m, err := NewMachineTarget(target, mem.Uncosted)
			if err != nil {
				b.Fatal(err)
			}
			words := coldOp(b, m, f)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				coldOp(b, m, f)
			}
			b.ReportMetric(float64(words), "words")
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(words), "ns/word")
		})
	}
}
