package core_test

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/regtest"
)

// emitMix builds an n-instruction leaf through the generic front doors: the
// traffic of the repository benchmark's emit workload (ALU, ALUI, SetI,
// LdI, StI, BrI, Bind, Ret) and the doors that workload does not reach
// (Unary, Ld, St, Br, Jmp, Nop, Cvt).  Nothing in it is emulated or pooled,
// so what it allocates is what the assembler allocates.
func emitMix(a *core.Asm, n int) (*core.Func, error) { return emitSlots(a, n, nil) }

// mixKinds names the slots of the mix that BenchmarkEmit times on their own.
var mixKinds = []struct {
	name  string
	slots []int
}{
	{"alu", []int{1, 6}},
	{"alui", []int{2, 15}},
	{"mem", []int{3, 4}},
	{"branch", []int{5, 11, 14}}, // each with its NewLabel and Bind
}

// emitSlots is emitMix drawing only from the given slots of its sixteen, in
// rotation; all of them when slots is nil.
func emitSlots(a *core.Asm, n int, slots []int) (*core.Func, error) {
	args, err := a.Begin("%p%i", core.Leaf)
	if err != nil {
		return nil, err
	}
	base, x := args[0], args[1]
	var r [4]core.Reg
	for i := range r {
		if r[i], err = a.GetReg(core.Temp); err != nil {
			return nil, err
		}
	}
	ty, next := core.TypeI, 0
	for i := 0; i < n-1; i++ {
		d, s, k := r[i%4], r[(i+1)%4], int64(i%97)
		slot := i % 16
		if slots != nil {
			slot = slots[next]
			if next++; next == len(slots) {
				next = 0
			}
		}
		switch slot {
		case 0:
			a.SetI(ty, d, k)
		case 1:
			a.ALU(core.OpAdd, ty, d, s, x)
		case 2:
			a.ALUI(core.OpXor, ty, d, s, k)
		case 3:
			a.LdI(ty, d, base, 4*k)
		case 4:
			a.StI(ty, s, base, 4*k)
		case 5:
			l := a.NewLabel()
			a.BrI(core.OpBlt, ty, s, k, l)
			a.Bind(l)
		case 6:
			a.ALU(core.OpSub, ty, d, d, s)
		case 7:
			a.Unary(core.OpNeg, ty, d, s)
		case 8:
			a.SetI(core.TypeP, d, 4*k)
		case 9:
			a.Ld(ty, d, base, s)
		case 10:
			a.St(ty, d, base, s)
		case 11:
			l := a.NewLabel()
			a.Br(core.OpBne, ty, d, s, l)
			a.Bind(l)
		case 12:
			a.Nop()
		case 13:
			a.Cvt(core.TypeI, core.TypeU, d, s)
		case 14:
			l := a.NewLabel()
			a.Jmp(l)
			a.Bind(l)
		default:
			a.ALUI(core.OpLsh, ty, d, s, k%31)
		}
	}
	a.Ret(ty, r[0])
	return a.End()
}

// TestEmitAllocBudget: a reused assembler allocates only what it hands
// away — the Func, its Words and its Params — however long the function.
func TestEmitAllocBudget(t *testing.T) {
	for _, tg := range regtest.Targets() {
		a := core.NewAsm(tg.Backend)
		perFunc := func(n int) float64 {
			return testing.AllocsPerRun(20, func() {
				fn, err := emitMix(a, n)
				if err != nil || fn.NumInsns != n {
					t.Fatalf("%s: %d-instruction mix: %v, %v", tg.Name, n, fn, err)
				}
			})
		}
		perFunc(2000) // grow the retained buffers to their final size
		short, long := perFunc(1000), perFunc(2000)
		if short > 3 {
			t.Errorf("%s: %.1f allocations per Begin..End of 1,000 instructions, want at most 3", tg.Name, short)
		}
		if long != short {
			t.Errorf("%s: %.1f allocations for 2,000 instructions, %.1f for 1,000: some scale with the instruction count", tg.Name, long, short)
		}
	}
}

// TestRecordingDoesNotChangeTheCode: armed or not, the assembler emits the
// same function.
func TestRecordingDoesNotChangeTheCode(t *testing.T) {
	for _, tg := range regtest.Targets() {
		plain, err := emitMix(core.NewAsm(tg.Backend), 1000)
		if err != nil {
			t.Fatal(err)
		}
		a := core.NewAsm(tg.Backend)
		a.Record(true)
		armed, err := emitMix(a, 1000)
		if err != nil {
			t.Fatal(err)
		}
		rec := a.TakeRecording()
		if rec == nil || len(rec.Events) < 1000 {
			t.Fatalf("%s: armed build recorded %v", tg.Name, rec)
		}
		if !slices.Equal(plain.Words, armed.Words) || plain.NumInsns != armed.NumInsns || plain.Entry != armed.Entry {
			t.Errorf("%s: the armed build differs from the plain one: %d/%d words, %d/%d insns",
				tg.Name, len(armed.Words), len(plain.Words), armed.NumInsns, plain.NumInsns)
		}
	}
}

// TestEmulatedOpsAgree: the per-port set the emitters read is the pairs
// the ports emulated before their mappings were declared (the helpers they
// call are pinned by regtest's TestTemplateWords), and is one per port.
func TestEmulatedOpsAgree(t *testing.T) {
	want := map[string]string{"alpha": "divi divu divl divul divp modi modu modl modul modp"}
	for _, tg := range regtest.Targets() {
		set := core.EmulatedOpsOf(tg.Backend)
		var got []string
		for op := core.Op(0); op < core.NumOps; op++ {
			for ty := core.Type(0); ty < core.NumTypes; ty++ {
				if set.Has(op, ty) {
					got = append(got, fmt.Sprint(op)+ty.Letter())
				}
			}
		}
		if g := strings.Join(got, " "); g != want[tg.Name] {
			t.Errorf("%s emulates %q, want %q", tg.Name, g, want[tg.Name])
		}
		if again := core.EmulatedOpsOf(tg.NewMachine().Backend()); again != set {
			t.Errorf("%s: a second backend of the port got a set of its own", tg.Name)
		}
	}
}

// BenchmarkEmit is the emit workload's shape inside the package: Begin..End
// of the 1,000-instruction mix on a reused assembler, per backend — and the
// same function made of one kind of instruction only, so that what the
// template path costs (alu, alui, mem) and what stays on the interface path
// (branch: label table, one fixup, Retarget through the table at End) are
// each a number.
func BenchmarkEmit(b *testing.B) {
	const n = 1000
	run := func(b *testing.B, bk core.Backend, slots []int) {
		a := core.NewAsm(bk)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if fn, err := emitSlots(a, n, slots); err != nil || fn.NumInsns != n {
				b.Fatal(fmt.Sprint(fn, err))
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/insn")
	}
	for _, tg := range regtest.Targets() {
		b.Run(tg.Name+"/mix", func(b *testing.B) { run(b, tg.Backend, nil) })
		for _, k := range mixKinds {
			b.Run(tg.Name+"/"+k.name, func(b *testing.B) { run(b, tg.Backend, k.slots) })
		}
	}
}
