package core_test

import (
	"context"
	"strings"
	"testing"

	"repro/internal/alpha"
	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/mips"
	"repro/internal/regtest"
)

// TestScheduleDelayFillsSlot checks that on a delay-slot machine the slot
// instruction replaces the padding nop (no extra word), and that the code
// still computes the right value.
func TestScheduleDelayFillsSlot(t *testing.T) {
	bk, m := newMips()
	a := core.NewAsm(bk)
	args, err := a.Begin("%i", core.Leaf)
	if err != nil {
		t.Fatal(err)
	}
	acc, err := a.GetReg(core.Temp)
	if err != nil {
		t.Fatal(err)
	}
	a.Seti(acc, 0)
	top := a.NewLabel()
	a.Bind(top)
	a.Subii(args[0], args[0], 1)
	before := a.Buf().Len()
	a.ScheduleDelay(
		func() { a.Bgtii(args[0], 0, top) },
		func() { a.Addii(acc, acc, 1) },
	)
	after := a.Buf().Len()
	a.Reti(acc)
	fn, err := a.End()
	if err != nil {
		t.Fatal(err)
	}
	// bgt on MIPS expands to slt+bne+slot: exactly 3 words, none wasted
	// on a nop.
	if after-before != 3 {
		t.Errorf("scheduled branch used %d words, want 3", after-before)
	}
	got, err := m.Call(fn, core.I(10))
	if err != nil {
		t.Fatal(err)
	}
	if got.Int() != 10 {
		t.Errorf("loop counted %d, want 10", got.Int())
	}
}

// TestScheduleDelayNoSlotMachine checks the portable behaviour on Alpha:
// the slot instruction is placed before the branch and semantics match.
func TestScheduleDelayNoSlotMachine(t *testing.T) {
	bk := alpha.New()
	mm := mem.New(1<<22, false)
	m := core.NewMachine(bk, alpha.NewCPU(mm), mm)
	a := core.NewAsm(bk)
	args, err := a.Begin("%i", core.Leaf)
	if err != nil {
		t.Fatal(err)
	}
	acc, err := a.GetReg(core.Temp)
	if err != nil {
		t.Fatal(err)
	}
	a.Seti(acc, 0)
	top := a.NewLabel()
	a.Bind(top)
	a.Subii(args[0], args[0], 1)
	a.ScheduleDelay(
		func() { a.Bgtii(args[0], 0, top) },
		func() { a.Addii(acc, acc, 1) },
	)
	a.Reti(acc)
	fn, err := a.End()
	if err != nil {
		t.Fatal(err)
	}
	got, err := m.Call(fn, core.I(10))
	if err != nil {
		t.Fatal(err)
	}
	if got.Int() != 10 {
		t.Errorf("loop counted %d, want 10", got.Int())
	}
}

// TestRawLoadPads checks that RawLoad inserts exactly the nops needed to
// cover the machine's load delay.
func TestRawLoadPads(t *testing.T) {
	bk, _ := newMips()
	a := core.NewAsm(bk)
	args, err := a.Begin("%p", core.Leaf)
	if err != nil {
		t.Fatal(err)
	}
	r, err := a.GetReg(core.Temp)
	if err != nil {
		t.Fatal(err)
	}
	before := a.Buf().Len()
	a.RawLoad(func() { a.Ldii(r, args[0], 0) }, 0)
	if got := a.Buf().Len() - before; got != 2 { // lw + 1 padding nop
		t.Errorf("RawLoad(uses=0) emitted %d words, want 2", got)
	}
	before = a.Buf().Len()
	a.RawLoad(func() { a.Ldii(r, args[0], 4) }, 1)
	if got := a.Buf().Len() - before; got != 1 { // no padding needed
		t.Errorf("RawLoad(uses=1) emitted %d words, want 1", got)
	}
}

// TestMutualRecursionViaSetfunc links two functions that call each other
// through function pointers (is-even/is-odd), exercising Setfunc
// relocations and install-time resolution.
func TestMutualRecursionViaSetfunc(t *testing.T) {
	bk, m := newMips()

	// Function slots in data memory, patched after install.
	slots, err := m.Alloc(8)
	if err != nil {
		t.Fatal(err)
	}

	build := func(name string, otherSlot uint64, base int64) (*core.Func, error) {
		a := core.NewAsm(bk)
		a.SetName(name)
		args, err := a.Begin("%i", core.NonLeaf)
		if err != nil {
			return nil, err
		}
		n, err := a.GetReg(core.Var)
		if err != nil {
			return nil, err
		}
		a.Movi(n, args[0])
		done := a.NewLabel()
		res, err := a.GetReg(core.Var)
		if err != nil {
			return nil, err
		}
		a.Seti(res, base) // is-even(0)=1, is-odd(0)=0
		a.Beqii(n, 0, done)
		// return other(n-1)
		ptr, err := a.GetReg(core.Temp)
		if err != nil {
			return nil, err
		}
		a.Setp(ptr, int64(otherSlot))
		a.Ldpi(ptr, ptr, 0)
		a.StartCall("%i")
		a.Subii(n, n, 1)
		a.SetArg(0, n)
		a.CallReg(ptr)
		a.RetVal(core.TypeI, res)
		a.Bind(done)
		a.Reti(res)
		return a.End()
	}

	even, err := build("even", slots+4, 1)
	if err != nil {
		t.Fatal(err)
	}
	odd, err := build("odd", slots, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Install(even); err != nil {
		t.Fatal(err)
	}
	if err := m.Install(odd); err != nil {
		t.Fatal(err)
	}
	if err := m.Mem().Store(slots, 4, even.EntryAddr()); err != nil {
		t.Fatal(err)
	}
	if err := m.Mem().Store(slots+4, 4, odd.EntryAddr()); err != nil {
		t.Fatal(err)
	}
	for n := int32(0); n < 9; n++ {
		got, err := m.Call(even, core.I(n))
		if err != nil {
			t.Fatalf("even(%d): %v", n, err)
		}
		want := int64(1 - n%2)
		if got.Int() != want {
			t.Errorf("even(%d) = %d, want %d", n, got.Int(), want)
		}
	}
}

// TestCallFuncReloc links a direct call between two generated functions.
func TestCallFuncReloc(t *testing.T) {
	bk, m := newMips()
	a := core.NewAsm(bk)
	args, _ := a.Begin("%i", core.Leaf)
	a.Addii(args[0], args[0], 100)
	a.Reti(args[0])
	callee, err := a.End()
	if err != nil {
		t.Fatal(err)
	}

	a2 := core.NewAsm(bk)
	args, _ = a2.Begin("%i", core.NonLeaf)
	a2.StartCall("%i")
	a2.SetArg(0, args[0])
	a2.CallFunc(callee)
	r, err := a2.GetReg(core.Temp)
	if err != nil {
		t.Fatal(err)
	}
	a2.RetVal(core.TypeI, r)
	a2.Reti(r)
	caller, err := a2.End()
	if err != nil {
		t.Fatal(err)
	}
	// Installing the caller pulls the callee in.
	got, err := m.Call(caller, core.I(1))
	if err != nil {
		t.Fatal(err)
	}
	if got.Int() != 101 {
		t.Fatalf("caller(1) = %d", got.Int())
	}
	if !callee.Installed() {
		t.Error("callee not installed transitively")
	}
}

// TestMachineTrap checks client-defined runtime helpers.
func TestMachineTrap(t *testing.T) {
	bk, m := newMips()
	conv := bk.DefaultConv()
	if err := m.DefineTrap("__host_hash", func(c core.CPU, _ *mem.Memory) {
		x := c.Reg(conv.IntArgs[0])
		c.SetReg(conv.RetInt, x*2654435761)
	}); err != nil {
		t.Fatal(err)
	}
	a := core.NewAsm(bk)
	args, _ := a.Begin("%i", core.NonLeaf)
	a.StartCall("%i")
	a.SetArg(0, args[0])
	a.CallSym("__host_hash")
	r, err := a.GetReg(core.Temp)
	if err != nil {
		t.Fatal(err)
	}
	a.RetVal(core.TypeU, r)
	a.Retu(r)
	fn, err := a.End()
	if err != nil {
		t.Fatal(err)
	}
	got, err := m.Call(fn, core.I(7))
	if err != nil {
		t.Fatal(err)
	}
	want := uint64(7) * 2654435761
	if got.Uint() != uint64(uint32(want)) {
		t.Fatalf("trap result %#x", got.Uint())
	}
}

// TestMachineErrors exercises loader failure modes.
func TestMachineErrors(t *testing.T) {
	bk, m := newMips()
	a := core.NewAsm(bk)
	args, _ := a.Begin("%i", core.NonLeaf)
	a.StartCall("%i")
	a.SetArg(0, args[0])
	a.CallSym("__nowhere")
	a.Reti(args[0])
	fn, err := a.End()
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Install(fn); err == nil || !strings.Contains(err.Error(), "__nowhere") {
		t.Fatalf("undefined symbol: %v", err)
	}

	// Wrong-backend install.
	abk := alpha.New()
	a2 := core.NewAsm(abk)
	args, _ = a2.Begin("%i", core.Leaf)
	a2.Reti(args[0])
	afn, err := a2.End()
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Install(afn); err == nil {
		t.Fatal("installing alpha code on a mips machine should fail")
	}

	// Wrong arity / wrong type calls.
	a3 := core.NewAsm(bk)
	args, _ = a3.Begin("%i", core.Leaf)
	a3.Reti(args[0])
	fn3, err := a3.End()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Call(fn3); err == nil {
		t.Error("arity mismatch should fail")
	}
	if _, err := m.Call(fn3, core.D(1)); err == nil {
		t.Error("type mismatch should fail")
	}
}

// TestTrace checks the single-step tracer (the §6.2 debugger): the trace
// of plus1 must show the executed instructions.
func TestTrace(t *testing.T) {
	bk, m := newMips()
	a := core.NewAsm(bk)
	args, _ := a.Begin("%i", core.Leaf)
	a.Addii(args[0], args[0], 1)
	a.Reti(args[0])
	fn, err := a.End()
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	m.SetTrace(&sb)
	if _, err := m.Call(fn, core.I(1)); err != nil {
		t.Fatal(err)
	}
	m.SetTrace(nil)
	out := sb.String()
	for _, want := range []string{"addiu a0, a0, 1", "jr ra", "move v0, a0"} {
		if !strings.Contains(out, want) {
			t.Errorf("trace missing %q:\n%s", want, out)
		}
	}
}

// TestInterruptHandlerConvention generates code under an all-callee-saved
// convention (§5.3's interrupt-handler scenario) and checks that every
// register the function touches is preserved across the call.
func TestInterruptHandlerConvention(t *testing.T) {
	bk := mips.New()
	mm := mem.New(1<<22, false)
	m := core.NewMachine(bk, mips.NewCPU(mm), mm)
	conv := bk.DefaultConv().Clone()
	conv.AllCalleeSaved()

	a := core.NewAsmConv(bk, conv)
	_, err := a.Begin("", core.NonLeaf)
	if err != nil {
		t.Fatal(err)
	}
	// Grab a handful of registers and clobber them.
	for i := 0; i < 6; i++ {
		r, err := a.GetReg(core.Temp)
		if err != nil {
			t.Fatal(err)
		}
		a.Seti(r, int64(i)*1111)
	}
	a.Retv()
	fn, err := a.End()
	if err != nil {
		t.Fatal(err)
	}
	cpu := m.CPU()
	// Pre-set every former caller-saved register and check survival.
	seed := map[core.Reg]uint64{}
	for i, r := range bk.DefaultConv().CallerSaved {
		v := uint64(0xdead0000 + i)
		cpu.SetReg(r, v)
		seed[r] = v
	}
	if _, err := m.Call(fn); err != nil {
		t.Fatal(err)
	}
	for r, v := range seed {
		if cpu.Reg(r) != v {
			t.Errorf("register %v clobbered under all-callee-saved convention (%#x != %#x)",
				r, cpu.Reg(r), v)
		}
	}
	if fn.FrameBytes == 0 {
		t.Error("interrupt-handler code should save registers (frame expected)")
	}
}

// TestScheduleDelayKeepsLabelAtLoopTop: a label bound just before
// ScheduleDelay names the scheduled pair, so when the slot instructions are
// placed before the branch (a two-instruction slot fits no delay slot) a
// loop back to that label still runs them on every trip.  The scheduled
// build is held to the same loop written out by hand.
func TestScheduleDelayKeepsLabelAtLoopTop(t *testing.T) {
	build := func(tg regtest.Target, schedule bool) *core.Func {
		a := core.NewAsm(tg.Backend)
		args, err := a.Begin("%i", core.Leaf)
		if err != nil {
			t.Fatal(err)
		}
		n := args[0]
		acc, err := a.GetReg(core.Temp)
		if err != nil {
			t.Fatal(err)
		}
		a.Seti(acc, 0)
		top := a.NewLabel()
		a.Bind(top)
		branch := func() { a.Bgtii(n, 0, top) }
		slot := func() { a.Subii(n, n, 1); a.Addii(acc, acc, 100000) }
		if schedule {
			a.ScheduleDelay(branch, slot)
		} else {
			slot()
			branch()
		}
		a.Reti(acc)
		fn, err := a.End()
		if err != nil {
			t.Fatal(err)
		}
		return fn
	}
	for _, tg := range regtest.Targets() {
		m := tg.NewMachine()
		opts := core.CallOpts{Fuel: 10000}
		want, wantStats, err := m.CallWithStats(context.Background(), opts, build(tg, false), core.I(5))
		if err != nil || want.Int() != 500000 {
			t.Fatalf("%s: unscheduled loop returned %d, %v", tg.Name, want.Int(), err)
		}
		got, gotStats, err := m.CallWithStats(context.Background(), opts, build(tg, true), core.I(5))
		if err != nil {
			t.Errorf("%s: scheduled loop: %v", tg.Name, err)
			continue
		}
		if got.Int() != want.Int() || gotStats.Insns != wantStats.Insns {
			t.Errorf("%s: scheduled loop returned %d in %d instructions, unscheduled %d in %d",
				tg.Name, got.Int(), gotStats.Insns, want.Int(), wantStats.Insns)
		}
	}
}
