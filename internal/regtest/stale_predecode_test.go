package regtest

import (
	"context"
	"errors"
	"testing"

	"repro/internal/core"
)

// TestStalePredecodeNeverExecutes pins the eviction-ordering hazard the
// predecoded-body registry must never expose: after Uninstall returns a
// function's code region and a different function is installed at the
// same arena address, a call through the threaded engine must execute
// the new function's predecoded body, never the stale one.  The two
// functions are built to the same size but different constants, so
// executing the old body is observable in the return value.
func TestStalePredecodeNeverExecutes(t *testing.T) {
	for _, tg := range Targets() {
		tg := tg
		t.Run(tg.Name, func(t *testing.T) {
			m := tg.NewMachine()
			if m.Engine() != core.EngineThreaded {
				t.Fatalf("threaded engine is not the default on %s", tg.Name)
			}

			f1 := buildAdd(t, tg, 1)
			if err := m.Install(f1); err != nil {
				t.Fatal(err)
			}
			if got := m.PredecodedBodies(); got != 1 {
				t.Fatalf("after install: %d predecoded bodies, want 1", got)
			}
			if v, err := m.Call(f1, core.I(10)); err != nil || v.Int() != 11 {
				t.Fatalf("f1(10) = %v, %v; want 11", v, err)
			}
			addr1 := f1.Addr()

			if err := m.Uninstall(f1); err != nil {
				t.Fatal(err)
			}
			if got := m.PredecodedBodies(); got != 0 {
				t.Fatalf("after uninstall: %d predecoded bodies, want 0", got)
			}

			// Same code size, different constant: first-fit reuses the
			// hole, so f2 lands exactly where f1's body used to be.
			f2 := buildAdd(t, tg, 1000)
			if err := m.Install(f2); err != nil {
				t.Fatal(err)
			}
			if f2.Addr() != addr1 {
				t.Fatalf("f2 installed at %#x, want reused %#x", f2.Addr(), addr1)
			}
			v, err := m.Call(f2, core.I(10))
			if err != nil {
				t.Fatal(err)
			}
			if v.Int() == 11 {
				t.Fatalf("f2(10) = 11: the stale predecoded body executed")
			}
			if v.Int() != 1010 {
				t.Fatalf("f2(10) = %d, want 1010", v.Int())
			}

			// Release must drop bodies above the mark just like
			// Uninstall drops the per-function body.
			mark := m.Mark()
			f3 := buildAdd(t, tg, 7)
			if err := m.Install(f3); err != nil {
				t.Fatal(err)
			}
			if got := m.PredecodedBodies(); got != 2 {
				t.Fatalf("after third install: %d predecoded bodies, want 2", got)
			}
			m.Release(mark)
			if got := m.PredecodedBodies(); got != 1 {
				t.Fatalf("after release: %d predecoded bodies, want 1", got)
			}
			if v, err := m.Call(f2, core.I(1)); err != nil || v.Int() != 1001 {
				t.Fatalf("f2(1) after release = %v, %v; want 1001", v, err)
			}
		})
	}
}

// buildLoop compiles "f(x) = x + (x-1) + ... + 1" as a counted loop, so
// its body holds folded branches and in-body targets where a straight-line
// function of the same size holds plain runs.
func buildLoop(t *testing.T, tg Target) *core.Func {
	t.Helper()
	a := core.NewAsm(tg.Backend)
	args, err := a.BeginTypes([]core.Type{core.TypeI}, core.Leaf)
	if err != nil {
		t.Fatal(err)
	}
	s, err := a.GetReg(core.Temp)
	if err != nil {
		t.Fatal(err)
	}
	top, done := a.NewLabel(), a.NewLabel()
	a.Seti(s, 0)
	a.Bind(top)
	a.BrI(core.OpBle, core.TypeI, args[0], 0, done)
	a.Addi(s, s, args[0])
	a.Subii(args[0], args[0], 1)
	a.Jmp(top)
	a.Bind(done)
	a.Reti(s)
	fn, err := a.End()
	if err != nil {
		t.Fatal(err)
	}
	return fn
}

// TestReusedSpanBody installs a loop, uninstalls it, and installs a
// straight-line function into the span it freed (first fit, below a
// resident guard): the newcomer's resident body is its own fresh
// predecode, field for field, both engines agree on its result and cycles,
// and the loop's handle is ErrUnloaded.
func TestReusedSpanBody(t *testing.T) {
	for _, tg := range Targets() {
		t.Run(tg.Name, func(t *testing.T) {
			m := tg.NewMachine()
			a, guard := buildLoop(t, tg), buildAdd(t, tg, 1)
			for _, f := range []*core.Func{a, guard} {
				if err := m.Install(f); err != nil {
					t.Fatal(err)
				}
			}
			if v, err := m.Call(a, core.I(10)); err != nil || v.Int() != 55 {
				t.Fatalf("a(10) = %v, %v; want 55", v, err)
			}
			at := a.Addr()
			if err := m.Uninstall(a); err != nil {
				t.Fatal(err)
			}
			b := buildSum(t, tg, "b", 4, 3)
			if codeSize(b) > codeSize(a) {
				t.Fatalf("b takes %d bytes, more than a's %d", codeSize(b), codeSize(a))
			}
			if err := m.Install(b); err != nil {
				t.Fatal(err)
			}
			if b.Addr() != at {
				t.Fatalf("b installed at %#x, want a's freed span at %#x", b.Addr(), at)
			}
			if err := CheckBody(m, b); err != nil {
				t.Fatal(err)
			}
			var got [2]core.Value
			var st [2]core.CallStats
			for i, e := range []core.Engine{core.EngineThreaded, core.EngineSwitch} {
				if err := m.SetEngine(e); err != nil {
					t.Fatal(err)
				}
				var err error
				if got[i], st[i], err = m.CallWithStats(context.Background(), core.CallOpts{}, b, core.I(10)); err != nil {
					t.Fatalf("%s: %v", e, err)
				}
			}
			if got[0].Int() != 22 || got[0] != got[1] || st[0].Cycles != st[1].Cycles {
				t.Fatalf("b(10): threaded %d in %d cycles, switch %d in %d; want 22 from both, same cycles",
					got[0].Int(), st[0].Cycles, got[1].Int(), st[1].Cycles)
			}
			if _, err := m.Call(a, core.I(10)); !errors.Is(err, core.ErrUnloaded) {
				t.Fatalf("a after unload: %v, want ErrUnloaded", err)
			}
		})
	}
}
