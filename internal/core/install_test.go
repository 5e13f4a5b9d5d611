package core_test

import (
	"fmt"
	"testing"

	"repro/internal/core"
)

// buildAddK generates fn(x) = x + k.
func buildAddK(t *testing.T, bk core.Backend, k int64) *core.Func {
	t.Helper()
	a := core.NewAsm(bk)
	a.SetName(fmt.Sprintf("add%d", k))
	args, err := a.Begin("%i", core.Leaf)
	if err != nil {
		t.Fatal(err)
	}
	a.Addii(args[0], args[0], k)
	a.Reti(args[0])
	fn, err := a.End()
	if err != nil {
		t.Fatal(err)
	}
	return fn
}

// Installing a caller places the callee it references first, through
// install's own recursion, so a program goes in with a loop of Install in
// any order: the callee's own turn is then the already-resident no-op.
func TestInstallRecursesIntoCallee(t *testing.T) {
	bk, m := newMips()
	callee := buildAddK(t, bk, 5)

	a := core.NewAsm(bk)
	a.SetName("caller")
	args, err := a.Begin("%i", core.NonLeaf)
	if err != nil {
		t.Fatal(err)
	}
	x, err := a.GetReg(core.Var)
	if err != nil {
		t.Fatal(err)
	}
	a.Movi(x, args[0])
	a.StartCall("%i")
	a.SetArg(0, x)
	a.CallFunc(callee)
	r, err := a.GetReg(core.Var)
	if err != nil {
		t.Fatal(err)
	}
	a.RetVal(core.TypeI, r)
	a.Addi(r, r, x)
	a.Reti(r)
	caller, err := a.End()
	if err != nil {
		t.Fatal(err)
	}

	spans := len(m.FuncSpans())
	for _, f := range []*core.Func{caller, callee} {
		if err := m.Install(f); err != nil {
			t.Fatalf("install %s: %v", f.Name, err)
		}
		if !m.Installed(caller) || !m.Installed(callee) {
			t.Fatalf("after Install(%s): caller resident %v, callee resident %v",
				f.Name, m.Installed(caller), m.Installed(callee))
		}
		if got := len(m.FuncSpans()); got != spans+2 {
			t.Fatalf("after Install(%s): %d spans, want %d", f.Name, got, spans+2)
		}
	}
	// caller(x) = callee(x) + x = (x + 5) + x.
	got, err := m.Call(caller, core.I(10))
	if err != nil {
		t.Fatal(err)
	}
	if got.Int() != 25 {
		t.Fatalf("caller(10) = %d, want 25", got.Int())
	}
}
