package core_test

import (
	"errors"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"slices"
	"strings"
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

// buildCaller generates fn(x) = callee(x) + x, calling callee directly.
func buildCaller(t *testing.T, bk core.Backend, callee *core.Func) *core.Func {
	t.Helper()
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
	return caller
}

// Installing a caller places the callee it references first, in the
// caller's unit, so a program goes in with a loop of Install in any order:
// the callee's own turn is then the already-resident no-op.
func TestInstallRecursesIntoCallee(t *testing.T) {
	bk, m := newMips()
	callee := buildAddK(t, bk, 5)
	caller := buildCaller(t, bk, callee)

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

// A callee resident nowhere joins the unit of the function that references
// it, so unloading the unit — or uninstalling the caller Install placed —
// returns the machine to where it was.  Before, the callee was installed
// on its own and stayed behind (ROADMAP 9e).  A callee already resident
// stays in its own unit.
func TestCalleeJoinsItsCallersUnit(t *testing.T) {
	bk, m := newMips()
	base := m.ArenaStats()

	callee := buildAddK(t, bk, 5)
	u := m.NewUnit()
	if err := u.Install(buildCaller(t, bk, callee)); err != nil {
		t.Fatal(err)
	}
	caller := u.Funcs()[len(u.Funcs())-1]
	if fs := u.Funcs(); len(fs) != 2 || fs[0] != callee || callee.Unit() != u {
		t.Fatalf("unit members %v, callee's unit %p; want [callee caller] in %p", fs, callee.Unit(), u)
	}
	if got, err := m.Call(caller, core.I(10)); err != nil || got.Int() != 25 {
		t.Fatalf("caller(10) = %v, %v, want 25", got, err)
	}
	u.Unload()
	if st := m.ArenaStats(); st != base {
		t.Fatalf("after Unload: %+v, want the empty machine's %+v", st, base)
	}
	if _, err := m.Call(callee, core.I(10)); !errors.Is(err, core.ErrUnloaded) {
		t.Fatalf("callee of an unloaded unit: %v, want ErrUnloaded", err)
	}

	callee = buildAddK(t, bk, 6)
	caller = buildCaller(t, bk, callee)
	if err := m.Install(caller); err != nil {
		t.Fatal(err)
	}
	if err := m.Uninstall(caller); err != nil {
		t.Fatal(err)
	}
	if st := m.ArenaStats(); st != base || m.Installed(callee) {
		t.Fatalf("after Uninstall of the caller: %+v, callee resident %v; want %+v and gone", st, m.Installed(callee), base)
	}

	shared := buildAddK(t, bk, 7)
	if err := m.Install(shared); err != nil {
		t.Fatal(err)
	}
	caller = buildCaller(t, bk, shared)
	if err := m.Install(caller); err != nil {
		t.Fatal(err)
	}
	if shared.Unit() == caller.Unit() || len(caller.Unit().Funcs()) != 1 {
		t.Fatalf("a resident callee joined its caller's unit: %v", caller.Unit().Funcs())
	}
	if err := m.Uninstall(caller); err != nil || !m.Installed(shared) {
		t.Fatalf("Uninstall of the caller: %v; shared callee resident %v, want true", err, m.Installed(shared))
	}
}

// Machine.install writes a function into the code region, and Unit.add is
// its one caller: every function is placed by a unit.
func TestInstallOnlyFromUnit(t *testing.T) {
	fset := token.NewFileSet()
	names, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	var callers []string
	for _, name := range names {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if c, ok := n.(*ast.CallExpr); ok {
					if sel, ok := c.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "install" {
						callers = append(callers, fmt.Sprintf("%s (%s)", fd.Name.Name, fset.Position(c.Pos())))
					}
				}
				return true
			})
		}
	}
	if len(callers) != 1 || !strings.HasPrefix(callers[0], "add (unit.go:") {
		t.Fatalf("Machine.install is called from %v; want Unit.add alone", callers)
	}
}

// TestOwnedIsRefused: a function resident in one unit cannot be installed
// by another unit on the same machine, and a callee resident on machine A
// cannot be linked into a caller installed on machine B.  Both refusals
// are ErrOwned and leave the refusing machine's regions as they were.
func TestOwnedIsRefused(t *testing.T) {
	bk, m := newMips()
	fn := buildAddK(t, bk, 3)
	if err := m.NewUnit().Install(fn); err != nil {
		t.Fatal(err)
	}
	spans, st := slices.Clone(m.FuncSpans()), m.ArenaStats()
	if err := m.NewUnit().Install(fn); !errors.Is(err, core.ErrOwned) {
		t.Errorf("second unit's Install of a resident function: %v, want ErrOwned", err)
	}
	if !slices.Equal(m.FuncSpans(), spans) || m.ArenaStats() != st {
		t.Errorf("after the refusal: %v, %+v; before, %v and %+v", m.FuncSpans(), m.ArenaStats(), spans, st)
	}

	_, b := newMips()
	spans, st = slices.Clone(b.FuncSpans()), b.ArenaStats()
	caller := buildCaller(t, bk, fn)
	if err := b.NewUnit().Install(caller); !errors.Is(err, core.ErrOwned) {
		t.Errorf("caller on B of a callee resident on A: %v, want ErrOwned", err)
	}
	if !slices.Equal(b.FuncSpans(), spans) || b.ArenaStats() != st || b.Installed(caller) {
		t.Errorf("after the refusal: %v, %+v, caller resident %v; before, %v and %+v", b.FuncSpans(), b.ArenaStats(), b.Installed(caller), spans, st)
	}
	if got, err := m.Call(fn, core.I(4)); err != nil || got.Int() != 7 {
		t.Errorf("the owner's function after both refusals: %v, %v; want 7", got, err)
	}
}
