package core_test

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/core"
)

// loadSym builds f() { return *(int*)sym } on bk.
func loadSym(t *testing.T, bk core.Backend, sym string) *core.Func {
	t.Helper()
	a := core.NewAsm(bk)
	a.SetName("load_" + sym)
	if _, err := a.BeginTypes(nil, core.Leaf); err != nil {
		t.Fatal(err)
	}
	ptr, err := a.GetReg(core.Temp)
	if err != nil {
		t.Fatal(err)
	}
	a.SetSym(ptr, sym)
	a.Ldii(ptr, ptr, 0)
	a.Reti(ptr)
	fn, err := a.End()
	if err != nil {
		t.Fatal(err)
	}
	return fn
}

// wordUnit is a program of one data word named sym and one function that
// returns it.
func wordUnit(t *testing.T, bk core.Backend, m *core.Machine, sym string, word uint64) (u *core.Unit, fn *core.Func, table uint64) {
	t.Helper()
	u = m.NewUnit()
	addr, err := u.Alloc(4)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Mem().Store(addr, 4, word); err != nil {
		t.Fatal(err)
	}
	if err := u.DefineSym(sym, addr); err != nil {
		t.Fatal(err)
	}
	if table, err = u.Table(1); err != nil {
		t.Fatal(err)
	}
	fn = loadSym(t, bk, sym)
	if err := u.Install(fn); err != nil {
		t.Fatal(err)
	}
	return u, fn, table
}

// TestUnitOwnsItsProgram: two programs on one machine both name their data
// "tab" and each reads its own; a name the machine defines is refused; a
// loose function does not see a unit's names; Unload returns every byte
// whatever the owner already uninstalled, twice is once, and afterwards
// the unit's function is ErrUnloaded on both engines, never re-installed.
func TestUnitOwnsItsProgram(t *testing.T) {
	bk, m := newMips()
	base := m.ArenaStats()

	ua, fa, table := wordUnit(t, bk, m, "tab", 11)
	ub, fb, _ := wordUnit(t, bk, m, "tab", 22)
	for _, tc := range []struct {
		fn   *core.Func
		want int64
	}{{fa, 11}, {fb, 22}} {
		if got, err := m.Call(tc.fn); err != nil || got.Int() != tc.want {
			t.Fatalf("%s = %v, %v, want %d", tc.fn.Name, got, err, tc.want)
		}
	}
	if fa.Unit() != ua || len(ua.Funcs()) != 1 || ua.CodeBytes() != int64(fa.SizeBytes()) || ua.HeapBytes() != 32 {
		t.Fatalf("unit a: funcs %v, %d code bytes, %d heap bytes", ua.Funcs(), ua.CodeBytes(), ua.HeapBytes())
	}
	if ptr, err := m.Mem().Load(table, bk.PtrBytes()); err != nil || ptr != fa.EntryAddr() {
		t.Fatalf("table slot 0 = %#x, %v, want the member's entry %#x", ptr, err, fa.EntryAddr())
	}

	if err := ua.DefineSym("tab", 0x100); err == nil {
		t.Error("a unit defined one name twice")
	}
	if err := ua.DefineSym("__div_i", 0x100); err == nil || !strings.Contains(err.Error(), "already defined") {
		t.Errorf("a unit name shadowing a trap: %v", err)
	}
	if err := m.Install(loadSym(t, bk, "tab")); err == nil || !strings.Contains(err.Error(), "undefined symbol") {
		t.Errorf("a loose function resolved a unit's name: %v", err)
	}
	if err := ub.Install(fa); err == nil {
		t.Error("a member of one unit joined another")
	}

	if err := m.Uninstall(fb); err != nil { // what bench/ does before it drops a program
		t.Fatal(err)
	}
	ua.Unload()
	ub.Unload()
	ua.Unload()
	if got := m.ArenaStats(); got != base {
		t.Fatalf("after Unload: %+v, want the empty machine's %+v", got, base)
	}
	for _, e := range []core.Engine{core.EngineSwitch, core.EngineThreaded} {
		if err := m.SetEngine(e); err != nil {
			t.Fatal(err)
		}
		if _, err := m.Call(fa); !errors.Is(err, core.ErrUnloaded) {
			t.Errorf("%v engine: call into an unloaded unit: %v, want ErrUnloaded", e, err)
		}
	}
	if err := m.Install(fb); !errors.Is(err, core.ErrUnloaded) {
		t.Errorf("Install of an unloaded unit's member: %v, want ErrUnloaded", err)
	}
	if err := ua.Install(loadSym(t, bk, "tab")); !errors.Is(err, core.ErrUnloaded) {
		t.Errorf("Install into an unloaded unit: %v, want ErrUnloaded", err)
	}
	if got := m.ArenaStats(); got != base {
		t.Fatalf("refused calls left %+v on the machine, want %+v", got, base)
	}
}
