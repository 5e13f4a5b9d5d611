package regtest

import (
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/mem"
)

// storeThenRun builds f(addr, w): store w at addr, then r = 1, return r.
// It returns f and the index of the r = 1 word, with the word r = 2 that a
// store over it would put there.
func storeThenRun(t *testing.T, bk core.Backend) (fn *core.Func, at int, two uint32) {
	t.Helper()
	a := core.NewAsm(bk)
	args, err := a.Begin("%p%i", core.Leaf)
	if err != nil {
		t.Fatal(err)
	}
	r, err := a.GetReg(core.Temp)
	if err != nil {
		t.Fatal(err)
	}
	a.StI(core.TypeI, args[1], args[0], 0)
	at = a.Buf().Len()
	a.SetI(core.TypeI, r, 2)
	two = a.Buf().At(at)
	a.Buf().Truncate(at)
	a.SetI(core.TypeI, r, 1)
	a.Ret(core.TypeI, r)
	if fn, err = a.End(); err != nil {
		t.Fatal(err)
	}
	return fn, at, two
}

// TestStoreIntoCodeIsRefused: code and trap vectors are read-only to the
// code a machine runs.  A function that stores a word over one of its own
// later instructions, and then runs it, fails with mem.ErrReadOnly on both
// engines; were the store let through, the switch engine would run the
// stored word and the threaded engine the predecoded one.  A store into a
// trap vector fails alike, and one into the heap goes through.
func TestStoreIntoCodeIsRefused(t *testing.T) {
	for _, tg := range Targets() {
		t.Run(tg.Name, func(t *testing.T) {
			for _, e := range []core.Engine{core.EngineSwitch, core.EngineThreaded} {
				fn, at, two := storeThenRun(t, tg.Backend)
				m := tg.NewMachine()
				if err := m.SetEngine(e); err != nil {
					t.Fatal(err)
				}
				if err := m.Install(fn); err != nil {
					t.Fatal(err)
				}
				var halt uint64
				for _, s := range m.FuncSpans() {
					if s.Name == "<halt>" {
						halt = s.Start
					}
				}
				for what, addr := range map[string]uint64{"code": fn.Addr() + 4*uint64(at), "trap vector": halt} {
					v, err := m.Call(fn, core.P(addr), core.I(int32(two)))
					if !errors.Is(err, mem.ErrReadOnly) {
						t.Errorf("engine %v, store into %s at %#x: f = %v, %v; want mem.ErrReadOnly", e, what, addr, v, err)
					}
				}
				if v, err := m.Call(fn, core.P(m.Mem().Size()/2), core.I(int32(two))); err != nil || v.Int() != 1 {
					t.Errorf("engine %v, store into the heap: f = %v, %v; want 1", e, v, err)
				}
			}
		})
	}
}
