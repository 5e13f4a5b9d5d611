package core_test

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/regtest"
)

// buildFaulting generates fn(p, x): three add-immediates on x, a load of
// type ty from p, three more, and a return: a call with an unmapped p
// faults at its fourth instruction, mid-run.
func buildFaulting(tb testing.TB, bk core.Backend, ty core.Type) *core.Func {
	tb.Helper()
	a := core.NewAsm(bk)
	a.SetName("faulting" + ty.Letter())
	args, err := a.BeginTypes([]core.Type{core.TypeP, core.TypeI}, core.Leaf)
	if err != nil {
		tb.Fatal(err)
	}
	p, x := args[0], args[1]
	for i := int64(1); i <= 3; i++ {
		a.Addii(x, x, i)
	}
	a.LdI(ty, x, p, 0)
	for i := int64(1); i <= 3; i++ {
		a.Addii(x, x, i)
	}
	a.Reti(x)
	fn, err := a.End()
	if err != nil {
		tb.Fatal(err)
	}
	return fn
}

// buildBad generates fn(x): an add-immediate on x, a word with no row
// (which the verifier refuses: installing it needs the verifier off) and
// a return.
func buildBad(tb testing.TB, bk core.Backend) *core.Func {
	tb.Helper()
	a := core.NewAsm(bk)
	a.SetName("bad")
	args, err := a.Begin("%i", core.Leaf)
	if err != nil {
		tb.Fatal(err)
	}
	a.Addii(args[0], args[0], 5)
	at := a.Buf().Len()
	a.Nop()
	a.Reti(args[0])
	fn, err := a.End()
	if err != nil {
		tb.Fatal(err)
	}
	fn.Words[at] = map[string]uint32{"mips": 0x469ca343, "sparc": 0x9acb0442, "alpha": 0x4d088f48}[bk.Name()]
	return fn
}

// callFuncs are the functions TestHowACallEnds calls; fresh is placed by
// the call that panics in it.
type callFuncs struct{ leaf, faulting, byteFaulting, bad, fresh *core.Func }

// callEnd is how a call came out: its result, its stats, and its error's
// text and the types along its chain.
type callEnd struct {
	v     core.Value
	st    core.CallStats
	err   string
	types string
}

func endOf(v core.Value, st core.CallStats, err error) callEnd {
	e := callEnd{v: v, st: st}
	for ; err != nil; err = errors.Unwrap(err) {
		e.err = e.err + "|" + err.Error()
		e.types += fmt.Sprintf("%T ", err)
	}
	return e
}

// TestHowACallEnds holds every way a warm call ends — a return, fuel spent
// at exactly the budget, a context canceled at a poll, a deadline already
// past, a word and a byte load fault mid-run, a word with no row and a
// simulator panic recovered, in a warm call and in a function's first —
// to the
// switch engine on every port: the result, CallStats (cycles, instructions
// and fuel) and the error, its text and the type of each error it wraps.
// Each case also says what its error must be, so that both engines cannot
// agree on the wrong one.  A panic's fuel is every step up to the one that
// panicked, which the threaded engine takes from what its run loop
// flushed before the sampler fired.
func TestHowACallEnds(t *testing.T) {
	two := []core.Value{core.I(12345), core.I(678)}
	cases := []struct {
		name string
		call func(m *core.Machine, fs *callFuncs) (core.Value, core.CallStats, error)
		want func(err error) bool
	}{
		{"return", func(m *core.Machine, fs *callFuncs) (core.Value, core.CallStats, error) {
			return m.CallWithStats(context.Background(), core.CallOpts{}, fs.leaf, two...)
		}, func(err error) bool { return err == nil }},
		{"fuel spent at the budget", func(m *core.Machine, fs *callFuncs) (core.Value, core.CallStats, error) {
			return m.CallWithStats(context.Background(), core.CallOpts{Fuel: 5}, fs.leaf, two...)
		}, func(err error) bool { return errors.Is(err, core.ErrFuelExhausted) }},
		{"canceled at a poll", func(m *core.Machine, fs *callFuncs) (core.Value, core.CallStats, error) {
			ctx := &pollCounter{Context: context.Background(), at: 2}
			return m.CallWithStats(ctx, core.CallOpts{PollStride: 4}, fs.leaf, two...)
		}, func(err error) bool { return errors.Is(err, context.Canceled) }},
		{"deadline past", func(m *core.Machine, fs *callFuncs) (core.Value, core.CallStats, error) {
			return m.CallWithStats(context.Background(), core.CallOpts{Deadline: time.Unix(1, 0)}, fs.leaf, two...)
		}, func(err error) bool { return errors.Is(err, context.DeadlineExceeded) }},
		{"load fault", func(m *core.Machine, fs *callFuncs) (core.Value, core.CallStats, error) {
			return m.CallWithStats(context.Background(), core.CallOpts{}, fs.faulting, core.P(m.Mem().Size()+64), core.I(1))
		}, func(err error) bool { return err != nil && !errors.Is(err, core.ErrFuelExhausted) }},
		{"byte load fault", func(m *core.Machine, fs *callFuncs) (core.Value, core.CallStats, error) {
			return m.CallWithStats(context.Background(), core.CallOpts{}, fs.byteFaulting, core.P(m.Mem().Size()+64), core.I(1))
		}, func(err error) bool { return err != nil && strings.Contains(err.Error(), "out of range") }},
		{"word with no row", func(m *core.Machine, fs *callFuncs) (core.Value, core.CallStats, error) {
			return m.CallWithStats(context.Background(), core.CallOpts{}, fs.bad, core.I(1))
		}, func(err error) bool { return err != nil && strings.Contains(err.Error(), ": unknown ") }},
		{"simulator panic", func(m *core.Machine, fs *callFuncs) (core.Value, core.CallStats, error) {
			if err := m.SetSampler(func(uint64) { panic("sampled") }, 6); err != nil {
				return core.Value{}, core.CallStats{}, err
			}
			defer m.SetSampler(nil, 0)
			return m.CallWithStats(context.Background(), core.CallOpts{}, fs.leaf, two...)
		}, func(err error) bool { var pe *core.PanicError; return errors.As(err, &pe) }},
		{"simulator panic in a first call", func(m *core.Machine, fs *callFuncs) (core.Value, core.CallStats, error) {
			if err := m.SetSampler(func(uint64) { panic("sampled") }, 6); err != nil {
				return core.Value{}, core.CallStats{}, err
			}
			defer m.SetSampler(nil, 0)
			return m.CallWithStats(context.Background(), core.CallOpts{}, fs.fresh, two...)
		}, func(err error) bool { var pe *core.PanicError; return errors.As(err, &pe) }},
	}
	for _, tg := range regtest.Targets() {
		var ends [2][]callEnd // by engine, switch first
		for i, e := range engines {
			m := tg.NewMachine()
			if err := m.SetEngine(e); err != nil {
				t.Fatal(err)
			}
			fs := &callFuncs{buildLeaf(t, tg.Backend, 1), buildFaulting(t, tg.Backend, core.TypeI),
				buildFaulting(t, tg.Backend, core.TypeUC), buildBad(t, tg.Backend), buildLeaf(t, tg.Backend, 2)}
			m.SetVerify(false)
			for _, f := range []*core.Func{fs.leaf, fs.faulting, fs.byteFaulting, fs.bad} {
				if err := m.Install(f); err != nil {
					t.Fatal(err)
				}
			}
			// Warm: the entry bodies are remembered, as on a served call.
			if _, err := m.Call(fs.leaf, two...); err != nil {
				t.Fatal(err)
			}
			for _, c := range cases {
				v, st, err := c.call(m, fs)
				if !c.want(err) {
					t.Errorf("%s/%s/%s: err = %v", tg.Name, e, c.name, err)
				}
				ends[i] = append(ends[i], endOf(v, st, err))
			}
		}
		for j, c := range cases {
			ref, got := ends[0][j], ends[1][j]
			if strings.HasPrefix(c.name, "simulator panic") && ref.st.Fuel != ref.st.Insns {
				t.Errorf("%s/%s: fuel %d on the switch engine, want %d", tg.Name, c.name, ref.st.Fuel, ref.st.Insns)
			}
			if got != ref {
				t.Errorf("%s/%s: threaded %+v, switch %+v", tg.Name, c.name, got, ref)
			}
		}
	}
}
