package core_test

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/regtest"
)

// buildFaulting generates fn(p, x): three add-immediates on x, a load
// from p, three more, and a return: a call with an unmapped p faults at
// its fourth instruction, mid-run.
func buildFaulting(tb testing.TB, bk core.Backend) *core.Func {
	tb.Helper()
	a := core.NewAsm(bk)
	a.SetName("faulting")
	args, err := a.BeginTypes([]core.Type{core.TypeP, core.TypeI}, core.Leaf)
	if err != nil {
		tb.Fatal(err)
	}
	p, x := args[0], args[1]
	for i := int64(1); i <= 3; i++ {
		a.Addii(x, x, i)
	}
	a.LdI(core.TypeI, x, p, 0)
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
// past, a load fault mid-run and a simulator panic recovered — to the
// switch engine on every port: the result, CallStats (cycles, instructions
// and fuel) and the error, its text and the type of each error it wraps.
// Each case also says what its error must be, so that both engines cannot
// agree on the wrong one.  A panic's fuel is held on the switch engine
// alone, to each step up to the one that panicked: the threaded engine
// counts the steps of a body when the body returns, and one that panics
// does not.
func TestHowACallEnds(t *testing.T) {
	two := []core.Value{core.I(12345), core.I(678)}
	cases := []struct {
		name string
		call func(m *core.Machine, leaf, faulting *core.Func) (core.Value, core.CallStats, error)
		want func(err error) bool
	}{
		{"return", func(m *core.Machine, leaf, _ *core.Func) (core.Value, core.CallStats, error) {
			return m.CallWithStats(context.Background(), core.CallOpts{}, leaf, two...)
		}, func(err error) bool { return err == nil }},
		{"fuel spent at the budget", func(m *core.Machine, leaf, _ *core.Func) (core.Value, core.CallStats, error) {
			return m.CallWithStats(context.Background(), core.CallOpts{Fuel: 5}, leaf, two...)
		}, func(err error) bool { return errors.Is(err, core.ErrFuelExhausted) }},
		{"canceled at a poll", func(m *core.Machine, leaf, _ *core.Func) (core.Value, core.CallStats, error) {
			ctx := &pollCounter{Context: context.Background(), at: 2}
			return m.CallWithStats(ctx, core.CallOpts{PollStride: 4}, leaf, two...)
		}, func(err error) bool { return errors.Is(err, context.Canceled) }},
		{"deadline past", func(m *core.Machine, leaf, _ *core.Func) (core.Value, core.CallStats, error) {
			return m.CallWithStats(context.Background(), core.CallOpts{Deadline: time.Unix(1, 0)}, leaf, two...)
		}, func(err error) bool { return errors.Is(err, context.DeadlineExceeded) }},
		{"load fault", func(m *core.Machine, _, faulting *core.Func) (core.Value, core.CallStats, error) {
			return m.CallWithStats(context.Background(), core.CallOpts{}, faulting, core.P(m.Mem().Size()+64), core.I(1))
		}, func(err error) bool { return err != nil && !errors.Is(err, core.ErrFuelExhausted) }},
		{"simulator panic", func(m *core.Machine, leaf, _ *core.Func) (core.Value, core.CallStats, error) {
			if err := m.SetSampler(func(uint64) { panic("sampled") }, 6); err != nil {
				return core.Value{}, core.CallStats{}, err
			}
			defer m.SetSampler(nil, 0)
			return m.CallWithStats(context.Background(), core.CallOpts{}, leaf, two...)
		}, func(err error) bool { var pe *core.PanicError; return errors.As(err, &pe) }},
	}
	for _, tg := range regtest.Targets() {
		var ends [2][]callEnd // by engine, switch first
		for i, e := range engines {
			m := tg.NewMachine()
			if err := m.SetEngine(e); err != nil {
				t.Fatal(err)
			}
			leaf, faulting := buildLeaf(t, tg.Backend, 1), buildFaulting(t, tg.Backend)
			for _, f := range []*core.Func{leaf, faulting} {
				if err := m.Install(f); err != nil {
					t.Fatal(err)
				}
			}
			// Warm: the entry bodies are remembered, as on a served call.
			if _, err := m.Call(leaf, two...); err != nil {
				t.Fatal(err)
			}
			for _, c := range cases {
				v, st, err := c.call(m, leaf, faulting)
				if !c.want(err) {
					t.Errorf("%s/%s/%s: err = %v", tg.Name, e, c.name, err)
				}
				ends[i] = append(ends[i], endOf(v, st, err))
			}
		}
		for j, c := range cases {
			ref, got := ends[0][j], ends[1][j]
			if c.name == "simulator panic" {
				if ref.st.Fuel != ref.st.Insns {
					t.Errorf("%s/%s: fuel %d on the switch engine, want %d", tg.Name, c.name, ref.st.Fuel, ref.st.Insns)
				}
				ref.st.Fuel, got.st.Fuel = 0, 0
			}
			if got != ref {
				t.Errorf("%s/%s: threaded %+v, switch %+v", tg.Name, c.name, got, ref)
			}
		}
	}
}
