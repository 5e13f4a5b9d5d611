package core_test

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/regtest"
)

// buildSpin generates a loop that never returns.
func buildSpin(tb testing.TB, bk core.Backend) *core.Func {
	tb.Helper()
	a := core.NewAsm(bk)
	a.SetName("spin")
	args, err := a.Begin("%i", core.Leaf)
	if err != nil {
		tb.Fatal(err)
	}
	top := a.NewLabel()
	a.Bind(top)
	a.Addii(args[0], args[0], 1)
	a.Jmp(top)
	a.Reti(args[0]) // unreachable
	fn, err := a.End()
	if err != nil {
		tb.Fatal(err)
	}
	return fn
}

// TestCallDeadline: CallOpts.Deadline is read at the run loop's polls, as
// ctx is.  A deadline already past fails the call before its first
// instruction (the server's call that waited past its deadline for the
// machine), a runaway loop stops at the first poll after its deadline, and
// a far deadline changes nothing a call reports.
func TestCallDeadline(t *testing.T) {
	ctx := context.Background()
	for _, tg := range regtest.Targets() {
		m := tg.NewMachine()
		leaf, spin := buildLeaf(t, tg.Backend, 1), buildSpin(t, tg.Backend)
		two := []core.Value{core.I(1), core.I(2)}
		for _, e := range engines {
			if err := m.SetEngine(e); err != nil {
				t.Fatal(err)
			}
			name := tg.Name + "/" + e.String()

			_, st, err := m.CallWithStats(ctx, core.CallOpts{Deadline: time.Now().Add(-time.Millisecond)}, leaf, two...)
			if !errors.Is(err, context.DeadlineExceeded) || !strings.Contains(err.Error(), "after 0 steps") {
				t.Fatalf("%s: past deadline: err = %v, want DeadlineExceeded after 0 steps", name, err)
			}
			if st.Insns != 0 || st.Fuel != 0 {
				t.Fatalf("%s: past deadline ran %d instructions (%d steps)", name, st.Insns, st.Fuel)
			}

			const stride = 256
			deadline := time.Now().Add(50 * time.Millisecond)
			_, st, err = m.CallWithStats(ctx, core.CallOpts{Deadline: deadline, PollStride: stride}, spin, core.I(0))
			late := time.Since(deadline)
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("%s: runaway loop: err = %v, want DeadlineExceeded", name, err)
			}
			// It stopped at a poll, the first one past the deadline: the
			// clock had passed it, and not by the time a stride takes
			// (microseconds; the bound leaves room for a loaded machine).
			if st.Fuel == 0 || st.Fuel%stride != 0 {
				t.Fatalf("%s: runaway loop stopped after %d steps, not at a poll (stride %d)", name, st.Fuel, stride)
			}
			if late < 0 || late > 250*time.Millisecond {
				t.Fatalf("%s: runaway loop returned %v after its deadline", name, late)
			}

			want, wst, err := m.CallWithStats(ctx, core.CallOpts{}, leaf, two...)
			if err != nil {
				t.Fatal(err)
			}
			got, gst, err := m.CallWithStats(ctx, core.CallOpts{Deadline: time.Now().Add(time.Hour)}, leaf, two...)
			if err != nil || got != want || gst != wst {
				t.Fatalf("%s: far deadline: %v %+v %v, no deadline: %v %+v", name, got, gst, err, want, wst)
			}
		}
	}
}

// buildSpinDiv generates a loop that never returns and divides on every
// trip: i++; j = i / i; goto top.  On a port without a hardware divide the
// division is a trap dispatch, a step of its own.
func buildSpinDiv(tb testing.TB, bk core.Backend) *core.Func {
	tb.Helper()
	a := core.NewAsm(bk)
	a.SetName("spindiv")
	args, err := a.Begin("%i", core.Leaf)
	if err != nil {
		tb.Fatal(err)
	}
	j, err := a.GetReg(core.Temp)
	if err != nil {
		tb.Fatal(err)
	}
	top := a.NewLabel()
	a.Bind(top)
	a.Addii(args[0], args[0], 1)
	a.Divi(j, args[0], args[0])
	a.Jmp(top)
	a.Reti(j) // unreachable
	fn, err := a.End()
	if err != nil {
		tb.Fatal(err)
	}
	return fn
}

// buildSpinLoad generates a loop that never returns and, on every trip,
// loads a double and a byte from p: x++; f = *p; y = p[1]; goto top.  An
// FP load is one step of the oracle on every port (a hand-off from the
// threaded engine's loop), and so is a byte load where there is one.
func buildSpinLoad(tb testing.TB, bk core.Backend) *core.Func {
	tb.Helper()
	a := core.NewAsm(bk)
	a.SetName("spinload")
	args, err := a.Begin("%p%i", core.Leaf)
	if err != nil {
		tb.Fatal(err)
	}
	y, err := a.GetReg(core.Temp)
	if err != nil {
		tb.Fatal(err)
	}
	f, err := a.GetFReg(core.Temp)
	if err != nil {
		tb.Fatal(err)
	}
	top := a.NewLabel()
	a.Bind(top)
	a.Addii(args[1], args[1], 1)
	a.LdI(core.TypeD, f, args[0], 0)
	a.LdI(core.TypeUC, y, args[0], 1)
	a.Jmp(top)
	a.Reti(y) // unreachable
	fn, err := a.End()
	if err != nil {
		tb.Fatal(err)
	}
	return fn
}

// pollCounter is a context that is canceled at its at-th Err, the run
// loop's at-th poll.
type pollCounter struct {
	context.Context
	polls, at int
}

func (c *pollCounter) Done() <-chan struct{} { return make(chan struct{}) }

func (c *pollCounter) Err() error {
	if c.polls++; c.polls >= c.at {
		return context.Canceled
	}
	return nil
}

// TestPollsLandOnTheStride: CallOpts.PollStride's contract on both engines
// and every port — the k-th poll of ctx comes after exactly (k-1)·stride
// steps, however the loop's slices end: between a taken branch and its
// delay slot, at a trap dispatch (alpha's divide helper), or at an
// instruction the threaded engine's loop hands to the oracle.  The threaded
// engine used to poll only where its slices happened to end on a
// multiple of the stride, and once one did not, never again on one.
func TestPollsLandOnTheStride(t *testing.T) {
	for _, tg := range regtest.Targets() {
		m := tg.NewMachine()
		buf, err := m.Alloc(16)
		if err != nil {
			t.Fatal(err)
		}
		spins := []struct {
			fn   *core.Func
			args []core.Value
		}{
			{buildSpinDiv(t, tg.Backend), []core.Value{core.I(1)}},
			{buildSpinLoad(t, tg.Backend), []core.Value{core.P(buf), core.I(1)}},
		}
		for _, e := range engines {
			if err := m.SetEngine(e); err != nil {
				t.Fatal(err)
			}
			for _, spin := range spins {
				for _, stride := range []uint64{16, 256} {
					for _, k := range []int{1, 2, 37, 100} {
						ctx := &pollCounter{Context: context.Background(), at: k}
						_, st, err := m.CallWithStats(ctx, core.CallOpts{PollStride: stride}, spin.fn, spin.args...)
						want := uint64(k-1) * stride
						if !errors.Is(err, context.Canceled) || st.Fuel != want {
							t.Errorf("%s/%s %s stride %d: poll %d after %d steps (%v), want after %d",
								tg.Name, e, spin.fn.Name, stride, k, st.Fuel, err, want)
						}
					}
				}
			}
		}
	}
}
