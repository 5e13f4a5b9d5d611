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
