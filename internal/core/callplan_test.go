package core_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/regtest"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// buildLeaf generates the warm-call subject: fn(a, b) of eleven ALU
// instructions and a return, 13 simulated instructions on every backend.
// k varies the constants so each function computes its own value.
func buildLeaf(tb testing.TB, bk core.Backend, k int64) *core.Func {
	tb.Helper()
	a := core.NewAsm(bk)
	a.SetName(fmt.Sprintf("leaf%d", k))
	args, err := a.Begin("%i%i", core.Leaf)
	if err != nil {
		tb.Fatal(err)
	}
	x, y := args[0], args[1]
	for i := int64(0); i < 5; i++ {
		a.Addii(x, x, k+i)
		a.Xori(x, x, y)
	}
	a.Subii(x, x, 1)
	a.Reti(x)
	fn, err := a.End()
	if err != nil {
		tb.Fatal(err)
	}
	return fn
}

// leafWant is buildLeaf(k)(x, y) in Go.
func leafWant(k int64, x, y int32) int32 {
	for i := int64(0); i < 5; i++ {
		x = (x + int32(k+i)) ^ y
	}
	return x - 1
}

// engines is both execution engines, the oracle first.
var engines = []core.Engine{core.EngineSwitch, core.EngineThreaded}

// planPair is a machine under test and the switch-engine oracle it is held
// to.  Every lifecycle step is applied to both, each with its own copy of
// the functions (a *Func belongs to one machine once installed).
type planPair struct {
	t       *testing.T
	m, ref  *core.Machine
	leaves  map[int64][2]*core.Func // k -> {for m, for ref}
	backend core.Backend
}

func newPlanPair(t *testing.T, tg regtest.Target, e core.Engine) *planPair {
	t.Helper()
	p := &planPair{t: t, m: tg.NewMachine(), ref: tg.NewMachine(),
		leaves: map[int64][2]*core.Func{}, backend: tg.Backend}
	if err := p.m.SetEngine(e); err != nil {
		t.Fatal(err)
	}
	if err := p.ref.SetEngine(core.EngineSwitch); err != nil {
		t.Fatal(err)
	}
	return p
}

// leaf returns the pair of handles for leaf k, building them on first use.
func (p *planPair) leaf(k int64) [2]*core.Func {
	fs, ok := p.leaves[k]
	if !ok {
		fs = [2]*core.Func{buildLeaf(p.t, p.backend, k), buildLeaf(p.t, p.backend, k)}
		p.leaves[k] = fs
	}
	return fs
}

// both applies one lifecycle operation to the machine and to the oracle.
func (p *planPair) both(what string, fs [2]*core.Func, op func(*core.Machine, *core.Func) error) {
	p.t.Helper()
	if err := op(p.m, fs[0]); err != nil {
		p.t.Fatalf("%s: %v", what, err)
	}
	if err := op(p.ref, fs[1]); err != nil {
		p.t.Fatalf("%s (oracle): %v", what, err)
	}
}

// call calls the pair's two handles with the same arguments and requires
// the machine under test to match the oracle on result, cycles and retired
// instructions.  It returns the machine's result and stats.
func (p *planPair) call(what string, fs [2]*core.Func, args ...core.Value) (core.Value, core.CallStats) {
	p.t.Helper()
	ctx := context.Background()
	v, st, err := p.m.CallWithStats(ctx, core.CallOpts{}, fs[0], args...)
	rv, rst, rerr := p.ref.CallWithStats(ctx, core.CallOpts{}, fs[1], args...)
	if err != nil || rerr != nil {
		p.t.Fatalf("%s: err %v, oracle err %v", what, err, rerr)
	}
	if v != rv || st.Cycles != rst.Cycles || st.Insns != rst.Insns {
		p.t.Fatalf("%s: got %v in %d cycles, %d insns; the switch engine got %v in %d cycles, %d insns",
			what, v, st.Cycles, st.Insns, rv, rst.Cycles, rst.Insns)
	}
	return v, st
}

// callLeaf calls leaf k and also holds the result to the Go reference, so
// a plan that dispatched into some other function's code cannot hide
// behind an oracle that made the same mistake.
func (p *planPair) callLeaf(what string, k int64) core.CallStats {
	p.t.Helper()
	const x, y = 12345, 678
	v, st := p.call(what, p.leaf(k), core.I(x), core.I(y))
	if want := leafWant(k, x, y); int32(v.Int()) != want {
		p.t.Fatalf("%s: leaf%d = %d, want %d", what, k, v.Int(), want)
	}
	return st
}

// The two lifecycle operations planPair.both applies.
var (
	install   = (*core.Machine).Install
	uninstall = (*core.Machine).Uninstall
)

// countingHook is a fault hook that injects nothing and counts instruction
// fetches: only the Step path fetches.
type countingHook struct{ fetches uint64 }

func (h *countingHook) FetchFault(_ uint64, w uint32) (uint32, error) { h.fetches++; return w, nil }
func (h *countingHook) LoadFault(uint64, int) error                   { return nil }
func (h *countingHook) StoreFault(uint64, int) error                  { return nil }

// TestCallPlanLifecycle walks a resident function's plan through every way
// it can go stale — uninstall and reinstall elsewhere, another function at
// its reused address, Release dropping bodies under a function that still
// claims to be installed, an engine switch — and through everything that
// must force the Step path, holding each call to the switch engine.
func TestCallPlanLifecycle(t *testing.T) {
	for _, tg := range regtest.Targets() {
		for _, e := range engines {
			t.Run(fmt.Sprintf("%s/%s", tg.Name, e), func(t *testing.T) {
				p := newPlanPair(t, tg, e)
				f := p.leaf(1)

				p.both("install", f, install)
				p.callLeaf("install, call", 1)
				p.callLeaf("second warm call", 1)

				// Uninstall, let another function take the hole, reinstall:
				// the plan must carry the new entry.
				first := f[0].Addr()
				p.both("uninstall", f, uninstall)
				p.both("install into the hole", p.leaf(2), install)
				if got := p.leaf(2)[0].Addr(); got != first {
					t.Fatalf("leaf2 at %#x, want the reused %#x", got, first)
				}
				p.both("reinstall", f, install)
				if f[0].Addr() == first {
					t.Fatalf("leaf1 reinstalled at its old address %#x", first)
				}
				p.callLeaf("reinstalled elsewhere", 1)
				p.callLeaf("occupant of the old address", 2)

				// Evict, put a different function at the reused address, call
				// both handles: the evicted one installs on demand elsewhere.
				second := f[0].Addr()
				p.both("evict", f, uninstall)
				p.both("install a different function", p.leaf(3), install)
				if got := p.leaf(3)[0].Addr(); got != second {
					t.Fatalf("leaf3 at %#x, want the reused %#x", got, second)
				}
				p.callLeaf("new function at the reused address", 3)
				p.callLeaf("evicted handle, installed on demand", 1)
				p.callLeaf("new function again", 3)

				// Mark, install, Release: the released function still claims
				// to be installed but its body is gone; the next function at
				// that address must run its own code.
				mark, refMark := p.m.Mark(), p.ref.Mark()
				p.both("install above the mark", p.leaf(4), install)
				p.callLeaf("above the mark", 4)
				released := p.leaf(4)[0].Addr()
				p.m.Release(mark)
				p.ref.Release(refMark)
				p.both("install after release", p.leaf(5), install)
				if got := p.leaf(5)[0].Addr(); got != released {
					t.Fatalf("leaf5 at %#x, want the released %#x", got, released)
				}
				p.callLeaf("function at the released address", 5)
				p.callLeaf("a survivor below the mark", 3)
				// Calling the released handle is a caller's bug with a defined
				// outcome on the switch engine: it runs whatever is at that
				// address now.  A remembered body would run what was there.
				stale := p.leaf(4)
				if v, _ := p.call("released handle", stale, core.I(12345), core.I(678)); int32(v.Int()) != leafWant(5, 12345, 678) {
					t.Fatalf("released handle = %d, want leaf5's %d", v.Int(), leafWant(5, 12345, 678))
				}

				// Switch engines between calls of the same resident function.
				for _, flip := range []core.Engine{core.EngineSwitch, core.EngineThreaded, core.EngineSwitch, e} {
					if err := p.m.SetEngine(flip); err != nil {
						t.Fatal(err)
					}
					p.callLeaf("after SetEngine("+flip.String()+")", 3)
				}

				// Single-step tracing: one disassembled line per instruction.
				var buf bytes.Buffer
				p.m.SetTrace(&buf)
				st := p.callLeaf("traced", 3)
				p.m.SetTrace(nil)
				if lines := uint64(strings.Count(buf.String(), "\n")); lines != st.Insns {
					t.Fatalf("trace has %d lines for %d instructions", lines, st.Insns)
				}

				// A fault hook sees every fetch, so every instruction stepped.
				hook := &countingHook{}
				p.m.Mem().SetFaultHook(hook)
				st = p.callLeaf("fault hook on", 3)
				p.m.Mem().SetFaultHook(nil)
				if hook.fetches != st.Insns {
					t.Fatalf("fault hook saw %d fetches for %d instructions", hook.fetches, st.Insns)
				}
				p.callLeaf("fault hook off again", 3)

				// A trap symbol called from generated code.
				conv := tg.Backend.DefaultConv()
				var traps [2]int
				for i, m := range []*core.Machine{p.m, p.ref} {
					i := i
					if err := m.DefineTrap("plus7", func(c core.CPU, _ *mem.Memory) {
						traps[i]++
						c.SetReg(conv.RetInt, c.Reg(conv.IntArgs[0])+7)
					}); err != nil {
						t.Fatal(err)
					}
				}
				caller := [2]*core.Func{buildTrapCaller(t, tg.Backend), buildTrapCaller(t, tg.Backend)}
				for i := 0; i < 2; i++ {
					if v, _ := p.call("trap caller", caller, core.I(35)); v.Int() != 42 {
						t.Fatalf("trap caller = %d, want 42", v.Int())
					}
				}
				if traps != [2]int{2, 2} {
					t.Fatalf("trap handlers ran %v times, want 2 each", traps)
				}
			})
		}
	}
}

// buildTrapCaller generates fn(x) { return plus7(x) }.
func buildTrapCaller(t *testing.T, bk core.Backend) *core.Func {
	t.Helper()
	a := core.NewAsm(bk)
	a.SetName("calls-plus7")
	args, err := a.Begin("%i", core.NonLeaf)
	if err != nil {
		t.Fatal(err)
	}
	a.StartCall("%i")
	a.SetArg(0, args[0])
	a.CallSym("plus7")
	a.RetVal(core.TypeI, args[0])
	a.Reti(args[0])
	fn, err := a.End()
	if err != nil {
		t.Fatal(err)
	}
	return fn
}

// buildNth generates fn(params...) { return the k-th parameter }.
func buildNth(bk core.Backend, params []core.Type, k int) (*core.Func, error) {
	a := core.NewAsm(bk)
	a.SetName(fmt.Sprintf("nth%d", k))
	args, err := a.BeginTypes(params, core.Leaf)
	if err != nil {
		return nil, err
	}
	a.Ret(params[k], args[k])
	return a.End()
}

// TestCallPlanSignatures is the marshalling property: whatever the
// signature — register arguments, stack arguments, doubles 8-aligned on
// the 32-bit stacks, more parameters than the plan holds inline — the
// callee sees its k-th parameter where the plan put the k-th argument.
func TestCallPlanSignatures(t *testing.T) {
	sigTypes := []core.Type{core.TypeI, core.TypeU, core.TypeL, core.TypeUL, core.TypeP, core.TypeF, core.TypeD}
	for _, tg := range regtest.Targets() {
		t.Run(tg.Name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(14))
			m := tg.NewMachine()
			pb := tg.Backend.PtrBytes()
			spilled, stackD := 0, 0
			for round := 0; round < 60; round++ {
				n := round % 13
				if round >= 48 {
					n = 9 + round%4 // more of the signatures that spill
				}
				params := make([]core.Type, n)
				args := make([]core.Value, n)
				for i := range params {
					params[i] = sigTypes[rng.Intn(len(sigTypes))]
					args[i] = regtest.MakeValue(params[i], regtest.Samples(params[i], 12, rng)[rng.Intn(12)], pb)
				}
				if n == 0 {
					// Nothing to return: a void function must still be callable
					// from an empty plan.
					a := core.NewAsm(tg.Backend)
					if _, err := a.BeginTypes(nil, core.Leaf); err != nil {
						t.Fatal(err)
					}
					a.RetVoid()
					fn, err := a.End()
					if err != nil {
						t.Fatal(err)
					}
					for _, e := range engines {
						if err := m.SetEngine(e); err != nil {
							t.Fatal(err)
						}
						if v, err := m.Call(fn); err != nil || v.T != core.TypeV {
							t.Fatalf("void() under %s = %v, %v", e, v, err)
						}
					}
					continue
				}
				built := false
				for k := range params {
					fn, err := buildNth(tg.Backend, params, k)
					if errors.Is(err, core.ErrRegExhausted) {
						break // too many stack arguments of one bank for this target
					}
					if err != nil {
						t.Fatalf("%v: build nth%d: %v", params, k, err)
					}
					built = true
					for _, e := range engines {
						if err := m.SetEngine(e); err != nil {
							t.Fatal(err)
						}
						got, err := m.Call(fn, args...)
						if err != nil {
							t.Fatalf("%v: nth%d under %s: %v", params, k, e, err)
						}
						if got != args[k] {
							t.Errorf("%v: nth%d under %s = %+v, want %+v", params, k, e, got, args[k])
						}
					}
					if err := m.Uninstall(fn); err != nil {
						t.Fatal(err)
					}
				}
				if built && n > 8 {
					spilled++
					for _, ty := range params[8:] {
						if ty == core.TypeD {
							stackD++
							break
						}
					}
				}
			}
			if spilled < 4 || stackD < 2 {
				t.Fatalf("only %d signatures past the inline plan and %d with a stack double were exercised", spilled, stackD)
			}
		})
	}
}

// buildSum8 generates an eight-parameter function, the most the plan (and
// the call path) holds without the heap: fn(a0..a7) { return a0 + a7 }.
func buildSum8(t *testing.T, bk core.Backend) *core.Func {
	t.Helper()
	a := core.NewAsm(bk)
	a.SetName("sum8")
	args, err := a.Begin("%i%i%i%i%i%i%i%i", core.Leaf)
	if err != nil {
		t.Fatal(err)
	}
	a.Addi(args[0], args[0], args[7])
	a.Reti(args[0])
	fn, err := a.End()
	if err != nil {
		t.Fatal(err)
	}
	return fn
}

// TestWarmCallZeroAlloc pins the warm path: a resident function with at
// most callBufArgs arguments is called without touching the heap, under
// either engine, with both recorders off.
func TestWarmCallZeroAlloc(t *testing.T) {
	if telemetry.Enabled() || trace.Enabled() {
		t.Fatal("a recorder is on")
	}
	ctx := context.Background()
	for _, tg := range regtest.Targets() {
		m := tg.NewMachine()
		leaf, sum8 := buildLeaf(t, tg.Backend, 1), buildSum8(t, tg.Backend)
		two := []core.Value{core.I(1), core.I(2)}
		eight := []core.Value{core.I(1), core.I(2), core.I(3), core.I(4), core.I(5), core.I(6), core.I(7), core.I(8)}
		for _, e := range engines {
			if err := m.SetEngine(e); err != nil {
				t.Fatal(err)
			}
			allocs := testing.AllocsPerRun(200, func() {
				if _, _, err := m.CallWithStats(ctx, core.CallOpts{}, leaf, two...); err != nil {
					t.Fatal(err)
				}
				if v, _, err := m.CallWithStats(ctx, core.CallOpts{}, sum8, eight...); err != nil || v.Int() != 9 {
					t.Fatalf("sum8 = %v, %v", v, err)
				}
			})
			if allocs != 0 {
				t.Errorf("%s/%s: %.1f allocations per pair of warm calls, want 0", tg.Name, e, allocs)
			}
		}
	}
}

// TestCallErrorsWithRecorders: a call that fails before it runs — no
// function, somebody else's function, the wrong arguments — returns a
// typed error whether or not a recorder is on, and a recorder that is on
// still gets the call, with the error.  With trace on, the nil Func used to
// be dereferenced for its name.
func TestCallErrorsWithRecorders(t *testing.T) {
	bk, m := newMips()
	_, other := newMips()
	resident := buildLeaf(t, bk, 1)
	if err := m.Install(resident); err != nil {
		t.Fatal(err)
	}
	elsewhere := buildLeaf(t, bk, 2)
	if err := other.Install(elsewhere); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		f    *core.Func
		args []core.Value
		want string
	}{
		{"nil Func", nil, nil, "nil function"},
		{"another machine's Func", elsewhere, []core.Value{core.I(1), core.I(2)}, "different machine"},
		{"wrong arg count", resident, []core.Value{core.I(1)}, "takes 2 args, got 1"},
		{"wrong arg type", resident, []core.Value{core.I(1), core.D(2)}, "arg 1: have d, want i"},
	}
	stats := telemetry.ForBackend("mips")
	defer telemetry.SetEnabled(false)
	defer trace.SetEnabled(false)
	defer trace.Reset()
	for _, tel := range []bool{false, true} {
		for _, tr := range []bool{false, true} {
			for _, c := range cases {
				t.Run(fmt.Sprintf("telemetry=%v/trace=%v/%s", tel, tr, c.name), func(t *testing.T) {
					telemetry.SetEnabled(tel)
					trace.SetEnabled(tr)
					trace.Reset()
					calls, failed := stats.Calls.Load(), stats.CallErrors.Load()

					_, _, err := m.CallWithStats(context.Background(), core.CallOpts{}, c.f, c.args...)
					if err == nil || !strings.Contains(err.Error(), c.want) {
						t.Fatalf("err = %v, want one containing %q", err, c.want)
					}

					var on uint64
					if tel {
						on = 1
					}
					if got := stats.Calls.Load() - calls; got != on {
						t.Errorf("telemetry counted %d calls, want %d", got, on)
					}
					if got := stats.CallErrors.Load() - failed; got != on {
						t.Errorf("telemetry counted %d failed calls, want %d", got, on)
					}
					spans := trace.Spans()
					if !tr {
						if len(spans) != 0 {
							t.Errorf("%d spans recorded with trace off", len(spans))
						}
						return
					}
					if len(spans) != 1 || spans[0].Kind != trace.KindCall || !strings.Contains(spans[0].Attrs.Err, c.want) {
						t.Errorf("spans = %+v, want one call span carrying %q", spans, c.want)
					}
				})
			}
		}
	}

	if err := m.Install(nil); err == nil || !strings.Contains(err.Error(), "nil function") {
		t.Errorf("Install(nil) = %v, want a nil-function error", err)
	}
	if err := m.Uninstall(nil); err == nil || !strings.Contains(err.Error(), "nil function") {
		t.Errorf("Uninstall(nil) = %v, want a nil-function error", err)
	}
}

// BenchmarkWarmCall is the call_hot shape inside the package: eight
// resident 13-instruction leaves called in rotation through CallWithStats,
// so every call misses the run loop's last-body cache and what is timed is
// the per-call fixed cost plus a dozen dispatches.
func BenchmarkWarmCall(b *testing.B) {
	for _, tg := range regtest.Targets() {
		b.Run(tg.Name, func(b *testing.B) {
			m := tg.NewMachine()
			fns := make([]*core.Func, 8)
			for i := range fns {
				fns[i] = buildLeaf(b, tg.Backend, int64(i))
				if err := m.Install(fns[i]); err != nil {
					b.Fatal(err)
				}
			}
			args := []core.Value{core.I(12345), core.I(678)}
			ctx := context.Background()
			var insns uint64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k := i % len(fns)
				v, st, err := m.CallWithStats(ctx, core.CallOpts{}, fns[k], args...)
				if err != nil || int32(v.Int()) != leafWant(int64(k), 12345, 678) {
					b.Fatalf("leaf%d = %v, %v", k, v, err)
				}
				insns += st.Insns
			}
			b.ReportMetric(float64(insns)/float64(b.N), "sim_insns/call")
		})
	}
}
