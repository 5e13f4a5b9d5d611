package diff

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/regtest"
)

// This file holds the two loop bodies the dispatch paths are tested and
// timed on — one that is almost all straight-line run, one that has no
// run to speak of — and what is done with them: the differential sweeps
// of the run path, the share of a call that retires inside runs, and
// BenchmarkLoopDispatch.

// runLoop says where buildRunLoop puts the access that can fault.
type runLoop struct {
	faultAt int  // its position in the long run; -1 for no such access
	store   bool // it is a store, not a load
}

// faultStep, as buildRunLoop's step argument, walks q out of the 16 MB the
// regtest machines have on every target.
const faultStep = 0x70000000

// buildRunLoop generates fn(p, n, step), a loop of n trips over the 32
// bytes at p.  Its body opens with one long run of plain instructions that
// holds what the run path decides differently from the per-instruction
// one:
//
//   - its first instruction reads x, which the back edge loads — in the
//     branch's delay slot where there is one — while its array predecessor
//     is not a load: the bubble a run's entry works out at run time;
//   - a load whose consumer is the next instruction: a predecoded bubble;
//   - at faultAt, a load or store through q, which step moves every trip
//     (0 keeps it on the buffer; faultStep makes the second trip fault
//     there, with top entered by a branch, so faultAt is the position in
//     the run);
//   - its last instruction loads what the branch that ends it reads: a
//     bubble the run hands on to the per-instruction path;
//
// and closes with a load that odd trips branch over, so its consumer is a
// branch target whose predecoded bubble only the even trips pay.
func buildRunLoop(bk core.Backend, rl runLoop) (*core.Func, error) {
	a := core.NewAsm(bk)
	a.SetName("runloop")
	args, err := a.BeginTypes([]core.Type{core.TypeP, core.TypeI, core.TypeP}, core.Leaf)
	if err != nil {
		return nil, err
	}
	p, n, step := args[0], args[1], args[2]
	var r [5]core.Reg
	for i := range r {
		if r[i], err = a.GetReg(core.Temp); err != nil {
			return nil, err
		}
	}
	acc, x, y, t, q := r[0], r[1], r[2], r[3], r[4]
	const I = core.TypeI
	run := []func(){
		func() { a.ALU(core.OpAdd, I, acc, acc, x) },
		func() { a.LdI(I, y, p, 4) },
		func() { a.ALU(core.OpXor, I, acc, acc, y) },
		func() { a.ALUI(core.OpLsh, I, t, acc, 3) },
		func() { a.ALU(core.OpAdd, I, acc, acc, t) },
		func() { a.StI(I, acc, p, 16) },
		func() { a.ALUI(core.OpRsh, I, t, acc, 2) },
		func() { a.ALU(core.OpSub, I, acc, acc, t) },
		func() { a.LdI(I, y, p, 8) },
		func() { a.ALUI(core.OpOr, I, t, t, 1) },
		func() { a.ALU(core.OpAdd, I, acc, acc, y) },
	}

	a.LdI(I, x, p, 0)
	a.SetI(I, acc, 0)
	a.Unary(core.OpMov, core.TypeP, q, p)
	top, skip := a.NewLabel(), a.NewLabel()
	a.Bind(top)
	for i := 0; i <= len(run); i++ {
		if i == rl.faultAt {
			if rl.store {
				a.StI(I, acc, q, 24)
			} else {
				a.LdI(I, t, q, 20)
			}
		}
		if i < len(run) {
			run[i]()
		}
	}
	a.ALUI(core.OpAnd, I, t, n, 1)
	a.StI(I, t, p, 28)
	a.LdI(I, t, p, 28)
	a.BrI(core.OpBne, I, t, 0, skip)
	a.LdI(I, y, p, 12)
	a.Bind(skip)
	a.ALU(core.OpAdd, I, acc, acc, y)
	a.ALU(core.OpAdd, core.TypeP, q, q, step)
	a.ALUI(core.OpSub, I, n, n, 1)
	a.ScheduleDelay(
		func() { a.BrI(core.OpBgt, I, n, 0, top) },
		func() { a.LdI(I, x, p, 0) })
	a.Ret(I, acc)
	return a.End()
}

// runLoopLen is how many positions buildRunLoop's long run has for the
// faulting access: before each of its instructions, and after the last.
const runLoopLen = 12

// buildBranchyLoop generates fn(n), a loop of n trips whose body is nine
// transfers, each over one instruction and taken on every trip, and the
// loop branch: whatever plain instruction executes is a compare, a delay
// slot or the decrement, alone between two transfers, so the run path
// never has two instructions to execute.
func buildBranchyLoop(bk core.Backend) (*core.Func, error) {
	a := core.NewAsm(bk)
	a.SetName("branchy")
	args, err := a.BeginTypes([]core.Type{core.TypeI}, core.Leaf)
	if err != nil {
		return nil, err
	}
	n := args[0]
	const I = core.TypeI
	top := a.NewLabel()
	a.Bind(top)
	for i := 0; i < 9; i++ {
		next := a.NewLabel()
		switch {
		case i == 8:
			// A jump needs no compare, so the decrement is alone too.
			a.ALUI(core.OpSub, I, n, n, 1)
			a.Jmp(next)
		case i%2 == 0:
			a.BrI(core.OpBgt, I, n, 0, next)
		default:
			a.Br(core.OpBeq, I, n, n, next)
		}
		a.ALUI(core.OpAdd, I, n, n, 1) // branched over
		a.Bind(next)
	}
	a.BrI(core.OpBgt, I, n, 0, top)
	a.Ret(I, n)
	return a.End()
}

// TestDifferentialRuns holds the run path to the switch engine where the
// two decide differently: the budget ending at every position of every
// run, dispatch windows of every length up to a run's, a sampler whose
// probes land inside runs, and a load and a store faulting at every
// position of the long run.  State, error text, cycles, retired
// instructions and sample streams must be identical.
func TestDifferentialRuns(t *testing.T) {
	for _, tg := range regtest.Targets() {
		tg := tg
		t.Run(tg.Name, func(t *testing.T) {
			p := newPair(t, tg)
			var buf uint64
			for _, m := range []*core.Machine{p.sw, p.th} {
				a, err := m.Alloc(32)
				if err != nil {
					t.Fatal(err)
				}
				if buf != 0 && a != buf {
					t.Fatalf("heap layouts diverged: %#x vs %#x", buf, a)
				}
				buf = a
				for i := uint64(0); i < 8; i++ {
					if err := m.Mem().Store(buf+4*i, 4, 0x01010101*(i+3)); err != nil {
						t.Fatal(err)
					}
				}
			}
			build := func(rl runLoop) func() (*core.Func, error) {
				return func() (*core.Func, error) { return buildRunLoop(tg.Backend, rl) }
			}
			stay := []core.Value{core.P(buf), core.I(3), core.P(0)}

			// Three trips retire fewer than 150 instructions on every
			// target: the budget ends everywhere, including never.
			for fuel := uint64(1); fuel <= 150; fuel++ {
				p.run(t, fmt.Sprintf("fuel%d", fuel), build(runLoop{faultAt: -1}),
					core.CallOpts{Fuel: fuel}, true, stay...)
			}
			for stride := uint64(1); stride <= 16; stride++ {
				p.run(t, fmt.Sprintf("stride%d", stride), build(runLoop{faultAt: -1}),
					core.CallOpts{PollStride: stride}, true, stay...)
			}

			for at := 0; at < runLoopLen; at++ {
				for _, store := range []bool{false, true} {
					name := fmt.Sprintf("fault at %d (store %v)", at, store)
					rl := runLoop{faultAt: at, store: store}
					if err := p.run(t, name+", not taken", build(rl), core.CallOpts{}, true, stay...); err != nil {
						t.Fatalf("%s: the access faults on the buffer: %v", name, err)
					}
					err := p.run(t, name, build(rl), core.CallOpts{}, true,
						core.P(buf), core.I(3), core.P(faultStep))
					if err == nil || !strings.Contains(err.Error(), "out of range") {
						t.Fatalf("%s: the call ended with %v, want the access to fault off the buffer", name, err)
					}
					p.run(t, name+", window 5", build(rl), core.CallOpts{PollStride: 5}, true,
						core.P(buf), core.I(3), core.P(faultStep))
				}
			}

			for _, stride := range []uint64{1, 2, 3, 5, 7, 11} {
				var samples [2][]uint64
				for i, m := range []*core.Machine{p.sw, p.th} {
					i := i
					if err := m.SetSampler(func(pc uint64) { samples[i] = append(samples[i], pc) }, stride); err != nil {
						t.Fatal(err)
					}
				}
				name := fmt.Sprintf("sampler%d", stride)
				p.run(t, name, build(runLoop{faultAt: 4}), core.CallOpts{}, true,
					core.P(buf), core.I(4), core.P(0))
				p.run(t, name+", faulting", build(runLoop{faultAt: 4}), core.CallOpts{Fuel: 90}, true,
					core.P(buf), core.I(4), core.P(faultStep))
				if len(samples[0]) == 0 || fmt.Sprint(samples[0]) != fmt.Sprint(samples[1]) {
					t.Fatalf("%s: sample streams diverged (or are empty):\nswitch:   %x\nthreaded: %x",
						name, samples[0], samples[1])
				}
			}
			for _, m := range []*core.Machine{p.sw, p.th} {
				if err := m.SetSampler(nil, 0); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

// TestCallCyclesIgnorePreviousCall: what a call costs is a function of its
// code and arguments, not of the call the machine ran before it.  g is
// stopped by its fuel right after it loads into the register f reads
// first; f must then cost what it costs on a fresh machine.  Before SetPC
// cleared the load-use interlock, f paid g's bubble on MIPS and Alpha.
func TestCallCyclesIgnorePreviousCall(t *testing.T) {
	for _, tg := range regtest.Targets() {
		for _, engine := range []core.Engine{core.EngineSwitch, core.EngineThreaded} {
			name := fmt.Sprintf("%s/%s", tg.Name, engine)
			bk := tg.Backend
			cycles := func(afterG bool) uint64 {
				m := tg.NewMachine()
				if err := m.SetEngine(engine); err != nil {
					t.Fatal(err)
				}
				if afterG {
					buf, err := m.Alloc(8)
					if err != nil {
						t.Fatal(err)
					}
					a := core.NewAsm(bk)
					a.SetName("g")
					args, err := a.BeginTypes([]core.Type{core.TypeP}, core.Leaf)
					if err != nil {
						t.Fatal(err)
					}
					a.LdI(core.TypeI, args[0], args[0], 0)
					a.Ret(core.TypeI, args[0])
					g, err := a.End()
					if err != nil {
						t.Fatal(err)
					}
					_, st, err := m.CallWithStats(context.Background(), core.CallOpts{Fuel: 1}, g, core.P(buf))
					if !errors.Is(err, core.ErrFuelExhausted) || st.Insns != 1 {
						t.Fatalf("%s: g retired %d instructions and ended with %v; want the load alone, then fuel exhaustion",
							name, st.Insns, err)
					}
				}
				f, err := regtest.BuildALUImm(bk, core.OpAdd, core.TypeI, 3)
				if err != nil {
					t.Fatal(err)
				}
				v, st, err := m.CallWithStats(context.Background(), core.CallOpts{}, f, core.I(39))
				if err != nil || v.Int() != 42 {
					t.Fatalf("%s: f(39) = %d, %v", name, v.Int(), err)
				}
				return st.Cycles
			}
			if fresh, after := cycles(false), cycles(true); fresh != after {
				t.Errorf("%s: f costs %d cycles on a fresh machine and %d after g", name, fresh, after)
			}
		}
	}
}

// predecode returns the threaded body of fn as installed on m.
func predecode(t testing.TB, m *core.Machine, fn *core.Func) *exec.Body {
	t.Helper()
	if err := m.Install(fn); err != nil {
		t.Fatal(err)
	}
	for _, s := range m.FuncSpans() {
		if s.Name == fn.Name {
			return m.CPU().(core.ThreadedCPU).Predecode(fn.Words, s.Start)
		}
	}
	t.Fatalf("%s is not resident", fn.Name)
	return nil
}

// runShare builds a function, calls it on the switch engine with a
// sampler at stride 1, and replays the program counters it saw against the
// function's predecoded body the way RunBody would walk them.  It returns
// how many instructions retired, how many of those the run path would
// execute in runs of two or more, and the longest run in the body.  args
// is given a 32-byte buffer on the machine.  No engine counts this; the
// hot loops stay free of the counter.
func runShare(t testing.TB, tg regtest.Target, build func() (*core.Func, error),
	args func(buf uint64) []core.Value) (total, inRuns, longest int) {
	t.Helper()
	fn, err := build()
	if err != nil {
		t.Fatal(err)
	}
	m := tg.NewMachine()
	if err := m.SetEngine(core.EngineSwitch); err != nil {
		t.Fatal(err)
	}
	buf, err := m.Alloc(32)
	if err != nil {
		t.Fatal(err)
	}
	body := predecode(t, m, fn)
	for _, in := range body.Code {
		if int(in.Run) > longest {
			longest = int(in.Run)
		}
	}
	var pcs []uint64
	if err := m.SetSampler(func(pc uint64) { pcs = append(pcs, pc) }, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Call(fn, args(buf)...); err != nil {
		t.Fatal(err)
	}
	// A taken transfer's successor executes on the per-instruction path
	// where it is a delay slot.
	hasDelay := tg.Backend.BranchDelaySlots() > 0
	for i := 0; i < len(pcs); {
		if !body.Contains(pcs[i]) {
			i++ // a trap's return stub, or a callee: not this body's
			continue
		}
		in := &body.Code[body.IndexOf(pcs[i])]
		switch {
		case in.Run >= 2:
			inRuns += int(in.Run)
			i += int(in.Run)
		case in.Run == 0 && hasDelay && (i+2 >= len(pcs) || pcs[i+2] != in.PC+8):
			i += 2 // a taken transfer and its delay slot
		default:
			i++
		}
	}
	return len(pcs), inRuns, longest
}

// TestRunShare pins the two bodies to what their names say: most of the
// long-run loop retires inside runs of two or more, next to none of the
// branch-dense one does.
func TestRunShare(t *testing.T) {
	for _, tg := range regtest.Targets() {
		bk := tg.Backend
		total, in, longest := runShare(t, tg,
			func() (*core.Func, error) { return buildRunLoop(bk, runLoop{faultAt: -1}) },
			func(buf uint64) []core.Value { return []core.Value{core.P(buf), core.I(100), core.P(0)} })
		t.Logf("%s long-run loop: %d of %d retired instructions in runs of 2 or more (%.1f%%), longest run %d",
			tg.Name, in, total, 100*float64(in)/float64(total), longest)
		if longest < 8 || in*10 < total*7 {
			t.Errorf("%s: the long-run loop should have a run of 8 or more and retire mostly inside runs", tg.Name)
		}

		total, in, _ = runShare(t, tg,
			func() (*core.Func, error) { return buildBranchyLoop(bk) },
			func(uint64) []core.Value { return []core.Value{core.I(100)} })
		t.Logf("%s branch-dense loop: %d of %d retired instructions in runs of 2 or more", tg.Name, in, total)
		if in*50 > total {
			t.Errorf("%s: the branch-dense loop should retire next to nothing inside runs of 2 or more", tg.Name)
		}
	}
}

// BenchmarkLoopDispatch times the threaded engine per simulated
// instruction on each backend, on the long-run loop (the run path) and on
// the branch-dense one (the per-instruction path on its own).  The
// repository's benchmark (go run ./bench, workload loop_long) is what a
// performance claim is judged by; this is the number to watch while
// working on RunBody.
func BenchmarkLoopDispatch(b *testing.B) {
	for _, tg := range regtest.Targets() {
		m := tg.NewMachine()
		buf, err := m.Alloc(32)
		if err != nil {
			b.Fatal(err)
		}
		long, err := buildRunLoop(tg.Backend, runLoop{faultAt: -1})
		if err != nil {
			b.Fatal(err)
		}
		branchy, err := buildBranchyLoop(tg.Backend)
		if err != nil {
			b.Fatal(err)
		}
		for _, bc := range []struct {
			name string
			fn   *core.Func
			args []core.Value
		}{
			{"long-run", long, []core.Value{core.P(buf), core.I(2000), core.P(0)}},
			{"branch-dense", branchy, []core.Value{core.I(2000)}},
		} {
			b.Run(fmt.Sprintf("%s/%s", tg.Name, bc.name), func(b *testing.B) {
				ctx := context.Background()
				_, st, err := m.CallWithStats(ctx, core.CallOpts{}, bc.fn, bc.args...)
				if err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, _, err := m.CallWithStats(ctx, core.CallOpts{}, bc.fn, bc.args...); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(st.Insns), "ns/sim-insn")
				b.ReportMetric(float64(st.Insns), "sim-insns/op")
			})
		}
	}
}
