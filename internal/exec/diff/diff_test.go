package diff

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/regtest"
)

// enginePair is one target's two machines: identical except for the
// engine executing installed code.
type enginePair struct {
	sw, th *core.Machine
}

func newPair(t *testing.T, tg regtest.Target) enginePair {
	t.Helper()
	sw := tg.NewMachine()
	if err := sw.SetEngine(core.EngineSwitch); err != nil {
		t.Fatalf("%s: SetEngine(switch): %v", tg.Name, err)
	}
	th := tg.NewMachine()
	if th.Engine() != core.EngineThreaded {
		t.Fatalf("%s: threaded engine is not the default (got %s)", tg.Name, th.Engine())
	}
	return enginePair{sw: sw, th: th}
}

// run builds the program twice (once per machine — a *Func belongs to
// one machine once installed) and holds the two calls to each other.  It
// returns the error both calls ended with.
func (p enginePair) run(t *testing.T, name string, build func() (*core.Func, error),
	opts core.CallOpts, checkMem bool, args ...core.Value) error {
	t.Helper()
	f1, err := build()
	if err != nil {
		t.Fatalf("%s: build: %v", name, err)
	}
	f2, err := build()
	if err != nil {
		t.Fatalf("%s: rebuild: %v", name, err)
	}
	return p.call(t, name, f1, f2, opts, checkMem, args...)
}

// call calls f1 on the switch machine and f2, the same program, on the
// threaded one with the same arguments, and requires identical results,
// error text, per-call cycle/instruction/fuel deltas, and full
// architectural CPU state.  With checkMem it also requires byte-identical
// simulated memories.  It returns the error both calls ended with.
func (p enginePair) call(t *testing.T, name string, f1, f2 *core.Func,
	opts core.CallOpts, checkMem bool, args ...core.Value) error {
	t.Helper()
	// Never cancelled, but cancelable: PollStride slices the threaded
	// engine's dispatch windows only under a context that can end.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	v1, st1, err1 := p.sw.CallWithStats(ctx, opts, f1, args...)
	v2, st2, err2 := p.th.CallWithStats(ctx, opts, f2, args...)
	if d := ErrDiff(err1, err2); d != "" {
		t.Fatalf("%s: %s", name, d)
	}
	if err1 == nil && v1 != v2 {
		t.Fatalf("%s: result: switch=%+v threaded=%+v", name, v1, v2)
	}
	if st1 != st2 {
		t.Fatalf("%s: stats: switch=%+v threaded=%+v", name, st1, st2)
	}
	if d := StateDiff(p.sw.CPU(), p.th.CPU()); d != "" {
		t.Fatalf("%s: state diverged:\n%s", name, d)
	}
	if checkMem {
		m1, _ := p.sw.Mem().Bytes(0, int(p.sw.Mem().Size()))
		m2, _ := p.th.Mem().Bytes(0, int(p.th.Mem().Size()))
		if !bytes.Equal(m1, m2) {
			t.Fatalf("%s: simulated memories diverged", name)
		}
	}
	return err1
}

// TestDifferentialEngines sweeps the regtest program generators — the
// full op × type matrix, conversions, memory round-trips and
// calling-convention stress — over all three targets, requiring the
// threaded engine to match the fetch/switch oracle bit for bit.
func TestDifferentialEngines(t *testing.T) {
	memTypes := []core.Type{
		core.TypeC, core.TypeUC, core.TypeS, core.TypeUS,
		core.TypeI, core.TypeU, core.TypeL, core.TypeUL,
		core.TypeP, core.TypeF, core.TypeD,
	}
	allTypes := []core.Type{
		core.TypeI, core.TypeU, core.TypeL, core.TypeUL,
		core.TypeP, core.TypeF, core.TypeD,
	}
	for _, tg := range regtest.Targets() {
		tg := tg
		t.Run(tg.Name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(42))
			p := newPair(t, tg)
			bk := tg.Backend
			pb := bk.PtrBytes()

			for _, op := range regtest.BinaryOps() {
				for _, ty := range regtest.ALUTypes(op) {
					xs := regtest.Samples(ty, 4, rng)
					ys := regtest.Samples(ty, 4, rng)
					name := regtest.CaseName(tg.Name, op, ty)
					for i := 0; i < 2; i++ {
						x := regtest.MakeValue(ty, xs[i], pb)
						y := regtest.MakeValue(ty, ys[len(ys)-1-i], pb)
						p.run(t, fmt.Sprintf("%s#%d", name, i), func() (*core.Func, error) {
							return regtest.BuildALU(bk, op, ty)
						}, core.CallOpts{}, false, x, y)
					}
					// Division by zero routes through the trap helpers
					// (an external control transfer out of the body).
					if op == core.OpDiv || op == core.OpMod {
						if !ty.IsFloat() {
							x := regtest.MakeValue(ty, xs[0], pb)
							p.run(t, name+"#zero", func() (*core.Func, error) {
								return regtest.BuildALU(bk, op, ty)
							}, core.CallOpts{}, false, x, regtest.MakeValue(ty, 0, pb))
						}
					}
					if !ty.IsFloat() {
						imm := int64(int8(xs[2]))
						if (op == core.OpLsh || op == core.OpRsh) && imm < 0 {
							imm = -imm % int64(regtest.WordBits(ty, pb))
						}
						if (op == core.OpDiv || op == core.OpMod) && imm == 0 {
							imm = 3
						}
						x := regtest.MakeValue(ty, xs[3], pb)
						p.run(t, name+"#imm", func() (*core.Func, error) {
							return regtest.BuildALUImm(bk, op, ty, imm)
						}, core.CallOpts{}, false, x)
					}
				}
			}

			for _, op := range regtest.BranchOps() {
				for _, ty := range allTypes {
					xs := regtest.Samples(ty, 2, rng)
					name := regtest.CaseName(tg.Name, op, ty)
					x := regtest.MakeValue(ty, xs[0], pb)
					y := regtest.MakeValue(ty, xs[1], pb)
					p.run(t, name, func() (*core.Func, error) {
						return regtest.BuildBranch(bk, op, ty)
					}, core.CallOpts{}, false, x, y)
					p.run(t, name+"#eq", func() (*core.Func, error) {
						return regtest.BuildBranch(bk, op, ty)
					}, core.CallOpts{}, false, x, x)
				}
			}

			for _, op := range []core.Op{core.OpMov, core.OpCom, core.OpNot, core.OpNeg} {
				for _, ty := range allTypes {
					if ty.IsFloat() && op != core.OpMov && op != core.OpNeg {
						continue
					}
					if ty == core.TypeP && op != core.OpMov {
						continue
					}
					if _, err := regtest.BuildUnary(bk, op, ty); err != nil {
						continue // op × type combination outside the core set
					}
					xs := regtest.Samples(ty, 1, rng)
					p.run(t, regtest.CaseName(tg.Name, op, ty), func() (*core.Func, error) {
						return regtest.BuildUnary(bk, op, ty)
					}, core.CallOpts{}, false, regtest.MakeValue(ty, xs[0], pb))
				}
			}

			for _, from := range allTypes {
				for _, to := range allTypes {
					if from == to {
						continue
					}
					if _, err := regtest.BuildCvt(bk, from, to); err != nil {
						continue // unsupported conversion on this target
					}
					xs := regtest.Samples(from, 1, rng)
					name := fmt.Sprintf("%s/cvt%s2%s", tg.Name, from.Letter(), to.Letter())
					p.run(t, name, func() (*core.Func, error) {
						return regtest.BuildCvt(bk, from, to)
					}, core.CallOpts{}, false, regtest.MakeValue(from, xs[0], pb))
				}
			}

			ptr1, err := p.sw.Alloc(64)
			if err != nil {
				t.Fatal(err)
			}
			ptr2, err := p.th.Alloc(64)
			if err != nil {
				t.Fatal(err)
			}
			if ptr1 != ptr2 {
				t.Fatalf("heap layouts diverged: %#x vs %#x", ptr1, ptr2)
			}
			for _, ty := range memTypes {
				at := regtest.ArgTypeFor(ty)
				xs := regtest.Samples(at, 1, rng)
				pv := core.P(ptr1)
				x := regtest.MakeValue(at, xs[0], pb)
				p.run(t, fmt.Sprintf("%s/mem%s", tg.Name, ty.Letter()), func() (*core.Func, error) {
					return regtest.BuildMemRoundtrip(bk, ty)
				}, core.CallOpts{}, true, pv, x)
				off := core.P(8)
				off.T = core.TypeP
				p.run(t, fmt.Sprintf("%s/memrr%s", tg.Name, ty.Letter()), func() (*core.Func, error) {
					return regtest.BuildMemRoundtripRR(bk, ty)
				}, core.CallOpts{}, true, pv, off, x)
			}

			params := []core.Type{core.TypeI, core.TypeF, core.TypeD, core.TypeU, core.TypeL}
			sumArgs := make([]core.Value, len(params))
			for i, ty := range params {
				sumArgs[i] = regtest.MakeValue(ty, regtest.Samples(ty, 1, rng)[0], pb)
			}
			p.run(t, tg.Name+"/weightedsum", func() (*core.Func, error) {
				return regtest.BuildWeightedSum(bk, params)
			}, core.CallOpts{}, true, sumArgs...)
		})
	}
}

// buildLoop generates fn(n) { acc = 0; while n > 0 { acc += n; n-- };
// return acc } — backward branches keep control inside one predecoded
// body, the hot path the threaded engine exists for.
func buildLoop(bk core.Backend) (*core.Func, error) {
	a := core.NewAsm(bk)
	a.SetName("countdown")
	args, err := a.BeginTypes([]core.Type{core.TypeI}, core.Leaf)
	if err != nil {
		return nil, err
	}
	acc, err := a.GetReg(core.Temp)
	if err != nil {
		return nil, err
	}
	a.SetI(core.TypeI, acc, 0)
	top, done := a.NewLabel(), a.NewLabel()
	a.Bind(top)
	a.BrI(core.OpBle, core.TypeI, args[0], 0, done)
	a.ALU(core.OpAdd, core.TypeI, acc, acc, args[0])
	a.ALUI(core.OpSub, core.TypeI, args[0], args[0], 1)
	a.Jmp(top)
	a.Bind(done)
	a.Ret(core.TypeI, acc)
	return a.End()
}

// TestDifferentialLoops runs a tight loop under both engines and
// requires identical results and state, including under per-call fuel
// limits that can expire at every instruction boundary — on the
// delay-slot targets that includes mid-branch-pair, exercising the
// threaded engine's materialized-delay exit path.
func TestDifferentialLoops(t *testing.T) {
	for _, tg := range regtest.Targets() {
		tg := tg
		t.Run(tg.Name, func(t *testing.T) {
			p := newPair(t, tg)
			build := func() (*core.Func, error) { return buildLoop(tg.Backend) }

			p.run(t, "loop50", build, core.CallOpts{}, false, core.I(50))
			p.run(t, "loop0", build, core.CallOpts{}, false, core.I(0))

			// Fuel sweep: every exit point in the loop body.
			for fuel := uint64(1); fuel <= 64; fuel++ {
				p.run(t, fmt.Sprintf("fuel%d", fuel), build,
					core.CallOpts{Fuel: fuel}, false, core.I(1000))
			}
			// A tiny poll stride forces the threaded engine to slice its
			// dispatch windows without changing architectural results.
			p.run(t, "stride1", build,
				core.CallOpts{PollStride: 1}, false, core.I(200))
		})
	}
}

// TestDifferentialRotatingCallers keeps eight functions resident on both
// machines and calls them round-robin, the way a packet-filter set or a
// server shard is driven: every call enters a different function than the
// last, so the threaded engine's single-entry body cache always misses and
// each function is entered through what the machine remembered of it at
// install.  Rounds alternate unlimited calls with fuel budgets that expire
// inside the callee, so the remembered entry is also taken on calls that
// end in an error — whose text, fuel and cycles must match too.
func TestDifferentialRotatingCallers(t *testing.T) {
	for _, tg := range regtest.Targets() {
		tg := tg
		t.Run(tg.Name, func(t *testing.T) {
			p := newPair(t, tg)
			bk := tg.Backend
			type resident struct {
				name string
				fs   [2]*core.Func // on p.sw, on p.th
				args []core.Value
			}
			var fns []resident
			add := func(name string, build func() (*core.Func, error), args ...core.Value) {
				t.Helper()
				r := resident{name: name, args: args}
				for i, m := range []*core.Machine{p.sw, p.th} {
					fn, err := build()
					if err == nil {
						err = m.Install(fn)
					}
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					r.fs[i] = fn
				}
				fns = append(fns, r)
			}
			for i, op := range []core.Op{core.OpAdd, core.OpSub, core.OpXor, core.OpMul} {
				op, imm := op, int64(3+i)
				add(fmt.Sprintf("alu%d", i), func() (*core.Func, error) {
					return regtest.BuildALUImm(bk, op, core.TypeI, imm)
				}, core.I(int32(1000+i)))
			}
			add("loop9", func() (*core.Func, error) { return buildLoop(bk) }, core.I(9))
			add("loop40", func() (*core.Func, error) { return buildLoop(bk) }, core.I(40))
			add("branch", func() (*core.Func, error) {
				return regtest.BuildBranch(bk, core.OpBlt, core.TypeI)
			}, core.I(-5), core.I(7))
			add("div", func() (*core.Func, error) {
				return regtest.BuildALU(bk, core.OpDiv, core.TypeI) // a trap helper where there is no divide
			}, core.I(91), core.I(7))
			if len(fns) != 8 {
				t.Fatalf("%d resident functions, want 8", len(fns))
			}

			for round := 0; round < 12; round++ {
				opts := core.CallOpts{}
				if round%2 == 1 {
					opts.Fuel = uint64(2 + 3*round) // 5..35 steps: runs out inside the loops
				}
				for _, r := range fns {
					p.call(t, fmt.Sprintf("round %d fuel %d: %s", round, opts.Fuel, r.name),
						r.fs[0], r.fs[1], opts, false, r.args...)
				}
			}
		})
	}
}

// TestDifferentialProbes verifies that the PC-sampling and
// edge-profiling countdown probes observe the identical event streams
// under both engines.
func TestDifferentialProbes(t *testing.T) {
	for _, tg := range regtest.Targets() {
		tg := tg
		t.Run(tg.Name, func(t *testing.T) {
			p := newPair(t, tg)

			type edge struct {
				pc    uint64
				taken bool
			}
			var samples [2][]uint64
			var edges [2][]edge
			for i, m := range []*core.Machine{p.sw, p.th} {
				i := i
				if err := m.SetSampler(func(pc uint64) { samples[i] = append(samples[i], pc) }, 7); err != nil {
					t.Fatal(err)
				}
				if err := m.SetEdgeProbe(func(pc uint64, taken bool) { edges[i] = append(edges[i], edge{pc, taken}) }, 3); err != nil {
					t.Fatal(err)
				}
			}
			build := func() (*core.Func, error) { return buildLoop(tg.Backend) }
			p.run(t, "probed-loop", build, core.CallOpts{}, false, core.I(100))

			if len(samples[0]) == 0 {
				t.Fatal("sampler never fired on the switch engine")
			}
			if len(edges[0]) == 0 {
				t.Fatal("edge probe never fired on the switch engine")
			}
			if fmt.Sprint(samples[0]) != fmt.Sprint(samples[1]) {
				t.Fatalf("sample streams diverged:\nswitch:   %v\nthreaded: %v", samples[0], samples[1])
			}
			if fmt.Sprint(edges[0]) != fmt.Sprint(edges[1]) {
				t.Fatalf("edge streams diverged:\nswitch:   %v\nthreaded: %v", edges[0], edges[1])
			}
		})
	}
}
