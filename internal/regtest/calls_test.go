package regtest

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
)

// BuildForwarder generates a caller that receives params, forwards them
// all to callee via StartCall/SetArg (exercising outgoing stack
// arguments), and returns the callee's result.
func BuildForwarder(bk core.Backend, params []core.Type, callee *core.Func) (*core.Func, error) {
	a := core.NewAsm(bk)
	a.SetName("forwarder")
	args, err := a.BeginTypes(params, core.NonLeaf)
	if err != nil {
		return nil, err
	}
	// Move incoming values into persistent registers first: the
	// outgoing SetArg moves would otherwise overwrite incoming argument
	// registers that later arguments still need.
	saved := make([]core.Reg, len(args))
	for i, t := range params {
		var r core.Reg
		if t.IsFloat() {
			r, err = a.GetFReg(core.Var)
		} else {
			r, err = a.GetReg(core.Var)
		}
		if err != nil {
			return nil, err
		}
		a.Unary(core.OpMov, t, r, args[i])
		saved[i] = r
	}
	sig := ""
	for _, t := range params {
		sig += "%" + t.Letter()
	}
	a.StartCall(sig)
	for i, r := range saved {
		a.SetArg(i, r)
	}
	a.CallFunc(callee)
	res, err := a.GetFReg(core.Temp)
	if err != nil {
		return nil, err
	}
	a.RetVal(core.TypeD, res)
	a.Retd(res)
	return a.End()
}

// TestGeneratedCallerStackArgs exercises generated calls with up to 10
// arguments — several of which travel on the stack on every target — by
// forwarding through a generated caller into the weighted-sum callee.
func TestGeneratedCallerStackArgs(t *testing.T) {
	sigTypes := []core.Type{core.TypeI, core.TypeU, core.TypeL, core.TypeD, core.TypeF, core.TypeP}
	for _, tg := range Targets() {
		tg := tg
		t.Run(tg.Name, func(t *testing.T) {
			m := tg.NewMachine()
			ptr := tg.Backend.PtrBytes()
			rng := rand.New(rand.NewSource(21))
			for arity := 1; arity <= 10; arity++ {
				for trial := 0; trial < 3; trial++ {
					params := make([]core.Type, arity)
					for i := range params {
						params[i] = sigTypes[rng.Intn(len(sigTypes))]
					}
					callee, err := BuildWeightedSum(tg.Backend, params)
					if err != nil {
						t.Fatalf("%v: callee: %v", params, err)
					}
					fwd, err := BuildForwarder(tg.Backend, params, callee)
					if err != nil {
						// Register pressure at high arity is a legal
						// failure mode; require success at low arity.
						if arity <= 6 {
							t.Fatalf("%v: forwarder: %v", params, err)
						}
						continue
					}
					args := make([]core.Value, arity)
					for i, ty := range params {
						switch ty {
						case core.TypeD:
							args[i] = core.D(float64(rng.Intn(1000)))
						case core.TypeF:
							args[i] = core.F(float32(rng.Intn(1000)))
						case core.TypeP:
							args[i] = core.P(uint64(rng.Intn(1 << 16)))
						default:
							args[i] = MakeValue(ty, uint64(int64(rng.Intn(1<<16))), ptr)
						}
					}
					want := RefWeightedSum(params, args, ptr)
					got, err := m.Call(fwd, args...)
					if err != nil {
						t.Fatalf("%v: %v", params, err)
					}
					if math.Abs(got.Float64()-want) > 1e-9 {
						t.Errorf("%s forward %v = %v, want %v", tg.Name, params, got.Float64(), want)
					}
				}
			}
		})
	}
}

// TestBranchRangeError pins the reach of a forward branch on every port
// (the latent-bug class the paper calls out: "constants that don't fit in
// immediate fields").  BrI is followed by padding up to its label: at the
// farthest label the port's displacement field reaches, End succeeds and
// the branch lands on the label; one word farther, or farther still, End
// fails with ErrBranchRange.
func TestBranchRangeError(t *testing.T) {
	// reach is the displacement field's largest value in words; from is
	// where the port counts it from, in words after the end of what BrI
	// emitted (mips: the delay slot, sparc: the branch, alpha: the
	// updated pc); far is another padding outside the field.
	ports := map[string]struct{ reach, from, far int }{
		"mips":  {1<<15 - 1, -1, 40000},
		"sparc": {1<<21 - 1, -2, 1<<21 + 10},
		"alpha": {1<<20 - 1, 0, 1 << 20},
	}
	for _, tg := range Targets() {
		p := ports[tg.Name]
		t.Run(tg.Name, func(t *testing.T) {
			inside := p.reach + p.from
			fn, end, err := buildFarBranch(tg.Backend, inside)
			if err != nil {
				t.Fatalf("padding %d, inside the field: %v", inside, err)
			}
			m := tg.NewMachine()
			if got, want := landing(t, m, fn, end), 4*uint64(end+inside-fn.Entry); got != want {
				t.Errorf("padding %d: the branch lands at +%#x, its label is at +%#x", inside, got, want)
			}
			if len(fn.Words) <= 1<<16 { // small enough to install and run whole
				for x, want := range map[int32]int32{0: 42, 1: 1} {
					if got, err := m.Call(fn, core.I(x)); err != nil || got.Int() != int64(want) {
						t.Errorf("padding %d: f(%d) = %v, %v; want %d", inside, x, got, err, want)
					}
				}
			}
			for _, n := range []int{inside + 1, p.far} {
				if _, _, err := buildFarBranch(tg.Backend, n); !errors.Is(err, core.ErrBranchRange) {
					t.Errorf("padding %d: End = %v, want ErrBranchRange", n, err)
				}
			}
		})
	}
}

// buildFarBranch builds f(x) = x == 0 ? 42 : x with the branch to 42 taken
// over padding nops: the label sits pad words after end, the end of what
// BrI emitted.
func buildFarBranch(bk core.Backend, pad int) (fn *core.Func, end int, err error) {
	a := core.NewAsm(bk)
	args, err := a.BeginTypes([]core.Type{core.TypeI}, core.Leaf)
	if err != nil {
		return nil, 0, err
	}
	far := a.NewLabel()
	a.BrI(core.OpBeq, core.TypeI, args[0], 0, far)
	end = a.Buf().Len()
	a.Reti(args[0])
	for a.Buf().Len() < end+pad {
		a.Nop()
	}
	a.Bind(far)
	a.SetI(core.TypeI, args[0], 42)
	a.Reti(args[0])
	fn, err = a.End()
	return fn, end, err
}

// landing runs fn's words up to end — its entry through BrI — on m's
// switch-engine CPU with x = 0 (the rest of fn is not in memory) and
// returns where the taken branch lands, as an offset from the entry.
func landing(t *testing.T, m *core.Machine, fn *core.Func, end int) uint64 {
	const base = 0x1000
	for i, w := range fn.Words[fn.Entry:end] {
		if err := m.Mem().Store(base+4*uint64(i), 4, uint64(w)); err != nil {
			t.Fatal(err)
		}
	}
	cpu := m.CPU()
	cpu.SetReg(m.Backend().DefaultConv().IntArgs[0], 0)
	cpu.SetPC(base)
	for steps := 0; cpu.PC() >= base && cpu.PC() < base+4*uint64(end-fn.Entry); steps++ {
		if err := cpu.Step(); err != nil || steps > 16 {
			t.Fatalf("stepping to the branch: %v after %d steps", err, steps)
		}
	}
	return cpu.PC() - base
}

// TestFrameRangeError: an incoming stack argument whose offset in the
// finished frame does not fit the port's load displacement fails End with
// ErrFrameRange, the same sentinel on every port.  The leaf takes ten int
// parameters, so some arrive on the stack, and its long locals push the
// frame past the field: mips at 9,000 locals, sparc and alpha at 5,000.
func TestFrameRangeError(t *testing.T) {
	locals := map[string]int{"mips": 9000, "sparc": 5000, "alpha": 5000}
	for _, tg := range Targets() {
		t.Run(tg.Name, func(t *testing.T) {
			a := core.NewAsm(tg.Backend)
			params := make([]core.Type, 10)
			for i := range params {
				params[i] = core.TypeI
			}
			args, err := a.BeginTypes(params, core.Leaf)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < locals[tg.Name]; i++ {
				a.Local(core.TypeL)
			}
			a.Reti(args[9])
			if _, err := a.End(); !errors.Is(err, core.ErrFrameRange) {
				t.Errorf("End = %v, want ErrFrameRange", err)
			}
		})
	}
}

// TestPoolDeduplication checks identical float constants share one pool
// entry and distinct ones do not collide.
func TestPoolDeduplication(t *testing.T) {
	tg := Targets()[0]
	a := core.NewAsm(tg.Backend)
	_, err := a.BeginTypes(nil, core.Leaf)
	if err != nil {
		t.Fatal(err)
	}
	f, err := a.GetFReg(core.Temp)
	if err != nil {
		t.Fatal(err)
	}
	a.Setd(f, 3.25)
	lenOne := -1
	a.Setd(f, 3.25) // duplicate: no new pool entry
	a.Setd(f, -3.25)
	a.Retd(f)
	fn, err := a.End()
	if err != nil {
		t.Fatal(err)
	}
	_ = lenOne
	// Pool entries are 2 words each: expect exactly 2 distinct doubles.
	poolRelocs := 0
	for _, r := range fn.Relocs {
		if r.Target == fn {
			poolRelocs++
		}
	}
	if poolRelocs != 3 {
		t.Errorf("pool references = %d, want 3", poolRelocs)
	}
	addends := map[int64]bool{}
	for _, r := range fn.Relocs {
		if r.Target == fn {
			addends[r.Addend] = true
		}
	}
	if len(addends) != 2 {
		t.Errorf("distinct pool entries = %d, want 2", len(addends))
	}
	// And the values execute correctly.
	got, err := tg.NewMachine().Call(fn)
	if err != nil {
		t.Fatal(err)
	}
	if got.Float64() != -3.25 {
		t.Errorf("got %v", got.Float64())
	}
}

// TestFloatSpecialValues pushes infinities, tiny and negative-zero
// constants through the pool and back.
func TestFloatSpecialValues(t *testing.T) {
	for _, tg := range Targets() {
		tg := tg
		t.Run(tg.Name, func(t *testing.T) {
			m := tg.NewMachine()
			for _, val := range []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), 5e-324, 1e308} {
				a := core.NewAsm(tg.Backend)
				if _, err := a.BeginTypes(nil, core.Leaf); err != nil {
					t.Fatal(err)
				}
				f, err := a.GetFReg(core.Temp)
				if err != nil {
					t.Fatal(err)
				}
				a.Setd(f, val)
				a.Retd(f)
				fn, err := a.End()
				if err != nil {
					t.Fatal(err)
				}
				got, err := m.Call(fn)
				if err != nil {
					t.Fatal(err)
				}
				if math.Float64bits(got.Float64()) != math.Float64bits(val) {
					t.Errorf("Setd(%v) returned %v", val, got.Float64())
				}
			}
		})
	}
}
