package regtest

import (
	"cmp"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/core"
)

// TestGeneratedALU runs the full binary-op matrix on every target with
// deterministic random operands against the Go reference.
func TestGeneratedALU(t *testing.T) {
	for _, tg := range Targets() {
		tg := tg
		t.Run(tg.Name, func(t *testing.T) {
			m := tg.NewMachine()
			ptr := tg.Backend.PtrBytes()
			rng := rand.New(rand.NewSource(1))
			for _, op := range BinaryOps() {
				for _, ty := range ALUTypes(op) {
					fn, err := BuildALU(tg.Backend, op, ty)
					if err != nil {
						t.Fatalf("%s: build: %v", CaseName(tg.Name, op, ty), err)
					}
					xs := Samples(ty, 12, rng)
					ys := Samples(ty, 12, rng)
					for _, xb := range xs {
						for _, yb := range ys {
							x := MakeValue(ty, xb, ptr)
							y := MakeValue(ty, yb, ptr)
							if (op == core.OpLsh || op == core.OpRsh) && !ty.IsFloat() {
								y = MakeValue(ty, yb%uint64(WordBits(ty, ptr)), ptr)
							}
							want, ok := RefALU(op, ty, ptr, x, y)
							if !ok {
								continue
							}
							got, err := m.Call(fn, x, y)
							if err != nil {
								t.Fatalf("%s(%v,%v): %v", CaseName(tg.Name, op, ty), x, y, err)
							}
							if got.Bits != want.Bits {
								t.Errorf("%s(%v,%v) = %v, want %v",
									CaseName(tg.Name, op, ty), x, y, got, want)
							}
						}
					}
				}
			}
		})
	}
}

// TestGeneratedALUImm runs the immediate forms across boundary immediates
// (the class of bug the paper calls out: constants that don't fit in
// immediate fields).
func TestGeneratedALUImm(t *testing.T) {
	imms := []int64{0, 1, -1, 7, 255, 256, 4095, 4096, 32767, 32768, -32768, -32769,
		0x12345, 0x7fffffff, -0x80000000}
	for _, tg := range Targets() {
		tg := tg
		t.Run(tg.Name, func(t *testing.T) {
			m := tg.NewMachine()
			ptr := tg.Backend.PtrBytes()
			rng := rand.New(rand.NewSource(2))
			for _, op := range BinaryOps() {
				for _, ty := range ALUTypes(op) {
					if ty.IsFloat() {
						continue
					}
					for _, imm := range imms {
						useImm := imm
						if op == core.OpLsh || op == core.OpRsh {
							w := int64(WordBits(ty, ptr))
							useImm = (imm%w + w) % w
						}
						fn, err := BuildALUImm(tg.Backend, op, ty, useImm)
						if err != nil {
							t.Fatalf("%s imm=%d: build: %v", CaseName(tg.Name, op, ty), useImm, err)
						}
						for _, xb := range Samples(ty, 6, rng) {
							x := MakeValue(ty, xb, ptr)
							y := MakeValue(ty, uint64(useImm), ptr)
							want, ok := RefALU(op, ty, ptr, x, y)
							if !ok {
								continue
							}
							got, err := m.Call(fn, x)
							if err != nil {
								t.Fatalf("%s(%v) imm=%d: %v", CaseName(tg.Name, op, ty), x, useImm, err)
							}
							if got.Bits != want.Bits {
								t.Errorf("%s(%v, imm %d) = %v, want %v",
									CaseName(tg.Name, op, ty), x, useImm, got, want)
							}
						}
					}
				}
			}
		})
	}
}

// TestGeneratedUnary covers com/not/mov/neg.
func TestGeneratedUnary(t *testing.T) {
	for _, tg := range Targets() {
		tg := tg
		t.Run(tg.Name, func(t *testing.T) {
			m := tg.NewMachine()
			ptr := tg.Backend.PtrBytes()
			rng := rand.New(rand.NewSource(3))
			for op := core.OpCom; op <= core.OpNeg; op++ {
				for _, ty := range op.Types() {
					fn, err := BuildUnary(tg.Backend, op, ty)
					if err != nil {
						t.Fatalf("%s: build: %v", CaseName(tg.Name, op, ty), err)
					}
					for _, xb := range Samples(ty, 10, rng) {
						x := MakeValue(ty, xb, ptr)
						want, ok := RefUnary(op, ty, ptr, x)
						if !ok {
							continue
						}
						got, err := m.Call(fn, x)
						if err != nil {
							t.Fatalf("%s(%v): %v", CaseName(tg.Name, op, ty), x, err)
						}
						if got.Bits != want.Bits {
							t.Errorf("%s(%v) = %v, want %v", CaseName(tg.Name, op, ty), x, got, want)
						}
					}
				}
			}
		})
	}
}

// TestGeneratedBranches covers all six branches over all types, register
// and immediate forms.
func TestGeneratedBranches(t *testing.T) {
	for _, tg := range Targets() {
		tg := tg
		t.Run(tg.Name, func(t *testing.T) {
			m := tg.NewMachine()
			ptr := tg.Backend.PtrBytes()
			rng := rand.New(rand.NewSource(4))
			for _, op := range BranchOps() {
				for _, ty := range op.Types() {
					fn, err := BuildBranch(tg.Backend, op, ty)
					if err != nil {
						t.Fatalf("%s: build: %v", CaseName(tg.Name, op, ty), err)
					}
					xs := Samples(ty, 8, rng)
					for _, xb := range xs {
						for _, yb := range xs {
							x, y := MakeValue(ty, xb, ptr), MakeValue(ty, yb, ptr)
							want := int64(0)
							if RefBranch(op, ty, ptr, x, y) {
								want = 1
							}
							got, err := m.Call(fn, x, y)
							if err != nil {
								t.Fatalf("%s(%v,%v): %v", CaseName(tg.Name, op, ty), x, y, err)
							}
							if got.Int() != want {
								t.Errorf("%s(%v,%v) = %d, want %d", CaseName(tg.Name, op, ty), x, y, got.Int(), want)
							}
						}
					}
				}
			}
			// Immediate forms over integer types and boundary immediates.
			for _, op := range BranchOps() {
				for _, ty := range op.Types() {
					if ty.IsFloat() {
						continue
					}
					for _, imm := range []int64{0, 1, -1, 255, 4095, 32767, 65536} {
						fn, err := BuildBranchImm(tg.Backend, op, ty, imm)
						if err != nil {
							t.Fatalf("%si imm=%d: build: %v", CaseName(tg.Name, op, ty), imm, err)
						}
						for _, xb := range Samples(ty, 6, rng) {
							x := MakeValue(ty, xb, ptr)
							y := MakeValue(ty, uint64(imm), ptr)
							want := int64(0)
							if RefBranch(op, ty, ptr, x, y) {
								want = 1
							}
							got, err := m.Call(fn, x)
							if err != nil {
								t.Fatalf("%si(%v, %d): %v", CaseName(tg.Name, op, ty), x, imm, err)
							}
							if got.Int() != want {
								t.Errorf("%si(%v, imm %d) = %d, want %d",
									CaseName(tg.Name, op, ty), x, imm, got.Int(), want)
							}
						}
					}
				}
			}
		})
	}
}

// TestImmediatesPast32Bits: a 32-bit type's immediate is its low 32 bits
// on every port, through the field that holds it and through the scratch
// register it is set into otherwise, where a 64-bit port must hold it
// sign-extended like every 32-bit value.  BrI and ALUI against Go's int32
// and uint32 answers, at immediates with bit 31 set and past 32 bits.
func TestImmediatesPast32Bits(t *testing.T) {
	xs := []uint32{0, 1, 0x7fffffff, 0x80000000, 0xfffffffe, 0xffffffff}
	for _, tg := range Targets() {
		m, ptr := tg.NewMachine(), tg.Backend.PtrBytes()
		for _, ty := range []core.Type{core.TypeI, core.TypeU} {
			for _, imm := range []int64{0x80000000, 0xfffffffe, 0xffffffff, 1 << 40} {
				y := uint32(imm)
				for _, op := range []core.Op{core.OpBeq, core.OpBlt, core.OpBgt, core.OpBge} {
					fn, err := BuildBranchImm(tg.Backend, op, ty, imm)
					if err != nil {
						t.Fatalf("%si imm %#x: build: %v", CaseName(tg.Name, op, ty), imm, err)
					}
					for _, x := range xs {
						c := cmp.Compare(x, y)
						if ty.IsSigned() {
							c = cmp.Compare(int32(x), int32(y))
						}
						want := map[core.Op]bool{core.OpBeq: c == 0, core.OpBlt: c < 0, core.OpBgt: c > 0, core.OpBge: c >= 0}[op]
						got, err := m.Call(fn, MakeValue(ty, uint64(x), ptr))
						if err != nil || (got.Int() == 1) != want {
							t.Errorf("%si(%#x, imm %#x) = %v (%v), want %v", CaseName(tg.Name, op, ty), x, imm, got.Int(), err, want)
						}
					}
				}
				for _, op := range []core.Op{core.OpAnd, core.OpOr, core.OpXor} {
					fn, err := BuildALUImm(tg.Backend, op, ty, imm)
					if err != nil {
						t.Fatalf("%si imm %#x: build: %v", CaseName(tg.Name, op, ty), imm, err)
					}
					for _, x := range xs {
						want := map[core.Op]uint32{core.OpAnd: x & y, core.OpOr: x | y, core.OpXor: x ^ y}[op]
						got, err := m.Call(fn, MakeValue(ty, uint64(x), ptr))
						if w := MakeValue(ty, uint64(want), ptr); err != nil || got.Bits != w.Bits {
							t.Errorf("%si(%#x, imm %#x) = %v (%v), want %v", CaseName(tg.Name, op, ty), x, imm, got, err, w)
						}
					}
				}
			}
		}
	}
}

// TestGeneratedCvt covers the conversion matrix: every pair core accepts.
func TestGeneratedCvt(t *testing.T) {
	var pairs []struct{ from, to core.Type }
	for from := core.TypeV; from < core.NumTypes; from++ {
		for _, to := range from.ConvertsTo() {
			pairs = append(pairs, struct{ from, to core.Type }{from, to})
		}
	}
	for _, tg := range Targets() {
		tg := tg
		t.Run(tg.Name, func(t *testing.T) {
			m := tg.NewMachine()
			ptr := tg.Backend.PtrBytes()
			rng := rand.New(rand.NewSource(5))
			for _, p := range pairs {
				fn, err := BuildCvt(tg.Backend, p.from, p.to)
				if err != nil {
					t.Fatalf("%s/cv%s2%s: build: %v", tg.Name, p.from.Letter(), p.to.Letter(), err)
				}
				for _, xb := range Samples(p.from, 10, rng) {
					x := MakeValue(p.from, xb, ptr)
					want, ok := RefCvt(p.from, p.to, ptr, x)
					if !ok {
						continue
					}
					got, err := m.Call(fn, x)
					if err != nil {
						t.Fatalf("%s/cv%s2%s(%v): %v", tg.Name, p.from.Letter(), p.to.Letter(), x, err)
					}
					if got.Bits != want.Bits {
						t.Errorf("%s/cv%s2%s(%v) = %v, want %v",
							tg.Name, p.from.Letter(), p.to.Letter(), x, got, want)
					}
				}
			}
		})
	}
}

// TestGeneratedMem round-trips every memory type, including the
// synthesized byte/halfword sequences on Alpha.
func TestGeneratedMem(t *testing.T) {
	for _, tg := range Targets() {
		tg := tg
		t.Run(tg.Name, func(t *testing.T) {
			m := tg.NewMachine()
			ptr := tg.Backend.PtrBytes()
			rng := rand.New(rand.NewSource(6))
			addr, err := m.Alloc(64)
			if err != nil {
				t.Fatal(err)
			}
			for _, ty := range core.OpLd.Types() {
				fn, err := BuildMemRoundtrip(tg.Backend, ty)
				if err != nil {
					t.Fatalf("%s/mem%s: build: %v", tg.Name, ty.Letter(), err)
				}
				fnRR, err := BuildMemRoundtripRR(tg.Backend, ty)
				if err != nil {
					t.Fatalf("%s/memrr%s: build: %v", tg.Name, ty.Letter(), err)
				}
				at := ArgTypeFor(ty)
				for _, xb := range Samples(at, 8, rng) {
					x := MakeValue(at, xb, ptr)
					want := RefMemRoundtrip(ty, x, ptr)
					got, err := m.Call(fn, core.P(addr+8), x)
					if err != nil {
						t.Fatalf("%s/mem%s(%v): %v", tg.Name, ty.Letter(), x, err)
					}
					if got.Bits != want.Bits {
						t.Errorf("%s/mem%s(%v) = %v, want %v", tg.Name, ty.Letter(), x, got, want)
					}
					got, err = m.Call(fnRR, core.P(addr), core.P(16), x)
					if err != nil {
						t.Fatalf("%s/memrr%s(%v): %v", tg.Name, ty.Letter(), x, err)
					}
					if got.Bits != want.Bits {
						t.Errorf("%s/memrr%s(%v) = %v, want %v", tg.Name, ty.Letter(), x, got, want)
					}
				}
			}
		})
	}
}

// TestCallingConventions sweeps arities 1..8 over mixed signatures,
// exercising register arguments, stack overflow arguments and FP argument
// registers on every target (the second half of §3.3's generated tests).
func TestCallingConventions(t *testing.T) {
	sigTypes := []core.Type{core.TypeI, core.TypeU, core.TypeL, core.TypeD, core.TypeF, core.TypeP}
	for _, tg := range Targets() {
		tg := tg
		t.Run(tg.Name, func(t *testing.T) {
			m := tg.NewMachine()
			ptr := tg.Backend.PtrBytes()
			rng := rand.New(rand.NewSource(7))
			for arity := 1; arity <= 8; arity++ {
				for trial := 0; trial < 4; trial++ {
					params := make([]core.Type, arity)
					for i := range params {
						params[i] = sigTypes[rng.Intn(len(sigTypes))]
					}
					fn, err := BuildWeightedSum(tg.Backend, params)
					if err != nil {
						t.Fatalf("%s arity %d %v: build: %v", tg.Name, arity, params, err)
					}
					args := make([]core.Value, arity)
					for i, ty := range params {
						switch ty {
						case core.TypeD:
							args[i] = core.D(float64(rng.Intn(2000) - 1000))
						case core.TypeF:
							args[i] = core.F(float32(rng.Intn(2000) - 1000))
						case core.TypeP:
							args[i] = core.P(uint64(rng.Intn(1 << 20)))
						default:
							args[i] = MakeValue(ty, uint64(int64(rng.Intn(1<<20)-1<<19)), ptr)
						}
					}
					want := RefWeightedSum(params, args, ptr)
					got, err := m.Call(fn, args...)
					if err != nil {
						t.Fatalf("%s arity %d %v: %v", tg.Name, arity, params, err)
					}
					if math.Abs(got.Float64()-want) > 1e-9 {
						t.Errorf("%s weighted sum %v(%v) = %v, want %v",
							tg.Name, params, args, got.Float64(), want)
					}
				}
			}
		})
	}
}

// TestQuickAdd property-tests 32-bit addition end-to-end on each target
// with testing/quick.
func TestQuickAdd(t *testing.T) {
	for _, tg := range Targets() {
		tg := tg
		t.Run(tg.Name, func(t *testing.T) {
			m := tg.NewMachine()
			fn, err := BuildALU(tg.Backend, core.OpAdd, core.TypeI)
			if err != nil {
				t.Fatal(err)
			}
			f := func(x, y int32) bool {
				got, err := m.Call(fn, core.I(x), core.I(y))
				return err == nil && got.Int() == int64(x+y)
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestQuickMulDiv property-tests the multiply/divide/remainder identity
// x == (x/y)*y + x%y on each target.
func TestQuickMulDiv(t *testing.T) {
	for _, tg := range Targets() {
		tg := tg
		t.Run(tg.Name, func(t *testing.T) {
			m := tg.NewMachine()
			div, err := BuildALU(tg.Backend, core.OpDiv, core.TypeI)
			if err != nil {
				t.Fatal(err)
			}
			mod, err := BuildALU(tg.Backend, core.OpMod, core.TypeI)
			if err != nil {
				t.Fatal(err)
			}
			f := func(x, y int32) bool {
				if y == 0 || (x == math.MinInt32 && y == -1) {
					return true
				}
				q, err := m.Call(div, core.I(x), core.I(y))
				if err != nil {
					return false
				}
				r, err := m.Call(mod, core.I(x), core.I(y))
				if err != nil {
					return false
				}
				return int32(q.Int())*y+int32(r.Int()) == x
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
				t.Error(err)
			}
		})
	}
}
