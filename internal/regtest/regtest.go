// Package regtest is VCODE's retargeting aid (paper §3.3): it
// automatically generates regression tests for errors in instruction
// mappings and calling conventions.  For every target it builds
// one-instruction functions over the full op × type matrix, runs them on
// the target's simulator with deterministic pseudo-random operands, and
// compares the results against Go reference semantics.  The paper notes
// that mis-mapped instructions were the most common VCODE bug and that
// exactly this kind of generated test catches them; the same held while
// porting this reproduction.
package regtest

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/alpha"
	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/mips"
	"repro/internal/sparc"
)

// Target bundles a backend with a fresh machine for it.
type Target struct {
	Name       string
	Backend    core.Backend
	NewMachine func() *core.Machine
}

// Targets returns all three ports.
func Targets() []Target {
	return []Target{
		{
			Name:    "mips",
			Backend: mips.New(),
			NewMachine: func() *core.Machine {
				m := mem.New(1<<24, false)
				return core.NewMachine(mips.New(), mips.NewCPU(m), m)
			},
		},
		{
			Name:    "sparc",
			Backend: sparc.New(),
			NewMachine: func() *core.Machine {
				m := mem.New(1<<24, true)
				return core.NewMachine(sparc.New(), sparc.NewCPU(m), m)
			},
		},
		{
			Name:    "alpha",
			Backend: alpha.New(),
			NewMachine: func() *core.Machine {
				m := mem.New(1<<24, false)
				return core.NewMachine(alpha.New(), alpha.NewCPU(m), m)
			},
		},
	}
}

// WordBits returns the width of type t on a target with ptrBytes words.
// Shift counts are only defined for values in [0, WordBits).
func WordBits(t core.Type, ptrBytes int) int { return wordBits(t, ptrBytes) }

// wordBits returns the width of type t on a target with ptrBytes words.
func wordBits(t core.Type, ptrBytes int) int {
	switch t {
	case core.TypeI, core.TypeU:
		return 32
	case core.TypeL, core.TypeUL, core.TypeP:
		return 8 * ptrBytes
	}
	return 64
}

// MakeValue wraps raw bits as a canonical Value of type t for a target.
func MakeValue(t core.Type, bits uint64, ptrBytes int) core.Value {
	switch t {
	case core.TypeI:
		return core.I(int32(bits))
	case core.TypeU:
		return core.U(uint32(bits))
	case core.TypeL:
		if ptrBytes == 4 {
			return core.L(int64(int32(bits)))
		}
		return core.L(int64(bits))
	case core.TypeUL, core.TypeP:
		if ptrBytes == 4 {
			bits = uint64(uint32(bits))
		}
		v := core.UL(bits)
		v.T = t
		return v
	case core.TypeF:
		return core.F(math.Float32frombits(uint32(bits)))
	case core.TypeD:
		return core.D(math.Float64frombits(bits))
	}
	return core.Value{T: t, Bits: bits}
}

// Samples returns interesting operand bit patterns for a type, always
// including boundary values plus deterministic random fill.
func Samples(t core.Type, n int, rng *rand.Rand) []uint64 {
	var out []uint64
	switch t {
	case core.TypeF:
		for _, f := range []float32{0, 1, -1, 0.5, -2.25, 1e10, -1e-10, 3.14159} {
			out = append(out, uint64(math.Float32bits(f)))
		}
		for len(out) < n {
			out = append(out, uint64(math.Float32bits(rng.Float32()*2000-1000)))
		}
	case core.TypeD:
		for _, f := range []float64{0, 1, -1, 0.5, -2.25, 1e100, -1e-100, 2.718281828} {
			out = append(out, math.Float64bits(f))
		}
		for len(out) < n {
			out = append(out, math.Float64bits(rng.Float64()*2e6-1e6))
		}
	default:
		out = append(out, 0, 1, ^uint64(0), 0x7fffffff, 0x80000000, 0xffff, 0x10000,
			0x7fffffffffffffff, 0x8000000000000000, 0x1234567890abcdef)
		for len(out) < n {
			out = append(out, rng.Uint64())
		}
	}
	return out
}

// RefALU computes the Go reference result of a binary op, or ok=false when
// the case is skipped (division edge cases where architectures disagree).
func RefALU(op core.Op, t core.Type, ptrBytes int, x, y core.Value) (core.Value, bool) {
	if t.IsFloat() {
		if t == core.TypeF {
			a, b := x.Float32(), y.Float32()
			var r float32
			switch op {
			case core.OpAdd:
				r = a + b
			case core.OpSub:
				r = a - b
			case core.OpMul:
				r = a * b
			case core.OpDiv:
				if b == 0 {
					return core.Value{}, false
				}
				r = a / b
			default:
				return core.Value{}, false
			}
			return core.F(r), true
		}
		a, b := x.Float64(), y.Float64()
		var r float64
		switch op {
		case core.OpAdd:
			r = a + b
		case core.OpSub:
			r = a - b
		case core.OpMul:
			r = a * b
		case core.OpDiv:
			if b == 0 {
				return core.Value{}, false
			}
			r = a / b
		default:
			return core.Value{}, false
		}
		return core.D(r), true
	}

	bits := wordBits(t, ptrBytes)
	signed := t.IsSigned()
	shiftMask := uint64(bits - 1)

	if signed {
		a, b := int64(x.Bits), int64(y.Bits)
		if bits == 32 {
			a, b = int64(int32(a)), int64(int32(b))
		}
		var r int64
		switch op {
		case core.OpAdd:
			r = a + b
		case core.OpSub:
			r = a - b
		case core.OpMul:
			r = a * b
		case core.OpDiv, core.OpMod:
			if b == 0 || (b == -1 && ((bits == 32 && a == math.MinInt32) || (bits == 64 && a == math.MinInt64))) {
				return core.Value{}, false
			}
			if op == core.OpDiv {
				r = a / b
			} else {
				r = a % b
			}
		case core.OpAnd:
			r = a & b
		case core.OpOr:
			r = a | b
		case core.OpXor:
			r = a ^ b
		case core.OpLsh:
			r = a << (uint64(b) & shiftMask)
		case core.OpRsh:
			r = a >> (uint64(b) & shiftMask)
		default:
			return core.Value{}, false
		}
		return MakeValue(t, uint64(r), ptrBytes), true
	}

	a, b := x.Bits, y.Bits
	if bits == 32 {
		a, b = uint64(uint32(a)), uint64(uint32(b))
	}
	var r uint64
	switch op {
	case core.OpAdd:
		r = a + b
	case core.OpSub:
		r = a - b
	case core.OpMul:
		r = a * b
	case core.OpDiv, core.OpMod:
		if b == 0 {
			return core.Value{}, false
		}
		if op == core.OpDiv {
			r = a / b
		} else {
			r = a % b
		}
	case core.OpAnd:
		r = a & b
	case core.OpOr:
		r = a | b
	case core.OpXor:
		r = a ^ b
	case core.OpLsh:
		r = a << (b & shiftMask)
	case core.OpRsh:
		r = a >> (b & shiftMask)
	default:
		return core.Value{}, false
	}
	return MakeValue(t, r, ptrBytes), true
}

// RefBranch computes the Go reference of a comparison.
func RefBranch(op core.Op, t core.Type, ptrBytes int, x, y core.Value) bool {
	cmp := 0
	switch {
	case t.IsFloat():
		var a, b float64
		if t == core.TypeF {
			a, b = float64(x.Float32()), float64(y.Float32())
		} else {
			a, b = x.Float64(), y.Float64()
		}
		switch {
		case a < b:
			cmp = -1
		case a > b:
			cmp = 1
		}
	case t.IsSigned():
		a, b := int64(x.Bits), int64(y.Bits)
		if wordBits(t, ptrBytes) == 32 {
			a, b = int64(int32(a)), int64(int32(b))
		}
		switch {
		case a < b:
			cmp = -1
		case a > b:
			cmp = 1
		}
	default:
		a, b := x.Bits, y.Bits
		if wordBits(t, ptrBytes) == 32 {
			a, b = uint64(uint32(a)), uint64(uint32(b))
		}
		switch {
		case a < b:
			cmp = -1
		case a > b:
			cmp = 1
		}
	}
	switch op {
	case core.OpBlt:
		return cmp < 0
	case core.OpBle:
		return cmp <= 0
	case core.OpBgt:
		return cmp > 0
	case core.OpBge:
		return cmp >= 0
	case core.OpBeq:
		return cmp == 0
	case core.OpBne:
		return cmp != 0
	}
	return false
}

// RefUnary computes the Go reference of a unary op.
func RefUnary(op core.Op, t core.Type, ptrBytes int, x core.Value) (core.Value, bool) {
	if t.IsFloat() {
		switch op {
		case core.OpMov:
			return x, true
		case core.OpNeg:
			if t == core.TypeF {
				return core.F(-x.Float32()), true
			}
			return core.D(-x.Float64()), true
		}
		return core.Value{}, false
	}
	bits := wordBits(t, ptrBytes)
	a := x.Bits
	if bits == 32 {
		a = uint64(uint32(a))
	}
	switch op {
	case core.OpMov:
		return MakeValue(t, a, ptrBytes), true
	case core.OpCom:
		return MakeValue(t, ^a, ptrBytes), true
	case core.OpNot:
		if a == 0 {
			return MakeValue(t, 1, ptrBytes), true
		}
		return MakeValue(t, 0, ptrBytes), true
	case core.OpNeg:
		return MakeValue(t, -a, ptrBytes), true
	}
	return core.Value{}, false
}

// RefCvt computes the Go reference of a conversion.
func RefCvt(from, to core.Type, ptrBytes int, x core.Value) (core.Value, bool) {
	// Source as a wide value.
	var sf float64
	var si int64
	var su uint64
	switch {
	case from == core.TypeF:
		sf = float64(x.Float32())
	case from == core.TypeD:
		sf = x.Float64()
	case from.IsSigned():
		si = int64(x.Bits)
		if wordBits(from, ptrBytes) == 32 {
			si = int64(int32(si))
		}
		sf = float64(si)
		su = uint64(si)
	default:
		su = x.Bits
		if wordBits(from, ptrBytes) == 32 {
			su = uint64(uint32(su))
			sf = float64(su)
		} else {
			// Mirror the synthesized conversion (signed convert plus a
			// 2^64 bias when negative) so rounding agrees bit-for-bit.
			sf = float64(int64(su))
			if int64(su) < 0 {
				sf += 18446744073709551616.0
			}
		}
		si = int64(su)
	}
	isFloatSrc := from.IsFloat()

	switch {
	case to == core.TypeF:
		return core.F(float32(sf)), true
	case to == core.TypeD:
		return core.D(sf), true
	case isFloatSrc:
		// Truncating float->signed-int; skip out-of-range.
		lim := float64(int64(1) << (wordBits(to, ptrBytes) - 1))
		if sf != sf || sf >= lim || sf <= -lim {
			return core.Value{}, false
		}
		return MakeValue(to, uint64(int64(sf)), ptrBytes), true
	case from.IsSigned():
		return MakeValue(to, uint64(si), ptrBytes), true
	default:
		return MakeValue(to, su, ptrBytes), true
	}
}

// CaseName renders a readable id like "mips/addi" for failures.
func CaseName(target string, op core.Op, t core.Type) string {
	return fmt.Sprintf("%s/%s%s", target, op, t.Letter())
}

// ALUTypes lists the legal types for a binary op (core's Table 2).
func ALUTypes(op core.Op) []core.Type {
	if !op.IsBinary() {
		return nil
	}
	return op.Types()
}

// BinaryOps lists the binary operations of the core set.
func BinaryOps() []core.Op { return opsWhere(core.Op.IsBinary) }

// BranchOps lists the conditional branches.
func BranchOps() []core.Op { return opsWhere(core.Op.IsBranch) }

func opsWhere(is func(core.Op) bool) []core.Op {
	var ops []core.Op
	for op := core.Op(0); op < core.NumOps; op++ {
		if is(op) {
			ops = append(ops, op)
		}
	}
	return ops
}
