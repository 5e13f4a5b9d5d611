package regtest

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/verify"
)

// CheckRows holds an encoder to its target's instruction table: it
// returns an error naming the first code word of fn that has no row
// (Classify calls exactly those illegal), i.e. a word the simulator
// would refuse to run.
func CheckRows(bk core.Backend, fn *core.Func) error {
	for i := fn.Entry; i < fn.PoolStart; i++ {
		if w := fn.Words[i]; bk.Classify(w, uint64(4*i)).Kind == verify.KindIllegal {
			return fmt.Errorf("%s/%s: word %d (%#08x) has no row in the instruction table", bk.Name(), fn.Name, i, w)
		}
	}
	return nil
}

// end finishes a generated function and checks it with CheckRows, so a
// mis-encoded instruction anywhere in the matrix is named when it is
// built, not by an install failure downstream.
func end(a *core.Asm) (*core.Func, error) {
	fn, err := a.End()
	if err != nil {
		return nil, err
	}
	return fn, CheckRows(a.Backend(), fn)
}

// BuildALU generates fn(x, y) { return x op y } for type t.
func BuildALU(bk core.Backend, op core.Op, t core.Type) (*core.Func, error) {
	return BuildALUOn(core.NewAsm(bk), op, t)
}

// BuildALUOn is BuildALU on a caller-supplied assembler, so clients that
// need build-time features configured on the Asm (recording, pooling) can
// reuse the matrix.
func BuildALUOn(a *core.Asm, op core.Op, t core.Type) (*core.Func, error) {
	a.SetName(fmt.Sprintf("%s%s", op, t.Letter()))
	args, err := a.BeginTypes([]core.Type{t, t}, core.Leaf)
	if err != nil {
		return nil, err
	}
	a.ALU(op, t, args[0], args[0], args[1])
	a.Ret(t, args[0])
	return end(a)
}

// BuildALUImm generates fn(x) { return x op imm }.
func BuildALUImm(bk core.Backend, op core.Op, t core.Type, imm int64) (*core.Func, error) {
	return BuildALUImmOn(core.NewAsm(bk), op, t, imm)
}

// BuildALUImmOn is BuildALUImm on a caller-supplied assembler.
func BuildALUImmOn(a *core.Asm, op core.Op, t core.Type, imm int64) (*core.Func, error) {
	a.SetName(fmt.Sprintf("%s%si", op, t.Letter()))
	args, err := a.BeginTypes([]core.Type{t}, core.Leaf)
	if err != nil {
		return nil, err
	}
	a.ALUI(op, t, args[0], args[0], imm)
	a.Ret(t, args[0])
	return end(a)
}

// BuildUnary generates fn(x) { return op x }.
func BuildUnary(bk core.Backend, op core.Op, t core.Type) (*core.Func, error) {
	return BuildUnaryOn(core.NewAsm(bk), op, t)
}

// BuildUnaryOn is BuildUnary on a caller-supplied assembler.
func BuildUnaryOn(a *core.Asm, op core.Op, t core.Type) (*core.Func, error) {
	a.SetName(fmt.Sprintf("%s%s", op, t.Letter()))
	args, err := a.BeginTypes([]core.Type{t}, core.Leaf)
	if err != nil {
		return nil, err
	}
	var rd core.Reg
	if t.IsFloat() {
		rd, err = a.GetFReg(core.Temp)
	} else {
		rd, err = a.GetReg(core.Temp)
	}
	if err != nil {
		return nil, err
	}
	a.Unary(op, t, rd, args[0])
	a.Ret(t, rd)
	return end(a)
}

// BuildBranch generates fn(x, y) { if x op y { return 1 } return 0 }.
func BuildBranch(bk core.Backend, op core.Op, t core.Type) (*core.Func, error) {
	return BuildBranchOn(core.NewAsm(bk), op, t)
}

// BuildBranchOn is BuildBranch on a caller-supplied assembler.
func BuildBranchOn(a *core.Asm, op core.Op, t core.Type) (*core.Func, error) {
	a.SetName(fmt.Sprintf("%s%s", op, t.Letter()))
	args, err := a.BeginTypes([]core.Type{t, t}, core.Leaf)
	if err != nil {
		return nil, err
	}
	r, err := a.GetReg(core.Temp)
	if err != nil {
		return nil, err
	}
	yes := a.NewLabel()
	a.Seti(r, 1)
	a.Br(op, t, args[0], args[1], yes)
	a.Seti(r, 0)
	a.Bind(yes)
	a.Reti(r)
	return end(a)
}

// BuildBranchImm generates fn(x) { if x op imm { return 1 } return 0 }.
func BuildBranchImm(bk core.Backend, op core.Op, t core.Type, imm int64) (*core.Func, error) {
	return BuildBranchImmOn(core.NewAsm(bk), op, t, imm)
}

// BuildBranchImmOn is BuildBranchImm on a caller-supplied assembler.
func BuildBranchImmOn(a *core.Asm, op core.Op, t core.Type, imm int64) (*core.Func, error) {
	a.SetName(fmt.Sprintf("%s%si", op, t.Letter()))
	args, err := a.BeginTypes([]core.Type{t}, core.Leaf)
	if err != nil {
		return nil, err
	}
	r, err := a.GetReg(core.Temp)
	if err != nil {
		return nil, err
	}
	yes := a.NewLabel()
	a.Seti(r, 1)
	a.BrI(op, t, args[0], imm, yes)
	a.Seti(r, 0)
	a.Bind(yes)
	a.Reti(r)
	return end(a)
}

// BuildCvt generates fn(x from) { return (to)x }.
func BuildCvt(bk core.Backend, from, to core.Type) (*core.Func, error) {
	return BuildCvtOn(core.NewAsm(bk), from, to)
}

// BuildCvtOn is BuildCvt on a caller-supplied assembler.
func BuildCvtOn(a *core.Asm, from, to core.Type) (*core.Func, error) {
	a.SetName(fmt.Sprintf("cv%s2%s", from.Letter(), to.Letter()))
	args, err := a.BeginTypes([]core.Type{from}, core.Leaf)
	if err != nil {
		return nil, err
	}
	var rd core.Reg
	if to.IsFloat() {
		rd, err = a.GetFReg(core.Temp)
	} else {
		rd, err = a.GetReg(core.Temp)
	}
	if err != nil {
		return nil, err
	}
	a.Cvt(from, to, rd, args[0])
	a.Ret(to, rd)
	return end(a)
}

// ArgTypeFor returns the register-width parameter type used to carry a
// (possibly sub-word) memory value of type t.
func ArgTypeFor(t core.Type) core.Type {
	switch t {
	case core.TypeC, core.TypeUC, core.TypeS, core.TypeUS:
		return core.TypeI
	default:
		return t
	}
}

// BuildMemRoundtrip generates fn(p, x) { *(t*)p = x; return *(t*)p },
// exercising every load/store type including the synthesized byte and
// halfword forms on Alpha.
func BuildMemRoundtrip(bk core.Backend, t core.Type) (*core.Func, error) {
	return BuildMemRoundtripOn(core.NewAsm(bk), t)
}

// BuildMemRoundtripOn is BuildMemRoundtrip on a caller-supplied assembler.
func BuildMemRoundtripOn(a *core.Asm, t core.Type) (*core.Func, error) {
	at := ArgTypeFor(t)
	a.SetName(fmt.Sprintf("mem%s", t.Letter()))
	args, err := a.BeginTypes([]core.Type{core.TypeP, at}, core.Leaf)
	if err != nil {
		return nil, err
	}
	a.StI(t, args[1], args[0], 0)
	a.LdI(t, args[1], args[0], 0)
	a.Ret(at, args[1])
	return end(a)
}

// BuildMemRoundtripRR is BuildMemRoundtrip with register-offset
// addressing (v_ld / v_st with a register offset): fn(p, off, x).
func BuildMemRoundtripRR(bk core.Backend, t core.Type) (*core.Func, error) {
	return BuildMemRoundtripRROn(core.NewAsm(bk), t)
}

// BuildMemRoundtripRROn is BuildMemRoundtripRR on a caller-supplied
// assembler.
func BuildMemRoundtripRROn(a *core.Asm, t core.Type) (*core.Func, error) {
	at := ArgTypeFor(t)
	a.SetName(fmt.Sprintf("memrr%s", t.Letter()))
	args, err := a.BeginTypes([]core.Type{core.TypeP, core.TypeP, at}, core.Leaf)
	if err != nil {
		return nil, err
	}
	a.St(t, args[2], args[0], args[1])
	a.Ld(t, args[2], args[0], args[1])
	a.Ret(at, args[2])
	return end(a)
}

// RefMemRoundtrip truncates and re-extends x through memory type t.
func RefMemRoundtrip(t core.Type, x core.Value, ptrBytes int) core.Value {
	switch t {
	case core.TypeC:
		return core.I(int32(int8(x.Bits)))
	case core.TypeUC:
		return core.I(int32(uint8(x.Bits)))
	case core.TypeS:
		return core.I(int32(int16(x.Bits)))
	case core.TypeUS:
		return core.I(int32(uint16(x.Bits)))
	default:
		return MakeValue(t, x.Bits, ptrBytes)
	}
}

// BuildWeightedSum generates fn(a0..ak) { return sum (i+1)*ai } computed
// in 64-bit-safe integer arithmetic for integer/pointer parameters and in
// double for FP parameters, exercising the calling convention (register
// and stack argument passing) for the given signature.
func BuildWeightedSum(bk core.Backend, params []core.Type) (*core.Func, error) {
	return BuildWeightedSumOn(core.NewAsm(bk), params)
}

// BuildWeightedSumOn is BuildWeightedSum on a caller-supplied assembler.
func BuildWeightedSumOn(a *core.Asm, params []core.Type) (*core.Func, error) {
	a.SetName(fmt.Sprintf("sum%d", len(params)))
	args, err := a.BeginTypes(params, core.Leaf)
	if err != nil {
		return nil, err
	}
	acc, err := a.GetFReg(core.Temp)
	if err != nil {
		return nil, err
	}
	tmp, err := a.GetFReg(core.Temp)
	if err != nil {
		return nil, err
	}
	wt, err := a.GetFReg(core.Temp)
	if err != nil {
		return nil, err
	}
	a.Setd(acc, 0)
	for i, t := range params {
		switch {
		case t == core.TypeD:
			a.Movd(tmp, args[i])
		case t == core.TypeF:
			a.Cvf2d(tmp, args[i])
		default:
			a.Cvt(t, core.TypeD, tmp, args[i])
		}
		a.Setd(wt, float64(i+1))
		a.Muld(tmp, tmp, wt)
		a.Addd(acc, acc, tmp)
	}
	a.Retd(acc)
	return end(a)
}

// RefWeightedSum mirrors BuildWeightedSum in Go.
func RefWeightedSum(params []core.Type, args []core.Value, ptrBytes int) float64 {
	var acc float64
	for i, t := range params {
		var v float64
		switch {
		case t == core.TypeD:
			v = args[i].Float64()
		case t == core.TypeF:
			v = float64(args[i].Float32())
		case t.IsSigned():
			x := int64(args[i].Bits)
			if wordBits(t, ptrBytes) == 32 {
				x = int64(int32(x))
			}
			v = float64(x)
		default:
			x := args[i].Bits
			if wordBits(t, ptrBytes) == 32 {
				x = uint64(uint32(x))
			}
			v = float64(x)
		}
		acc += float64(i+1) * v
	}
	return acc
}
