// Package jit demonstrates the paper's motivating use of dynamic code
// generation (§1, §2): an interpreter that strips its layer of
// interpretation by compiling bytecode to machine code at runtime.  The
// abstract's claim is that runtime information can "improve performance
// by up to an order of magnitude"; BenchmarkJIT* at the repository root
// measures our interpreter against its VCODE-compiled output under the
// same machine cost model.
//
// The bytecode is a small stack machine.  Because the operand-stack depth
// at every program point is statically determined, the JIT assigns each
// stack slot a VCODE register at compile time — the paper's central
// recipe: clients do the expensive reasoning (here: stack-to-register
// assignment) at their own "compile time", leaving VCODE the simple job
// of in-place instruction emission.
package jit

import (
	"fmt"
	"strings"

	"repro/internal/codecache"
	"repro/internal/core"
)

// Op is a bytecode opcode.
type Op byte

// The instruction set of the stack machine.
const (
	OpPushK    Op = iota // push consts[A]
	OpLoadArg            // push args[A]
	OpLoadVar            // push locals[A]
	OpStoreVar           // locals[A] = pop
	OpAdd                // push(pop2 + pop1)
	OpSub
	OpMul
	OpDiv
	OpMod
	OpNeg
	OpLt // comparisons push 0/1
	OpLe
	OpGt
	OpGe
	OpEq
	OpNe
	OpJmp // pc = A
	OpJz  // if pop == 0: pc = A
	OpRet // return pop
)

var opNames = [...]string{
	"pushk", "loadarg", "loadvar", "storevar",
	"add", "sub", "mul", "div", "mod", "neg",
	"lt", "le", "gt", "ge", "eq", "ne",
	"jmp", "jz", "ret",
}

func (o Op) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", byte(o))
}

// Insn is one bytecode instruction.
type Insn struct {
	Op Op
	A  int
}

// Func is a bytecode function.
type Func struct {
	Name   string
	NArgs  int
	NVars  int
	Consts []int32
	Code   []Insn
}

// CacheKey returns a content hash of everything that determines the
// compiled code — arity, locals, constants and bytecode, but not Name —
// so two functions with identical bodies share a code-cache entry.
func (f *Func) CacheKey() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "jit|%d|%d|%v|", f.NArgs, f.NVars, f.Consts)
	for _, in := range f.Code {
		fmt.Fprintf(&sb, "%d,%d;", in.Op, in.A)
	}
	return codecache.HashKey(sb.String())
}

// stackEffect returns pops and pushes for an opcode.
func stackEffect(o Op) (pops, pushes int) {
	switch o {
	case OpPushK, OpLoadArg, OpLoadVar:
		return 0, 1
	case OpStoreVar, OpJz, OpRet:
		return 1, 0
	case OpNeg:
		return 1, 1
	case OpJmp:
		return 0, 0
	default: // binary ops
		return 2, 1
	}
}

// Validate checks structural sanity and computes the stack depth at every
// instruction; conflicting depths at a join point are an error (the same
// property the JIT's register assignment relies on).  It returns the
// maximum operand-stack depth.
func (f *Func) Validate() (int, error) {
	_, max, err := f.validate()
	return max, err
}

// pcState is what validation learns, and compilation then keeps, about one
// instruction: the operand-stack depth on entry (-1 when no path reaches
// it) and, once the compiler has scanned for branch targets, the label
// bound there (noLabel when nothing jumps to it).
type pcState struct {
	depth int32
	label core.Label
}

// noLabel marks an instruction nothing jumps to.
const noLabel core.Label = -1

// validate is Validate, returning also the per-instruction table: the
// compiler resumes from its depths after an unconditional transfer.
func (f *Func) validate() (pcs []pcState, max int, err error) {
	v := validator{f: f, pcs: make([]pcState, len(f.Code))}
	for i := range v.pcs {
		v.pcs[i] = pcState{depth: -1, label: noLabel}
	}
	if err := v.walk(0, 0); err != nil {
		return nil, 0, err
	}
	return v.pcs, v.max, nil
}

type validator struct {
	f   *Func
	pcs []pcState
	max int
}

// walk follows the path entering pc at depth d until it returns or joins
// one already walked, taking the far side of each conditional first.
func (v *validator) walk(pc, d int) error {
	f := v.f
	for pc < len(f.Code) {
		if d > v.max {
			v.max = d
		}
		if seen := int(v.pcs[pc].depth); seen >= 0 {
			if seen != d {
				return fmt.Errorf("jit: %s: depth mismatch at pc %d (%d vs %d)", f.Name, pc, seen, d)
			}
			return nil
		}
		v.pcs[pc].depth = int32(d)
		in := f.Code[pc]
		pops, pushes := stackEffect(in.Op)
		if d < pops {
			return fmt.Errorf("jit: %s: stack underflow at pc %d", f.Name, pc)
		}
		d = d - pops + pushes
		switch in.Op {
		case OpPushK:
			if in.A < 0 || in.A >= len(f.Consts) {
				return fmt.Errorf("jit: %s: bad constant index at pc %d", f.Name, pc)
			}
		case OpLoadArg:
			if in.A < 0 || in.A >= f.NArgs {
				return fmt.Errorf("jit: %s: bad arg index at pc %d", f.Name, pc)
			}
		case OpLoadVar, OpStoreVar:
			if in.A < 0 || in.A >= f.NVars {
				return fmt.Errorf("jit: %s: bad var index at pc %d", f.Name, pc)
			}
		case OpJmp:
			if in.A < 0 || in.A >= len(f.Code) {
				return fmt.Errorf("jit: %s: bad jump target at pc %d", f.Name, pc)
			}
			pc = in.A
			continue
		case OpJz:
			if in.A < 0 || in.A >= len(f.Code) {
				return fmt.Errorf("jit: %s: bad branch target at pc %d", f.Name, pc)
			}
			if err := v.walk(in.A, d); err != nil {
				return err
			}
		case OpRet:
			return nil
		}
		pc++
	}
	return fmt.Errorf("jit: %s: fell off the end", f.Name)
}

// --- the interpreter being stripped ---

// Interpreter cost model (cycles per dynamic operation on the modelled
// DEC5000-class machine): a threaded interpreter pays fetch/decode/
// dispatch on every bytecode plus the operation itself.
const (
	jitDispatch = 7
	jitALUCost  = 1
	jitMulCost  = 12
	jitDivCost  = 35
	jitMemCost  = 2 // stack/local traffic
)

// Interp executes f directly, returning the result and the modelled
// cycle cost.
func Interp(f *Func, args ...int32) (int32, uint64, error) {
	r, cycles, _, err := InterpCounted(f, args...)
	return r, cycles, err
}

// InterpCounted is Interp, additionally counting loop backedges (control
// transfers to a lower-or-equal pc).  Backedges approximate basic-block
// heat: one call that spins a million-iteration loop reports a million
// backedges, which lets the adaptive JIT promote on block heat rather
// than call counts alone.
func InterpCounted(f *Func, args ...int32) (int32, uint64, int64, error) {
	if len(args) != f.NArgs {
		return 0, 0, 0, fmt.Errorf("jit: %s takes %d args", f.Name, f.NArgs)
	}
	var cycles uint64
	var backedges int64
	stack := make([]int32, 0, 16)
	vars := make([]int32, f.NVars)
	pop := func() int32 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		return v
	}
	pc := 0
	for steps := 0; ; steps++ {
		if steps > 1<<26 {
			return 0, cycles, backedges, fmt.Errorf("jit: %s: runaway", f.Name)
		}
		if pc < 0 || pc >= len(f.Code) {
			return 0, cycles, backedges, fmt.Errorf("jit: %s: pc out of range", f.Name)
		}
		in := f.Code[pc]
		cycles += jitDispatch
		switch in.Op {
		case OpPushK:
			stack = append(stack, f.Consts[in.A])
			cycles += jitMemCost
		case OpLoadArg:
			stack = append(stack, args[in.A])
			cycles += jitMemCost
		case OpLoadVar:
			stack = append(stack, vars[in.A])
			cycles += jitMemCost
		case OpStoreVar:
			vars[in.A] = pop()
			cycles += jitMemCost
		case OpNeg:
			stack[len(stack)-1] = -stack[len(stack)-1]
			cycles += jitALUCost
		case OpJmp:
			if in.A <= pc {
				backedges++
			}
			pc = in.A
			cycles += jitALUCost
			continue
		case OpJz:
			if pop() == 0 {
				if in.A <= pc {
					backedges++
				}
				pc = in.A
				cycles += jitALUCost
				continue
			}
			cycles += jitALUCost
		case OpRet:
			return pop(), cycles, backedges, nil
		default:
			b, a := pop(), pop()
			var r int32
			switch in.Op {
			case OpAdd:
				r = a + b
				cycles += jitALUCost
			case OpSub:
				r = a - b
				cycles += jitALUCost
			case OpMul:
				r = a * b
				cycles += jitMulCost
			case OpDiv:
				if b != 0 {
					if !(a == -2147483648 && b == -1) {
						r = a / b
					} else {
						r = a
					}
				}
				cycles += jitDivCost
			case OpMod:
				if b != 0 && !(a == -2147483648 && b == -1) {
					r = a % b
				}
				cycles += jitDivCost
			case OpLt:
				r = b2i(a < b)
				cycles += jitALUCost
			case OpLe:
				r = b2i(a <= b)
				cycles += jitALUCost
			case OpGt:
				r = b2i(a > b)
				cycles += jitALUCost
			case OpGe:
				r = b2i(a >= b)
				cycles += jitALUCost
			case OpEq:
				r = b2i(a == b)
				cycles += jitALUCost
			case OpNe:
				r = b2i(a != b)
				cycles += jitALUCost
			default:
				return 0, cycles, backedges, fmt.Errorf("jit: %s: bad opcode %v at pc %d", f.Name, in.Op, pc)
			}
			stack = append(stack, r)
		}
		pc++
	}
}

func b2i(b bool) int32 {
	if b {
		return 1
	}
	return 0
}
