package jit

import (
	"context"
	"fmt"

	"repro/internal/alpha"
	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/mips"
	"repro/internal/sparc"
	"repro/internal/trace"
)

// Machine owns a simulated target for JIT-compiled bytecode.  Compile may
// run from any number of goroutines; Run serializes on the single
// simulated CPU (inside core.Machine), and per-call cycle costs come from
// the machine's CallStats deltas — no stat reset, and so no reset race
// between concurrent Runs.  CallStats is simulated cost only (cycles,
// instructions, fuel); a caller that wants host time reads the clock
// around Run.
type Machine struct {
	machine *core.Machine
	backend core.Backend
	cpu     core.CPU
	conf    mem.MachineConfig
}

// NewMachine builds a MIPS JIT target with the given cost model.
func NewMachine(conf mem.MachineConfig) *Machine {
	m, _ := NewMachineTarget("mips", conf)
	return m
}

// NewMachineTarget builds a JIT target on any of the three ports — the
// JIT's compiler is written against the portable VCODE set, so it
// retargets for free.
func NewMachineTarget(target string, conf mem.MachineConfig) (*Machine, error) {
	var bk core.Backend
	var cpu core.CPU
	var m *mem.Memory
	var err error
	switch target {
	case "mips":
		if m, err = conf.Build(false); err != nil {
			return nil, err
		}
		bk = mips.New()
		cpu = mips.NewCPU(m)
	case "sparc":
		if m, err = conf.Build(true); err != nil {
			return nil, err
		}
		bk = sparc.New()
		cpu = sparc.NewCPU(m)
	case "alpha":
		if m, err = conf.Build(false); err != nil {
			return nil, err
		}
		bk = alpha.New()
		cpu = alpha.NewCPU(m)
	default:
		return nil, fmt.Errorf("jit: unknown target %q", target)
	}
	return &Machine{machine: core.NewMachine(bk, cpu, m), backend: bk, cpu: cpu, conf: conf}, nil
}

// Compile translates a bytecode function to machine code.  Every operand
// stack slot and local variable is assigned a VCODE register at compile
// time; stack traffic disappears entirely.
func (m *Machine) Compile(f *Func) (*core.Func, error) {
	return CompileInto(core.NewAsm(m.backend), f)
}

// CompileInto is Compile emitting into a caller-supplied assembler, so
// callers that compile many functions (the batch pipeline's per-worker
// buffers) amortize the assembler's buffer and bookkeeping allocations
// across functions.  The assembler must be idle (not mid-build); the
// returned Func does not alias it.
func CompileInto(a *core.Asm, f *Func) (*core.Func, error) {
	backend := a.Backend()
	comp := trace.Begin(trace.KindCompile, backend.Name(), f.Name)
	maxDepth, err := f.Validate()
	if err != nil {
		return nil, err
	}
	a.SetName(f.Name)
	params := make([]core.Type, f.NArgs)
	for i := range params {
		params[i] = core.TypeI
	}
	args, err := a.BeginTypes(params, core.Leaf)
	if err != nil {
		return nil, err
	}

	// Register assignment: locals first (persistent), then one register
	// per operand-stack slot (temporaries — the stack is empty across
	// no call, and this machine has no calls).
	ra := trace.Begin(trace.KindRegalloc, backend.Name(), f.Name)
	vars := make([]core.Reg, f.NVars)
	for i := range vars {
		if vars[i], err = a.GetReg(core.Var); err != nil {
			return nil, fmt.Errorf("jit: %s: locals exceed registers: %w", f.Name, err)
		}
	}
	slots := make([]core.Reg, maxDepth)
	for i := range slots {
		if slots[i], err = a.GetReg(core.Temp); err != nil {
			return nil, fmt.Errorf("jit: %s: stack depth %d exceeds registers: %w", f.Name, maxDepth, err)
		}
	}
	ra.End(a.TraceFlow(), trace.Attrs{N: int64(len(vars) + len(slots))})

	labels := make([]core.Label, len(f.Code))
	needLabel := make([]bool, len(f.Code))
	for _, in := range f.Code {
		if in.Op == OpJmp || in.Op == OpJz {
			needLabel[in.A] = true
		}
	}
	for pc := range f.Code {
		if needLabel[pc] {
			labels[pc] = a.NewLabel()
		}
	}

	// Copy propagation: OpLoadVar/OpLoadArg do not emit a Movi into
	// their stack slot.  Instead the slot records the source register as
	// an alias, and consumers read the var/arg register directly — the
	// Movi only materializes if the value must survive past a point where
	// the alias could go stale (the var is overwritten) or where the
	// canonical slot assignment is observable (a control-flow join).
	alias := make([]core.Reg, maxDepth)
	aliased := make([]bool, maxDepth)
	src := func(d int) core.Reg {
		if aliased[d] {
			return alias[d]
		}
		return slots[d]
	}
	// spill materializes every live aliased slot below d into its
	// canonical register, so code reached through a label (which assumes
	// the canonical assignment) sees the right values.
	spill := func(d int) {
		for j := 0; j < d && j < maxDepth; j++ {
			if aliased[j] {
				a.Movi(slots[j], alias[j])
				aliased[j] = false
			}
		}
	}
	clearAliases := func() {
		for j := range aliased {
			aliased[j] = false
		}
	}

	ty := core.TypeI
	depth := 0
	skip := false
	for pc, in := range f.Code {
		if skip {
			// Second half of a fused compare+jz pair (never a label
			// target — fusion requires that).
			skip = false
			continue
		}
		if needLabel[pc] {
			// Fall-through into a join point: canonicalize first, then
			// forget aliases (the other predecessors did the same).
			spill(depth)
			clearAliases()
			a.Bind(labels[pc])
		}
		switch in.Op {
		case OpPushK:
			a.Seti(slots[depth], int64(f.Consts[in.A]))
			aliased[depth] = false
			depth++
		case OpLoadArg:
			alias[depth], aliased[depth] = args[in.A], true
			depth++
		case OpLoadVar:
			alias[depth], aliased[depth] = vars[in.A], true
			depth++
		case OpStoreVar:
			depth--
			// Any live slot still aliasing this var must be
			// materialized before the var changes under it.
			for j := 0; j < depth; j++ {
				if aliased[j] && alias[j] == vars[in.A] {
					a.Movi(slots[j], alias[j])
					aliased[j] = false
				}
			}
			if from := src(depth); from != vars[in.A] {
				a.Movi(vars[in.A], from)
			}
			aliased[depth] = false
		case OpNeg:
			a.Negi(slots[depth-1], src(depth-1))
			aliased[depth-1] = false
		case OpJmp:
			spill(depth)
			a.Jmp(labels[in.A])
			depth = -1 // unreachable until next label; re-established below
		case OpJz:
			depth--
			cond := src(depth)
			spill(depth)
			a.Beqii(cond, 0, labels[in.A])
			aliased[depth] = false
		case OpRet:
			a.Reti(src(depth - 1))
			depth = -1
		case OpAdd, OpSub, OpMul, OpDiv, OpMod:
			op := map[Op]core.Op{OpAdd: core.OpAdd, OpSub: core.OpSub,
				OpMul: core.OpMul, OpDiv: core.OpDiv, OpMod: core.OpMod}[in.Op]
			a.ALU(op, ty, slots[depth-2], src(depth-2), src(depth-1))
			aliased[depth-2] = false
			depth--
		case OpLt, OpLe, OpGt, OpGe, OpEq, OpNe:
			// Peephole: a comparison feeding directly into OpJz fuses
			// into one inverted conditional branch — the materialized
			// 0/1 flag, its re-test, and two jumps all disappear.  Only
			// legal when the OpJz is not itself a branch target (a
			// jump landing there expects a flag on the stack).
			if pc+1 < len(f.Code) && f.Code[pc+1].Op == OpJz && !needLabel[pc+1] {
				inv := map[Op]core.Op{OpLt: core.OpBge, OpLe: core.OpBgt, OpGt: core.OpBle,
					OpGe: core.OpBlt, OpEq: core.OpBne, OpNe: core.OpBeq}[in.Op]
				sa, sb := src(depth-2), src(depth-1)
				depth -= 2
				spill(depth)
				a.Br(inv, ty, sa, sb, labels[f.Code[pc+1].A])
				aliased[depth], aliased[depth+1] = false, false
				skip = true
				continue
			}
			op := map[Op]core.Op{OpLt: core.OpBlt, OpLe: core.OpBle, OpGt: core.OpBgt,
				OpGe: core.OpBge, OpEq: core.OpBeq, OpNe: core.OpBne}[in.Op]
			set1 := a.NewLabel()
			a.Br(op, ty, src(depth-2), src(depth-1), set1)
			// Fall-through: 0; taken: 1.  Use the same slot.
			done := a.NewLabel()
			a.Seti(slots[depth-2], 0)
			a.Jmp(done)
			a.Bind(set1)
			a.Seti(slots[depth-2], 1)
			a.Bind(done)
			aliased[depth-2] = false
			depth--
		default:
			return nil, fmt.Errorf("jit: %s: unhandled opcode %v", f.Name, in.Op)
		}
		if depth < 0 {
			// After an unconditional transfer the depth is whatever
			// the next labelled instruction was validated at; recover
			// it lazily.
			depth = depthAfter(f, pc+1)
			clearAliases()
		}
	}
	fn, err := a.End()
	if err != nil {
		return nil, err
	}
	comp.End(fn.TraceFlow(), trace.Attrs{N: int64(len(f.Code)), Bytes: int64(fn.SizeBytes())})
	return fn, nil
}

// depthAfter recomputes the validated stack depth at instruction pc
// (0 when pc is past the end or unreachable).
func depthAfter(f *Func, pc int) int {
	depths := map[int]int{}
	var walk func(p, d int)
	walk = func(p, d int) {
		for p < len(f.Code) {
			if _, seen := depths[p]; seen {
				return
			}
			depths[p] = d
			in := f.Code[p]
			pops, pushes := stackEffect(in.Op)
			d = d - pops + pushes
			switch in.Op {
			case OpJmp:
				p = in.A
				continue
			case OpJz:
				walk(in.A, d)
			case OpRet:
				return
			}
			p++
		}
	}
	walk(0, 0)
	if d, ok := depths[pc]; ok {
		return d
	}
	return 0
}

// Core exposes the underlying simulated machine (the code cache binds to
// it so eviction can free installed code).
func (m *Machine) Core() *core.Machine { return m.machine }

// Run executes a compiled function on the simulator, returning the result
// and cycle cost.
func (m *Machine) Run(fn *core.Func, args ...int32) (int32, uint64, error) {
	return m.RunWith(context.Background(), core.CallOpts{}, fn, args...)
}

// RunContext is Run with cancellation: the simulator run loop observes
// ctx's deadline on a stride.
func (m *Machine) RunContext(ctx context.Context, fn *core.Func, args ...int32) (int32, uint64, error) {
	return m.RunWith(ctx, core.CallOpts{}, fn, args...)
}

// RunWith executes with the full sandbox (context plus per-call fuel).
// The returned cycle count is this call's simulator delta (CallStats), so
// concurrent Runs never clobber each other's statistics.
func (m *Machine) RunWith(ctx context.Context, opts core.CallOpts, fn *core.Func, args ...int32) (int32, uint64, error) {
	// Marshal through a small stack buffer: Run sits on the warm-cache
	// hot path, and a per-call slice allocation is measurable there.
	var buf [8]core.Value
	vals := buf[:0]
	if len(args) > len(buf) {
		vals = make([]core.Value, 0, len(args))
	}
	for _, a := range args {
		vals = append(vals, core.I(a))
	}
	got, stats, err := m.machine.CallWithStats(ctx, opts, fn, vals...)
	if err != nil {
		return 0, 0, err
	}
	return int32(got.Int()), stats.Cycles, nil
}

// Micros converts cycles under the machine's clock.
func (m *Machine) Micros(c uint64) float64 { return m.conf.Micros(c) }
