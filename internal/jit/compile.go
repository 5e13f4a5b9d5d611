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
	a := m.machine.BorrowAsm()
	fn, err := CompileInto(a, f)
	if err == nil {
		m.machine.ReturnAsm(a)
	}
	return fn, err
}

// The VCODE operation each arithmetic bytecode maps to, the branch that
// materializes each comparison, and its inverse for the fused compare+jz.
var (
	aluOps = [...]core.Op{OpAdd: core.OpAdd, OpSub: core.OpSub, OpMul: core.OpMul, OpDiv: core.OpDiv, OpMod: core.OpMod}
	cmpOps = [...]core.Op{OpLt: core.OpBlt, OpLe: core.OpBle, OpGt: core.OpBgt, OpGe: core.OpBge, OpEq: core.OpBeq, OpNe: core.OpBne}
	invOps = [...]core.Op{OpLt: core.OpBge, OpLe: core.OpBgt, OpGt: core.OpBle, OpGe: core.OpBlt, OpEq: core.OpBne, OpNe: core.OpBeq}
)

// intParams[:n] is the signature of an n-argument bytecode function.  No
// target gets near this many arguments into registers, so a longer
// signature is refused by Begin whatever it is made of.
var intParams = func() (p [32]core.Type) {
	for i := range p {
		p[i] = core.TypeI
	}
	return p
}()

// CompileInto is Compile emitting into a caller-supplied assembler, so
// callers that compile many functions amortize the assembler's buffer and
// bookkeeping allocations across functions, and the superblock tier can
// arm a recording on it first.  The assembler must be idle (not mid-build);
// the returned Func does not alias it.
func CompileInto(a *core.Asm, f *Func) (*core.Func, error) {
	backend := a.Backend()
	comp := trace.Begin(trace.KindCompile, backend.Name(), f.Name)
	pcs, maxDepth, err := f.validate()
	if err != nil {
		return nil, err
	}
	a.SetName(f.Name)
	params := intParams[:]
	if f.NArgs > len(params) {
		params = make([]core.Type, f.NArgs)
		for i := range params {
			params[i] = core.TypeI
		}
	}
	args, err := a.BeginTypes(params[:f.NArgs], core.Leaf)
	if err != nil {
		return nil, err
	}

	// Register assignment: locals first (persistent), then one register
	// per operand-stack slot (temporaries — the stack is empty across
	// no call, and this machine has no calls).  One allocation backs the
	// locals, the slots and the slots' aliases (below).
	ra := trace.Begin(trace.KindRegalloc, backend.Name(), f.Name)
	regs := make([]core.Reg, f.NVars+2*maxDepth)
	vars, slots, alias := regs[:f.NVars], regs[f.NVars:f.NVars+maxDepth], regs[f.NVars+maxDepth:]
	for i := range vars {
		if vars[i], err = a.GetReg(core.Var); err != nil {
			return nil, fmt.Errorf("jit: %s: locals exceed registers: %w", f.Name, err)
		}
	}
	for i := range slots {
		if slots[i], err = a.GetReg(core.Temp); err != nil {
			return nil, fmt.Errorf("jit: %s: stack depth %d exceeds registers: %w", f.Name, maxDepth, err)
		}
	}
	ra.End(a.TraceFlow(), trace.Attrs{N: int64(len(vars) + len(slots))})

	// A label for every branch target, in pc order: the first loop marks
	// the targets (any label but noLabel will do), the second numbers them.
	// Validation checked the targets of the jumps a path reaches; the
	// others are checked here.
	for pc, in := range f.Code {
		if in.Op == OpJmp || in.Op == OpJz {
			if in.A < 0 || in.A >= len(pcs) {
				return nil, fmt.Errorf("jit: %s: bad jump target at pc %d", f.Name, pc)
			}
			pcs[in.A].label = 0
		}
	}
	for pc := range pcs {
		if pcs[pc].label != noLabel {
			pcs[pc].label = a.NewLabel()
		}
	}

	// Copy propagation: OpLoadVar/OpLoadArg do not emit a Movi into
	// their stack slot.  Instead alias[d] records the source register, and
	// consumers read the var/arg register directly — the Movi only
	// materializes if the value must survive past a point where the alias
	// could go stale (the var is overwritten) or where the canonical slot
	// assignment is observable (a control-flow join).  A slot holding its
	// own value has alias NoReg.
	clearAliases := func() {
		for j := range alias {
			alias[j] = core.NoReg
		}
	}
	clearAliases()
	src := func(d int) core.Reg {
		if alias[d] != core.NoReg {
			return alias[d]
		}
		return slots[d]
	}
	// spill materializes every live aliased slot below d into its
	// canonical register, so code reached through a label (which assumes
	// the canonical assignment) sees the right values.
	spill := func(d int) {
		for j := 0; j < d && j < maxDepth; j++ {
			if alias[j] != core.NoReg {
				a.Movi(slots[j], alias[j])
				alias[j] = core.NoReg
			}
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
		if l := pcs[pc].label; l != noLabel {
			// Fall-through into a join point: canonicalize first, then
			// forget aliases (the other predecessors did the same).
			spill(depth)
			clearAliases()
			a.Bind(l)
		}
		switch in.Op {
		case OpPushK:
			a.Seti(slots[depth], int64(f.Consts[in.A]))
			alias[depth] = core.NoReg
			depth++
		case OpLoadArg:
			alias[depth] = args[in.A]
			depth++
		case OpLoadVar:
			alias[depth] = vars[in.A]
			depth++
		case OpStoreVar:
			depth--
			// Any live slot still aliasing this var must be
			// materialized before the var changes under it.
			for j := 0; j < depth; j++ {
				if alias[j] == vars[in.A] {
					a.Movi(slots[j], alias[j])
					alias[j] = core.NoReg
				}
			}
			if from := src(depth); from != vars[in.A] {
				a.Movi(vars[in.A], from)
			}
			alias[depth] = core.NoReg
		case OpNeg:
			a.Negi(slots[depth-1], src(depth-1))
			alias[depth-1] = core.NoReg
		case OpJmp:
			spill(depth)
			a.Jmp(pcs[in.A].label)
			depth = -1 // unreachable until next label; re-established below
		case OpJz:
			depth--
			cond := src(depth)
			spill(depth)
			a.Beqii(cond, 0, pcs[in.A].label)
			alias[depth] = core.NoReg
		case OpRet:
			a.Reti(src(depth - 1))
			depth = -1
		case OpAdd, OpSub, OpMul, OpDiv, OpMod:
			a.ALU(aluOps[in.Op], ty, slots[depth-2], src(depth-2), src(depth-1))
			alias[depth-2] = core.NoReg
			depth--
		case OpLt, OpLe, OpGt, OpGe, OpEq, OpNe:
			// Peephole: a comparison feeding directly into OpJz fuses
			// into one inverted conditional branch — the materialized
			// 0/1 flag, its re-test, and two jumps all disappear.  Only
			// legal when the OpJz is not itself a branch target (a
			// jump landing there expects a flag on the stack).
			if pc+1 < len(f.Code) && f.Code[pc+1].Op == OpJz && pcs[pc+1].label == noLabel {
				sa, sb := src(depth-2), src(depth-1)
				depth -= 2
				spill(depth)
				a.Br(invOps[in.Op], ty, sa, sb, pcs[f.Code[pc+1].A].label)
				alias[depth], alias[depth+1] = core.NoReg, core.NoReg
				skip = true
				continue
			}
			set1 := a.NewLabel()
			a.Br(cmpOps[in.Op], ty, src(depth-2), src(depth-1), set1)
			// Fall-through: 0; taken: 1.  Use the same slot.
			done := a.NewLabel()
			a.Seti(slots[depth-2], 0)
			a.Jmp(done)
			a.Bind(set1)
			a.Seti(slots[depth-2], 1)
			a.Bind(done)
			alias[depth-2] = core.NoReg
			depth--
		default:
			return nil, fmt.Errorf("jit: %s: unhandled opcode %v", f.Name, in.Op)
		}
		if depth < 0 {
			// After an unconditional transfer the depth is the one the
			// next instruction was validated at (0 when nothing reaches
			// it, or there is none).
			depth = 0
			if pc+1 < len(pcs) && pcs[pc+1].depth > 0 {
				depth = int(pcs[pc+1].depth)
			}
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

// Core exposes the underlying simulated machine (the code cache binds to
// it so eviction can free installed code).
func (m *Machine) Core() *core.Machine { return m.machine }

// Run executes a compiled function on the simulator, returning the result
// and cycle cost.
func (m *Machine) Run(fn *core.Func, args ...int32) (int32, uint64, error) {
	return m.RunWith(context.Background(), core.CallOpts{}, fn, args...)
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
