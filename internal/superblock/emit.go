package superblock

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/peep"
	"repro/internal/reduce"
)

// CompileStats reports what the rewriter changed.  Every number is a
// value-preserving rewrite: no recorded destination register lost its
// value, only the instructions computing it changed.
type CompileStats struct {
	Folded         int  // ALU results replaced by constant loads
	Reduced        int  // multiplies strength-reduced to shift/add
	LoadsForwarded int  // loads replaced by register moves
	LoadsDropped   int  // loads whose destination already held the value
	NopsDropped    int  // recorded nops not re-emitted
	PeepSaved      int  // instructions removed by the peephole window
	CounterActive  bool // side-exit stubs bump the counter word
}

// Compile re-emits the plan through a: the optimized trace first, then
// the side-exit stubs, then a verbatim cold copy of the original body.
// The assembler must be fresh (before Begin) and on the same backend the
// recording was captured from.  The function is named after the recording
// with a "#sb" suffix so profilers attribute its PCs separately from the
// tier-2 body's.
func (p *Plan) Compile(a *core.Asm) (*core.Func, CompileStats, error) {
	var stats CompileStats
	a.SetName(p.rec.Name + "#sb")
	if _, err := a.BeginFromRecording(p.rec); err != nil {
		return nil, stats, err
	}

	// Side-exit counter ABI: a base register holding CounterAddr and a
	// scratch for the increment, both provably outside the recording's
	// register set so neither the trace nor the cold copy can observe
	// them.  When no such pair exists the stubs silently stop counting
	// (de-optimization loses its signal; correctness is unaffected).
	cntBase, cntTmp := core.NoReg, core.NoReg
	if p.opt.CounterAddr != 0 && p.SideExits > 0 {
		if regs := pickFreeRegs(a, p.rec.UsedRegs(), 2); regs != nil {
			cntBase, cntTmp = regs[0], regs[1]
			a.SetI(core.TypeP, cntBase, int64(p.opt.CounterAddr))
			stats.CounterActive = true
		}
	}

	w := newWriter(a, &stats)

	traceLabels := make(map[int]core.Label, len(p.traceLabel))
	for b := range p.traceLabel {
		traceLabels[b] = a.NewLabel()
	}
	var coldLabels []core.Label
	if p.coldNeeded {
		coldLabels = make([]core.Label, len(p.blocks))
		for i := range coldLabels {
			coldLabels[i] = a.NewLabel()
		}
	}

	type stub struct {
		label core.Label
		to    int
	}
	var stubs []stub

	// Pass 1: the optimized trace.
	for _, step := range p.steps {
		blk := &p.blocks[step.block]
		if l, ok := traceLabels[step.block]; ok {
			// A loop target: something jumps here, so every tracked fact
			// dies with the bind.
			w.bind(l)
		}
		for _, ev := range blk.body() {
			w.insn(ev)
		}
		tev, hasTerm := blk.term()
		if step.emitBranch {
			var target core.Label
			switch {
			case step.brTrace:
				target = traceLabels[step.brTo]
			case step.brStub:
				l := a.NewLabel()
				stubs = append(stubs, stub{l, step.brTo})
				target = l
			default:
				target = coldLabels[step.brTo]
			}
			w.branch(tev, step.brOp, target)
		} else if hasTerm && (tev.Kind == core.RecRet || tev.Kind == core.RecRetVoid) {
			w.insn(tev)
		}
		// Straightened jumps (hasTerm, RecJmp, !emitJmp) vanish here.
		if step.emitJmp {
			if step.jmpTrace {
				w.jmp(traceLabels[step.jmpTo])
			} else {
				w.jmp(coldLabels[step.jmpTo])
			}
		}
	}
	w.flush()
	stats.PeepSaved = w.w.Saved

	// Pass 2: side-exit stubs — count, then jump into the cold body.
	for _, s := range stubs {
		a.Bind(s.label)
		if cntBase != core.NoReg {
			a.LdI(core.TypeI, cntTmp, cntBase, 0)
			a.ALUI(core.OpAdd, core.TypeI, cntTmp, cntTmp, 1)
			a.StI(core.TypeI, cntTmp, cntBase, 0)
		}
		a.Jmp(coldLabels[s.to])
	}

	// Pass 3: the cold copy — the original body replayed verbatim with
	// labels remapped into this build, so every side exit lands in code
	// with exactly the recorded semantics.  Blocks that acquired a trace
	// label shrink to a redirect: jumping to their trace copy is safe
	// because the optimizer resets all state at trace labels.
	if p.coldNeeded {
		mapLabel := func(l core.Label) core.Label {
			if b, ok := p.labelBlock[l]; ok {
				return coldLabels[b]
			}
			return l // unreachable: Form verified every target binds
		}
		for bi := range p.blocks {
			a.Bind(coldLabels[bi])
			if tl, ok := traceLabels[bi]; ok {
				a.Jmp(tl)
				continue
			}
			for _, ev := range p.blocks[bi].events {
				a.Replay(ev, mapLabel)
			}
		}
	}

	fn, err := a.End()
	if err != nil {
		return nil, stats, fmt.Errorf("superblock: compile %s: %w", p.rec.Name, err)
	}
	return fn, stats, nil
}

// pickFreeRegs allocates n registers that the recording never mentions.
// Registers the allocator grants from inside the recording's set are held
// aside and released afterward; the returned registers stay allocated for
// the function's lifetime.
func pickFreeRegs(a *core.Asm, used map[core.Reg]bool, n int) []core.Reg {
	var held, out []core.Reg
	for len(out) < n {
		r, err := a.GetReg(core.Temp)
		if err != nil {
			r, err = a.GetReg(core.Var)
		}
		if err != nil {
			break
		}
		if used[r] {
			held = append(held, r)
		} else {
			out = append(out, r)
		}
	}
	for _, r := range held {
		a.PutReg(r)
	}
	if len(out) < n {
		for _, r := range out {
			a.PutReg(r)
		}
		return nil
	}
	return out
}

// memKey identifies one tracked memory word: base register, immediate
// offset, and access type.
type memKey struct {
	base core.Reg
	off  int64
	t    core.Type
}

// writer is the trace-pass emitter: a peephole window plus cross-block
// constant and memory tracking.  Tracking is linear along the trace,
// which is sound because the trace has a single entry and all state
// resets at every bound label.
type writer struct {
	a     *core.Asm
	w     *peep.Asm
	emul  *core.EmulatedOps
	ptr   int
	stats *CompileStats

	// consts holds known TypeI register values (canonically sign-
	// extended 32-bit).  Only TypeI is tracked: it is the one type whose
	// ALU semantics are identical across the 32- and 64-bit backends.
	consts map[core.Reg]int64
	// mem maps a tracked address to the register last known to hold its
	// value (from a store of it or a load into it).
	mem map[memKey]core.Reg
}

func newWriter(a *core.Asm, stats *CompileStats) *writer {
	return &writer{
		a:      a,
		w:      peep.New(a),
		emul:   core.EmulatedOpsOf(a.Backend()),
		ptr:    a.Backend().PtrBytes(),
		stats:  stats,
		consts: make(map[core.Reg]int64),
		mem:    make(map[memKey]core.Reg),
	}
}

func (w *writer) reset() {
	w.consts = make(map[core.Reg]int64)
	w.mem = make(map[memKey]core.Reg)
}

// invalidate kills every fact involving register r: its constant, every
// address based on it, and every address whose cached value lives in it.
func (w *writer) invalidate(r core.Reg) {
	delete(w.consts, r)
	for k, v := range w.mem {
		if k.base == r || v == r {
			delete(w.mem, k)
		}
	}
}

// fwdOK reports whether t is safe for memory forwarding: full-width
// integer/pointer accesses only.  Subword accesses truncate and extend
// (a register move is not equivalent), and float loads move bit patterns
// between register files.
func (w *writer) fwdOK(t core.Type) bool {
	return !t.IsFloat() && !t.IsSubWord() && t.Size(w.ptr) == w.ptr
}

// reducibleMul reports whether multiply-by-constant strength reduction
// is legal for type t on this backend.  Unlike constant folding (TypeI
// only — foldI models 32-bit semantics), the shift/add rewrite is
// width-generic: wrapping two's-complement multiply by a constant equals
// the same shift/add sequence at any fixed register width, so 64-bit
// accumulator loops on alpha reduce too.  Types whose multiply or
// substitute ops expand to emulation helpers are excluded (the helper
// call's stack traffic must stay identical to tier 2's).
func (w *writer) reducibleMul(t core.Type) bool {
	switch t {
	case core.TypeI, core.TypeU, core.TypeL, core.TypeUL:
	default:
		return false
	}
	for _, op := range []core.Op{core.OpMul, core.OpLsh, core.OpAdd, core.OpSub} {
		if w.emulated(op, t) {
			return false
		}
	}
	return true
}

func (w *writer) emulated(op core.Op, t core.Type) bool {
	// Emulated operations expand to a runtime-helper call that spills
	// scratch state below the stack pointer.  Folding one away would make
	// tier-3's dead-stack bytes differ from tier-2's, which the
	// differential oracle's memory compare would flag — so they are
	// always re-emitted.
	return w.emul.Has(op, t)
}

func (w *writer) bind(l core.Label) {
	w.w.Bind(l)
	w.reset()
}

func (w *writer) jmp(l core.Label) { w.w.Jmp(l) }
func (w *writer) flush()           { w.w.Flush() }

// branch emits the (possibly inverted) terminator branch with its
// recorded operands.
func (w *writer) branch(ev core.RecEvent, op core.Op, target core.Label) {
	if ev.Kind == core.RecBr {
		w.w.Br(op, ev.T, ev.Rs1, ev.Rs2, target)
	} else {
		w.w.BrI(op, ev.T, ev.Rs1, ev.Imm, target)
	}
}

// insn re-emits one recorded body instruction through the optimizer.
func (w *writer) insn(ev core.RecEvent) {
	switch ev.Kind {
	case core.RecALU:
		w.alu(ev)
	case core.RecALUI:
		w.alui(ev)
	case core.RecUnary:
		w.unary(ev)
	case core.RecSetI:
		w.invalidate(ev.Rd)
		w.w.SetI(ev.T, ev.Rd, ev.Imm)
		if ev.T == core.TypeI {
			w.consts[ev.Rd] = int64(int32(ev.Imm))
		}
	case core.RecSetF:
		w.invalidate(ev.Rd)
		w.w.SetF(ev.Rd, float32(ev.F))
	case core.RecSetD:
		w.invalidate(ev.Rd)
		w.w.SetD(ev.Rd, ev.F)
	case core.RecLd:
		w.invalidate(ev.Rd)
		w.w.Ld(ev.T, ev.Rd, ev.Rs1, ev.Rs2)
	case core.RecLdI:
		w.load(ev)
	case core.RecSt:
		// Register-offset store: address unknown, all bets off.
		w.mem = make(map[memKey]core.Reg)
		w.w.St(ev.T, ev.Rd, ev.Rs1, ev.Rs2)
	case core.RecStI:
		w.store(ev)
	case core.RecNop:
		w.stats.NopsDropped++
	case core.RecCvt:
		w.invalidate(ev.Rd)
		w.w.Cvt(ev.T, ev.T2, ev.Rd, ev.Rs1)
	case core.RecExt:
		// A hardware extension's register writes are opaque; drop
		// everything rather than model them.
		w.reset()
		w.w.Ext(ev.Name, ev.T, ev.Rd, ev.Srcs...)
	case core.RecRet:
		w.w.Ret(ev.T, ev.Rs1)
	case core.RecRetVoid:
		w.w.RetVoid()
	}
}

func (w *writer) unary(ev core.RecEvent) {
	var v int64
	prop := false
	if ev.Op == core.OpMov && ev.T == core.TypeI {
		v, prop = w.consts[ev.Rs1]
	}
	w.invalidate(ev.Rd)
	w.w.Unary(ev.Op, ev.T, ev.Rd, ev.Rs1)
	if prop {
		w.consts[ev.Rd] = v
	}
}

func (w *writer) alu(ev core.RecEvent) {
	op, t := ev.Op, ev.T
	if t == core.TypeI && !w.emulated(op, t) {
		v1, ok1 := w.consts[ev.Rs1]
		v2, ok2 := w.consts[ev.Rs2]
		if ok1 && ok2 {
			if res, ok := foldI(op, v1, v2); ok {
				w.invalidate(ev.Rd)
				if fitsSetI(res) || op == core.OpMul || op == core.OpDiv || op == core.OpMod {
					// A one-instruction constant load (or any load at all
					// for the multi-cycle ops) beats redoing the ALU.
					w.w.SetI(t, ev.Rd, res)
					w.stats.Folded++
				} else {
					w.w.ALU(op, t, ev.Rd, ev.Rs1, ev.Rs2)
				}
				w.consts[ev.Rd] = res
				return
			}
		}
	}
	if op == core.OpMul && w.reducibleMul(t) {
		// The consts map holds full register values (SetI sign-extends),
		// so a tracked operand constant is valid as the multiplier at any
		// register width.
		v1, ok1 := w.consts[ev.Rs1]
		v2, ok2 := w.consts[ev.Rs2]
		if k, src, ok := mulOperand(v1, ok1, v2, ok2, ev.Rs1, ev.Rs2); ok &&
			reduce.MulNoTemp(t, ev.Rd, src, k) {
			w.w.Flush()
			reduce.MulI(w.a, t, ev.Rd, src, k)
			w.invalidate(ev.Rd)
			w.stats.Reduced++
			return
		}
	}
	w.invalidate(ev.Rd)
	w.w.ALU(op, t, ev.Rd, ev.Rs1, ev.Rs2)
}

func (w *writer) alui(ev core.RecEvent) {
	op, t := ev.Op, ev.T
	if t == core.TypeI && !w.emulated(op, t) {
		if v, okc := w.consts[ev.Rs1]; okc {
			if res, ok := foldI(op, v, ev.Imm); ok {
				w.invalidate(ev.Rd)
				if fitsSetI(res) || op == core.OpMul || op == core.OpDiv || op == core.OpMod {
					w.w.SetI(t, ev.Rd, res)
					w.stats.Folded++
				} else {
					w.w.ALUI(op, t, ev.Rd, ev.Rs1, ev.Imm)
				}
				w.consts[ev.Rd] = res
				return
			}
		}
	}
	if op == core.OpMul && w.reducibleMul(t) && reduce.MulNoTemp(t, ev.Rd, ev.Rs1, ev.Imm) {
		w.w.Flush()
		reduce.MulI(w.a, t, ev.Rd, ev.Rs1, ev.Imm)
		w.invalidate(ev.Rd)
		w.stats.Reduced++
		return
	}
	w.invalidate(ev.Rd)
	w.w.ALUI(op, t, ev.Rd, ev.Rs1, ev.Imm)
}

func (w *writer) load(ev core.RecEvent) {
	t := ev.T
	if !w.fwdOK(t) {
		// Subword and float accesses bypass the peephole window too: its
		// store-to-load rule must never see a subword pair (a register
		// move does not model the truncate/extend).
		w.invalidate(ev.Rd)
		w.w.Flush()
		w.a.LdI(t, ev.Rd, ev.Rs1, ev.Imm)
		return
	}
	key := memKey{ev.Rs1, ev.Imm, t}
	if src, ok := w.mem[key]; ok {
		if src == ev.Rd {
			// The destination already holds exactly this value.
			w.stats.LoadsDropped++
			return
		}
		v, hasConst := w.consts[src]
		w.invalidate(ev.Rd)
		w.w.Unary(core.OpMov, t, ev.Rd, src)
		if hasConst && t == core.TypeI {
			w.consts[ev.Rd] = v
		}
		w.stats.LoadsForwarded++
		return
	}
	w.invalidate(ev.Rd)
	w.w.LdI(t, ev.Rd, ev.Rs1, ev.Imm)
	if ev.Rd != ev.Rs1 {
		// After the load rd holds *[rs1+off] — unless rd was the base.
		w.mem[key] = ev.Rd
	}
}

func (w *writer) store(ev core.RecEvent) {
	t := ev.T
	size := int64(t.Size(w.ptr))
	for k := range w.mem {
		if k.base != ev.Rs1 {
			// Two different base registers may alias; only same-base
			// disjoint ranges are provably safe to keep.
			delete(w.mem, k)
			continue
		}
		if ev.Imm < k.off+int64(k.t.Size(w.ptr)) && k.off < ev.Imm+size {
			delete(w.mem, k)
		}
	}
	if !w.fwdOK(t) {
		w.w.Flush()
		w.a.StI(t, ev.Rd, ev.Rs1, ev.Imm)
		return
	}
	w.w.StI(t, ev.Rd, ev.Rs1, ev.Imm)
	w.mem[memKey{ev.Rs1, ev.Imm, t}] = ev.Rd
}

// mulOperand picks the constant operand of a register-register multiply.
func mulOperand(v1 int64, ok1 bool, v2 int64, ok2 bool, rs1, rs2 core.Reg) (k int64, src core.Reg, ok bool) {
	if ok2 {
		return v2, rs1, true
	}
	if ok1 {
		return v1, rs2, true
	}
	return 0, core.NoReg, false
}

// foldI evaluates op over two TypeI constants with 32-bit wraparound.
// Division hazards (zero divisor, MinInt32/-1 overflow) refuse to fold so
// the original instruction keeps its trap behavior.  Shifts never fold:
// the backends differ in how they mask out-of-range counts.
func foldI(op core.Op, a, b int64) (int64, bool) {
	x, y := int32(a), int32(b)
	switch op {
	case core.OpAdd:
		return int64(x + y), true
	case core.OpSub:
		return int64(x - y), true
	case core.OpMul:
		return int64(x * y), true
	case core.OpAnd:
		return int64(x & y), true
	case core.OpOr:
		return int64(x | y), true
	case core.OpXor:
		return int64(x ^ y), true
	case core.OpDiv:
		if y == 0 || (x == math.MinInt32 && y == -1) {
			return 0, false
		}
		return int64(x / y), true
	case core.OpMod:
		if y == 0 || (x == math.MinInt32 && y == -1) {
			return 0, false
		}
		return int64(x % y), true
	}
	return 0, false
}

// fitsSetI reports whether a folded constant loads in one instruction on
// every backend (all three materialize 16-bit immediates in one word).
func fitsSetI(v int64) bool { return v >= -32768 && v <= 32767 }
