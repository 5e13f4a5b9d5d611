package core

import (
	"fmt"
	"time"

	"repro/internal/trace"
)

// Label names a code position for branches and jumps.  Labels are created
// with NewLabel (v_genlabel) and bound to the current position with Bind
// (v_label); forward references are backpatched when the label is bound or
// at End.
type Label int32

type asmState uint8

const (
	stIdle asmState = iota
	stBuilding
	stEnded
)

type fixup struct {
	site  int
	label Label
}

type poolEntry struct {
	bits   uint64
	double bool
}

type poolRef struct {
	sites []int
	entry int
}

type pendingArgLoad struct {
	site     int
	stackOff int64
}

type retSite struct {
	// moveIdx is the index of the move-to-return-register instruction
	// (or -1 for void returns); jmpIdx is the jump-to-epilogue site.
	moveIdx int
	jmpIdx  int
}

type callState struct {
	locs       []argLoc
	stackBytes int64
}

// Asm generates one function at a time, in place.  Create it once per
// backend with NewAsm (or NewAsmConv to substitute a calling convention),
// then for each function call Begin, emit instructions, and call End.
//
// Error handling is sticky: the first error encountered is recorded and
// every subsequent emission becomes a no-op; End reports it.  This mirrors
// the paper's macro interface, which straight-line client code could use
// without per-instruction checks.
type Asm struct {
	backend Backend
	conv    *CallConv
	buf     *Buf
	err     error
	state   asmState
	name    string

	labels []int
	fixups []fixup

	frame       Frame
	prologueCap int
	saveLayout  SaveLayout

	params   []Type
	sigBuf   []Type   // Begin's and StartCall's parse of their signature strings
	argLocs  []argLoc // Begin's layout of the incoming parameters
	argRegs  []Reg
	inStack  int64
	pending  []pendingArgLoad
	retSites []retSite
	result   Type

	ra regAlloc
	// emul is the backend's emulated-operation set (see emulated.go), read
	// per ALU instruction in place of a Backend.EmulatedOp call.
	emul *EmulatedOps
	// tmpl is the backend's single-word encodings (see tmpl.go): where one
	// covers the instruction the emitter appends the word itself.
	tmpl *Templates

	pool     []poolEntry
	poolRefs []poolRef
	relocs   []Reloc

	// call is the open call, nil between calls; callBuf is its storage, kept
	// so that a call site allocates nothing.
	call    *callState
	callBuf callState

	insnCount int
	exts      map[string]*ExtDef

	// emitStart stamps Begin when a recorder is on (zero otherwise).  With
	// both off the only emission-path cost is two atomic loads in Begin —
	// nothing per instruction.
	emitStart time.Time
	// flow is the lifecycle span ID for the function under construction,
	// assigned at Begin when a recorder is on so front ends (jit.Compile)
	// can hang regalloc/compile spans on it before End produces the Func.
	flow uint64

	// rec accumulates the portable-emission recording when armed with
	// Record (see record.go); recPause suppresses capture inside internal
	// synthesis sequences whose portable event was already recorded.
	recOn    bool
	rec      *Recording
	recPause int
}

// TraceFlow returns the lifecycle span ID of the function currently being
// built (0 when tracing is off or no build is active).
func (a *Asm) TraceFlow() uint64 { return a.flow }

// NewAsm returns an assembler for the target's default conventions.
func NewAsm(b Backend) *Asm { return NewAsmConv(b, b.DefaultConv()) }

// NewAsmConv returns an assembler using a client-supplied calling
// convention (obtain one with DefaultConv().Clone() and adjust register
// classes as needed).
func NewAsmConv(b Backend, conv *CallConv) *Asm {
	p := portOf(b)
	return &Asm{
		backend: b,
		conv:    conv,
		buf:     NewBuf(256),
		emul:    &p.emul,
		tmpl:    &p.tmpl,
	}
}

// Backend returns the target port this assembler emits for.
func (a *Asm) Backend() Backend { return a.backend }

// Conv returns the calling convention in effect.
func (a *Asm) Conv() *CallConv { return a.conv }

// Buf exposes the underlying code buffer (tests, disassembly).
func (a *Asm) Buf() *Buf { return a.buf }

// SetName sets the diagnostic name of the function being built.
func (a *Asm) SetName(name string) { a.name = name }

// Err returns the sticky error, if any.
func (a *Asm) Err() error { return a.err }

// InsnCount returns the number of VCODE instructions specified so far in
// the current function.
func (a *Asm) InsnCount() int { return a.insnCount }

func (a *Asm) setErr(err error) {
	if a.err == nil && err != nil {
		a.err = err
	}
}

func (a *Asm) failf(format string, args ...any) {
	a.setErr(fmt.Errorf(format, args...))
}

// ready is every emitter's gate: a build is open and nothing has gone wrong
// in it.  The accepted case inlines into the emitter; notReady is the rest.
func (a *Asm) ready() bool { return a.err == nil && a.state == stBuilding || a.notReady() }

// notReady makes emission outside Begin/End the sticky error, unless an
// earlier one already is.  Kept out of line so that ready stays within the
// inliner's budget.
//
//go:noinline
func (a *Asm) notReady() bool {
	if a.err == nil {
		a.err = fmt.Errorf("%w: emission outside Begin/End", ErrState)
	}
	return false
}

// Leaf and NonLeaf are the v_lambda leaf-procedure flags.
const (
	Leaf    = true
	NonLeaf = false
)

// Begin starts generation of a new function (v_lambda).  sig is a type
// string such as "%i%p" listing the incoming parameter types (sub-word
// types are not allowed; C's default promotions apply).  leaf declares
// that the function will make no calls, enabling the leaf optimizations;
// emitting a call in a leaf function is an error.  Begin returns the
// registers holding the parameters; parameters arriving on the stack are
// copied into allocated registers, as in the paper.
func (a *Asm) Begin(sig string, leaf bool) ([]Reg, error) {
	params, err := appendSig(a.sigBuf[:0], sig)
	if err != nil {
		return nil, err
	}
	a.sigBuf = params
	return a.BeginTypes(params, leaf)
}

// BeginTypes is Begin with an explicit parameter type list.
func (a *Asm) BeginTypes(params []Type, leaf bool) ([]Reg, error) {
	if a.state == stBuilding {
		return nil, fmt.Errorf("%w: Begin while already building", ErrState)
	}
	for _, t := range params {
		if t.IsSubWord() || t == TypeV {
			return nil, fmt.Errorf("%w: parameter type %s", ErrBadType, t)
		}
	}
	a.emitStart, a.flow = time.Time{}, 0
	if trace.Recording() {
		a.emitStart, a.flow = time.Now(), trace.NextFlow()
	}
	a.buf.Reset()
	a.err = nil
	a.state = stBuilding
	a.rec = nil
	if a.recOn {
		a.rec = &Recording{Params: append([]Type(nil), params...), Leaf: leaf}
	}
	a.labels = a.labels[:0]
	a.fixups = a.fixups[:0]
	a.pending = a.pending[:0]
	a.retSites = a.retSites[:0]
	a.pool = a.pool[:0]
	a.poolRefs = a.poolRefs[:0]
	a.relocs = a.relocs[:0]
	a.call = nil
	a.insnCount = 0
	a.result = TypeV
	a.params = append(a.params[:0], params...)
	a.saveLayout = NewSaveLayout(a.conv, a.backend.PtrBytes())
	a.frame = Frame{Leaf: leaf, SaveAreaBytes: a.saveLayout.Bytes(),
		SavedGPR: a.frame.SavedGPR[:0], SavedFPR: a.frame.SavedFPR[:0]}
	a.ra = regAlloc{conv: a.conv, leaf: leaf}

	// Reserve the prologue region; the real prologue is written into its
	// tail at End and the entry point set past any unused words.
	a.prologueCap = a.backend.MaxPrologueWords(a.conv)
	for i := 0; i < a.prologueCap; i++ {
		a.backend.Nop(a.buf)
	}

	// Locate incoming parameters.
	locs, stackBytes := a.conv.layoutArgs(params, a.argLocs[:0])
	a.argLocs = locs
	a.inStack = stackBytes
	a.argRegs = a.argRegs[:0]
	for _, loc := range locs {
		if loc.reg != NoReg {
			a.ra.reserve(loc.reg)
			a.argRegs = append(a.argRegs, loc.reg)
			continue
		}
		// Stack-passed: copy into an allocated register now; the load
		// offset depends on the final frame size, so leave a
		// placeholder displacement and patch it at End.
		r, save := a.ra.get(Temp, loc.t.IsFloat())
		if r == NoReg {
			a.setErr(ErrRegExhausted)
			r = a.backend.ScratchReg()
		}
		if save {
			a.noteSaved(r)
		}
		site := a.buf.Len()
		if err := a.backend.Load(a.buf, loc.t, r, a.conv.SP, 0); err != nil {
			a.setErr(err)
		}
		a.pending = append(a.pending, pendingArgLoad{site: site, stackOff: loc.stackOff})
		a.argRegs = append(a.argRegs, r)
	}
	if a.err != nil {
		return nil, a.err
	}
	if a.rec != nil {
		a.rec.Args = append([]Reg(nil), a.argRegs...)
	}
	return a.argRegs, nil
}

func (a *Asm) noteSaved(r Reg) {
	if r.IsFP() {
		if !containsReg(a.frame.SavedFPR, r) {
			a.frame.SavedFPR = append(a.frame.SavedFPR, r)
		}
		return
	}
	if !containsReg(a.frame.SavedGPR, r) {
		a.frame.SavedGPR = append(a.frame.SavedGPR, r)
	}
}

func (a *Asm) needFrame() bool {
	return a.frame.SaveRA || a.frame.LocalBytes > 0 ||
		len(a.frame.SavedGPR) > 0 || len(a.frame.SavedFPR) > 0
}

// End finishes the function (v_end): it writes the real prologue and
// epilogue, backpatches branches and the jump-to-epilogue returns
// (rewriting them into direct returns when no epilogue is needed), lays
// down the floating-point constant pool, and returns the linked function.
func (a *Asm) End() (*Func, error) {
	if a.state != stBuilding {
		return nil, fmt.Errorf("%w: End without Begin", ErrState)
	}
	a.state = stEnded
	if a.err != nil {
		return nil, a.err
	}

	need := a.needFrame()
	if need {
		align := int64(a.conv.StackAlign)
		size := a.frame.SaveAreaBytes + a.frame.LocalBytes
		if align > 0 {
			size = (size + align - 1) &^ (align - 1)
		}
		a.frame.Size = size
	}

	// Returns: either a shared epilogue or rewritten direct returns.
	isa := a.backend.ISA()
	if need {
		epi := a.buf.Len()
		if err := a.backend.Epilogue(a.buf, a.conv, &a.frame); err != nil {
			return nil, err
		}
		for _, rs := range a.retSites {
			if !isa.Retarget(a.buf.Words(), rs.jmpIdx, epi) {
				return nil, fmt.Errorf("%w: word %d to word %d", ErrBranchRange, rs.jmpIdx, epi)
			}
		}
	} else {
		retWord := a.backend.RetEncoding(a.conv)
		for _, rs := range a.retSites {
			// Swap the preceding result move into the jump's position
			// so it lands in the delay slot of the return (producing
			// the paper's "j ra; move v0,a0" shape) — but only when
			// nothing targets the move.
			if rs.moveIdx >= 0 && rs.jmpIdx == rs.moveIdx+1 &&
				a.backend.BranchDelaySlots() == 1 && !a.anyTargets(rs.moveIdx, rs.jmpIdx+1) {
				mv := a.buf.At(rs.moveIdx)
				a.buf.Set(rs.moveIdx, retWord)
				a.buf.Set(rs.jmpIdx, mv)
			} else {
				a.buf.Set(rs.jmpIdx, retWord)
			}
		}
	}

	// Incoming stack-argument loads now know the frame size.
	for _, p := range a.pending {
		if off := a.frame.Size + p.stackOff; !isa.SetImm(a.buf.Words(), p.site, off) {
			return nil, fmt.Errorf("%w: incoming argument at %d(sp), word %d", ErrFrameRange, off, p.site)
		}
	}

	// Resolve remaining forward references.
	for _, f := range a.fixups {
		t := a.labels[f.label]
		if t < 0 {
			return nil, fmt.Errorf("%w: label L%d", ErrUnboundLabel, f.label)
		}
		if !isa.Retarget(a.buf.Words(), f.site, t) {
			return nil, fmt.Errorf("%w: word %d to word %d", ErrBranchRange, f.site, t)
		}
	}

	// Write the prologue into the tail of its reserved region.
	entry := a.prologueCap
	if need {
		used, err := a.backend.Prologue(a.buf, 0, a.conv, &a.frame)
		if err != nil {
			return nil, err
		}
		entry = a.prologueCap - used
	}

	// Constant pool: 8-byte entries after the code.
	poolStart := a.buf.Len()
	if len(a.pool) > 0 {
		if a.buf.Len()%2 != 0 {
			a.backend.Nop(a.buf)
		}
		poolStart = a.buf.Len()
		for _, e := range a.pool {
			lo, hi := uint32(e.bits), uint32(e.bits>>32)
			if !e.double {
				lo, hi = uint32(e.bits), 0
			}
			if a.backend.BigEndian() && e.double {
				a.buf.Emit(hi)
				a.buf.Emit(lo)
			} else {
				a.buf.Emit(lo)
				a.buf.Emit(hi)
			}
		}
	}

	if a.rec != nil {
		a.rec.Name = a.name
	}
	fn := &Func{
		Name:          a.name,
		BackendName:   a.backend.Name(),
		Words:         append([]uint32(nil), a.buf.Words()...),
		Entry:         entry,
		Params:        append([]Type(nil), a.params...),
		Result:        a.result,
		StackArgBytes: a.inStack,
		FrameBytes:    a.frame.Size,
		NumInsns:      a.insnCount,
		PoolStart:     poolStart,
	}
	fn.Relocs = append(fn.Relocs, a.relocs...)
	for _, pr := range a.poolRefs {
		fn.Relocs = append(fn.Relocs, Reloc{
			Kind:   RelocAddr,
			Sites:  append([]int(nil), pr.sites...),
			Target: fn,
			Addend: int64(4 * (poolStart + 2*pr.entry)),
		})
	}
	fn.flow = a.flow
	if !a.emitStart.IsZero() {
		trace.Record(trace.KindEmit, a.backend.Name(), a.name, fn.flow, a.emitStart, time.Since(a.emitStart),
			trace.Attrs{N: int64(a.insnCount), Bytes: int64(fn.SizeBytes())})
	}
	return fn, nil
}

// anyTargets reports whether any bound label or unresolved fixup targets an
// instruction index in [lo, hi).
func (a *Asm) anyTargets(lo, hi int) bool {
	for _, t := range a.labels {
		if t >= lo && t < hi {
			return true
		}
	}
	return false
}

// ---- Labels ----

// NewLabel allocates a fresh, unbound label (v_genlabel).
func (a *Asm) NewLabel() Label {
	a.labels = append(a.labels, -1)
	return Label(len(a.labels) - 1)
}

// Bind binds l to the current code position (v_label).
func (a *Asm) Bind(l Label) {
	if !a.ready() {
		return
	}
	if l < 0 || int(l) >= len(a.labels) {
		a.failf("%w: Bind of unknown label L%d", ErrBadLabel, l)
		return
	}
	if a.labels[l] >= 0 {
		a.failf("%w: label L%d bound twice", ErrBadLabel, l)
		return
	}
	a.labels[l] = a.buf.Len()
	if a.rec != nil {
		a.record(RecEvent{Kind: RecBind, Label: l})
	}
}

func (a *Asm) refLabel(site int, l Label) {
	if int(l) >= len(a.labels) || l < 0 {
		a.failf("%w: reference to unknown label L%d", ErrUnboundLabel, l)
		return
	}
	// All branches are patched at End (even backward ones), so that
	// ScheduleDelay's code motion can never leave a stale displacement.
	a.fixups = append(a.fixups, fixup{site: site, label: l})
}

// ---- Register allocation ----

// GetReg allocates an integer register of the given class (v_getreg).
func (a *Asm) GetReg(class RegClass) (Reg, error) { return a.getReg(class, false) }

// GetFReg allocates a floating-point register of the given class.
func (a *Asm) GetFReg(class RegClass) (Reg, error) { return a.getReg(class, true) }

func (a *Asm) getReg(class RegClass, fp bool) (Reg, error) {
	if a.state != stBuilding {
		return NoReg, ErrState
	}
	r, save := a.ra.get(class, fp)
	if r == NoReg {
		return NoReg, ErrRegExhausted
	}
	if save {
		a.noteSaved(r)
	}
	if a.rec != nil {
		a.record(RecEvent{Kind: RecGetReg, Rd: r, Class: class, FP: fp})
	}
	return r, nil
}

// PutReg returns an allocated register to the free pool (v_putreg).
func (a *Asm) PutReg(r Reg) {
	a.ra.free(r)
	if a.rec != nil {
		a.record(RecEvent{Kind: RecPutReg, Rd: r})
	}
}

// T returns the n'th hard-coded temporary register name (§5.3).  The
// request is a register assertion: if the target has no such register the
// sticky error ErrNoHardReg is recorded and clients can select different
// code to generate.
func (a *Asm) T(n int) Reg { return a.hard(a.conv.HardTemp, n, false) }

// S returns the n'th hard-coded callee-saved register name.
func (a *Asm) S(n int) Reg { return a.hard(a.conv.HardVar, n, true) }

// FT returns the n'th hard-coded FP temporary register name.
func (a *Asm) FT(n int) Reg { return a.hard(a.conv.HardTempFP, n, false) }

// FS returns the n'th hard-coded FP callee-saved register name.
func (a *Asm) FS(n int) Reg { return a.hard(a.conv.HardVarFP, n, true) }

func (a *Asm) hard(bank []Reg, n int, save bool) Reg {
	if n < 0 || n >= len(bank) {
		a.setErr(fmt.Errorf("%w: index %d of %d", ErrNoHardReg, n, len(bank)))
		return NoReg
	}
	r := bank[n]
	a.ra.reserve(r)
	if save && a.state == stBuilding {
		a.noteSaved(r)
	}
	if a.rec != nil {
		cl := Temp
		if save {
			cl = Var
		}
		a.record(RecEvent{Kind: RecHardReg, Rd: r, Class: cl})
	}
	return r
}

// ---- Locals ----

// Local allocates a stack slot of type t in the activation record
// (v_local) and returns its SP-relative byte offset, valid for the whole
// function.  Locals sit above the fixed worst-case register save area, so
// the offset is final the moment it is handed out.
func (a *Asm) Local(t Type) int64 {
	if !a.ready() {
		return 0
	}
	sz := int64(t.Size(a.backend.PtrBytes()))
	if sz == 0 {
		a.failf("%w: local of type %s", ErrBadType, t)
		return 0
	}
	a.frame.LocalBytes = (a.frame.LocalBytes + sz - 1) &^ (sz - 1)
	off := a.frame.SaveAreaBytes + a.frame.LocalBytes
	a.frame.LocalBytes += sz
	if a.rec != nil {
		a.record(RecEvent{Kind: RecLocal, T: t, Imm: off})
	}
	return off
}

// SP returns the stack pointer register, for addressing locals.
func (a *Asm) SP() Reg { return a.conv.SP }

// LdLocal loads a local allocated at off into rd.
func (a *Asm) LdLocal(t Type, rd Reg, off int64) { a.LdI(t, rd, a.conv.SP, off) }

// StLocal stores rs into the local allocated at off.
func (a *Asm) StLocal(t Type, rs Reg, off int64) { a.StI(t, rs, a.conv.SP, off) }

// ---- Generic emitters (the per-instruction methods in
// instructions_gen.go delegate here; clients generating code from their
// own tables may call these directly, as tcc does).
//
// Every one has the same shape, and an accepted instruction pays only the
// tests on its way: ready's inlined half, one load from a legality table
// (op.go), one fixed-arity register-bank test (reg.go; checkRegs runs only
// when that fails, to say which operand and why), the recording gate, then
// the encoding: the port's template for (op, type) filled in here when there
// is one and the immediate is inside its range (tmpl.go), the backend's
// encoder otherwise. ----

func (a *Asm) checkRegs(t Type, regs ...Reg) bool {
	for _, r := range regs {
		if !r.Valid() {
			a.failf("%w: %v", ErrBadReg, r)
			return false
		}
		if r.IsFP() != t.IsFloat() {
			a.failf("%w: %v used as %s operand", ErrBadReg, r, t)
			return false
		}
	}
	return true
}

// ALU emits the binary operation rd = rs1 op rs2.
func (a *Asm) ALU(op Op, t Type, rd, rs1, rs2 Reg) {
	if !a.ready() {
		return
	}
	if !legal.alu[op].has(t) {
		a.failf("%w: %s%s", ErrBadType, op, t.Letter())
		return
	}
	if !bankOK(t, rd|rs1|rs2, rd&rs1&rs2) && !a.checkRegs(t, rd, rs1, rs2) {
		return
	}
	a.insnCount++
	if a.rec != nil {
		a.record(RecEvent{Kind: RecALU, Op: op, T: t, Rd: rd, Rs1: rs1, Rs2: rs2})
	}
	if a.emul.Has(op, t) {
		a.emulCall(op, t, rd, rs1, rs2, 0, false)
		return
	}
	if tp := &a.tmpl.alu[op][t]; tp.ok {
		a.buf.Emit(tp.regs(rd, rs1, rs2))
		return
	}
	a.setErr(a.backend.ALU(a.buf, op, t, rd, rs1, rs2))
}

// ALUI emits rd = rs op imm.
func (a *Asm) ALUI(op Op, t Type, rd, rs Reg, imm int64) {
	if !a.ready() {
		return
	}
	if !legal.alui[op].has(t) {
		a.failf("%w: %s%si", ErrBadType, op, t.Letter())
		return
	}
	if !gprOK(rd|rs) && !a.checkRegs(t, rd, rs) {
		return
	}
	a.insnCount++
	if a.rec != nil {
		a.record(RecEvent{Kind: RecALUI, Op: op, T: t, Rd: rd, Rs1: rs, Imm: imm})
	}
	if a.emul.Has(op, t) {
		a.emulCall(op, t, rd, rs, NoReg, imm, true)
		return
	}
	if tp := &a.tmpl.alui[op][t]; tp.holds(imm) {
		a.buf.Emit(tp.imm(rd, rs, imm))
		return
	}
	a.setErr(a.backend.ALUImm(a.buf, op, t, rd, rs, imm))
}

// Unary emits rd = op rs (com, not, mov, neg).
func (a *Asm) Unary(op Op, t Type, rd, rs Reg) {
	if !a.ready() {
		return
	}
	if !legal.unary[op].has(t) {
		a.failf("%w: %s%s", ErrBadType, op, t.Letter())
		return
	}
	if !bankOK(t, rd|rs, rd&rs) && !a.checkRegs(t, rd, rs) {
		return
	}
	a.insnCount++
	if a.rec != nil {
		a.record(RecEvent{Kind: RecUnary, Op: op, T: t, Rd: rd, Rs1: rs})
	}
	a.setErr(a.backend.Unary(a.buf, op, t, rd, rs))
}

// SetI emits rd = imm for an integer or pointer type (v_set*i).
func (a *Asm) SetI(t Type, rd Reg, imm int64) {
	if !a.ready() {
		return
	}
	if !legal.seti.has(t) {
		a.failf("%w: set%si", ErrBadType, t.Letter())
		return
	}
	if !gprOK(rd) && !a.checkRegs(t, rd) {
		return
	}
	a.insnCount++
	if a.rec != nil {
		a.record(RecEvent{Kind: RecSetI, T: t, Rd: rd, Imm: imm})
	}
	a.setErr(a.backend.SetImm(a.buf, t, rd, imm))
}

// SetF emits rd = imm for TypeF via the per-function constant pool.
func (a *Asm) SetF(rd Reg, imm float32) {
	if a.setFloat(TypeF, rd, f32bits(imm), false) && a.rec != nil {
		a.record(RecEvent{Kind: RecSetF, T: TypeF, Rd: rd, F: float64(imm)})
	}
}

// SetD emits rd = imm for TypeD via the per-function constant pool.
func (a *Asm) SetD(rd Reg, imm float64) {
	if a.setFloat(TypeD, rd, f64bits(imm), true) && a.rec != nil {
		a.record(RecEvent{Kind: RecSetD, T: TypeD, Rd: rd, F: imm})
	}
}

// setFloat reports whether the instruction was accepted, so that only an
// emitted one is recorded.
func (a *Asm) setFloat(t Type, rd Reg, bits uint64, double bool) bool {
	if !a.ready() {
		return false
	}
	if !a.checkRegs(t, rd) {
		return false
	}
	a.insnCount++
	a.loadPool(t, rd, bits, double)
	return true
}

// loadPool emits a load of a pooled constant into rd (the pool lives at
// the end of the function's instruction stream, per §5.2, so the space is
// reclaimed with the function).
func (a *Asm) loadPool(t Type, rd Reg, bits uint64, double bool) {
	entry := -1
	for i, e := range a.pool {
		if e.bits == bits && e.double == double {
			entry = i
			break
		}
	}
	if entry < 0 {
		a.pool = append(a.pool, poolEntry{bits: bits, double: double})
		entry = len(a.pool) - 1
	}
	scratch := a.backend.ScratchReg()
	sites, err := a.backend.LoadAddr(a.buf, scratch)
	if err != nil {
		a.setErr(err)
		return
	}
	a.poolRefs = append(a.poolRefs, poolRef{sites: sites, entry: entry})
	a.setErr(a.backend.Load(a.buf, t, rd, scratch, 0))
}

// Ld emits rd = *(t*)(base + roff) with a register offset.
func (a *Asm) Ld(t Type, rd, base, roff Reg) {
	if !a.ready() {
		return
	}
	if !legal.mem.has(t) {
		a.failf("%w: ld%s", ErrBadType, t.Letter())
		return
	}
	if !(bankOK(t, rd, rd) && gprOK(base|roff)) && !(a.checkRegs(t, rd) && a.checkRegs(TypeP, base, roff)) {
		return
	}
	a.insnCount++
	if a.rec != nil {
		a.record(RecEvent{Kind: RecLd, T: t, Rd: rd, Rs1: base, Rs2: roff})
	}
	a.setErr(a.backend.LoadRR(a.buf, t, rd, base, roff))
}

// LdI emits rd = *(t*)(base + off) with an immediate offset.
func (a *Asm) LdI(t Type, rd, base Reg, off int64) {
	if !a.ready() {
		return
	}
	if !legal.mem.has(t) {
		a.failf("%w: ld%si", ErrBadType, t.Letter())
		return
	}
	if !(bankOK(t, rd, rd) && gprOK(base)) && !(a.checkRegs(t, rd) && a.checkRegs(TypeP, base)) {
		return
	}
	a.insnCount++
	if a.rec != nil {
		a.record(RecEvent{Kind: RecLdI, T: t, Rd: rd, Rs1: base, Imm: off})
	}
	if tp := &a.tmpl.ld[t]; tp.holds(off) {
		a.buf.Emit(tp.imm(rd, base, off))
		return
	}
	a.setErr(a.backend.Load(a.buf, t, rd, base, off))
}

// St emits *(t*)(base + roff) = rs.
func (a *Asm) St(t Type, rs, base, roff Reg) {
	if !a.ready() {
		return
	}
	if !legal.mem.has(t) {
		a.failf("%w: st%s", ErrBadType, t.Letter())
		return
	}
	if !(bankOK(t, rs, rs) && gprOK(base|roff)) && !(a.checkRegs(t, rs) && a.checkRegs(TypeP, base, roff)) {
		return
	}
	a.insnCount++
	if a.rec != nil {
		a.record(RecEvent{Kind: RecSt, T: t, Rd: rs, Rs1: base, Rs2: roff})
	}
	a.setErr(a.backend.StoreRR(a.buf, t, rs, base, roff))
}

// StI emits *(t*)(base + off) = rs.
func (a *Asm) StI(t Type, rs, base Reg, off int64) {
	if !a.ready() {
		return
	}
	if !legal.mem.has(t) {
		a.failf("%w: st%si", ErrBadType, t.Letter())
		return
	}
	if !(bankOK(t, rs, rs) && gprOK(base)) && !(a.checkRegs(t, rs) && a.checkRegs(TypeP, base)) {
		return
	}
	a.insnCount++
	if a.rec != nil {
		a.record(RecEvent{Kind: RecStI, T: t, Rd: rs, Rs1: base, Imm: off})
	}
	if tp := &a.tmpl.st[t]; tp.holds(off) {
		a.buf.Emit(tp.imm(rs, base, off))
		return
	}
	a.setErr(a.backend.Store(a.buf, t, rs, base, off))
}

// Br emits a conditional branch to l comparing rs1 and rs2.
func (a *Asm) Br(op Op, t Type, rs1, rs2 Reg, l Label) {
	if !a.ready() {
		return
	}
	if !legal.br[op].has(t) {
		a.failf("%w: %s%s", ErrBadType, op, t.Letter())
		return
	}
	if !bankOK(t, rs1|rs2, rs1&rs2) && !a.checkRegs(t, rs1, rs2) {
		return
	}
	a.insnCount++
	site, err := a.backend.Branch(a.buf, op, t, rs1, rs2)
	if err != nil {
		a.setErr(err)
		return
	}
	a.refLabel(site, l)
	if a.rec != nil {
		a.record(RecEvent{Kind: RecBr, Op: op, T: t, Rs1: rs1, Rs2: rs2, Label: l, Site: site})
	}
}

// BrI emits a conditional branch to l comparing rs against an immediate.
func (a *Asm) BrI(op Op, t Type, rs Reg, imm int64, l Label) {
	if !a.ready() {
		return
	}
	if !legal.bri[op].has(t) {
		a.failf("%w: %s%si", ErrBadType, op, t.Letter())
		return
	}
	if !gprOK(rs) && !a.checkRegs(t, rs) {
		return
	}
	a.insnCount++
	site, err := a.backend.BranchImm(a.buf, op, t, rs, imm)
	if err != nil {
		a.setErr(err)
		return
	}
	a.refLabel(site, l)
	if a.rec != nil {
		a.record(RecEvent{Kind: RecBrI, Op: op, T: t, Rs1: rs, Imm: imm, Label: l, Site: site})
	}
}

// Jmp emits an unconditional jump to l (v_jv with a label target).
func (a *Asm) Jmp(l Label) {
	if !a.ready() {
		return
	}
	a.insnCount++
	site, err := a.backend.Jump(a.buf)
	if err != nil {
		a.setErr(err)
		return
	}
	a.refLabel(site, l)
	if a.rec != nil {
		a.record(RecEvent{Kind: RecJmp, Label: l, Site: site})
	}
}

// JmpReg emits an unconditional jump through register r.
func (a *Asm) JmpReg(r Reg) {
	if !a.ready() {
		return
	}
	if !a.checkRegs(TypeP, r) {
		return
	}
	a.recordUnsupported("indirect jump")
	a.insnCount++
	a.setErr(a.backend.JumpReg(a.buf, r))
}

// Nop emits a no-operation.
func (a *Asm) Nop() {
	if !a.ready() {
		return
	}
	a.insnCount++
	if a.rec != nil {
		a.record(RecEvent{Kind: RecNop})
	}
	a.backend.Nop(a.buf)
}

// Ret emits a typed return of rs (v_ret*).  The epilogue jump is elided at
// End when the finished function needs no epilogue.
func (a *Asm) Ret(t Type, rs Reg) {
	if !a.ready() {
		return
	}
	if !legal.ret.has(t) {
		a.failf("%w: ret%s", ErrBadType, t.Letter())
		return
	}
	if !bankOK(t, rs, rs) && !a.checkRegs(t, rs) {
		return
	}
	a.insnCount++
	if a.rec != nil {
		a.record(RecEvent{Kind: RecRet, T: t, Rs1: rs})
	}
	a.result = t
	ret := a.conv.RetInt
	if t.IsFloat() {
		ret = a.conv.RetFP
	}
	moveIdx := -1
	if rs != ret {
		moveIdx = a.buf.Len()
		if err := a.backend.Unary(a.buf, OpMov, t, ret, rs); err != nil {
			a.setErr(err)
			return
		}
		// A multi-word move can't swap into a delay slot.
		if a.buf.Len() != moveIdx+1 {
			moveIdx = -1
		}
	}
	a.emitRetJump(moveIdx)
}

// RetVoid emits a return with no value (v_retv).
func (a *Asm) RetVoid() {
	if !a.ready() {
		return
	}
	a.insnCount++
	if a.rec != nil {
		a.record(RecEvent{Kind: RecRetVoid})
	}
	a.emitRetJump(-1)
}

func (a *Asm) emitRetJump(moveIdx int) {
	site, err := a.backend.Jump(a.buf)
	if err != nil {
		a.setErr(err)
		return
	}
	a.retSites = append(a.retSites, retSite{moveIdx: moveIdx, jmpIdx: site})
}

// ---- Conversions ----

// Cvt emits rd = (to)rs (the v_cv*2* family).  Signed-integer/float and
// integer/integer conversions map directly onto the target;
// unsigned-integer-to-float conversions are synthesized portably from core
// instructions.
func (a *Asm) Cvt(from, to Type, rd, rs Reg) {
	if !a.ready() {
		return
	}
	if from == to || from.IsSubWord() || to.IsSubWord() || from == TypeV || to == TypeV {
		a.failf("%w: cv%s2%s", ErrBadType, from.Letter(), to.Letter())
		return
	}
	if !(bankOK(from, rs, rs) && bankOK(to, rd, rd)) && !(a.checkRegs(from, rs) && a.checkRegs(to, rd)) {
		return
	}
	if from.IsFloat() && (to == TypeU || to == TypeUL || to == TypeP) {
		a.failf("%w: cv%s2%s (float to unsigned is not in the VCODE set)", ErrBadType, from.Letter(), to.Letter())
		return
	}
	a.insnCount++
	if a.rec != nil {
		a.record(RecEvent{Kind: RecCvt, T: from, T2: to, Rd: rd, Rs1: rs})
	}
	if (from == TypeU || from == TypeUL || from == TypeP) && to.IsFloat() {
		// The synthesis goes through public emitters; replay re-expands
		// it from the single event recorded above.
		defer a.pauseRecord()()
		a.cvtUnsignedToFloat(from, to, rd, rs)
		return
	}
	a.setErr(a.backend.Cvt(a.buf, from, to, rd, rs))
}

// cvtUnsignedToFloat synthesizes unsigned->float conversions from core
// instructions, exactly the portable-extension style of §5.4: convert as
// signed, then compensate when the sign bit was set.
func (a *Asm) cvtUnsignedToFloat(from, to Type, rd, rs Reg) {
	ptr := a.backend.PtrBytes()
	wide := from == TypeUL || from == TypeP || (from == TypeU && ptr == 8)
	if from == TypeU && ptr == 8 {
		// 64-bit target: zero-extend into the scratch register, then a
		// signed 64-bit convert is exact.
		sc := a.backend.ScratchReg()
		if err := a.backend.Cvt(a.buf, TypeU, TypeUL, sc, rs); err != nil {
			a.setErr(err)
			return
		}
		a.setErr(a.backend.Cvt(a.buf, TypeL, to, rd, sc))
		return
	}
	signedFrom := TypeI
	if wide {
		signedFrom = TypeL
	}
	// rd = (double)(signed)rs; if rs had the sign bit set, rd += 2^bits.
	target := to
	if to == TypeF {
		target = TypeD // do the arithmetic in double, narrow at the end
	}
	if err := a.backend.Cvt(a.buf, signedFrom, target, rd, rs); err != nil {
		a.setErr(err)
		return
	}
	done := a.NewLabel()
	site, err := a.backend.BranchImm(a.buf, OpBge, signedFrom, rs, 0)
	if err != nil {
		a.setErr(err)
		return
	}
	a.refLabel(site, done)
	bias := 4294967296.0 // 2^32
	if wide && ptr == 8 {
		bias = 18446744073709551616.0 // 2^64
	}
	fs := a.backend.ScratchFPR()
	a.loadPool(TypeD, fs, f64bits(bias), true)
	if err := a.backend.ALU(a.buf, OpAdd, TypeD, rd, rd, fs); err != nil {
		a.setErr(err)
		return
	}
	a.Bind(done)
	if to == TypeF {
		a.setErr(a.backend.Cvt(a.buf, TypeD, TypeF, rd, rd))
	}
}

// ---- Calls ----

// Jal emits a call to the intra-function label l (rarely useful, but part
// of the core set).
func (a *Asm) Jal(l Label) {
	if !a.ready() {
		return
	}
	a.recordUnsupported("intra-function call")
	if a.frame.Leaf {
		a.setErr(ErrLeafCall)
		return
	}
	a.frame.SaveRA = true
	a.insnCount++
	site, err := a.backend.CallLabel(a.buf)
	if err != nil {
		a.setErr(err)
		return
	}
	a.refLabel(site, l)
}

// JalReg emits a call through register r (v_jalp with a register target).
func (a *Asm) JalReg(r Reg) {
	if !a.ready() {
		return
	}
	a.recordUnsupported("indirect call")
	if a.frame.Leaf {
		a.setErr(ErrLeafCall)
		return
	}
	if !a.checkRegs(TypeP, r) {
		return
	}
	a.frame.SaveRA = true
	a.insnCount++
	a.setErr(a.backend.CallReg(a.buf, r))
}

// StartCall begins construction of a call whose argument signature is sig
// ("%i%d..."); the arity and types may be decided at runtime, which is the
// marshaling capability the paper highlights (§2).  Place each argument
// with SetArg, then finish with CallFunc, CallSym or CallReg.
func (a *Asm) StartCall(sig string) {
	if !a.callOpenable() {
		return
	}
	params, err := appendSig(a.sigBuf[:0], sig)
	if err != nil {
		a.setErr(err)
		return
	}
	a.sigBuf = params
	a.openCall(params)
}

// StartCallTypes is StartCall with an explicit argument type list, which
// it does not retain.
func (a *Asm) StartCallTypes(params []Type) {
	if a.callOpenable() {
		a.openCall(params)
	}
}

func (a *Asm) callOpenable() bool {
	if !a.ready() {
		return false
	}
	if a.frame.Leaf {
		a.setErr(ErrLeafCall)
		return false
	}
	if a.call != nil {
		a.failf("%w: StartCall while a call is already open", ErrState)
		return false
	}
	return true
}

func (a *Asm) openCall(params []Type) {
	locs, stackBytes := a.conv.layoutArgs(params, a.callBuf.locs[:0])
	a.frame.SaveRA = true
	a.callBuf = callState{locs: locs, stackBytes: stackBytes}
	a.call = &a.callBuf
	if stackBytes > 0 {
		a.setErr(a.backend.ALUImm(a.buf, OpAdd, TypeL, a.conv.SP, a.conv.SP, -stackBytes))
	}
}

// SetArg places argument i (0-based) of the open call from register r.
// Arguments should be set in an order that does not read an argument
// register already written — ascending order is always safe when sources
// are not argument registers.
func (a *Asm) SetArg(i int, r Reg) {
	if !a.ready() {
		return
	}
	if a.call == nil {
		a.failf("%w: SetArg without StartCall", ErrState)
		return
	}
	if i < 0 || i >= len(a.call.locs) {
		a.failf("vcode: SetArg index %d out of range (%d args)", i, len(a.call.locs))
		return
	}
	loc := a.call.locs[i]
	if !a.checkRegs(loc.t, r) {
		return
	}
	if loc.reg != NoReg {
		if r != loc.reg {
			a.setErr(a.backend.Unary(a.buf, OpMov, loc.t, loc.reg, r))
		}
		return
	}
	a.setErr(a.backend.Store(a.buf, loc.t, r, a.conv.SP, loc.stackOff))
}

func (a *Asm) finishCall() {
	if a.call != nil && a.call.stackBytes > 0 {
		a.setErr(a.backend.ALUImm(a.buf, OpAdd, TypeL, a.conv.SP, a.conv.SP, a.call.stackBytes))
	}
	a.call = nil
}

// CallFunc emits a call to another generated function; the loader resolves
// the target when both are installed.
func (a *Asm) CallFunc(f *Func) {
	a.callCommon(func() {
		sites, err := a.backend.CallSite(a.buf)
		if err != nil {
			a.setErr(err)
			return
		}
		a.relocs = append(a.relocs, Reloc{Kind: RelocCall, Sites: sites, Target: f})
	})
}

// CallSym emits a call to a machine symbol (a runtime helper or a
// client-registered entry point).
func (a *Asm) CallSym(sym string) {
	a.callCommon(func() {
		sites, err := a.backend.CallSite(a.buf)
		if err != nil {
			a.setErr(err)
			return
		}
		a.relocs = append(a.relocs, Reloc{Kind: RelocCall, Sites: sites, Sym: sym})
	})
}

// CallReg emits a call through a register holding a code address.
func (a *Asm) CallReg(r Reg) {
	a.callCommon(func() {
		if a.checkRegs(TypeP, r) {
			a.setErr(a.backend.CallReg(a.buf, r))
		}
	})
}

func (a *Asm) callCommon(emit func()) {
	if !a.ready() {
		return
	}
	a.recordUnsupported("call")
	if a.frame.Leaf {
		a.setErr(ErrLeafCall)
		return
	}
	a.frame.SaveRA = true
	a.insnCount++
	emit()
	a.finishCall()
}

// RetVal moves the just-returned call result of type t into rd.
func (a *Asm) RetVal(t Type, rd Reg) {
	if !a.ready() {
		return
	}
	if !a.checkRegs(t, rd) {
		return
	}
	src := a.conv.RetInt
	if t.IsFloat() {
		src = a.conv.RetFP
	}
	if rd == src {
		return
	}
	a.insnCount++
	a.setErr(a.backend.Unary(a.buf, OpMov, t, rd, src))
}

// Setfunc materializes the entry address of another generated function
// into rd (resolved at install time), enabling indirect calls and
// function-pointer tables.
func (a *Asm) Setfunc(rd Reg, f *Func) {
	if !a.ready() {
		return
	}
	if !a.checkRegs(TypeP, rd) {
		return
	}
	a.recordUnsupported("function-address materialization")
	a.insnCount++
	sites, err := a.backend.LoadAddr(a.buf, rd)
	if err != nil {
		a.setErr(err)
		return
	}
	a.relocs = append(a.relocs, Reloc{Kind: RelocAddr, Sites: sites, Target: f, Addend: relocEntry})
}

// SetSym materializes the address of a machine symbol into rd (resolved
// at install time) — the data-space counterpart of Setfunc, used for
// tables registered with Machine.DefineSym.
func (a *Asm) SetSym(rd Reg, sym string) {
	if !a.ready() {
		return
	}
	if !a.checkRegs(TypeP, rd) {
		return
	}
	a.recordUnsupported("symbol-address materialization")
	a.insnCount++
	sites, err := a.backend.LoadAddr(a.buf, rd)
	if err != nil {
		a.setErr(err)
		return
	}
	a.relocs = append(a.relocs, Reloc{Kind: RelocAddr, Sites: sites, Sym: sym})
}

// relocEntry is a sentinel Addend meaning "entry address, not base".
const relocEntry int64 = -1

// ---- Emulated operations (§5.2) ----

// emulCall routes an ALU operation through a runtime helper, the paper's
// mechanism for instructions the hardware lacks (e.g. integer division on
// Alpha).  Helpers follow the emulation convention: operands in the first
// two integer argument registers, result in the integer return register,
// every other register preserved.  The sequence saves and restores the
// registers it borrows, including RA, so it is legal even in a declared
// leaf procedure — exactly the paper's "VCODE ignores client hints" escape.
func (a *Asm) emulCall(op Op, t Type, rd, rs1, rs2 Reg, imm int64, hasImm bool) {
	bk, b, c := a.backend, a.buf, a.conv
	sym, _ := bk.EmulatedOp(op, t)
	a0, a1, v0, ra, sp := c.IntArgs[0], c.IntArgs[1], c.RetInt, c.RA, c.SP
	if rs1 == sp || rs2 == sp {
		a.failf("vcode: emulated op on SP is unsupported")
		return
	}
	const area = 48
	emit := func(err error) bool {
		if err != nil {
			a.setErr(err)
			return false
		}
		return true
	}
	if !emit(bk.ALUImm(b, OpAdd, TypeL, sp, sp, -area)) {
		return
	}
	// Park operands first (their current values are still intact even if
	// they alias the borrowed registers), then the borrowed registers.
	if !emit(bk.Store(b, TypeL, rs1, sp, 0)) {
		return
	}
	if !hasImm && !emit(bk.Store(b, TypeL, rs2, sp, 8)) {
		return
	}
	if !emit(bk.Store(b, TypeL, a0, sp, 16)) {
		return
	}
	if !emit(bk.Store(b, TypeL, a1, sp, 24)) {
		return
	}
	if rd != v0 && !emit(bk.Store(b, TypeL, v0, sp, 32)) {
		return
	}
	if !emit(bk.Store(b, TypeL, ra, sp, 40)) {
		return
	}
	if !emit(bk.Load(b, TypeL, a0, sp, 0)) {
		return
	}
	if hasImm {
		if !emit(bk.SetImm(b, TypeL, a1, imm)) {
			return
		}
	} else if !emit(bk.Load(b, TypeL, a1, sp, 8)) {
		return
	}
	sites, err := bk.CallSite(b)
	if !emit(err) {
		return
	}
	a.relocs = append(a.relocs, Reloc{Kind: RelocCall, Sites: sites, Sym: sym})
	if rd != v0 && !emit(bk.Unary(b, OpMov, TypeL, rd, v0)) {
		return
	}
	if !emit(bk.Load(b, TypeL, ra, sp, 40)) {
		return
	}
	if rd != a0 && !emit(bk.Load(b, TypeL, a0, sp, 16)) {
		return
	}
	if rd != a1 && !emit(bk.Load(b, TypeL, a1, sp, 24)) {
		return
	}
	if rd != v0 && !emit(bk.Load(b, TypeL, v0, sp, 32)) {
		return
	}
	emit(bk.ALUImm(b, OpAdd, TypeL, sp, sp, area))
}

func f32bits(f float32) uint64 { return uint64(f32raw(f)) }
