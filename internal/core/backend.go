package core

import "repro/internal/verify"

// Backend is the per-target port of VCODE: the mapping from the core
// instruction set onto one machine's binary encodings plus that machine's
// calling conventions and activation-record layout.  Retargeting VCODE
// means implementing this interface (paper §3.3); the MIPS, SPARC and Alpha
// ports live in internal/mips, internal/sparc and internal/alpha.
//
// All emitters append encoded words to b immediately.  Emitters that need a
// scratch register (e.g. to materialize an out-of-range immediate) use the
// target's reserved assembler-temporary register internally; scratch use
// never escapes the single VCODE instruction being emitted.
type Backend interface {
	// Name returns the target name ("mips", "sparc", "alpha").
	Name() string
	// PtrBytes returns the native word/pointer size (4 or 8).
	PtrBytes() int
	// RegFile describes the target's register banks.
	RegFile() *RegFile
	// DefaultConv returns the target's standard calling convention.  The
	// returned value is shared; clients wanting to modify conventions
	// must Clone it first.
	DefaultConv() *CallConv
	// BranchDelaySlots returns the number of architectural branch delay
	// slots (1 on MIPS/SPARC, 0 on Alpha).
	BranchDelaySlots() int
	// LoadDelay returns the number of instructions that must separate a
	// load from the first use of its result to avoid a stall.
	LoadDelay() int
	// BigEndian reports the target byte order.
	BigEndian() bool
	// ScratchReg returns the reserved integer assembler-temporary
	// register; ScratchFPR the reserved floating-point one.  Neither is
	// ever handed out by the allocator; the core uses them only inside
	// single synthesized VCODE instructions.
	ScratchReg() Reg
	ScratchFPR() Reg
	// RetAddrOffset is the displacement added to the link register to
	// form the return address (8 on SPARC, 0 elsewhere).
	RetAddrOffset() int

	// ALU, ALUImm, Load and Store must be pure functions of their
	// arguments — the same words for the same (op, type, registers,
	// immediate) on every instance of the port, whatever was emitted
	// before: the core reads each single-word encoding off them once per
	// Backend type (TemplatesOf) and from then on fills it in itself.

	// ALU emits rd = rs1 op rs2 for a binary operation.
	ALU(b *Buf, op Op, t Type, rd, rs1, rs2 Reg) error
	// ALUImm emits rd = rs op imm.  Out-of-range immediates are
	// materialized into the assembler scratch register.
	ALUImm(b *Buf, op Op, t Type, rd, rs Reg, imm int64) error
	// Unary emits rd = op rs (com, not, mov, neg).
	Unary(b *Buf, op Op, t Type, rd, rs Reg) error
	// SetImm emits rd = imm for an integer or pointer type.
	SetImm(b *Buf, t Type, rd Reg, imm int64) error
	// Cvt emits rd = (to)rs, converting between VCODE types.
	Cvt(b *Buf, from, to Type, rd, rs Reg) error
	// Load emits rd = *(t*)(base + off).
	Load(b *Buf, t Type, rd, base Reg, off int64) error
	// LoadRR emits rd = *(t*)(base + idx).
	LoadRR(b *Buf, t Type, rd, base, idx Reg) error
	// Store emits *(t*)(base + off) = rs.
	Store(b *Buf, t Type, rs, base Reg, off int64) error
	// StoreRR emits *(t*)(base + idx) = rs.
	StoreRR(b *Buf, t Type, rs, base, idx Reg) error

	// Branch emits a conditional branch comparing rs1 and rs2 with an
	// unresolved target, returning the instruction index to patch.  On
	// delay-slot machines the slot is filled with a nop.
	Branch(b *Buf, op Op, t Type, rs1, rs2 Reg) (int, error)
	// BranchImm is Branch with an immediate second operand.
	BranchImm(b *Buf, op Op, t Type, rs Reg, imm int64) (int, error)
	// Jump emits an unconditional jump with an unresolved intra-function
	// target, returning the patch site.
	Jump(b *Buf) (int, error)
	// JumpReg emits a jump through a register.
	JumpReg(b *Buf, r Reg) error
	// CallSite emits a call (jump-and-link) whose absolute target is
	// resolved at install time, returning the word indices the loader
	// must patch (RelocCall).
	CallSite(b *Buf) ([]int, error)
	// CallLabel emits a PC-relative call to an intra-function label,
	// returning a patch site resolvable with PatchBranch.
	CallLabel(b *Buf) (int, error)
	// CallReg emits a call through a register.
	CallReg(b *Buf, r Reg) error
	// PatchBranch resolves the branch or jump at patch site to target
	// (an instruction index in the same buffer).
	PatchBranch(b *Buf, site, target int) error
	// PatchCall resolves a CallSite to an absolute byte address; base is
	// the address of buffer word 0.
	PatchCall(b *Buf, sites []int, base, target uint64) error
	// PatchMemOffset rewrites the immediate displacement of the load or
	// store at site (used to fix incoming stack-argument loads once the
	// final frame size is known).
	PatchMemOffset(b *Buf, site int, off int64) error
	// RetEncoding returns the single-word plain-return instruction, used
	// to rewrite jump-to-epilogue sites into direct returns when the
	// finished function turns out to need no epilogue (paper §5.2).
	RetEncoding(conv *CallConv) uint32

	// LoadAddr emits code materializing an absolute address into rd,
	// returning the word indices the loader patches (RelocAddr).
	LoadAddr(b *Buf, rd Reg) ([]int, error)
	// PatchAddr resolves a LoadAddr site to the absolute address addr.
	PatchAddr(b *Buf, sites []int, addr uint64) error

	// Nop emits a no-op.
	Nop(b *Buf)
	// IsNop reports whether word w encodes the canonical nop.
	IsNop(w uint32) bool

	// MaxPrologueWords returns the worst-case prologue size in words for
	// the given convention (frame adjust + RA + all callee-saved saves).
	MaxPrologueWords(conv *CallConv) int
	// Prologue writes the actual prologue for frame fr into
	// b.w[at:at+MaxPrologueWords] and returns the number of words
	// written; the caller points the function entry at the tail of the
	// reserved region so no filler executes.
	Prologue(b *Buf, at int, conv *CallConv, fr *Frame) (int, error)
	// Epilogue appends the epilogue: restore saved registers, pop the
	// frame, return.
	Epilogue(b *Buf, conv *CallConv, fr *Frame) error

	// EmulatedOp reports the runtime-helper symbol for operations the
	// target cannot perform inline (e.g. integer division on Alpha).
	// The helper convention: operands in the first integer argument
	// registers, result in the integer return register, all other
	// registers preserved.  The answer must depend only on the port, not
	// on the instance: the core asks once per Backend type and keeps the
	// set (EmulatedOpsOf).
	EmulatedOp(op Op, t Type) (sym string, ok bool)

	// Extension hooks (paper §5.4): TryExt emits the named extension
	// instruction directly if the hardware supports it, reporting
	// whether it did; otherwise the portable core-level definition runs.
	TryExt(b *Buf, name string, t Type, rd Reg, rs []Reg) (bool, error)

	// Disasm decodes one instruction word at byte address pc for
	// debugging and tests.
	Disasm(w uint32, pc uint64) string

	// Classify decodes the control-flow behaviour of one word for the
	// pre-install verifier (internal/verify): whether it branches,
	// calls or jumps indirect, and the absolute target when it is
	// statically known.  Together with Disasm and BranchDelaySlots this
	// makes every Backend a verify.Decoder.
	Classify(w uint32, pc uint64) verify.Insn
}

// RegFile describes a target's register banks.
type RegFile struct {
	NumGPR int
	NumFPR int
	// GPRName/FPRName give assembly names, indexed by register number.
	GPRName []string
	FPRName []string
}

// Name returns the assembly name of r.
func (f *RegFile) Name(r Reg) string {
	if !r.Valid() {
		return "r?"
	}
	if r.IsFP() {
		if n := r.Num(); n < len(f.FPRName) {
			return f.FPRName[n]
		}
	} else if n := r.Num(); n < len(f.GPRName) {
		return f.GPRName[n]
	}
	return r.String()
}

// Frame describes one generated function's activation record.  Following
// the paper (§5.2), the register save area is allocated at its worst-case
// fixed size so that save-area offsets and local offsets are known the
// moment they are needed; the space cost is at most a few dozen words of
// stack per live activation.
type Frame struct {
	// Leaf records the client's v_lambda leaf declaration.
	Leaf bool
	// SavedGPR/SavedFPR list the callee-saved registers actually used,
	// in save order.  Filled in as the allocator hands them out.
	SavedGPR []Reg
	SavedFPR []Reg
	// SaveRA is set when the function may call (non-leaf).
	SaveRA bool
	// LocalBytes is the running size of v_local allocations.
	LocalBytes int64
	// SaveAreaBytes is the fixed worst-case register save area size,
	// computed from the convention at Begin.
	SaveAreaBytes int64
	// Size is the final frame size in bytes (set at End).
	Size int64
}
