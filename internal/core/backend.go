package core

import "repro/internal/exec"

// Backend is the per-target port of VCODE: what a port writes beside the
// two declarations it hands NewTemplates, its Mapping and its Fixed.  What
// is the same on every machine is not restated here: core lays down the
// activation record (frame.go) from the port's Load, Store, return word and
// one stack-pointer adjust, emits a register-offset load or store from the
// mapped rows (Asm.Ld, Asm.St), emits the words the mapping and fixed
// words declare (Templates) and patches through the port's instruction
// table (ISA).  Retargeting VCODE means declaring those two and
// implementing this interface (paper §3.3); the MIPS, SPARC and Alpha
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

	// ALU emits rd = rs1 op rs2 for a binary operation.
	ALU(b *Buf, op Op, t Type, rd, rs1, rs2 Reg) error
	// ALUImm emits rd = rs op imm.  Out-of-range immediates are
	// materialized into the assembler scratch register.
	ALUImm(b *Buf, op Op, t Type, rd, rs Reg, imm int64) error
	// Unary emits rd = op rs (com, not, mov, neg): the mapped row
	// (Templates.Unary), else the port's multi-word expansion.  Core takes
	// the mapped row itself and calls this for the rest.
	Unary(b *Buf, op Op, t Type, rd, rs Reg) error
	// SetImm emits rd = imm for an integer or pointer type.
	SetImm(b *Buf, t Type, rd Reg, imm int64) error
	// Cvt emits rd = (to)rs, converting between VCODE types.
	Cvt(b *Buf, from, to Type, rd, rs Reg) error
	// Load emits rd = *(t*)(base + off).
	Load(b *Buf, t Type, rd, base Reg, off int64) error
	// Store emits *(t*)(base + off) = rs.
	Store(b *Buf, t Type, rs, base Reg, off int64) error

	// Branch emits a conditional branch comparing rs1 and rs2 with an
	// unresolved target, returning the instruction index to patch; on
	// delay-slot machines the slot holds a nop.  The mapped compare and
	// branch (Mapping.Br) is core.Branch; a port's method adds only what no
	// rule covers.  Core takes the mapped form itself and calls this for
	// the rest.
	Branch(b *Buf, op Op, t Type, rs1, rs2 Reg) (int, error)
	// BranchImm is Branch with an immediate second operand: the mapped
	// zero or immediate form, else the immediate set into the scratch
	// register and Branch (core.BranchImm).
	BranchImm(b *Buf, op Op, t Type, rs Reg, imm int64) (int, error)

	// Templates returns the port's instruction mapping and fixed words,
	// built once (NewTemplates) from its declarations: the core emits a
	// generic emitter's single-word encodings, the unary ops, the
	// conditional branches, the hardware extensions and the fixed-shape
	// words — nop, jumps, calls, the address pair, the frame adjust and the
	// return — from it, relocates the fixed words (fixed.go), and calls a
	// runtime helper for each operation it emulates.
	Templates() *Templates

	// ISA returns the port's instruction table, with its one declaration
	// of where each operand sits: the port's mapping is built over it, End
	// patches branch sites and incoming stack-argument loads through it,
	// and the loader relocates calls and addresses through it.
	ISA() *exec.Table

	// Disasm decodes one instruction word at byte address pc for
	// debugging and tests.
	Disasm(w uint32, pc uint64) string

	// Classify decodes the control-flow behaviour of one word for the
	// pre-install verifier (internal/verify): whether it branches,
	// calls or jumps indirect, and the absolute target when it is
	// statically known.  Together with Disasm and BranchDelaySlots this
	// makes every Backend a verify.Decoder.
	Classify(w uint32, pc uint64) exec.Insn
}
