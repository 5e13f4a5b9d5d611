// Package exec holds the backend-neutral data types for the predecoded
// direct-threaded execution engine (ROADMAP item 1).
//
// The fetch/switch simulators re-decode every raw uint32 word on every
// retired instruction.  The threaded engine instead pays decode cost
// once, at install time: each verified function body is unpacked into a
// flat contiguous []Instr — one struct per word, operands extracted,
// static branch targets pre-resolved to array indices, straight-line
// runs measured — and execution becomes one switch loop per run of plain
// instructions, an in-body branch resolved in the same loop, and a call
// through a small table of handler function pointers only at any other
// control transfer (the minijit "VMCodeGen" idiom: contiguous memory,
// locality, fewer per-instruction checks).
//
// This package deliberately imports nothing from internal/core: core
// caches *Body values beside installed code, the three backend packages
// build and run them, and the import graph stays acyclic
// (backend -> exec, core -> exec, backend -> core).
//
// The raw-word interpreters remain the verification oracle — see
// internal/exec/diff for the differential harness that requires
// bit-identical architectural state from both engines.
package exec

import (
	"math"
	"unsafe"
)

// Handler results / pre-resolved target sentinels.  An Instr.Target of
// External means the statically-known destination lies outside the body
// (the address is carried in Imm); handlers also return External for
// runtime-computed transfers that leave the body, after depositing the
// destination address in the CPU's external-target slot.
const (
	// NoBranch, as a handler result, means "no control transfer":
	// execution falls through to the next array element.
	NoBranch int32 = -1
	// External marks a control transfer whose destination is outside
	// this body.
	External int32 = -2
)

// NoReg is the sentinel for "no register" in the interlock metadata
// fields (SrcA/SrcB/LoadReg).  Real register numbers are <= 31, so 0xff
// can never collide; int8(NoReg) == -1, which is exactly the "no
// pending load" value the switch interpreters keep in lastLoad.
const NoReg uint8 = 0xff

// Instr flags.
const (
	// FImm marks the immediate/literal operand form of an instruction
	// whose second source is otherwise a register (SPARC operand2,
	// Alpha operate literals).
	FImm uint8 = 1 << 0
	// FNop marks the canonical nop.  RunBody retires one in the delay slot
	// of a taken transfer, where the code generators put one unless a
	// client scheduled the slot, without dispatching it.
	FNop uint8 = 1 << 1
	// FFold marks a branch RunBody resolves in its own loop, with no
	// handler call and no transfer bookkeeping: its row is a pc-relative
	// branch (verify.KindBranch), its target is in the body, and where the
	// ISA has a delay slot the slot is the canonical nop.  Row.Start sets
	// it and MarkRuns keeps it only where all three hold.
	FFold uint8 = 1 << 2
)

// Instr is one predecoded instruction.  Field meaning is backend- and
// opcode-specific (a backend's predecoder and its RunBody agree on the
// convention); the shared shape is:
//
//	Op      dense backend-local opcode: a case of the backend's run
//	        switch if the instruction is plain, else its handler's index
//	A, B, C unpacked register operands (sources / destination)
//	Imm     sign-extended immediate, shift count, or — for a static
//	        control transfer that leaves the body — the target address;
//	        for a malformed encoding, the raw word (so the error
//	        handler reproduces the oracle's exact message)
//	Target  pre-resolved static branch destination: an in-body array
//	        index, or External (address in Imm); 0 for non-transfers
//	PC      the instruction's own address (link values, error text)
//	SrcA/SrcB  consumer registers checked against the load-interlock
//	        (NoReg when the backend charges no stall on that slot)
//	LoadReg the interlock-producing destination of a tracked load
//	        (NoReg otherwise)
//	Run     how many consecutive instructions from this one on are plain
//	        (their table row is verify.KindOther: they fall through and
//	        touch no control state); 0 for a transfer or a word with no
//	        row.  RunBody executes a run in one switch loop, without a
//	        call or a per-instruction check (MarkRuns)
//	Stall   1 when this instruction reads what its array predecessor
//	        loads: its load-use bubble when it is reached by falling
//	        through, which inside a run is the only way to reach it
//
// There is no fall-through field: the next instruction is always the
// next array element (the dispatch loops increment the index), and the
// raw word survives only inside Imm for malformed encodings.  Both were
// dropped deliberately to pin the struct at 32 bytes — two per cache
// line, shift-indexed — which is measurable at threaded dispatch rates;
// the assertion below refuses to compile if a field pushes it past 32.
type Instr struct {
	Imm     int64
	PC      uint64
	Target  int32
	Op      uint16
	Flags   uint8
	A, B, C uint8
	SrcA    uint8
	SrcB    uint8
	LoadReg uint8
	Stall   uint8
	Run     uint16
}

// Compile-time pin: Instr must stay exactly 32 bytes.
var _ [32 - unsafe.Sizeof(Instr{})]byte
var _ [unsafe.Sizeof(Instr{}) - 32]byte

// Body is the predecoded form of one installed function: Code[i]
// corresponds to the word at Base + 4*i.
type Body struct {
	Base uint64
	Code []Instr
}

// End returns the first address past the body.
func (b *Body) End() uint64 { return b.Base + 4*uint64(len(b.Code)) }

// Contains reports whether pc addresses a word inside the body.
func (b *Body) Contains(pc uint64) bool {
	return pc >= b.Base && pc < b.End() && (pc-b.Base)%4 == 0
}

// IndexOf maps an in-body pc to its Code index.  The caller must have
// checked Contains.
func (b *Body) IndexOf(pc uint64) int { return int(pc-b.Base) / 4 }

// MarkRuns is the backward pass that ends a Predecode.  The forward pass
// left Run at 1 on every plain instruction and 0 elsewhere; MarkRuns
// turns that into the length of the straight-line run starting at each
// instruction (saturating: a longer run is executed in pieces), sets
// Stall from the interlock metadata, and keeps FFold only on a branch
// whose target is in the body and, when the ISA has slots (delay slots
// per transfer, 0 or 1), whose slot is in the body and a nop.  never is
// the register the backend's interlock does not charge (the hardwired
// zero), NoReg if it has none.
func MarkRuns(code []Instr, never uint8, slots int) {
	run := uint16(0)
	for i := len(code) - 1; i >= 0; i-- {
		in := &code[i]
		if in.Flags&FFold != 0 && (in.Target < 0 ||
			slots > 0 && (i+1 == len(code) || code[i+1].Flags&FNop == 0)) {
			in.Flags &^= FFold
		}
		if in.Run == 0 {
			run = 0
		} else {
			if run < math.MaxUint16 {
				run++
			}
			in.Run = run
		}
		if ld := in.LoadReg; ld != NoReg && ld != never && i+1 < len(code) {
			if next := &code[i+1]; next.SrcA == ld || next.SrcB == ld {
				next.Stall = 1
			}
		}
	}
}

// Jump follows a statically resolved transfer: it returns the in-body
// index of its destination, or External after depositing the destination
// address in *ext, the CPU's external-target slot.
func (in *Instr) Jump(ext *uint64) int32 {
	if in.Target == External {
		*ext = uint64(in.Imm)
	}
	return in.Target
}

// Indirect classifies the runtime-computed destination a of a transfer
// out of b's code the way Jump does a static one.
func (b *Body) Indirect(a uint64, ext *uint64) int32 {
	if b.Contains(a) {
		return int32(b.IndexOf(a))
	}
	*ext = a
	return External
}
