// Package exec holds the backend-neutral data types for the predecoded
// direct-threaded execution engine (ROADMAP item 1).
//
// The fetch/switch simulators re-decode every raw uint32 word on every
// retired instruction.  The threaded engine instead pays decode cost
// once, at install time: each verified function body is unpacked into a
// flat contiguous []Instr — one struct per word, operands extracted,
// static branch targets pre-resolved to array indices — and execution
// becomes a tight loop over a dense opcode-indexed table of handler
// function pointers (the minijit "VMCodeGen" idiom: contiguous memory,
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

import "unsafe"

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

// OpTableSize is the dispatch-table length every backend declares: a
// power of two no smaller than any backend's opcode count, so the hot
// loop can index its table with Op & OpMask and the compiler elides the
// bounds check.  Predecoders only assign opcodes below their backend's
// count (each backend static-asserts that fits), so the mask never
// changes which handler runs.
const (
	OpTableSize = 128
	OpMask      = OpTableSize - 1
)

// Instr flags.
const (
	// FImm marks the immediate/literal operand form of an instruction
	// whose second source is otherwise a register (SPARC operand2,
	// Alpha operate literals).
	FImm uint8 = 1 << 0
)

// Instr is one predecoded instruction.  Field meaning is backend- and
// opcode-specific (the predecoder and the handler table for a backend
// agree on the convention); the shared shape is:
//
//	Op      dense backend-local opcode, the handler-table index
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

// SetTarget records a statically-known branch destination: an in-body
// aligned target becomes its array index, anything else is External with
// the raw address kept in Imm.
func (in *Instr) SetTarget(base uint64, n int, target uint64) {
	if target >= base && target < base+4*uint64(n) && (target-base)%4 == 0 {
		in.Target = int32((target - base) / 4)
		return
	}
	in.Target, in.Imm = External, int64(target)
}
