// Package exec holds the backend-neutral part of the predecoded
// direct-threaded execution engine (ROADMAP item 1).
//
// The fetch/switch simulators re-decode every raw uint32 word on every
// retired instruction.  The threaded engine instead pays decode cost
// once, at install time: each verified function body is unpacked into a
// flat contiguous []Instr — one struct per word, operands extracted,
// static branch targets pre-resolved to array indices, straight-line
// runs measured — and execution becomes each port's switch loop, which
// runs plain instructions and resolves in-body branches without a call
// (the minijit "VMCodeGen" idiom: contiguous memory, locality, fewer
// per-instruction checks).  Port.Run, which every backend runs through,
// enters that loop and takes what it stops at: a transfer by the port's
// Transfer, anything else as one Step of the port's oracle.  A backend
// gives it its shape (Port) and those three methods (Machine), and its
// simulator keeps their shared state in State.
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

// Sink is the register a predecoded write to the hardwired zero register
// names instead (Row.Writes), past the 32: the zero register stays zero.
const Sink uint8 = 32

// Instr flags.
const (
	// FImm marks the immediate/literal operand form of an instruction
	// whose second source is otherwise a register (SPARC operand2,
	// Alpha operate literals).
	FImm uint8 = 1 << 0
	// FNop marks the canonical nop.  Port.Run retires one in the delay slot
	// of a taken transfer, where the code generators put one unless a
	// client scheduled the slot, without dispatching it.
	FNop uint8 = 1 << 1
	// FFold marks a branch a port's Loop resolves in place, with no
	// handler call and no transfer bookkeeping: its row is a pc-relative
	// branch (exec.KindBranch), its target is in the body, and where the
	// ISA has a delay slot the slot is the canonical nop.  Port.Decode sets
	// it and MarkRuns keeps it only where all three hold.
	FFold uint8 = 1 << 2
)

// Instr is one predecoded instruction.  Which operand goes in A, B, C and
// Imm is declared once, by the Slot of each field a row's syntax names
// (Field); a port's run, slow, cond and handlers read them by that
// declaration, and Port.Run reads only the shared fields.  The shared
// shape is:
//
//	Op      dense backend-local opcode: a case of the backend's run
//	        switch if the instruction is plain, else its handler's index
//	A, B, C unpacked register operands (sources / destination, Sink for
//	        a written zero register: Row.Writes)
//	Imm     the immediate its field gives (a shift count, displacement
//	        or literal; FImm marks the number form of a field of two, whose
//	        B is the zero register: B plus Imm is the operand either way),
//	        or — for a static control transfer that leaves the body — the
//	        target address; for a malformed encoding, the raw word (so the
//	        error handler reproduces the oracle's exact message)
//	Target  pre-resolved static branch destination: an in-body array
//	        index, or External (address in Imm); for a plain instruction,
//	        the sum of the Stall bits after it in its run (MarkRuns)
//	PC      the instruction's own address (link values, error text)
//	SrcA/SrcB  consumer registers checked against the load-interlock
//	        (NoReg when the backend charges no stall on that slot)
//	LoadReg the interlock-producing destination of a tracked load
//	        (NoReg otherwise)
//	Run     how many consecutive instructions from this one on are plain
//	        (their table row is exec.KindOther: they fall through and
//	        touch no control state) or words with no row (which fault);
//	        0 for a transfer.  A port's Loop executes a run as one
//	        segment, without a call or a per-instruction budget check,
//	        and stops at what it has no case for (MarkRuns)
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

// Predecode is the thin form of a port's Decode: a fresh body at base,
// each word looked up as it is unpacked.
func Predecode(words []uint32, base uint64, decode func(b *Body, words []uint32, rows []*Row)) *Body {
	b := &Body{Base: base, Code: make([]Instr, len(words))}
	decode(b, words, nil)
	return b
}

// Decode unpacks words, the image of one function at b.Base, into b.Code,
// one Instr each, written in full, from its row in t (rows[i], or looked
// up when rows is nil): the interlock registers at the fields the row
// keeps for them, its opcode, its operands, Run 1 if it is plain (for
// MarkRuns to extend), FFold if it is a pc-relative branch (MarkRuns
// keeps it where the run loop can resolve the branch itself) and the
// target its field gives, in b or External.  It is pure.  A word with no
// row becomes p.Bad with Run 1, which Step refuses in the oracle's words,
// so unreachable garbage (pads, literal pools) still installs.
func (p *Port) Decode(t *Table, b *Body, words []uint32, rows []*Row) {
	slots, nop, locks := p.Slots > 0, p.Nop, t.rule != nil
	if rows == nil {
		rows = make([]*Row, len(words))
		for i, w := range words {
			rows[i] = t.Lookup(w)
		}
	}
	// The loop calls nothing, so what it reads stays in registers.
	code, rows, bad := b.Code[:len(words)], rows[:len(words)], false
	for i, w := range words {
		in, r := &code[i], rows[i]
		*in = Instr{PC: b.Base + 4*uint64(i), SrcA: NoReg, SrcB: NoReg, LoadReg: NoReg}
		if r == nil {
			in.Op, in.Imm, bad = p.Bad, int64(w), true
			continue
		}
		// Form 1 is a field's number form; a branch, not an index, picks o.
		form, o := w>>(r.sel&31)&uint32(r.two), &r.ops[0]
		if form != 0 {
			o = &r.ops[1]
		}
		in.Op, in.Flags, in.Imm = r.Op, uint8(form)*FImm, o.imm(w)
		in.A, in.B, in.C = o.reg(0, w), o.reg(1, w), o.reg(2, w)
		if locks {
			in.SrcA, in.SrcB, in.LoadReg = o.reg(3, w), o.reg(4, w), o.reg(5, w)
		}
		if w&o.dmask == o.dzero { // it writes the zero register
			switch o.dst {
			case 0:
				in.A = Sink
			case 1:
				in.B = Sink
			default:
				in.C = Sink
			}
		}
		switch r.Kind {
		case KindOther:
			in.Run = 1
		case KindBranch:
			in.Flags |= FFold
		}
		if ins := r.Insn(w, in.PC); ins.HasTarget && b.Contains(ins.Target) {
			in.Target = int32(b.IndexOf(ins.Target))
		} else if ins.HasTarget {
			in.Target, in.Imm = External, int64(ins.Target)
		}
		if w == nop && slots {
			in.Flags |= FNop
		}
	}
	for i := 0; bad && i < len(rows); i++ { // a bad word's interlock: the rule, for it alone
		if o, w := (operands{}), words[i]; rows[i] == nil {
			t.lock(&o, w, w)
			code[i].SrcA, code[i].SrcB, code[i].LoadReg, code[i].Run = o.reg(3, w), o.reg(4, w), o.reg(5, w), 1
		}
	}
	MarkRuns(b.Code, p.Never, p.Slots)
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
// Stall from the interlock metadata and, on a plain instruction, Target
// to the sum of the Stall bits after it in its run, and keeps FFold only
// on a branch whose target is in the body and, when the ISA has slots
// (delay slots per transfer, 0 or 1), whose slot is in the body and a
// nop.  never is the register the backend's interlock does not charge
// (the hardwired zero), NoReg if it has none.
func MarkRuns(code []Instr, never uint8, slots int) {
	run, sum := uint16(0), int32(0) // code[i+1]'s Run and Target
	for i := len(code) - 1; i >= 0; i-- {
		in := &code[i]
		if in.Flags&FFold != 0 && (in.Target < 0 ||
			slots > 0 && (i+1 == len(code) || code[i+1].Flags&FNop == 0)) {
			in.Flags &^= FFold
		}
		if ld := in.LoadReg; ld != NoReg && ld != never && i+1 < len(code) {
			if next := &code[i+1]; next.SrcA == ld || next.SrcB == ld {
				next.Stall = 1
				sum += int32(min(run, 1)) // in code[i+1]'s run, if it has one
			}
		}
		if in.Run == 0 {
			run, sum = 0, 0
			continue
		}
		run = min(run, math.MaxUint16-1) + 1
		in.Run, in.Target = run, sum
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
