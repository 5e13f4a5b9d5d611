package alpha

import (
	"math"

	"repro/internal/exec"
)

// The Alpha port of the predecoded direct-threaded execution engine
// (internal/exec): what exec's one decoder needs beside the table
// (interlock), and what its run loop executes a body through (exec.Machine):
// Loop, the hot loop, Transfer, a branch by cond, and Step for the rest.  Alpha has no delay slots,
// and its interlock never charges r31.  The fetch/switch Step in cpu.go
// stays the oracle; internal/exec/diff requires bit-identical state.

// Dense opcodes, each described once: a pc-relative branch (and bsr) by
// cond, another transfer by a case of Transfer, a plain instruction by a
// case of Loop or, last of the plain ones, by Step alone (these come
// first, from 0, so that Loop's jump table needs no offset).
const (
	aLda uint16 = iota
	aLdah
	aLdl
	aLdq
	aLdqU
	aStl
	aStq
	aStqU
	aAddl
	aSubl
	aAddq
	aSubq
	aCmpeq
	aCmplt
	aCmple
	aCmpult
	aCmpule
	aAnd
	aBic
	aBis
	aOrnot
	aXor
	aEqv
	aSll
	aSrl
	aSra
	aZap
	aZapnot
	aExtbl
	aExtwl
	aInsbl
	aInswl
	aMskbl
	aMskwl
	aMull
	aMulq
	aCpys
	aCpysn
	aSqrts
	aSqrtt
	aAdds
	aSubs
	aMuls
	aDivs
	aAddt
	aSubt
	aMultT
	aDivt
	aCmpteq
	aCmptlt
	aCmptle
	aCvtts
	aCvtst
	aCvtqs
	aCvtqt
	aCvttqc
	// Loop has no case for these: Step runs them.
	aLds
	aLdt
	aSts
	aStt
	aNumPlain
)

const (
	aBr = aNumPlain + iota // also bsr: identical semantics
	aBeq
	aBne
	aBlt
	aBle
	aBgt
	aBge
	aFbeq
	aFbne
	aFblt
	aFble
	aFbgt
	aFbge
	aJump
	aBad // a word with no row
)

// Register helpers over the narrow predecoded operand fields, which index
// the register file with no mask and no bounds check: it has a slot for
// every uint8.  A write to r31 was predecoded to exec.Sink.
func (c *CPU) tr(n uint8) uint64     { return c.r[n] }
func (c *CPU) twr(n uint8, v uint64) { c.r[n] = v }

// topnd is the predecoded operate second operand: rb plus the 8-bit
// literal, one of which predecode made r31 or 0.
func (c *CPU) topnd(in *exec.Instr) uint64 { return c.tr(in.B) + uint64(in.Imm) }

// taddr is the effective address of a load or store.
func (c *CPU) taddr(in *exec.Instr) uint64 { return c.tr(in.B) + uint64(in.Imm) }

// cond reports whether in, of a pc-relative branch row (or bsr), is taken.
// An FP branch (they come last, in the integer ones' order) tests fa as
// its twin tests ra, whose conversion keeps its sign.
func (c *CPU) cond(in *exec.Instr) bool {
	x, op := float64(int64(c.r[in.A])), in.Op
	if op >= aFbeq {
		x, op = math.Float64frombits(c.f[in.A&31]), op-(aFbeq-aBeq)
	}
	switch op {
	case aBeq:
		return x == 0
	case aBne:
		return x != 0
	case aBlt:
		return x < 0
	case aBle:
		return x <= 0
	case aBgt:
		return x > 0
	case aBge:
		return x >= 0
	}
	return true // br, bsr
}

// link writes br's and bsr's return address, before cond; branch is both.
func (c *CPU) link(in *exec.Instr) {
	if in.Op == aBr {
		c.twr(in.A, in.PC+4)
	}
}

func (c *CPU) branch(in *exec.Instr) bool {
	c.link(in)
	return c.cond(in)
}

// Predecode unpacks words, the installed image of one function at base,
// into a fresh threaded body (Decode, each word looked up).
func (c *CPU) Predecode(words []uint32, base uint64) *exec.Body {
	return exec.Predecode(words, base, c.Decode)
}

// Decode unpacks words into b through exec's one decoder, from the table.
func (*CPU) Decode(b *exec.Body, words []uint32, rows []*exec.Row) { port.Decode(isa, b, words, rows) }

// interlock is the oracle's load-use check read off a word, which it
// makes before it decodes: every word reads ra; a register-form integer
// operate, decodable or not, reads rb; ldl, ldq and ldq_u load ra.
func interlock(w uint32) (srcA, srcB, load byte) {
	switch op := w >> 26; {
	case op >= opInta && op <= opIntm && w>>12&1 == 0:
		return 'a', 'b', 0
	case op == opLdl || op == opLdq || op == opLdqU:
		return 'a', 0, 'a'
	}
	return 'a', 0, 0
}

// port is what Alpha gives exec's decoder and run loop: no delay slots,
// and an interlock that never charges $31.
var port = exec.Port{Slots: 0, Never: 31, Bad: aBad, Uncond: aBr}

// Transfer is exec.Machine.Transfer: the jumps, and a pc-relative branch
// (or bsr) by branch.
func (c *CPU) Transfer(b *exec.Body, in *exec.Instr) int32 {
	switch in.Op {
	case aJump:
		// Read rb before the link write, as the oracle does.
		t := c.tr(in.B) &^ 3
		c.twr(in.A, in.PC+4)
		return b.Indirect(t, &c.ExtPC)
	}
	return port.Branch(&c.State, in, c.branch(in))
}

// Threaded returns the port and state the run loop executes c with, and
// the integer registers.
func (c *CPU) Threaded() (*exec.Port, *exec.State, *[32]uint64) {
	return &port, &c.State, (*[32]uint64)(c.r[:32])
}

// Loop is exec.Machine.Loop: integer and FP operates, the quadword (aligned
// or not) and longword loads and stores the inline accessors answer, and
// folds.
func (c *CPU) Loop(code []exec.Instr, i int, left uint64) (int, uint64) {
	in, pc := &code[i], &code // code itself stays in memory while a segment runs
	c.BaseCycles += exec.Bubble(in, c.LastLoad, 31)
	for {
		if in.Run != 0 {
			seg, start, after := code[:i+int(min(uint64(in.Run), left))], i, in.Target
		loop:
			for ; uint(i) < uint(len(seg)); i++ {
				in := &seg[i]
				switch in.Op & 127 { // every value a case: no range check
				case aLda:
					c.twr(in.A, c.taddr(in))
				case aLdah:
					c.twr(in.A, c.tr(in.B)+uint64(in.Imm<<16))
				case aLdl:
					v, ok := c.Mem.Load4(c.taddr(in))
					if !ok {
						break loop
					}
					c.twr(in.A, uint64(int64(int32(v))))
				case aLdq:
					v, ok := c.Mem.Load8(c.taddr(in))
					if !ok {
						break loop
					}
					c.twr(in.A, v)
				case aLdqU:
					v, ok := c.Mem.Load8(c.taddr(in) &^ 7)
					if !ok {
						break loop
					}
					c.twr(in.A, v)
				case aStl:
					if !c.Mem.Store4(c.taddr(in), uint32(c.tr(in.A))) {
						break loop
					}
				case aStq:
					if !c.Mem.Store8(c.taddr(in), c.tr(in.A)) {
						break loop
					}
				case aStqU:
					if !c.Mem.Store8(c.taddr(in)&^7, c.tr(in.A)) {
						break loop
					}
				case aAddl:
					c.twr(in.C, uint64(int64(int32(c.tr(in.A)+c.topnd(in)))))
				case aSubl:
					c.twr(in.C, uint64(int64(int32(c.tr(in.A)-c.topnd(in)))))
				case aAddq:
					c.twr(in.C, c.tr(in.A)+c.topnd(in))
				case aSubq:
					c.twr(in.C, c.tr(in.A)-c.topnd(in))
				case aCmpeq:
					c.twr(in.C, b2u64(c.tr(in.A) == c.topnd(in)))
				case aCmplt:
					c.twr(in.C, b2u64(int64(c.tr(in.A)) < int64(c.topnd(in))))
				case aCmple:
					c.twr(in.C, b2u64(int64(c.tr(in.A)) <= int64(c.topnd(in))))
				case aCmpult:
					c.twr(in.C, b2u64(c.tr(in.A) < c.topnd(in)))
				case aCmpule:
					c.twr(in.C, b2u64(c.tr(in.A) <= c.topnd(in)))
				case aAnd:
					c.twr(in.C, c.tr(in.A)&c.topnd(in))
				case aBic:
					c.twr(in.C, c.tr(in.A)&^c.topnd(in))
				case aBis:
					c.twr(in.C, c.tr(in.A)|c.topnd(in))
				case aOrnot:
					c.twr(in.C, c.tr(in.A)|^c.topnd(in))
				case aXor:
					c.twr(in.C, c.tr(in.A)^c.topnd(in))
				case aEqv:
					c.twr(in.C, c.tr(in.A)^^c.topnd(in))
				case aSll:
					c.twr(in.C, c.tr(in.A)<<(c.topnd(in)&63))
				case aSrl:
					c.twr(in.C, c.tr(in.A)>>(c.topnd(in)&63))
				case aSra:
					c.twr(in.C, uint64(int64(c.tr(in.A))>>(c.topnd(in)&63)))
				case aZap:
					c.twr(in.C, c.tr(in.A)&^zapMask(c.topnd(in)))
				case aZapnot:
					c.twr(in.C, c.tr(in.A)&zapMask(c.topnd(in)))
				case aExtbl:
					c.twr(in.C, c.tr(in.A)>>(8*(c.topnd(in)&7))&0xff)
				case aExtwl:
					c.twr(in.C, c.tr(in.A)>>(8*(c.topnd(in)&7))&0xffff)
				case aInsbl:
					c.twr(in.C, (c.tr(in.A)&0xff)<<(8*(c.topnd(in)&7)))
				case aInswl:
					c.twr(in.C, (c.tr(in.A)&0xffff)<<(8*(c.topnd(in)&7)))
				case aMskbl:
					c.twr(in.C, c.tr(in.A)&^(uint64(0xff)<<(8*(c.topnd(in)&7))))
				case aMskwl:
					c.twr(in.C, c.tr(in.A)&^(uint64(0xffff)<<(8*(c.topnd(in)&7))))
				case aMull:
					c.twr(in.C, uint64(int64(int32(c.tr(in.A))*int32(c.topnd(in)))))
					c.BaseCycles += 7
				case aMulq:
					c.twr(in.C, c.tr(in.A)*c.topnd(in))
					c.BaseCycles += 11
				case aCpys:
					if in.C != 31 {
						c.f[in.C] = c.f[in.B]&^(1<<63) | c.f[in.A]&(1<<63)
					}
				case aCpysn:
					// The oracle writes f31 here (no guard); keep the quirk.
					c.f[in.C] = c.f[in.B] ^ 1<<63
				case aSqrts:
					c.wfS(uint32(in.C), float32(math.Sqrt(float64(c.fS(uint32(in.B))))))
					c.BaseCycles += 29
				case aSqrtt:
					c.wfT(uint32(in.C), math.Sqrt(c.fT(uint32(in.B))))
					c.BaseCycles += 29
				case aAdds:
					c.wfS(uint32(in.C), c.fS(uint32(in.A))+c.fS(uint32(in.B)))
					c.BaseCycles++
				case aSubs:
					c.wfS(uint32(in.C), c.fS(uint32(in.A))-c.fS(uint32(in.B)))
					c.BaseCycles++
				case aMuls:
					c.wfS(uint32(in.C), c.fS(uint32(in.A))*c.fS(uint32(in.B)))
					c.BaseCycles += 3
				case aDivs:
					c.wfS(uint32(in.C), c.fS(uint32(in.A))/c.fS(uint32(in.B)))
					c.BaseCycles += 11
				case aAddt:
					c.wfT(uint32(in.C), c.fT(uint32(in.A))+c.fT(uint32(in.B)))
					c.BaseCycles++
				case aSubt:
					c.wfT(uint32(in.C), c.fT(uint32(in.A))-c.fT(uint32(in.B)))
					c.BaseCycles++
				case aMultT:
					c.wfT(uint32(in.C), c.fT(uint32(in.A))*c.fT(uint32(in.B)))
					c.BaseCycles += 4
				case aDivt:
					c.wfT(uint32(in.C), c.fT(uint32(in.A))/c.fT(uint32(in.B)))
					c.BaseCycles += 18
				case aCmpteq:
					c.wfT(uint32(in.C), cmpResult(c.fT(uint32(in.A)) == c.fT(uint32(in.B))))
				case aCmptlt:
					c.wfT(uint32(in.C), cmpResult(c.fT(uint32(in.A)) < c.fT(uint32(in.B))))
				case aCmptle:
					c.wfT(uint32(in.C), cmpResult(c.fT(uint32(in.A)) <= c.fT(uint32(in.B))))
				case aCvtts:
					c.wfS(uint32(in.C), float32(c.fT(uint32(in.B))))
				case aCvtst:
					c.wfT(uint32(in.C), float64(c.fS(uint32(in.B))))
				case aCvtqs:
					c.wfS(uint32(in.C), float32(int64(c.f[in.B])))
				case aCvtqt:
					c.wfT(uint32(in.C), float64(int64(c.f[in.B])))
				case aCvttqc:
					// The oracle writes f[fc] unguarded here; keep the quirk.
					c.f[in.C] = uint64(truncToI64(c.fT(uint32(in.B))))
				case 127:
					break loop
				default:
					break loop
				}
			}
			if i == start {
				break
			}
			last := &seg[i-1]
			c.BaseCycles += uint64(after - last.Target)
			c.LastLoad, left = int(int8(last.LoadReg)), left-uint64(i-start)
			if i < len(seg) { // declined: it pays its Stall bit, reached by falling through
				c.BaseCycles += uint64((*pc)[i].Stall)
				break
			}
			if i == len(*pc) {
				break
			}
			in = &(*pc)[i]
			if c.BaseCycles += uint64(in.Stall); in.Run != 0 && left > 0 {
				continue // a run longer than Run holds
			}
		}
		// A folded branch, where a segment ends.
		if in.Flags&exec.FFold == 0 || left == 0 {
			if left == 0 { // not reached: it pays nothing yet
				c.BaseCycles -= exec.Bubble(in, c.LastLoad, 31)
			}
			break
		}
		c.LastLoad, left = -1, left-1
		if c.link(in); c.cond(in) {
			i = int(in.Target)
		} else {
			i++
		}
		if left == 0 || i == len(*pc) {
			break
		}
		in = &(*pc)[i]
	}
	return i, left
}

func zapMask(b uint64) uint64 {
	mask := uint64(0)
	for i := 0; i < 8; i++ {
		if b>>i&1 == 1 {
			mask |= 0xff << (8 * i)
		}
	}
	return mask
}
