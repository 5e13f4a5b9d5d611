package alpha

import (
	"fmt"
	"math"

	"repro/internal/exec"
)

// Alpha port of the predecoded direct-threaded execution engine
// (internal/exec): what exec's one decoder needs beside the table, whose
// fields name each operand's slot, and what exec's run loop executes the
// body through (port): plain, branch and the transfer handlers.  Alpha
// has no delay slots, and its load-use interlock never charges r31.  The
// fetch/switch Step in cpu.go stays the verification oracle;
// internal/exec/diff requires bit-identical state from both engines.

// Dense opcodes.  Each is described exactly once: a pc-relative branch
// (a row of kind exec.KindBranch, and bsr) by a case of branch, any other
// transfer or an undecodable word by the handler its number indexes, a
// plain instruction (a row of kind exec.KindOther) by a case of plain.
const (
	aBr uint16 = iota // also bsr: identical semantics
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
	aNumHandlers
)

const (
	aLda = aNumHandlers + iota
	aLdah
	aLdl
	aLdq
	aLdqU
	aLds
	aLdt
	aStl
	aStq
	aStqU
	aSts
	aStt
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
)

// Register helpers over the narrow predecoded operand fields.  Predecode
// only stores numbers below 32 in them; the mask tells the compiler, which
// would otherwise check every index.
func (c *CPU) tr(n uint8) uint64 { return c.r[n&31] }
func (c *CPU) twr(n uint8, v uint64) {
	if n != 31 {
		c.r[n&31] = v
	}
}

// topnd is the predecoded operate second operand: the 8-bit literal
// baked at predecode time, or rb.
func (c *CPU) topnd(in *exec.Instr) uint64 {
	if in.Flags&exec.FImm != 0 {
		return uint64(in.Imm)
	}
	return c.tr(in.B)
}

// taddr is the effective address of a load or store.
func (c *CPU) taddr(in *exec.Instr) uint64 { return c.tr(in.B) + uint64(in.Imm) }

// branch resolves in, an instruction of a pc-relative branch row
// (exec.KindBranch, and bsr, which shares br's opcode): it reports
// whether in is taken.  A conditional one fires the edge probe on every
// resolution, taken or not; br and bsr write their link and are not
// conditional.
func (c *CPU) branch(in *exec.Instr) bool {
	var taken bool
	switch in.Op {
	case aBr:
		c.twr(in.A, in.PC+4)
		return true
	case aBeq:
		taken = int64(c.tr(in.A)) == 0
	case aBne:
		taken = int64(c.tr(in.A)) != 0
	case aBlt:
		taken = int64(c.tr(in.A)) < 0
	case aBle:
		taken = int64(c.tr(in.A)) <= 0
	case aBgt:
		taken = int64(c.tr(in.A)) > 0
	case aBge:
		taken = int64(c.tr(in.A)) >= 0
	case aFbeq:
		taken = c.fT(uint32(in.A)) == 0
	case aFbne:
		taken = c.fT(uint32(in.A)) != 0
	case aFblt:
		taken = c.fT(uint32(in.A)) < 0
	case aFble:
		taken = c.fT(uint32(in.A)) <= 0
	case aFbgt:
		taken = c.fT(uint32(in.A)) > 0
	case aFbge:
		taken = c.fT(uint32(in.A)) >= 0
	default:
		panic(fmt.Sprintf("alpha: opcode %d at %#x is marked a branch and has no case", in.Op, in.PC))
	}
	if c.Edging() { // Edge's own guard: Edge is too big to inline
		c.Edge(in.PC, taken)
	}
	return taken
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
// an interlock that never charges $31, and its switches and handlers.
var port = exec.Port[*CPU]{
	Name: "alpha", Slots: 0, Never: 31, Bad: aBad,
	Plain: (*CPU).plain, Branch: (*CPU).branch,
	Handlers: []exec.Handler[*CPU]{
		aJump: func(c *CPU, b *exec.Body, in *exec.Instr) (int32, error) {
			// Read rb before the link write, as the oracle does.
			t := c.tr(in.B) &^ 3
			c.twr(in.A, in.PC+4)
			return b.Indirect(t, &c.ExtPC), nil
		},
		aBad: func(_ *CPU, _ *exec.Body, in *exec.Instr) (int32, error) {
			return 0, badWord(uint32(in.Imm), in.PC)
		},
	},
}

// Run executes b from index idx through the run loop every port shares.
func (c *CPU) Run(b *exec.Body, idx int, allow uint64) (uint64, error) {
	return port.Run(c, &c.State, b, idx, allow)
}

// badWord is what the oracle says of a word with no row: of its function
// field where the major opcode is an operate group, else of the opcode.
func badWord(w uint32, pc uint64) error {
	group, fn := "", w>>5&0x7f
	switch w >> 26 {
	case opInta:
		group = "INTA"
	case opIntl:
		group = "INTL"
	case opInts:
		group = "INTS"
	case opIntm:
		group = "INTM"
	case opFltl:
		group, fn = "FLTL", w>>5&0x7ff
	case opFlts:
		group, fn = "FLTS", w>>5&0x7ff
	case opFlti:
		group, fn = "FLTI", w>>5&0x7ff
	default:
		return fmt.Errorf("alpha: unknown opcode %#x (word %#08x) at %#x", w>>26, w, pc)
	}
	return fmt.Errorf("alpha: unknown %s funct %#x at %#x", group, fn, pc)
}

// plain executes code, which holds only plain instructions, in order.  It
// returns how many completed, the sum of the Stall bits of those it
// started, and the fault of the one that did not complete, if any.
func (c *CPU) plain(code []exec.Instr) (done int, bubbles uint64, err error) {
	for i := range code {
		in := &code[i]
		bubbles += uint64(in.Stall)
		switch in.Op {
		case aLda:
			c.twr(in.A, c.taddr(in))
		case aLdah:
			c.twr(in.A, c.tr(in.B)+uint64(in.Imm<<16))
		case aLdl:
			a := c.taddr(in)
			v, ok := c.Mem.Load4(a)
			if !ok {
				w, err := c.Mem.Load(a, 4)
				if err != nil {
					return i, bubbles, memErr("ldl", in, err)
				}
				v = uint32(w)
			}
			c.twr(in.A, uint64(int64(int32(v))))
		case aLdq:
			a := c.taddr(in)
			v, ok := c.Mem.Load8(a)
			if !ok {
				var err error
				if v, err = c.Mem.Load(a, 8); err != nil {
					return i, bubbles, memErr("ldq", in, err)
				}
			}
			c.twr(in.A, v)
		case aLdqU:
			v, err := c.Mem.Load(c.taddr(in)&^7, 8)
			if err != nil {
				return i, bubbles, memErr("ldq_u", in, err)
			}
			c.twr(in.A, v)
		case aLds:
			v, err := c.Mem.Load(c.taddr(in), 4)
			if err != nil {
				return i, bubbles, memErr("lds", in, err)
			}
			if in.A != 31 {
				c.f[in.A] = v
			}
		case aLdt:
			v, err := c.Mem.Load(c.taddr(in), 8)
			if err != nil {
				return i, bubbles, memErr("ldt", in, err)
			}
			if in.A != 31 {
				c.f[in.A] = v
			}
		case aStl:
			if a, v := c.taddr(in), uint32(c.tr(in.A)); !c.Mem.Store4(a, v) {
				if err := c.Mem.Store(a, 4, uint64(v)); err != nil {
					return i, bubbles, memErr("store", in, err)
				}
			}
		case aStq:
			if a, v := c.taddr(in), c.tr(in.A); !c.Mem.Store8(a, v) {
				if err := c.Mem.Store(a, 8, v); err != nil {
					return i, bubbles, memErr("store", in, err)
				}
			}
		case aStqU:
			if err := c.Mem.Store(c.taddr(in)&^7, 8, c.tr(in.A)); err != nil {
				return i, bubbles, memErr("store", in, err)
			}
		case aSts:
			if err := c.Mem.Store(c.taddr(in), 4, c.f[in.A]&0xffffffff); err != nil {
				return i, bubbles, memErr("store", in, err)
			}
		case aStt:
			if err := c.Mem.Store(c.taddr(in), 8, c.f[in.A]); err != nil {
				return i, bubbles, memErr("store", in, err)
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
		default:
			panic(fmt.Sprintf("alpha: opcode %d at %#x is marked plain and has no case", in.Op, in.PC))
		}
	}
	return len(code), bubbles, nil
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

func memErr(what string, in *exec.Instr, err error) error {
	return fmt.Errorf("alpha: %s at pc %#x: %w", what, in.PC, err)
}
