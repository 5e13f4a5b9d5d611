package alpha

import (
	"fmt"
	"math"

	"repro/internal/exec"
)

// Alpha port of the predecoded direct-threaded execution engine
// (internal/exec); see internal/mips/threaded.go for the scheme.  Alpha
// has no delay slots, which makes RunBody the simplest of the three
// loops; the load-use interlock (ra always, rb only for register-form
// operates, r31 never charged) is precomputed into SrcA/SrcB/LoadReg.
// The fetch/switch Step in cpu.go stays the verification oracle;
// internal/exec/diff requires bit-identical state from both engines.

// Dense opcodes.  Each is described exactly once: a transfer or an
// undecodable word by the entry of alphaHandlers its number indexes, a
// plain instruction (a row of kind verify.KindOther) by a case of plain.
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
	aLda = aNumHandlers + iota // also ldah (displacement pre-shifted)
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
// would otherwise check every index (see the MIPS engine).
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
// (verify.KindBranch, and bsr, which shares br's opcode): it reports
// whether in is taken.  A conditional one fires the edge probe on every
// resolution, taken or not; br and bsr write their link and are not
// conditional.  RunBody calls it for a branch it folds, the handler for
// any other.
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
	if c.edgeEvery != 0 { // edge's own guard: edge is too big to inline
		c.edge(in.PC, taken)
	}
	return taken
}

// PendingDelay: Alpha has no delay slots.
func (c *CPU) PendingDelay() bool { return false }

// Predecode unpacks words into a threaded body: each word's row in the
// instruction table (isa.go) names its opcode, whether it is plain, and
// which operands to unpack.  Pure function of its arguments; a word with
// no row becomes aBad, whose handler reproduces the oracle's exact message.
func (c *CPU) Predecode(words []uint32, base uint64) *exec.Body {
	code := make([]exec.Instr, len(words))
	body := &exec.Body{Base: base, Code: code}
	for i, w := range words {
		in := &code[i]
		ra := uint8(w >> 21 & 31)
		rb := uint8(w >> 16 & 31)
		regForm := w>>12&1 == 0
		in.PC = base + 4*uint64(i)
		// Interlock metadata, mirroring the oracle's pre-dispatch check:
		// ra is always a stall candidate; rb only for register-form
		// integer operates, decodable or not.
		in.SrcA, in.SrcB, in.LoadReg = ra, exec.NoReg, exec.NoReg

		r := isa.Lookup(w)
		if r == nil {
			in.Op, in.Imm = aBad, int64(w)
			if op := w >> 26; op >= opInta && op <= opIntm && regForm {
				in.SrcB = rb
			}
			continue
		}
		r.Start(in, w, body)
		in.A, in.B = ra, rb
		switch r.Layout {
		case layMem:
			in.Imm = int64(int16(w))
		case layMemHi:
			in.Imm = int64(int16(w)) << 16
		case layLoad:
			in.Imm, in.LoadReg = int64(int16(w)), ra
		case layOperate:
			in.C = uint8(w & 31)
			if regForm {
				in.SrcB = rb
			} else {
				in.Flags |= exec.FImm
				in.Imm = int64(w >> 13 & 0xff)
			}
		case layFP:
			in.C = uint8(w & 31)
		}
	}
	exec.MarkRuns(code, 31, 0)
	return body
}

// RunBody executes predecoded instructions starting at idx until allow
// retire, control leaves the body, or a fault; same contract as the
// MIPS engine minus delay slots.
func (c *CPU) RunBody(b *exec.Body, idx int, allow uint64) (uint64, error) {
	code := b.Code
	// Retired instructions and base cycles accumulate in locals (n, plus
	// stall for load-use bubbles) and flush into c.insns/c.baseCycles at
	// every exit (see the MIPS engine for the rationale); flushed tracks
	// how much of n is already applied so the sampler branch can flush
	// through the current instruction before its probe fires.
	var n, stall, flushed uint64
	ll := c.lastLoad
	sampling := c.sampleEvery != 0
	for n < allow {
		in := &code[idx]
		if in.Flags&exec.FFold != 0 && !sampling {
			// An in-body branch: resolved here, with no handler call, and
			// the trip goes on at its successor (see the MIPS engine; there
			// is no slot, so the budget always admits it).
			if ll >= 0 && ll != 31 && (in.SrcA == uint8(ll) || in.SrcB == uint8(ll)) {
				stall++
			}
			ll = -1
			n++
			if c.branch(in) {
				idx = int(in.Target)
			} else if idx++; idx == len(code) {
				c.flushBody(in.PC+4, n-flushed, stall, ll)
				return n, nil
			}
			if n == allow {
				break
			}
			in = &code[idx]
		}
		if run := min(uint64(in.Run), allow-n); run > 1 && !sampling {
			// A straight-line run, nobody sampling: plain executes as much
			// of it as the budget admits (one instruction alone costs less
			// on the path below).  ll decides its first instruction's
			// bubble, the Stall bits plain sums the others' (see the MIPS
			// engine).
			if ll >= 0 && ll != 31 && (in.SrcA == uint8(ll) || in.SrcB == uint8(ll)) {
				stall++
			}
			done, bubbles, err := c.plain(code[idx : idx+int(run)])
			stall += bubbles - uint64(in.Stall)
			if done > 0 {
				ll = int(int8(code[idx+done-1].LoadReg))
			}
			idx += done
			n += uint64(done)
			if err != nil {
				n++ // code[idx] faulted, and retires
				c.flushBody(code[idx].PC, n-flushed, stall, ll)
				return n, err
			}
			if idx == len(code) {
				c.flushBody(b.End(), n-flushed, stall, ll)
				return n, nil
			}
			continue
		}
		// One combined predicate guards both rare per-instruction
		// concerns (PC sampling, a pending load-use interlock), so the
		// common iteration pays a single not-taken branch.
		if sampling || ll >= 0 {
			if sampling {
				if c.sampleLeft--; c.sampleLeft == 0 {
					c.sampleLeft = c.sampleEvery
					c.flushBody(in.PC, n+1-flushed, stall, ll)
					flushed, stall = n+1, 0
					c.sampleFn(in.PC)
				}
			}
			if ll >= 0 && ll != 31 {
				if in.SrcA == uint8(ll) || in.SrcB == uint8(ll) {
					stall++
				}
			}
		}
		br, err := exec.NoBranch, error(nil)
		if in.Run != 0 {
			_, _, err = c.plain(code[idx : idx+1])
		} else {
			br, err = alphaHandlers[in.Op](c, b, in)
		}
		n++
		if err != nil {
			c.flushBody(in.PC, n-flushed, stall, ll)
			return n, err
		}
		ll = int(int8(in.LoadReg))
		if br == exec.NoBranch {
			idx++
			if idx == len(code) {
				c.flushBody(in.PC+4, n-flushed, stall, ll)
				return n, nil
			}
			continue
		}
		if br == exec.External {
			c.flushBody(c.extPC, n-flushed, stall, ll)
			return n, nil
		}
		idx = int(br)
	}
	c.flushBody(code[idx].PC, n-flushed, stall, ll)
	return n, nil
}

// flushBody brings the simulator's own state up to date at pc, where the
// dispatch loop is leaving or a probe is about to look: pend retired
// instructions not yet counted, their base cycles plus stall interlock
// bubbles, and the interlock producer register.
func (c *CPU) flushBody(pc, pend, stall uint64, ll int) {
	c.pc = pc
	c.insns += pend
	c.baseCycles += pend + stall
	c.lastLoad = ll
}

// thandler executes one transfer (or refuses one undecodable word); see
// the MIPS engine for what it returns.
type thandler func(c *CPU, b *exec.Body, in *exec.Instr) (int32, error)

// tbranch is the handler of every pc-relative branch row (and of bsr): a
// branch RunBody did not fold.
func tbranch(c *CPU, _ *exec.Body, in *exec.Instr) (int32, error) {
	if !c.branch(in) {
		return exec.NoBranch, nil
	}
	return in.Jump(&c.extPC), nil
}

var alphaHandlers = [aNumHandlers]thandler{
	aBr:   tbranch,
	aBeq:  tbranch,
	aBne:  tbranch,
	aBlt:  tbranch,
	aBle:  tbranch,
	aBgt:  tbranch,
	aBge:  tbranch,
	aFbeq: tbranch,
	aFbne: tbranch,
	aFblt: tbranch,
	aFble: tbranch,
	aFbgt: tbranch,
	aFbge: tbranch,
	aJump: func(c *CPU, b *exec.Body, in *exec.Instr) (int32, error) {
		// Read rb before the link write, as the oracle does.
		t := c.tr(in.B) &^ 3
		c.twr(in.A, in.PC+4)
		return b.Indirect(t, &c.extPC), nil
	},
	aBad: func(_ *CPU, _ *exec.Body, in *exec.Instr) (int32, error) {
		return 0, badWord(uint32(in.Imm), in.PC)
	},
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
		case aLdl:
			a := c.taddr(in)
			v, ok := c.m.Load4(a)
			if !ok {
				w, err := c.m.Load(a, 4)
				if err != nil {
					return i, bubbles, memErr("ldl", in, err)
				}
				v = uint32(w)
			}
			c.twr(in.A, uint64(int64(int32(v))))
		case aLdq:
			a := c.taddr(in)
			v, ok := c.m.Load8(a)
			if !ok {
				var err error
				if v, err = c.m.Load(a, 8); err != nil {
					return i, bubbles, memErr("ldq", in, err)
				}
			}
			c.twr(in.A, v)
		case aLdqU:
			v, err := c.m.Load(c.taddr(in)&^7, 8)
			if err != nil {
				return i, bubbles, memErr("ldq_u", in, err)
			}
			c.twr(in.A, v)
		case aLds:
			v, err := c.m.Load(c.taddr(in), 4)
			if err != nil {
				return i, bubbles, memErr("lds", in, err)
			}
			if in.A != 31 {
				c.f[in.A] = v
			}
		case aLdt:
			v, err := c.m.Load(c.taddr(in), 8)
			if err != nil {
				return i, bubbles, memErr("ldt", in, err)
			}
			if in.A != 31 {
				c.f[in.A] = v
			}
		case aStl:
			if a, v := c.taddr(in), uint32(c.tr(in.A)); !c.m.Store4(a, v) {
				if err := c.m.Store(a, 4, uint64(v)); err != nil {
					return i, bubbles, memErr("store", in, err)
				}
			}
		case aStq:
			if a, v := c.taddr(in), c.tr(in.A); !c.m.Store8(a, v) {
				if err := c.m.Store(a, 8, v); err != nil {
					return i, bubbles, memErr("store", in, err)
				}
			}
		case aStqU:
			if err := c.m.Store(c.taddr(in)&^7, 8, c.tr(in.A)); err != nil {
				return i, bubbles, memErr("store", in, err)
			}
		case aSts:
			if err := c.m.Store(c.taddr(in), 4, c.f[in.A]&0xffffffff); err != nil {
				return i, bubbles, memErr("store", in, err)
			}
		case aStt:
			if err := c.m.Store(c.taddr(in), 8, c.f[in.A]); err != nil {
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
			c.baseCycles += 7
		case aMulq:
			c.twr(in.C, c.tr(in.A)*c.topnd(in))
			c.baseCycles += 11
		case aCpys:
			if in.C != 31 {
				c.f[in.C] = c.f[in.B]&^(1<<63) | c.f[in.A]&(1<<63)
			}
		case aCpysn:
			// The oracle writes f31 here (no guard); keep the quirk.
			c.f[in.C] = c.f[in.B] ^ 1<<63
		case aSqrts:
			c.wfS(uint32(in.C), float32(math.Sqrt(float64(c.fS(uint32(in.B))))))
			c.baseCycles += 29
		case aSqrtt:
			c.wfT(uint32(in.C), math.Sqrt(c.fT(uint32(in.B))))
			c.baseCycles += 29
		case aAdds:
			c.wfS(uint32(in.C), c.fS(uint32(in.A))+c.fS(uint32(in.B)))
			c.baseCycles++
		case aSubs:
			c.wfS(uint32(in.C), c.fS(uint32(in.A))-c.fS(uint32(in.B)))
			c.baseCycles++
		case aMuls:
			c.wfS(uint32(in.C), c.fS(uint32(in.A))*c.fS(uint32(in.B)))
			c.baseCycles += 3
		case aDivs:
			c.wfS(uint32(in.C), c.fS(uint32(in.A))/c.fS(uint32(in.B)))
			c.baseCycles += 11
		case aAddt:
			c.wfT(uint32(in.C), c.fT(uint32(in.A))+c.fT(uint32(in.B)))
			c.baseCycles++
		case aSubt:
			c.wfT(uint32(in.C), c.fT(uint32(in.A))-c.fT(uint32(in.B)))
			c.baseCycles++
		case aMultT:
			c.wfT(uint32(in.C), c.fT(uint32(in.A))*c.fT(uint32(in.B)))
			c.baseCycles += 4
		case aDivt:
			c.wfT(uint32(in.C), c.fT(uint32(in.A))/c.fT(uint32(in.B)))
			c.baseCycles += 18
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
