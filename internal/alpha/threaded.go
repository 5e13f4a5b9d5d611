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

// Dense opcodes: indices into alphaHandlers.
const (
	aLda uint16 = iota // also ldah (displacement pre-shifted)
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
	aBr // also bsr: identical semantics
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
	aAddl
	aSubl
	aAddq
	aSubq
	aCmpeq
	aCmplt
	aCmple
	aCmpult
	aCmpule
	aBadInta
	aAnd
	aBic
	aBis
	aOrnot
	aXor
	aEqv
	aBadIntl
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
	aBadInts
	aMull
	aMulq
	aBadIntm
	aCpys
	aCpysn
	aBadFltl
	aSqrts
	aSqrtt
	aBadFlts
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
	aBadFlti
	aBadOp
	aNumOps
)

type thandler func(c *CPU, b *exec.Body, in *exec.Instr) (int32, error)

var alphaHandlers [exec.OpTableSize]thandler

// opMask aliases exec.OpMask for the dispatch hot loop; the next line
// fails to compile if the opcode count ever outgrows the table.
const opMask = exec.OpMask

var _ [exec.OpTableSize - aNumOps]struct{}

func (c *CPU) twr(n uint8, v uint64) {
	if n != 31 {
		c.r[n] = v
	}
}

// topnd is the predecoded operate second operand: the 8-bit literal
// baked at predecode time, or rb.
func (c *CPU) topnd(in *exec.Instr) uint64 {
	if in.Flags&exec.FImm != 0 {
		return uint64(in.Imm)
	}
	return c.r[in.B]
}

// ajump follows a statically resolved transfer.
func (c *CPU) ajump(in *exec.Instr) int32 {
	if in.Target == exec.External {
		c.extPC = uint64(in.Imm)
		return exec.External
	}
	return in.Target
}

// abr resolves a conditional branch; the edge probe fires on every
// resolution, taken or not.
func (c *CPU) abr(in *exec.Instr, taken bool) int32 {
	c.edge(in.PC, taken)
	if !taken {
		return exec.NoBranch
	}
	return c.ajump(in)
}

// PendingDelay: Alpha has no delay slots.
func (c *CPU) PendingDelay() bool { return false }

// Predecode unpacks words into a threaded body: each word's row in the
// instruction table (isa.go) names its handler and which operands to
// unpack.  Pure function of its arguments (safe from batch-install
// workers); a word with no row becomes the bad-op handler of its decode
// group, reproducing the oracle's exact message.
func (c *CPU) Predecode(words []uint32, base uint64) *exec.Body {
	code := make([]exec.Instr, len(words))
	n := len(words)
	for i, w := range words {
		in := &code[i]
		pc := base + 4*uint64(i)
		ra := uint8(w >> 21 & 31)
		rb := uint8(w >> 16 & 31)
		regForm := w>>12&1 == 0
		in.PC = pc
		// Interlock metadata, mirroring the oracle's pre-dispatch check:
		// ra is always a stall candidate; rb only for register-form
		// integer operates, decodable or not.
		in.SrcA, in.SrcB, in.LoadReg = ra, exec.NoReg, exec.NoReg

		r := isa.Lookup(w)
		if r == nil {
			in.Imm = int64(w)
			switch op := w >> 26; op {
			case opInta, opIntl, opInts, opIntm:
				in.Op = [...]uint16{aBadInta, aBadIntl, aBadInts, aBadIntm}[op-opInta]
				if regForm {
					in.SrcB = rb
				}
			case opFltl:
				in.Op = aBadFltl
			case opFlts:
				in.Op = aBadFlts
			case opFlti:
				in.Op = aBadFlti
			default:
				in.Op = aBadOp
			}
			continue
		}
		in.Op, in.A, in.B = r.Op, ra, rb
		switch r.Layout {
		case layMem:
			in.Imm = int64(int16(w))
		case layMemHi:
			in.Imm = int64(int16(w)) << 16
		case layLoad:
			in.Imm, in.LoadReg = int64(int16(w)), ra
		case layBr:
			in.SetTarget(base, n, branchTarget(w, pc))
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
	return &exec.Body{Base: base, Code: code}
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
		// One combined predicate guards both rare per-instruction
		// concerns (PC sampling, a pending load-use interlock), so the
		// common ALU-stream iteration pays a single not-taken branch.
		if sampling || ll >= 0 {
			if sampling {
				if c.sampleLeft--; c.sampleLeft == 0 {
					c.sampleLeft = c.sampleEvery
					c.insns += n + 1 - flushed
					c.baseCycles += n + 1 - flushed + stall
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
		br, err := alphaHandlers[in.Op&opMask](c, b, in)
		n++
		if err != nil {
			c.pc = in.PC
			c.flushBody(n-flushed, stall, ll)
			return n, err
		}
		ll = int(int8(in.LoadReg))
		if br == exec.NoBranch {
			// Fall-through is always idx+1 (predecode sets Instr.Next to
			// exactly that), so skip the field load.
			idx++
			if idx == len(code) {
				c.pc = in.PC + 4
				c.flushBody(n-flushed, stall, ll)
				return n, nil
			}
			continue
		}
		if br == exec.External {
			c.pc = c.extPC
			c.flushBody(n-flushed, stall, ll)
			return n, nil
		}
		idx = int(br)
	}
	c.pc = code[idx].PC
	c.flushBody(n-flushed, stall, ll)
	return n, nil
}

// flushBody applies the dispatch loop's locally-accumulated bookkeeping:
// pend retired instructions not yet counted, their base cycles plus
// stall interlock bubbles, and the interlock producer register.
func (c *CPU) flushBody(pend, stall uint64, ll int) {
	c.insns += pend
	c.baseCycles += pend + stall
	c.lastLoad = ll
}

func init() {
	h := alphaHandlers[:]
	nb := exec.NoBranch

	h[aLda] = func(c *CPU, _ *exec.Body, in *exec.Instr) (int32, error) {
		c.twr(in.A, c.r[in.B]+uint64(in.Imm))
		return nb, nil
	}
	h[aLdl] = func(c *CPU, _ *exec.Body, in *exec.Instr) (int32, error) {
		v, err := c.m.Load(c.r[in.B]+uint64(in.Imm), 4)
		if err != nil {
			return 0, fmt.Errorf("alpha: ldl at pc %#x: %w", in.PC, err)
		}
		c.twr(in.A, uint64(int64(int32(v))))
		return nb, nil
	}
	h[aLdq] = func(c *CPU, _ *exec.Body, in *exec.Instr) (int32, error) {
		v, err := c.m.Load(c.r[in.B]+uint64(in.Imm), 8)
		if err != nil {
			return 0, fmt.Errorf("alpha: ldq at pc %#x: %w", in.PC, err)
		}
		c.twr(in.A, v)
		return nb, nil
	}
	h[aLdqU] = func(c *CPU, _ *exec.Body, in *exec.Instr) (int32, error) {
		v, err := c.m.Load((c.r[in.B]+uint64(in.Imm))&^uint64(7), 8)
		if err != nil {
			return 0, fmt.Errorf("alpha: ldq_u at pc %#x: %w", in.PC, err)
		}
		c.twr(in.A, v)
		return nb, nil
	}
	h[aLds] = func(c *CPU, _ *exec.Body, in *exec.Instr) (int32, error) {
		v, err := c.m.Load(c.r[in.B]+uint64(in.Imm), 4)
		if err != nil {
			return 0, fmt.Errorf("alpha: lds at pc %#x: %w", in.PC, err)
		}
		if in.A != 31 {
			c.f[in.A] = v
		}
		return nb, nil
	}
	h[aLdt] = func(c *CPU, _ *exec.Body, in *exec.Instr) (int32, error) {
		v, err := c.m.Load(c.r[in.B]+uint64(in.Imm), 8)
		if err != nil {
			return 0, fmt.Errorf("alpha: ldt at pc %#x: %w", in.PC, err)
		}
		if in.A != 31 {
			c.f[in.A] = v
		}
		return nb, nil
	}
	h[aStl] = astore(4, func(c *CPU, in *exec.Instr) uint64 { return uint64(uint32(c.r[in.A])) }, false)
	h[aStq] = astore(8, func(c *CPU, in *exec.Instr) uint64 { return c.r[in.A] }, false)
	h[aStqU] = astore(8, func(c *CPU, in *exec.Instr) uint64 { return c.r[in.A] }, true)
	h[aSts] = astore(4, func(c *CPU, in *exec.Instr) uint64 { return c.f[in.A] & 0xffffffff }, false)
	h[aStt] = astore(8, func(c *CPU, in *exec.Instr) uint64 { return c.f[in.A] }, false)
	h[aBr] = func(c *CPU, _ *exec.Body, in *exec.Instr) (int32, error) {
		c.twr(in.A, in.PC+4)
		return c.ajump(in), nil
	}
	h[aBeq] = func(c *CPU, _ *exec.Body, in *exec.Instr) (int32, error) {
		return c.abr(in, int64(c.r[in.A]) == 0), nil
	}
	h[aBne] = func(c *CPU, _ *exec.Body, in *exec.Instr) (int32, error) {
		return c.abr(in, int64(c.r[in.A]) != 0), nil
	}
	h[aBlt] = func(c *CPU, _ *exec.Body, in *exec.Instr) (int32, error) {
		return c.abr(in, int64(c.r[in.A]) < 0), nil
	}
	h[aBle] = func(c *CPU, _ *exec.Body, in *exec.Instr) (int32, error) {
		return c.abr(in, int64(c.r[in.A]) <= 0), nil
	}
	h[aBgt] = func(c *CPU, _ *exec.Body, in *exec.Instr) (int32, error) {
		return c.abr(in, int64(c.r[in.A]) > 0), nil
	}
	h[aBge] = func(c *CPU, _ *exec.Body, in *exec.Instr) (int32, error) {
		return c.abr(in, int64(c.r[in.A]) >= 0), nil
	}
	h[aFbeq] = func(c *CPU, _ *exec.Body, in *exec.Instr) (int32, error) {
		return c.abr(in, c.fT(uint32(in.A)) == 0), nil
	}
	h[aFbne] = func(c *CPU, _ *exec.Body, in *exec.Instr) (int32, error) {
		return c.abr(in, c.fT(uint32(in.A)) != 0), nil
	}
	h[aFblt] = func(c *CPU, _ *exec.Body, in *exec.Instr) (int32, error) {
		return c.abr(in, c.fT(uint32(in.A)) < 0), nil
	}
	h[aFble] = func(c *CPU, _ *exec.Body, in *exec.Instr) (int32, error) {
		return c.abr(in, c.fT(uint32(in.A)) <= 0), nil
	}
	h[aFbgt] = func(c *CPU, _ *exec.Body, in *exec.Instr) (int32, error) {
		return c.abr(in, c.fT(uint32(in.A)) > 0), nil
	}
	h[aFbge] = func(c *CPU, _ *exec.Body, in *exec.Instr) (int32, error) {
		return c.abr(in, c.fT(uint32(in.A)) >= 0), nil
	}
	h[aJump] = func(c *CPU, b *exec.Body, in *exec.Instr) (int32, error) {
		// Read rb before the link write, as the oracle does.
		t := c.r[in.B] &^ 3
		c.twr(in.A, in.PC+4)
		if b.Contains(t) {
			return int32(b.IndexOf(t)), nil
		}
		c.extPC = t
		return exec.External, nil
	}
	h[aAddl] = aop(func(a, b uint64) uint64 { return uint64(int64(int32(a + b))) })
	h[aSubl] = aop(func(a, b uint64) uint64 { return uint64(int64(int32(a - b))) })
	h[aAddq] = aop(func(a, b uint64) uint64 { return a + b })
	h[aSubq] = aop(func(a, b uint64) uint64 { return a - b })
	h[aCmpeq] = aop(func(a, b uint64) uint64 { return b2u64(a == b) })
	h[aCmplt] = aop(func(a, b uint64) uint64 { return b2u64(int64(a) < int64(b)) })
	h[aCmple] = aop(func(a, b uint64) uint64 { return b2u64(int64(a) <= int64(b)) })
	h[aCmpult] = aop(func(a, b uint64) uint64 { return b2u64(a < b) })
	h[aCmpule] = aop(func(a, b uint64) uint64 { return b2u64(a <= b) })
	h[aBadInta] = badFn("alpha: unknown INTA funct %#x at %#x", 0x7f)
	h[aAnd] = aop(func(a, b uint64) uint64 { return a & b })
	h[aBic] = aop(func(a, b uint64) uint64 { return a &^ b })
	h[aBis] = aop(func(a, b uint64) uint64 { return a | b })
	h[aOrnot] = aop(func(a, b uint64) uint64 { return a | ^b })
	h[aXor] = aop(func(a, b uint64) uint64 { return a ^ b })
	h[aEqv] = aop(func(a, b uint64) uint64 { return a ^ ^b })
	h[aBadIntl] = badFn("alpha: unknown INTL funct %#x at %#x", 0x7f)
	h[aSll] = aop(func(a, b uint64) uint64 { return a << (b & 63) })
	h[aSrl] = aop(func(a, b uint64) uint64 { return a >> (b & 63) })
	h[aSra] = aop(func(a, b uint64) uint64 { return uint64(int64(a) >> (b & 63)) })
	h[aZap] = aop(func(a, b uint64) uint64 { return a &^ zapMask(b) })
	h[aZapnot] = aop(func(a, b uint64) uint64 { return a & zapMask(b) })
	h[aExtbl] = aop(func(a, b uint64) uint64 { return a >> (8 * (b & 7)) & 0xff })
	h[aExtwl] = aop(func(a, b uint64) uint64 { return a >> (8 * (b & 7)) & 0xffff })
	h[aInsbl] = aop(func(a, b uint64) uint64 { return (a & 0xff) << (8 * (b & 7)) })
	h[aInswl] = aop(func(a, b uint64) uint64 { return (a & 0xffff) << (8 * (b & 7)) })
	h[aMskbl] = aop(func(a, b uint64) uint64 { return a &^ (uint64(0xff) << (8 * (b & 7))) })
	h[aMskwl] = aop(func(a, b uint64) uint64 { return a &^ (uint64(0xffff) << (8 * (b & 7))) })
	h[aBadInts] = badFn("alpha: unknown INTS funct %#x at %#x", 0x7f)
	h[aMull] = func(c *CPU, _ *exec.Body, in *exec.Instr) (int32, error) {
		c.twr(in.C, uint64(int64(int32(c.r[in.A])*int32(c.topnd(in)))))
		c.baseCycles += 7
		return nb, nil
	}
	h[aMulq] = func(c *CPU, _ *exec.Body, in *exec.Instr) (int32, error) {
		c.twr(in.C, c.r[in.A]*c.topnd(in))
		c.baseCycles += 11
		return nb, nil
	}
	h[aBadIntm] = badFn("alpha: unknown INTM funct %#x at %#x", 0x7f)
	h[aCpys] = func(c *CPU, _ *exec.Body, in *exec.Instr) (int32, error) {
		if in.C != 31 {
			c.f[in.C] = c.f[in.B]&^(1<<63) | c.f[in.A]&(1<<63)
		}
		return nb, nil
	}
	h[aCpysn] = func(c *CPU, _ *exec.Body, in *exec.Instr) (int32, error) {
		// The oracle writes f31 here (no guard); keep the quirk.
		c.f[in.C] = c.f[in.B] ^ 1<<63
		return nb, nil
	}
	h[aBadFltl] = badFn11("alpha: unknown FLTL funct %#x at %#x")
	h[aSqrts] = func(c *CPU, _ *exec.Body, in *exec.Instr) (int32, error) {
		c.wfS(uint32(in.C), float32(math.Sqrt(float64(c.fS(uint32(in.B))))))
		c.baseCycles += 29
		return nb, nil
	}
	h[aSqrtt] = func(c *CPU, _ *exec.Body, in *exec.Instr) (int32, error) {
		c.wfT(uint32(in.C), math.Sqrt(c.fT(uint32(in.B))))
		c.baseCycles += 29
		return nb, nil
	}
	h[aBadFlts] = badFn11("alpha: unknown FLTS funct %#x at %#x")
	h[aAdds] = afS(1, func(a, b float32) float32 { return a + b })
	h[aSubs] = afS(1, func(a, b float32) float32 { return a - b })
	h[aMuls] = afS(3, func(a, b float32) float32 { return a * b })
	h[aDivs] = afS(11, func(a, b float32) float32 { return a / b })
	h[aAddt] = afT(1, func(a, b float64) float64 { return a + b })
	h[aSubt] = afT(1, func(a, b float64) float64 { return a - b })
	h[aMultT] = afT(4, func(a, b float64) float64 { return a * b })
	h[aDivt] = afT(18, func(a, b float64) float64 { return a / b })
	h[aCmpteq] = func(c *CPU, _ *exec.Body, in *exec.Instr) (int32, error) {
		c.wfT(uint32(in.C), cmpResult(c.fT(uint32(in.A)) == c.fT(uint32(in.B))))
		return nb, nil
	}
	h[aCmptlt] = func(c *CPU, _ *exec.Body, in *exec.Instr) (int32, error) {
		c.wfT(uint32(in.C), cmpResult(c.fT(uint32(in.A)) < c.fT(uint32(in.B))))
		return nb, nil
	}
	h[aCmptle] = func(c *CPU, _ *exec.Body, in *exec.Instr) (int32, error) {
		c.wfT(uint32(in.C), cmpResult(c.fT(uint32(in.A)) <= c.fT(uint32(in.B))))
		return nb, nil
	}
	h[aCvtts] = func(c *CPU, _ *exec.Body, in *exec.Instr) (int32, error) {
		c.wfS(uint32(in.C), float32(c.fT(uint32(in.B))))
		return nb, nil
	}
	h[aCvtst] = func(c *CPU, _ *exec.Body, in *exec.Instr) (int32, error) {
		c.wfT(uint32(in.C), float64(c.fS(uint32(in.B))))
		return nb, nil
	}
	h[aCvtqs] = func(c *CPU, _ *exec.Body, in *exec.Instr) (int32, error) {
		c.wfS(uint32(in.C), float32(int64(c.f[in.B])))
		return nb, nil
	}
	h[aCvtqt] = func(c *CPU, _ *exec.Body, in *exec.Instr) (int32, error) {
		c.wfT(uint32(in.C), float64(int64(c.f[in.B])))
		return nb, nil
	}
	h[aCvttqc] = func(c *CPU, _ *exec.Body, in *exec.Instr) (int32, error) {
		// The oracle writes f[fc] unguarded here; keep the quirk.
		c.f[in.C] = uint64(truncToI64(c.fT(uint32(in.B))))
		return nb, nil
	}
	h[aBadFlti] = badFn11("alpha: unknown FLTI funct %#x at %#x")
	h[aBadOp] = func(_ *CPU, _ *exec.Body, in *exec.Instr) (int32, error) {
		return 0, fmt.Errorf("alpha: unknown opcode %#x (word %#08x) at %#x", uint32(in.Imm)>>26, uint32(in.Imm), in.PC)
	}
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

func aop(f func(a, b uint64) uint64) thandler {
	return func(c *CPU, _ *exec.Body, in *exec.Instr) (int32, error) {
		c.twr(in.C, f(c.r[in.A], c.topnd(in)))
		return exec.NoBranch, nil
	}
}

func afS(cycles uint64, f func(a, b float32) float32) thandler {
	return func(c *CPU, _ *exec.Body, in *exec.Instr) (int32, error) {
		c.wfS(uint32(in.C), f(c.fS(uint32(in.A)), c.fS(uint32(in.B))))
		c.baseCycles += cycles
		return exec.NoBranch, nil
	}
}

func afT(cycles uint64, f func(a, b float64) float64) thandler {
	return func(c *CPU, _ *exec.Body, in *exec.Instr) (int32, error) {
		c.wfT(uint32(in.C), f(c.fT(uint32(in.A)), c.fT(uint32(in.B))))
		c.baseCycles += cycles
		return exec.NoBranch, nil
	}
}

func astore(size int, src func(c *CPU, in *exec.Instr) uint64, alignQ bool) thandler {
	return func(c *CPU, _ *exec.Body, in *exec.Instr) (int32, error) {
		addr := c.r[in.B] + uint64(in.Imm)
		if alignQ {
			addr &^= 7
		}
		if err := c.m.Store(addr, size, src(c, in)); err != nil {
			return 0, fmt.Errorf("alpha: store at pc %#x: %w", in.PC, err)
		}
		return exec.NoBranch, nil
	}
}

func badFn(format string, mask uint32) thandler {
	return func(_ *CPU, _ *exec.Body, in *exec.Instr) (int32, error) {
		return 0, fmt.Errorf(format, uint32(in.Imm)>>5&mask, in.PC)
	}
}

func badFn11(format string) thandler {
	return func(_ *CPU, _ *exec.Body, in *exec.Instr) (int32, error) {
		return 0, fmt.Errorf(format, uint32(in.Imm)>>5&0x7ff, in.PC)
	}
}
