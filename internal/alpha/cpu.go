package alpha

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/mem"
)

// CPU is a cycle-counted Alpha simulator: 64-bit registers, no delay
// slots, multiply latency, load-use stalls, and the cache model's memory
// stalls.  Singles (S format) are held as IEEE-754 single bits in the low
// word of the FP register — a simplification of the hardware's S-to-T
// register mapping that is consistent between this simulator and the
// encoder.
type CPU struct {
	r [256]uint64 // exec.Sink and spares past the 32
	f [32]uint64

	exec.State // pc, memory, counters, interlock, probes
}

// NewCPU returns a simulator bound to m.
func NewCPU(m *mem.Memory) *CPU { return &CPU{State: exec.NewState(m)} }

// Reg reads an integer register.
func (c *CPU) Reg(r core.Reg) uint64 { return c.r[r.Num()&31] }

// SetReg writes an integer register.
func (c *CPU) SetReg(r core.Reg, v uint64) {
	if n := r.Num(); n != 31 {
		c.r[n&31] = v
	}
}

// FReg reads an FP register.
func (c *CPU) FReg(r core.Reg, double bool) uint64 {
	if double {
		return c.f[r.Num()&31]
	}
	return c.f[r.Num()&31] & 0xffffffff
}

// SetFReg writes an FP register.
func (c *CPU) SetFReg(r core.Reg, v uint64, double bool) {
	if n := r.Num(); n != 31 {
		if double {
			c.f[n&31] = v
		} else {
			c.f[n&31] = v & 0xffffffff
		}
	}
}

func (c *CPU) rr(n uint32) uint64 { return c.r[n] }

func (c *CPU) wr(n uint32, v uint64) {
	if n != 31 {
		c.r[n] = v
	}
}

func (c *CPU) fT(n uint32) float64 { return math.Float64frombits(c.f[n]) }
func (c *CPU) fS(n uint32) float32 { return math.Float32frombits(uint32(c.f[n])) }

func (c *CPU) wfT(n uint32, v float64) {
	if n != 31 {
		c.f[n] = math.Float64bits(v)
	}
}

func (c *CPU) wfS(n uint32, v float32) {
	if n != 31 {
		c.f[n] = uint64(math.Float32bits(v))
	}
}

func b2u64(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// Step executes one instruction.
func (c *CPU) Step() error {
	w, err := c.Mem.FetchWord(c.Pc)
	if err != nil {
		return fmt.Errorf("alpha: fetch at %#x: %w", c.Pc, err)
	}
	c.Retired++
	c.BaseCycles++
	if c.Sampling() && c.SampleDue() {
		c.Sample(c.Pc)
	}

	op := w >> 26
	ra := w >> 21 & 31
	rb := w >> 16 & 31
	disp16 := int64(int16(w))
	disp21 := int64(int32(w<<11) >> 11)

	// Approximate load-use interlock.
	if c.LastLoad >= 0 && c.LastLoad != 31 {
		ll := uint32(c.LastLoad)
		if ra == ll || (op >= opInta && op <= opIntm && w>>12&1 == 0 && rb == ll) {
			c.BaseCycles++
		}
	}
	loaded := -1

	next := c.Pc + 4
	switch op {
	case opLda:
		c.wr(ra, c.rr(rb)+uint64(disp16))
	case opLdah:
		c.wr(ra, c.rr(rb)+uint64(disp16<<16))
	case opLdl, opLdq, opLdqU, opLds, opLdt:
		addr := c.rr(rb) + uint64(disp16)
		switch op {
		case opLdl:
			v, err := c.Mem.Load(addr, 4)
			if err != nil {
				return fmt.Errorf("alpha: ldl at pc %#x: %w", c.Pc, err)
			}
			c.wr(ra, uint64(int64(int32(v))))
			loaded = int(ra)
		case opLdq:
			v, err := c.Mem.Load(addr, 8)
			if err != nil {
				return fmt.Errorf("alpha: ldq at pc %#x: %w", c.Pc, err)
			}
			c.wr(ra, v)
			loaded = int(ra)
		case opLdqU:
			v, err := c.Mem.Load(addr&^7, 8)
			if err != nil {
				return fmt.Errorf("alpha: ldq_u at pc %#x: %w", c.Pc, err)
			}
			c.wr(ra, v)
			loaded = int(ra)
		case opLds:
			v, err := c.Mem.Load(addr, 4)
			if err != nil {
				return fmt.Errorf("alpha: lds at pc %#x: %w", c.Pc, err)
			}
			if ra != 31 {
				c.f[ra] = v
			}
		case opLdt:
			v, err := c.Mem.Load(addr, 8)
			if err != nil {
				return fmt.Errorf("alpha: ldt at pc %#x: %w", c.Pc, err)
			}
			if ra != 31 {
				c.f[ra] = v
			}
		}
	case opStl, opStq, opStqU, opSts, opStt:
		addr := c.rr(rb) + uint64(disp16)
		var size int
		var v uint64
		switch op {
		case opStl:
			size, v = 4, uint64(uint32(c.rr(ra)))
		case opStq:
			size, v = 8, c.rr(ra)
		case opStqU:
			size, v, addr = 8, c.rr(ra), addr&^7
		case opSts:
			size, v = 4, c.f[ra]&0xffffffff
		case opStt:
			size, v = 8, c.f[ra]
		}
		if err := c.Mem.Store(addr, size, v); err != nil {
			return fmt.Errorf("alpha: store at pc %#x: %w", c.Pc, err)
		}
	case opBr, opBsr:
		if ra != 31 {
			c.wr(ra, next)
		}
		next = next + uint64(disp21*4)
	case opBeq, opBne, opBlt, opBle, opBgt, opBge:
		v := int64(c.rr(ra))
		taken := false
		switch op {
		case opBeq:
			taken = v == 0
		case opBne:
			taken = v != 0
		case opBlt:
			taken = v < 0
		case opBle:
			taken = v <= 0
		case opBgt:
			taken = v > 0
		case opBge:
			taken = v >= 0
		}
		c.Edge(c.Pc, taken)
		if taken {
			next = next + uint64(disp21*4)
		}
	case opFbeq, opFbne, opFblt, opFble, opFbgt, opFbge:
		v := c.fT(ra)
		taken := false
		switch op {
		case opFbeq:
			taken = v == 0
		case opFbne:
			taken = v != 0
		case opFblt:
			taken = v < 0
		case opFble:
			taken = v <= 0
		case opFbgt:
			taken = v > 0
		case opFbge:
			taken = v >= 0
		}
		c.Edge(c.Pc, taken)
		if taken {
			next = next + uint64(disp21*4)
		}
	case opJump:
		hint := w >> 14 & 3
		_ = hint
		target := c.rr(rb) &^ 3
		if ra != 31 {
			c.wr(ra, next)
		}
		next = target
	case opInta, opIntl, opInts, opIntm:
		if err := c.operate(w, op, ra, rb); err != nil {
			return err
		}
	case opFlti, opFltl, opFlts:
		if err := c.fpOperate(w, op); err != nil {
			return err
		}
	default:
		return fmt.Errorf("alpha: unknown opcode %#x (word %#08x) at %#x", op, w, c.Pc)
	}

	c.LastLoad = loaded
	c.Pc = next
	return nil
}

func (c *CPU) operate(w, op, ra, rb uint32) error {
	rc := w & 31
	fn := w >> 5 & 0x7f
	a := c.rr(ra)
	var b uint64
	if w>>12&1 == 1 {
		b = uint64(w >> 13 & 0xff)
	} else {
		b = c.rr(rb)
	}

	switch op {
	case opInta:
		switch fn {
		case fnAddl:
			c.wr(rc, uint64(int64(int32(a+b))))
		case fnSubl:
			c.wr(rc, uint64(int64(int32(a-b))))
		case fnAddq:
			c.wr(rc, a+b)
		case fnSubq:
			c.wr(rc, a-b)
		case fnCmpeq:
			c.wr(rc, b2u64(a == b))
		case fnCmplt:
			c.wr(rc, b2u64(int64(a) < int64(b)))
		case fnCmple:
			c.wr(rc, b2u64(int64(a) <= int64(b)))
		case fnCmpult:
			c.wr(rc, b2u64(a < b))
		case fnCmpule:
			c.wr(rc, b2u64(a <= b))
		default:
			return fmt.Errorf("alpha: unknown INTA funct %#x at %#x", fn, c.Pc)
		}
	case opIntl:
		switch fn {
		case fnAnd:
			c.wr(rc, a&b)
		case fnBic:
			c.wr(rc, a&^b)
		case fnBis:
			c.wr(rc, a|b)
		case fnOrnot:
			c.wr(rc, a|^b)
		case fnXor:
			c.wr(rc, a^b)
		case fnEqv:
			c.wr(rc, a^^b)
		default:
			return fmt.Errorf("alpha: unknown INTL funct %#x at %#x", fn, c.Pc)
		}
	case opInts:
		sh := b & 63
		switch fn {
		case fnSll:
			c.wr(rc, a<<sh)
		case fnSrl:
			c.wr(rc, a>>sh)
		case fnSra:
			c.wr(rc, uint64(int64(a)>>sh))
		case fnZap, fnZapnot:
			mask := uint64(0)
			for i := 0; i < 8; i++ {
				if b>>i&1 == 1 {
					mask |= 0xff << (8 * i)
				}
			}
			if fn == fnZap {
				c.wr(rc, a&^mask)
			} else {
				c.wr(rc, a&mask)
			}
		case fnExtbl:
			c.wr(rc, a>>(8*(b&7))&0xff)
		case fnExtwl:
			c.wr(rc, a>>(8*(b&7))&0xffff)
		case fnInsbl:
			c.wr(rc, (a&0xff)<<(8*(b&7)))
		case fnInswl:
			c.wr(rc, (a&0xffff)<<(8*(b&7)))
		case fnMskbl:
			c.wr(rc, a&^(uint64(0xff)<<(8*(b&7))))
		case fnMskwl:
			c.wr(rc, a&^(uint64(0xffff)<<(8*(b&7))))
		default:
			return fmt.Errorf("alpha: unknown INTS funct %#x at %#x", fn, c.Pc)
		}
	case opIntm:
		switch fn {
		case fnMull:
			c.wr(rc, uint64(int64(int32(a)*int32(b))))
			c.BaseCycles += 7
		case fnMulq:
			c.wr(rc, a*b)
			c.BaseCycles += 11
		default:
			return fmt.Errorf("alpha: unknown INTM funct %#x at %#x", fn, c.Pc)
		}
	}
	return nil
}

func (c *CPU) fpOperate(w, op uint32) error {
	fa := w >> 21 & 31
	fb := w >> 16 & 31
	fn := w >> 5 & 0x7ff
	fc := w & 31
	switch op {
	case opFltl:
		switch fn {
		case fnCpys:
			if fc != 31 {
				c.f[fc] = c.f[fb]&^(1<<63) | c.f[fa]&(1<<63)
			}
		case fnCpysn:
			c.f[fc] = c.f[fb] ^ 1<<63
		default:
			return fmt.Errorf("alpha: unknown FLTL funct %#x at %#x", fn, c.Pc)
		}
	case opFlts:
		switch fn {
		case fnSqrts:
			c.wfS(fc, float32(math.Sqrt(float64(c.fS(fb)))))
			c.BaseCycles += 29
		case fnSqrtt:
			c.wfT(fc, math.Sqrt(c.fT(fb)))
			c.BaseCycles += 29
		default:
			return fmt.Errorf("alpha: unknown FLTS funct %#x at %#x", fn, c.Pc)
		}
	case opFlti:
		switch fn {
		case fnAdds:
			c.wfS(fc, c.fS(fa)+c.fS(fb))
			c.BaseCycles++
		case fnSubs:
			c.wfS(fc, c.fS(fa)-c.fS(fb))
			c.BaseCycles++
		case fnMuls:
			c.wfS(fc, c.fS(fa)*c.fS(fb))
			c.BaseCycles += 3
		case fnDivs:
			c.wfS(fc, c.fS(fa)/c.fS(fb))
			c.BaseCycles += 11
		case fnAddt:
			c.wfT(fc, c.fT(fa)+c.fT(fb))
			c.BaseCycles++
		case fnSubt:
			c.wfT(fc, c.fT(fa)-c.fT(fb))
			c.BaseCycles++
		case fnMult:
			c.wfT(fc, c.fT(fa)*c.fT(fb))
			c.BaseCycles += 4
		case fnDivt:
			c.wfT(fc, c.fT(fa)/c.fT(fb))
			c.BaseCycles += 18
		case fnCmpteq:
			c.wfT(fc, cmpResult(c.fT(fa) == c.fT(fb)))
		case fnCmptlt:
			c.wfT(fc, cmpResult(c.fT(fa) < c.fT(fb)))
		case fnCmptle:
			c.wfT(fc, cmpResult(c.fT(fa) <= c.fT(fb)))
		case fnCvtts:
			c.wfS(fc, float32(c.fT(fb)))
		case fnCvtst:
			c.wfT(fc, float64(c.fS(fb)))
		case fnCvtqs:
			c.wfS(fc, float32(int64(c.f[fb])))
		case fnCvtqt:
			c.wfT(fc, float64(int64(c.f[fb])))
		case fnCvttqc:
			c.f[fc&31] = uint64(truncToI64(c.fT(fb)))
		default:
			return fmt.Errorf("alpha: unknown FLTI funct %#x at %#x", fn, c.Pc)
		}
	}
	return nil
}

func cmpResult(b bool) float64 {
	if b {
		return 2.0
	}
	return 0
}

func truncToI64(v float64) int64 {
	switch {
	case v != v:
		return 0
	case v >= math.MaxInt64:
		return math.MaxInt64
	case v <= math.MinInt64:
		return math.MinInt64
	default:
		return int64(v)
	}
}
