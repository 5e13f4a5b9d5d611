package mips

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/mem"
)

// CPU is a cycle-counted R3000-class MIPS simulator.  It executes the
// binary code the backend emits — including branch delay slots — against a
// simulated memory, charging base cycles per instruction, long-latency
// cycles for multiply/divide and floating point, a one-cycle load-use
// stall (modelled as an interlock, as on later MIPS implementations), and
// whatever stall cycles the attached cache model reports.
type CPU struct {
	r  [256]uint64 // zero-extended 32-bit values; exec.Sink and spares past the 32
	f  [32]uint64  // raw FP bits; singles in the low word
	hi uint32
	lo uint32
	cc bool // FP condition flag

	exec.State // pc, delay slot, memory, counters, interlock, probes
}

// NewCPU returns a simulator bound to m.
func NewCPU(m *mem.Memory) *CPU { return &CPU{State: exec.NewState(m)} }

// Reg reads an integer register.
func (c *CPU) Reg(r core.Reg) uint64 {
	if r.IsFP() {
		return c.f[r.Num()]
	}
	return c.r[r.Num()]
}

// SetReg writes an integer register.
func (c *CPU) SetReg(r core.Reg, v uint64) {
	if r.IsFP() {
		c.f[r.Num()] = v
		return
	}
	if r.Num() != 0 {
		c.r[r.Num()] = uint64(uint32(v))
	}
}

// FReg reads an FP register (single in the low 32 bits, double full).
func (c *CPU) FReg(r core.Reg, double bool) uint64 {
	if double {
		return c.f[r.Num()]
	}
	return c.f[r.Num()] & 0xffffffff
}

// SetFReg writes an FP register.
func (c *CPU) SetFReg(r core.Reg, v uint64, double bool) {
	if double {
		c.f[r.Num()] = v
		return
	}
	c.f[r.Num()] = v & 0xffffffff
}

func (c *CPU) ru(n uint32) uint32  { return uint32(c.r[n]) }
func (c *CPU) rs32(n uint32) int32 { return int32(c.r[n]) }

func (c *CPU) wr(n uint32, v uint32) {
	if n != 0 {
		c.r[n] = uint64(v)
	}
}

func (c *CPU) fs(n uint32) float32     { return math.Float32frombits(uint32(c.f[n])) }
func (c *CPU) fd(n uint32) float64     { return math.Float64frombits(c.f[n]) }
func (c *CPU) wfs(n uint32, v float32) { c.f[n] = uint64(math.Float32bits(v)) }
func (c *CPU) wfd(n uint32, v float64) { c.f[n] = math.Float64bits(v) }

func sx16(imm uint32) int32 { return int32(int16(imm)) }

// truncToI32 implements cvt.w round-to-zero with clamped out-of-range
// behaviour (C truncation semantics for in-range values).
func truncToI32(v float64) int32 {
	switch {
	case v != v:
		return 0
	case v >= math.MaxInt32:
		return math.MaxInt32
	case v <= math.MinInt32:
		return math.MinInt32
	default:
		return int32(v)
	}
}

// Step executes one instruction.
func (c *CPU) Step() error {
	w, err := c.Mem.FetchWord(c.Pc)
	if err != nil {
		return fmt.Errorf("mips: fetch at %#x: %w", c.Pc, err)
	}
	c.Retired++
	c.BaseCycles++
	if c.Sampling() && c.SampleDue() {
		c.Sample(c.Pc)
	}

	op := w >> 26
	rs := w >> 21 & 31
	rt := w >> 16 & 31
	rd := w >> 11 & 31
	sh := w >> 6 & 31
	fn := w & 63
	imm := w & 0xffff
	sImm := sx16(imm)

	// Approximate load-use interlock: stall one cycle when this
	// instruction reads the register loaded by the previous one.
	if c.LastLoad >= 0 {
		ll := uint32(c.LastLoad)
		reads := rs == ll
		switch op {
		case opSpecial, opBeq, opBne, opSb, opSh, opSw:
			reads = reads || rt == ll
		}
		if reads && ll != 0 {
			c.BaseCycles++
		}
	}
	loadedReg := -1

	var target uint64
	hasTarget := false
	branchRel := func(taken bool) {
		c.Edge(c.Pc, taken)
		if taken {
			target = c.Pc + 4 + uint64(int64(sImm)<<2)
			hasTarget = true
		}
	}

	switch op {
	case opSpecial:
		switch fn {
		case fnSll:
			c.wr(rd, c.ru(rt)<<sh)
		case fnSrl:
			c.wr(rd, c.ru(rt)>>sh)
		case fnSra:
			c.wr(rd, uint32(c.rs32(rt)>>sh))
		case fnSllv:
			c.wr(rd, c.ru(rt)<<(c.ru(rs)&31))
		case fnSrlv:
			c.wr(rd, c.ru(rt)>>(c.ru(rs)&31))
		case fnSrav:
			c.wr(rd, uint32(c.rs32(rt)>>(c.ru(rs)&31)))
		case fnJr:
			target, hasTarget = uint64(c.ru(rs)), true
		case fnJalr:
			c.wr(rd, uint32(c.Pc+8))
			target, hasTarget = uint64(c.ru(rs)), true
		case fnMfhi:
			c.wr(rd, c.hi)
		case fnMflo:
			c.wr(rd, c.lo)
		case fnMult:
			p := int64(c.rs32(rs)) * int64(c.rs32(rt))
			c.lo, c.hi = uint32(p), uint32(p>>32)
			c.BaseCycles += 11
		case fnMultu:
			p := uint64(c.ru(rs)) * uint64(c.ru(rt))
			c.lo, c.hi = uint32(p), uint32(p>>32)
			c.BaseCycles += 11
		case fnDiv:
			d := c.rs32(rt)
			if d == 0 {
				c.lo, c.hi = 0, 0
			} else if c.rs32(rs) == math.MinInt32 && d == -1 {
				c.lo, c.hi = 0x80000000, 0
			} else {
				c.lo, c.hi = uint32(c.rs32(rs)/d), uint32(c.rs32(rs)%d)
			}
			c.BaseCycles += 34
		case fnDivu:
			d := c.ru(rt)
			if d == 0 {
				c.lo, c.hi = 0, 0
			} else {
				c.lo, c.hi = c.ru(rs)/d, c.ru(rs)%d
			}
			c.BaseCycles += 34
		case fnAddu:
			c.wr(rd, c.ru(rs)+c.ru(rt))
		case fnSubu:
			c.wr(rd, c.ru(rs)-c.ru(rt))
		case fnAnd:
			c.wr(rd, c.ru(rs)&c.ru(rt))
		case fnOr:
			c.wr(rd, c.ru(rs)|c.ru(rt))
		case fnXor:
			c.wr(rd, c.ru(rs)^c.ru(rt))
		case fnNor:
			c.wr(rd, ^(c.ru(rs) | c.ru(rt)))
		case fnSlt:
			c.wr(rd, b2u(c.rs32(rs) < c.rs32(rt)))
		case fnSltu:
			c.wr(rd, b2u(c.ru(rs) < c.ru(rt)))
		default:
			return fmt.Errorf("mips: unknown SPECIAL funct %#x at %#x", fn, c.Pc)
		}
	case opRegimm:
		switch rt {
		case rtBltz:
			branchRel(c.rs32(rs) < 0)
		case rtBgez:
			branchRel(c.rs32(rs) >= 0)
		case rtBal:
			c.wr(rRA, uint32(c.Pc+8))
			branchRel(c.rs32(rs) >= 0)
		default:
			return fmt.Errorf("mips: unknown REGIMM rt %#x at %#x", rt, c.Pc)
		}
	case opJ, opJal:
		target = (c.Pc + 4) & 0xf0000000
		target |= uint64(w&0x03ffffff) << 2
		hasTarget = true
		if op == opJal {
			c.wr(rRA, uint32(c.Pc+8))
		}
	case opBeq:
		branchRel(c.ru(rs) == c.ru(rt))
	case opBne:
		branchRel(c.ru(rs) != c.ru(rt))
	case opBlez:
		branchRel(c.rs32(rs) <= 0)
	case opBgtz:
		branchRel(c.rs32(rs) > 0)
	case opAddiu:
		c.wr(rt, c.ru(rs)+uint32(sImm))
	case opSlti:
		c.wr(rt, b2u(c.rs32(rs) < sImm))
	case opSltiu:
		c.wr(rt, b2u(c.ru(rs) < uint32(sImm)))
	case opAndi:
		c.wr(rt, c.ru(rs)&imm)
	case opOri:
		c.wr(rt, c.ru(rs)|imm)
	case opXori:
		c.wr(rt, c.ru(rs)^imm)
	case opLui:
		c.wr(rt, imm<<16)
	case opLb, opLbu, opLh, opLhu, opLw, opLwc1, opLdc1:
		addr := uint64(c.ru(rs) + uint32(sImm))
		size := map[uint32]int{opLb: 1, opLbu: 1, opLh: 2, opLhu: 2, opLw: 4, opLwc1: 4, opLdc1: 8}[op]
		v, err := c.Mem.Load(addr, size)
		if err != nil {
			return fmt.Errorf("mips: load at pc %#x: %w", c.Pc, err)
		}
		switch op {
		case opLb:
			c.wr(rt, uint32(int32(int8(v))))
		case opLbu:
			c.wr(rt, uint32(uint8(v)))
		case opLh:
			c.wr(rt, uint32(int32(int16(v))))
		case opLhu:
			c.wr(rt, uint32(uint16(v)))
		case opLw:
			c.wr(rt, uint32(v))
		case opLwc1:
			c.f[rt] = uint64(uint32(v))
		case opLdc1:
			c.f[rt] = v
		}
		if op != opLwc1 && op != opLdc1 {
			loadedReg = int(rt)
		}
	case opSb, opSh, opSw, opSwc1, opSdc1:
		addr := uint64(c.ru(rs) + uint32(sImm))
		var size int
		var v uint64
		switch op {
		case opSb:
			size, v = 1, uint64(uint8(c.ru(rt)))
		case opSh:
			size, v = 2, uint64(uint16(c.ru(rt)))
		case opSw:
			size, v = 4, uint64(c.ru(rt))
		case opSwc1:
			size, v = 4, uint64(uint32(c.f[rt]))
		case opSdc1:
			size, v = 8, c.f[rt]
		}
		if err := c.Mem.Store(addr, size, v); err != nil {
			return fmt.Errorf("mips: store at pc %#x: %w", c.Pc, err)
		}
	case opCop1:
		if err := c.cop1(w, rs, rt, rd, sh, fn, sImm, &target, &hasTarget); err != nil {
			return err
		}
	default:
		return fmt.Errorf("mips: unknown opcode %#x (word %#08x) at %#x", op, w, c.Pc)
	}

	c.LastLoad = loadedReg

	switch {
	case c.InDelay:
		c.Pc = c.DelayTarget
		c.InDelay = false
		if hasTarget {
			// Branch in a delay slot is architecturally undefined;
			// surface it as a bug.
			return fmt.Errorf("mips: branch in delay slot at %#x", c.Pc)
		}
	case hasTarget:
		c.InDelay = true
		c.DelayTarget = target
		c.Pc += 4
	default:
		c.Pc += 4
	}
	return nil
}

// cop1 executes a COP1 (floating point) instruction.
func (c *CPU) cop1(w, fmtf, ft, fs, fd, fn uint32, sImm int32, target *uint64, hasTarget *bool) error {
	switch fmtf {
	case fmtMFC1:
		c.wr(ft, uint32(c.f[fs]))
		return nil
	case fmtMTC1:
		c.f[fs] = uint64(c.ru(ft))
		return nil
	case fmtBC:
		taken := (ft&1 == 1) == c.cc
		c.Edge(c.Pc, taken)
		if taken {
			*target = c.Pc + 4 + uint64(int64(sImm)<<2)
			*hasTarget = true
		}
		return nil
	case fmtS:
		a, b := c.fs(fs), c.fs(ft)
		switch fn {
		case fpAdd:
			c.wfs(fd, a+b)
			c.BaseCycles++
		case fpSub:
			c.wfs(fd, a-b)
			c.BaseCycles++
		case fpMul:
			c.wfs(fd, a*b)
			c.BaseCycles += 3
		case fpDiv:
			c.wfs(fd, a/b)
			c.BaseCycles += 11
		case fpSqrt:
			c.wfs(fd, float32(math.Sqrt(float64(a))))
			c.BaseCycles += 29
		case fpAbs:
			c.wfs(fd, float32(math.Abs(float64(a))))
		case fpMov:
			c.f[fd] = c.f[fs] & 0xffffffff
		case fpNeg:
			c.wfs(fd, -a)
		case fpCvtD:
			c.wfd(fd, float64(a))
		case fpCvtW:
			c.f[fd] = uint64(uint32(truncToI32(float64(a))))
		case fpCEq:
			c.cc = a == b
		case fpCLt:
			c.cc = a < b
		case fpCLe:
			c.cc = a <= b
		default:
			return fmt.Errorf("mips: unknown fp.s funct %#x at %#x", fn, c.Pc)
		}
		return nil
	case fmtD:
		a, b := c.fd(fs), c.fd(ft)
		switch fn {
		case fpAdd:
			c.wfd(fd, a+b)
			c.BaseCycles++
		case fpSub:
			c.wfd(fd, a-b)
			c.BaseCycles++
		case fpMul:
			c.wfd(fd, a*b)
			c.BaseCycles += 4
		case fpDiv:
			c.wfd(fd, a/b)
			c.BaseCycles += 18
		case fpSqrt:
			c.wfd(fd, math.Sqrt(a))
			c.BaseCycles += 29
		case fpAbs:
			c.wfd(fd, math.Abs(a))
		case fpMov:
			c.f[fd] = c.f[fs]
		case fpNeg:
			c.wfd(fd, -a)
		case fpCvtS:
			c.wfs(fd, float32(a))
		case fpCvtW:
			c.f[fd] = uint64(uint32(truncToI32(a)))
		case fpCEq:
			c.cc = a == b
		case fpCLt:
			c.cc = a < b
		case fpCLe:
			c.cc = a <= b
		default:
			return fmt.Errorf("mips: unknown fp.d funct %#x at %#x", fn, c.Pc)
		}
		return nil
	case fmtW:
		// cvt from integer bits.
		iv := int32(uint32(c.f[fs]))
		switch fn {
		case fpCvtS:
			c.wfs(fd, float32(iv))
		case fpCvtD:
			c.wfd(fd, float64(iv))
		default:
			return fmt.Errorf("mips: unknown fp.w funct %#x at %#x", fn, c.Pc)
		}
		return nil
	}
	return fmt.Errorf("mips: unknown COP1 fmt %#x (word %#08x) at %#x", fmtf, w, c.Pc)
}

func b2u(b bool) uint32 {
	if b {
		return 1
	}
	return 0
}
