package sparc

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/mem"
)

// CPU is a cycle-counted SPARC V8 simulator (flat model: no register
// windows — save/restore fault, which the VCODE flat port never emits).
// It executes branch delay slots, the Y-register multiply/divide protocol,
// and the FP condition-code protocol.
type CPU struct {
	r [256]uint64 // low 32 bits significant; exec.Sink and spares past the 32
	f [32]uint32  // FP bank; doubles occupy even/odd pairs (even = MSW)
	y uint32
	// icc flags.
	n, z, v, c bool
	fcc        uint8 // 0 =, 1 <, 2 >, 3 unordered

	exec.State // pc, delay slot, memory, counters, probes
}

// NewCPU returns a simulator bound to m.
func NewCPU(m *mem.Memory) *CPU { return &CPU{State: exec.NewState(m)} }

// Reg reads an integer register.
func (c *CPU) Reg(r core.Reg) uint64 { return c.r[r.Num()&31] }

// SetReg writes an integer register.
func (c *CPU) SetReg(r core.Reg, v uint64) {
	if n := r.Num(); n != 0 {
		c.r[n&31] = uint64(uint32(v))
	}
}

// FReg reads an FP register: singles from the named register, doubles
// from the even/odd pair (even register holds the most significant word).
func (c *CPU) FReg(r core.Reg, double bool) uint64 {
	n := r.Num()
	if double {
		return uint64(c.f[n])<<32 | uint64(c.f[n|1])
	}
	return uint64(c.f[n])
}

// SetFReg writes an FP register or pair.
func (c *CPU) SetFReg(r core.Reg, v uint64, double bool) {
	n := r.Num()
	if double {
		c.f[n] = uint32(v >> 32)
		c.f[n|1] = uint32(v)
		return
	}
	c.f[n] = uint32(v)
}

func (c *CPU) ru(n uint32) uint32 { return uint32(c.r[n]) }

func (c *CPU) wr(n, v uint32) {
	if n != 0 {
		c.r[n] = uint64(v)
	}
}

// fdouble/wfdouble access an even/odd register pair.  The architecture
// requires double operands in even-aligned pairs; forcing the alignment
// here (n&^1, n|1) keeps an odd register number in a hand-crafted word
// from indexing past the register file.
func (c *CPU) fdouble(n uint32) float64 {
	return math.Float64frombits(uint64(c.f[n&^1])<<32 | uint64(c.f[n|1]))
}

func (c *CPU) wfdouble(n uint32, v float64) {
	bits := math.Float64bits(v)
	c.f[n&^1] = uint32(bits >> 32)
	c.f[n|1] = uint32(bits)
}

func (c *CPU) fsingle(n uint32) float32     { return math.Float32frombits(c.f[n]) }
func (c *CPU) wfsingle(n uint32, v float32) { c.f[n] = math.Float32bits(v) }

func (c *CPU) takenI(cond uint32) bool {
	lt := c.n != c.v
	switch cond {
	case condA:
		return true
	case condN:
		return false
	case condE:
		return c.z
	case condNE:
		return !c.z
	case condL:
		return lt
	case condGE:
		return !lt
	case condLE:
		return c.z || lt
	case condG:
		return !(c.z || lt)
	case condCS:
		return c.c
	case condCC:
		return !c.c
	case condLEU:
		return c.c || c.z
	case condGU:
		return !(c.c || c.z)
	}
	return false
}

func (c *CPU) takenF(cond uint32) bool {
	switch cond {
	case fcondE:
		return c.fcc == 0
	case fcondNE:
		return c.fcc != 0
	case fcondL:
		return c.fcc == 1
	case fcondLE:
		return c.fcc == 0 || c.fcc == 1
	case fcondG:
		return c.fcc == 2
	case fcondGE:
		return c.fcc == 0 || c.fcc == 2
	}
	return false
}

// Step executes one instruction.
func (c *CPU) Step() error {
	w, err := c.Mem.FetchWord(c.Pc)
	if err != nil {
		return fmt.Errorf("sparc: fetch at %#x: %w", c.Pc, err)
	}
	c.Retired++
	c.BaseCycles++
	if c.Sampling() && c.SampleDue() {
		c.Sample(c.Pc)
	}

	var target uint64
	hasTarget := false

	op := w >> 30
	switch op {
	case 0:
		op2 := w >> 22 & 7
		switch op2 {
		case 4: // sethi
			rd := w >> 25 & 31
			c.wr(rd, w<<10)
		case 2, 6: // Bicc / FBfcc
			cond := w >> 25 & 0xf
			disp := int64(int32(w<<10) >> 10) // sign-extend disp22
			taken := false
			if op2 == 2 {
				taken = c.takenI(cond)
			} else {
				taken = c.takenF(cond)
			}
			c.Edge(c.Pc, taken)
			if taken {
				target = uint64(int64(c.Pc) + disp*4)
				hasTarget = true
			}
		default:
			return fmt.Errorf("sparc: unknown op2 %d at %#x", op2, c.Pc)
		}
	case 1: // call
		disp := int64(int32(w<<2) >> 2)
		c.wr(rO7, uint32(c.Pc))
		target = uint64(int64(c.Pc) + disp*4)
		hasTarget = true
	case 2:
		if err := c.arith(w, &target, &hasTarget); err != nil {
			return err
		}
	case 3:
		if err := c.memOp(w); err != nil {
			return err
		}
	}

	switch {
	case c.InDelay:
		c.Pc = c.DelayTarget
		c.InDelay = false
		if hasTarget {
			return fmt.Errorf("sparc: branch in delay slot at %#x", c.Pc)
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

func (c *CPU) operand2(w uint32) uint32 {
	if w>>13&1 == 1 {
		return uint32(int32(w<<19) >> 19) // sign-extended simm13
	}
	return c.ru(w & 31)
}

func (c *CPU) arith(w uint32, target *uint64, hasTarget *bool) error {
	rd := w >> 25 & 31
	op3 := w >> 19 & 0x3f
	rs1 := w >> 14 & 31
	a := c.ru(rs1)
	b := c.operand2(w)

	switch op3 {
	case op3Add:
		c.wr(rd, a+b)
	case op3Sub:
		c.wr(rd, a-b)
	case op3And:
		c.wr(rd, a&b)
	case op3Andn:
		c.wr(rd, a&^b)
	case op3Or:
		c.wr(rd, a|b)
	case op3Xor:
		c.wr(rd, a^b)
	case op3Xnor:
		c.wr(rd, ^(a ^ b))
	case 0x08: // addx
		x := uint32(0)
		if c.c {
			x = 1
		}
		c.wr(rd, a+b+x)
	case op3AddCC:
		r := a + b
		c.wr(rd, r)
		c.n, c.z = int32(r) < 0, r == 0
		c.v = (a>>31 == b>>31) && (r>>31 != a>>31)
		c.c = r < a
	case op3SubCC:
		r := a - b
		c.wr(rd, r)
		c.n, c.z = int32(r) < 0, r == 0
		c.v = (a>>31 != b>>31) && (r>>31 != a>>31)
		c.c = a < b
	case op3Sll:
		c.wr(rd, a<<(b&31))
	case op3Srl:
		c.wr(rd, a>>(b&31))
	case op3Sra:
		c.wr(rd, uint32(int32(a)>>(b&31)))
	case op3Umul:
		p := uint64(a) * uint64(b)
		c.y = uint32(p >> 32)
		c.wr(rd, uint32(p))
		c.BaseCycles += 4
	case op3Smul:
		p := int64(int32(a)) * int64(int32(b))
		c.y = uint32(uint64(p) >> 32)
		c.wr(rd, uint32(p))
		c.BaseCycles += 4
	case op3Udiv:
		dividend := uint64(c.y)<<32 | uint64(a)
		if b == 0 {
			c.wr(rd, 0)
		} else {
			q := dividend / uint64(b)
			if q > math.MaxUint32 {
				q = math.MaxUint32
			}
			c.wr(rd, uint32(q))
		}
		c.BaseCycles += 36
	case op3Sdiv:
		dividend := int64(uint64(c.y)<<32 | uint64(a))
		if b == 0 {
			c.wr(rd, 0)
		} else {
			q := dividend / int64(int32(b))
			switch {
			case q > math.MaxInt32:
				q = math.MaxInt32
			case q < math.MinInt32:
				q = math.MinInt32
			}
			c.wr(rd, uint32(int32(q)))
		}
		c.BaseCycles += 36
	case op3RdY:
		c.wr(rd, c.y)
	case op3WrY:
		c.y = a ^ b
	case op3Jmpl:
		c.wr(rd, uint32(c.Pc))
		*target = uint64(a + b)
		*hasTarget = true
	case op3FPop1:
		return c.fpop1(w)
	case op3FPop2:
		return c.fpop2(w)
	default:
		return fmt.Errorf("sparc: unknown op3 %#x at %#x", op3, c.Pc)
	}
	return nil
}

func (c *CPU) fpop1(w uint32) error {
	rd := w >> 25 & 31
	rs1 := w >> 14 & 31
	opf := w >> 5 & 0x1ff
	rs2 := w & 31
	switch opf {
	case opfFmovs:
		c.f[rd] = c.f[rs2]
	case opfFnegs:
		c.f[rd] = c.f[rs2] ^ 0x80000000
	case opfFabss:
		c.f[rd] = c.f[rs2] &^ 0x80000000
	case opfFsqrts:
		c.wfsingle(rd, float32(math.Sqrt(float64(c.fsingle(rs2)))))
		c.BaseCycles += 29
	case opfFsqrtd:
		c.wfdouble(rd, math.Sqrt(c.fdouble(rs2)))
		c.BaseCycles += 29
	case opfFadds:
		c.wfsingle(rd, c.fsingle(rs1)+c.fsingle(rs2))
		c.BaseCycles++
	case opfFaddd:
		c.wfdouble(rd, c.fdouble(rs1)+c.fdouble(rs2))
		c.BaseCycles++
	case opfFsubs:
		c.wfsingle(rd, c.fsingle(rs1)-c.fsingle(rs2))
		c.BaseCycles++
	case opfFsubd:
		c.wfdouble(rd, c.fdouble(rs1)-c.fdouble(rs2))
		c.BaseCycles++
	case opfFmuls:
		c.wfsingle(rd, c.fsingle(rs1)*c.fsingle(rs2))
		c.BaseCycles += 3
	case opfFmuld:
		c.wfdouble(rd, c.fdouble(rs1)*c.fdouble(rs2))
		c.BaseCycles += 4
	case opfFdivs:
		c.wfsingle(rd, c.fsingle(rs1)/c.fsingle(rs2))
		c.BaseCycles += 12
	case opfFdivd:
		c.wfdouble(rd, c.fdouble(rs1)/c.fdouble(rs2))
		c.BaseCycles += 18
	case opfFitos:
		c.wfsingle(rd, float32(int32(c.f[rs2])))
	case opfFitod:
		c.wfdouble(rd, float64(int32(c.f[rs2])))
	case opfFstoi:
		c.f[rd] = uint32(truncToI32(float64(c.fsingle(rs2))))
	case opfFdtoi:
		c.f[rd] = uint32(truncToI32(c.fdouble(rs2)))
	case opfFstod:
		c.wfdouble(rd, float64(c.fsingle(rs2)))
	case opfFdtos:
		c.wfsingle(rd, float32(c.fdouble(rs2)))
	default:
		return fmt.Errorf("sparc: unknown FPop1 opf %#x at %#x", opf, c.Pc)
	}
	return nil
}

func (c *CPU) fpop2(w uint32) error {
	rs1 := w >> 14 & 31
	opf := w >> 5 & 0x1ff
	rs2 := w & 31
	var a, b float64
	switch opf {
	case opfFcmps:
		a, b = float64(c.fsingle(rs1)), float64(c.fsingle(rs2))
	case opfFcmpd:
		a, b = c.fdouble(rs1), c.fdouble(rs2)
	default:
		return fmt.Errorf("sparc: unknown FPop2 opf %#x at %#x", opf, c.Pc)
	}
	switch {
	case a != a || b != b:
		c.fcc = 3
	case a == b:
		c.fcc = 0
	case a < b:
		c.fcc = 1
	default:
		c.fcc = 2
	}
	return nil
}

func (c *CPU) memOp(w uint32) error {
	rd := w >> 25 & 31
	op3 := w >> 19 & 0x3f
	rs1 := w >> 14 & 31
	addr := uint64(c.ru(rs1) + c.operand2(w))

	switch op3 {
	case op3Ld, op3Ldub, op3Lduh, op3Ldsb, op3Ldsh:
		size := map[uint32]int{op3Ld: 4, op3Ldub: 1, op3Lduh: 2, op3Ldsb: 1, op3Ldsh: 2}[op3]
		v, err := c.Mem.Load(addr, size)
		if err != nil {
			return fmt.Errorf("sparc: load at pc %#x: %w", c.Pc, err)
		}
		switch op3 {
		case op3Ldsb:
			v = uint64(uint32(int32(int8(v))))
		case op3Ldsh:
			v = uint64(uint32(int32(int16(v))))
		}
		c.wr(rd, uint32(v))
	case op3Ldf:
		v, err := c.Mem.Load(addr, 4)
		if err != nil {
			return fmt.Errorf("sparc: ldf at pc %#x: %w", c.Pc, err)
		}
		c.f[rd] = uint32(v)
	case op3Lddf:
		v, err := c.Mem.Load(addr, 8)
		if err != nil {
			return fmt.Errorf("sparc: lddf at pc %#x: %w", c.Pc, err)
		}
		c.f[rd&^1] = uint32(v >> 32)
		c.f[rd|1] = uint32(v)
	case op3St, op3Stb, op3Sth:
		size := map[uint32]int{op3St: 4, op3Stb: 1, op3Sth: 2}[op3]
		if err := c.Mem.Store(addr, size, uint64(c.ru(rd))); err != nil {
			return fmt.Errorf("sparc: store at pc %#x: %w", c.Pc, err)
		}
	case op3Stf:
		if err := c.Mem.Store(addr, 4, uint64(c.f[rd])); err != nil {
			return fmt.Errorf("sparc: stf at pc %#x: %w", c.Pc, err)
		}
	case op3Stdf:
		v := uint64(c.f[rd&^1])<<32 | uint64(c.f[rd|1])
		if err := c.Mem.Store(addr, 8, v); err != nil {
			return fmt.Errorf("sparc: stdf at pc %#x: %w", c.Pc, err)
		}
	default:
		return fmt.Errorf("sparc: unknown mem op3 %#x at %#x", op3, c.Pc)
	}
	return nil
}

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
