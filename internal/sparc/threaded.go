package sparc

import (
	"fmt"
	"math"

	"repro/internal/exec"
)

// SPARC port of the predecoded direct-threaded execution engine
// (internal/exec); see internal/mips/threaded.go for the scheme.  The
// fetch/switch Step in cpu.go stays the verification oracle: registers,
// memory, icc/fcc/Y state, cycle charges, probes, delay slots, and
// error strings must match bit for bit (internal/exec/diff enforces it).
// SPARC models no load-use interlock, so the predecoded interlock
// metadata stays NoReg and lastLoad is never touched — exactly like the
// oracle.

// Dense opcodes: indices into sparcHandlers.
const (
	sSethi uint16 = iota
	sBicc
	sFBfcc
	sBadOp2
	sCall
	sAdd
	sSub
	sAnd
	sAndn
	sOr
	sXor
	sXnor
	sAddx
	sAddCC
	sSubCC
	sSll
	sSrl
	sSra
	sUmul
	sSmul
	sUdiv
	sSdiv
	sRdY
	sWrY
	sJmpl
	sBadOp3
	sFmovs
	sFnegs
	sFabss
	sFsqrts
	sFsqrtd
	sFadds
	sFaddd
	sFsubs
	sFsubd
	sFmuls
	sFmuld
	sFdivs
	sFdivd
	sFitos
	sFitod
	sFstoi
	sFdtoi
	sFstod
	sFdtos
	sBadFPop1
	sFcmps
	sFcmpd
	sBadFPop2
	sLd
	sLdub
	sLduh
	sLdsb
	sLdsh
	sLdf
	sLddf
	sSt
	sStb
	sSth
	sStf
	sStdf
	sBadMem
	sNumOps
)

type thandler func(c *CPU, b *exec.Body, in *exec.Instr) (int32, error)

var sparcHandlers [exec.OpTableSize]thandler

// opMask aliases exec.OpMask for the dispatch hot loop; the next line
// fails to compile if the opcode count ever outgrows the table.
const opMask = exec.OpMask

var _ [exec.OpTableSize - sNumOps]struct{}

func (c *CPU) twr(n uint8, v uint32) {
	if n != 0 {
		c.r[n] = uint64(v)
	}
}

// topnd2 is the predecoded form of operand2: the sign-extended simm13
// baked at predecode time, or the rs2 register.
func (c *CPU) topnd2(in *exec.Instr) uint32 {
	if in.Flags&exec.FImm != 0 {
		return uint32(in.Imm)
	}
	return uint32(c.r[in.B])
}

// sjump follows a statically resolved transfer.
func (c *CPU) sjump(in *exec.Instr) int32 {
	if in.Target == exec.External {
		c.extPC = uint64(in.Imm)
		return exec.External
	}
	return in.Target
}

// PendingDelay reports whether a taken branch is waiting on its delay
// slot.
func (c *CPU) PendingDelay() bool { return c.inDelay }

// Predecode unpacks words into a threaded body: each word's row in the
// instruction table (isa.go) names its handler and which operands to
// unpack.  Pure function of its arguments (safe from batch-install
// workers); a word with no row becomes the bad-op handler of its decode
// group, reproducing the oracle's exact message, never a predecode
// failure.
func (c *CPU) Predecode(words []uint32, base uint64) *exec.Body {
	code := make([]exec.Instr, len(words))
	n := len(words)
	for i, w := range words {
		in := &code[i]
		pc := base + 4*uint64(i)
		in.PC = pc
		in.SrcA, in.SrcB, in.LoadReg = exec.NoReg, exec.NoReg, exec.NoReg

		r := isa.Lookup(w)
		if r == nil {
			in.Imm = int64(w)
			switch op3 := w >> 19 & 0x3f; {
			case w>>30 == 0:
				in.Op = sBadOp2
			case w>>30 == 3:
				in.Op = sBadMem
			case op3 == op3FPop1:
				in.Op = sBadFPop1
			case op3 == op3FPop2:
				in.Op = sBadFPop2
			default:
				in.Op = sBadOp3
			}
			continue
		}
		in.Op = r.Op
		rd := uint8(w >> 25 & 31)
		rs1 := uint8(w >> 14 & 31)
		switch r.Layout {
		case laySethi:
			in.C, in.Imm = rd, int64(w<<10)
		case layBr:
			in.A = rd & 0xf // cond
			in.SetTarget(base, n, dispTarget22(w, pc))
		case layCall:
			in.SetTarget(base, n, dispTarget30(w, pc))
		case layArith:
			in.A, in.C = rs1, rd
			if w>>13&1 == 1 {
				in.Flags |= exec.FImm
				in.Imm = int64(simm13(w))
			} else {
				in.B = uint8(w & 31)
			}
		case layFP:
			in.A, in.B, in.C = rs1, uint8(w&31), rd
		}
	}
	return &exec.Body{Base: base, Code: code}
}

// RunBody executes predecoded instructions starting at idx until allow
// retire, control leaves the body, or a fault; same contract as the
// MIPS engine (see internal/mips/threaded.go RunBody).
func (c *CPU) RunBody(b *exec.Body, idx int, allow uint64) (uint64, error) {
	code := b.Code
	// Retired instructions and base cycles accumulate in n and flush
	// into c.insns/c.baseCycles at every exit (see the MIPS engine for
	// the rationale); flushed tracks how much of n is already applied so
	// the sampler branch can flush through the current instruction
	// before its probe fires.
	var n, flushed uint64
	sampling := c.sampleEvery != 0
	for n < allow {
		in := &code[idx]
		if sampling {
			if c.sampleLeft--; c.sampleLeft == 0 {
				c.sampleLeft = c.sampleEvery
				c.insns += n + 1 - flushed
				c.baseCycles += n + 1 - flushed
				flushed = n + 1
				c.sampleFn(in.PC)
			}
		}
		br, err := sparcHandlers[in.Op&opMask](c, b, in)
		n++
		if err != nil {
			c.pc = in.PC
			c.insns += n - flushed
			c.baseCycles += n - flushed
			return n, err
		}
		if br == exec.NoBranch {
			// Fall-through is always idx+1 (predecode sets Instr.Next to
			// exactly that), so skip the field load.
			idx++
			if idx == len(code) {
				c.pc = in.PC + 4
				c.insns += n - flushed
				c.baseCycles += n - flushed
				return n, nil
			}
			continue
		}

		// Taken transfer: delay slot next, transfer after it.
		var pendAddr uint64
		if br == exec.External {
			pendAddr = c.extPC
		} else {
			pendAddr = b.Base + 4*uint64(br)
		}
		dIdx := idx + 1
		if dIdx == len(code) || n >= allow {
			c.pc = in.PC + 4
			c.inDelay = true
			c.delayTarget = pendAddr
			c.insns += n - flushed
			c.baseCycles += n - flushed
			return n, nil
		}
		din := &code[dIdx]
		if sampling {
			if c.sampleLeft--; c.sampleLeft == 0 {
				c.sampleLeft = c.sampleEvery
				c.insns += n + 1 - flushed
				c.baseCycles += n + 1 - flushed
				flushed = n + 1
				c.sampleFn(din.PC)
			}
		}
		dbr, derr := sparcHandlers[din.Op&opMask](c, b, din)
		n++
		if derr != nil {
			c.pc = din.PC
			c.inDelay = true
			c.delayTarget = pendAddr
			c.insns += n - flushed
			c.baseCycles += n - flushed
			return n, derr
		}
		if dbr != exec.NoBranch {
			c.pc = pendAddr
			c.insns += n - flushed
			c.baseCycles += n - flushed
			return n, fmt.Errorf("sparc: branch in delay slot at %#x", c.pc)
		}
		if br == exec.External {
			c.pc = pendAddr
			c.insns += n - flushed
			c.baseCycles += n - flushed
			return n, nil
		}
		idx = int(br)
	}
	c.pc = code[idx].PC
	c.insns += n - flushed
	c.baseCycles += n - flushed
	return n, nil
}

func init() {
	h := sparcHandlers[:]
	nb := exec.NoBranch

	h[sSethi] = func(c *CPU, _ *exec.Body, in *exec.Instr) (int32, error) {
		c.twr(in.C, uint32(in.Imm))
		return nb, nil
	}
	h[sBicc] = func(c *CPU, _ *exec.Body, in *exec.Instr) (int32, error) {
		taken := c.takenI(uint32(in.A))
		c.edge(in.PC, taken)
		if !taken {
			return nb, nil
		}
		return c.sjump(in), nil
	}
	h[sFBfcc] = func(c *CPU, _ *exec.Body, in *exec.Instr) (int32, error) {
		taken := c.takenF(uint32(in.A))
		c.edge(in.PC, taken)
		if !taken {
			return nb, nil
		}
		return c.sjump(in), nil
	}
	h[sBadOp2] = func(_ *CPU, _ *exec.Body, in *exec.Instr) (int32, error) {
		return 0, fmt.Errorf("sparc: unknown op2 %d at %#x", uint32(in.Imm)>>22&7, in.PC)
	}
	h[sCall] = func(c *CPU, _ *exec.Body, in *exec.Instr) (int32, error) {
		c.twr(rO7, uint32(in.PC))
		return c.sjump(in), nil
	}
	h[sAdd] = alu(func(a, b uint32) uint32 { return a + b })
	h[sSub] = alu(func(a, b uint32) uint32 { return a - b })
	h[sAnd] = alu(func(a, b uint32) uint32 { return a & b })
	h[sAndn] = alu(func(a, b uint32) uint32 { return a &^ b })
	h[sOr] = alu(func(a, b uint32) uint32 { return a | b })
	h[sXor] = alu(func(a, b uint32) uint32 { return a ^ b })
	h[sXnor] = alu(func(a, b uint32) uint32 { return ^(a ^ b) })
	h[sAddx] = func(c *CPU, _ *exec.Body, in *exec.Instr) (int32, error) {
		x := uint32(0)
		if c.c {
			x = 1
		}
		c.twr(in.C, uint32(c.r[in.A])+c.topnd2(in)+x)
		return nb, nil
	}
	h[sAddCC] = func(c *CPU, _ *exec.Body, in *exec.Instr) (int32, error) {
		a, b := uint32(c.r[in.A]), c.topnd2(in)
		r := a + b
		c.twr(in.C, r)
		c.n, c.z = int32(r) < 0, r == 0
		c.v = (a>>31 == b>>31) && (r>>31 != a>>31)
		c.c = r < a
		return nb, nil
	}
	h[sSubCC] = func(c *CPU, _ *exec.Body, in *exec.Instr) (int32, error) {
		a, b := uint32(c.r[in.A]), c.topnd2(in)
		r := a - b
		c.twr(in.C, r)
		c.n, c.z = int32(r) < 0, r == 0
		c.v = (a>>31 != b>>31) && (r>>31 != a>>31)
		c.c = a < b
		return nb, nil
	}
	h[sSll] = alu(func(a, b uint32) uint32 { return a << (b & 31) })
	h[sSrl] = alu(func(a, b uint32) uint32 { return a >> (b & 31) })
	h[sSra] = alu(func(a, b uint32) uint32 { return uint32(int32(a) >> (b & 31)) })
	h[sUmul] = func(c *CPU, _ *exec.Body, in *exec.Instr) (int32, error) {
		p := uint64(uint32(c.r[in.A])) * uint64(c.topnd2(in))
		c.y = uint32(p >> 32)
		c.twr(in.C, uint32(p))
		c.baseCycles += 4
		return nb, nil
	}
	h[sSmul] = func(c *CPU, _ *exec.Body, in *exec.Instr) (int32, error) {
		p := int64(int32(c.r[in.A])) * int64(int32(c.topnd2(in)))
		c.y = uint32(uint64(p) >> 32)
		c.twr(in.C, uint32(p))
		c.baseCycles += 4
		return nb, nil
	}
	h[sUdiv] = func(c *CPU, _ *exec.Body, in *exec.Instr) (int32, error) {
		b := c.topnd2(in)
		dividend := uint64(c.y)<<32 | uint64(uint32(c.r[in.A]))
		if b == 0 {
			c.twr(in.C, 0)
		} else {
			q := dividend / uint64(b)
			if q > math.MaxUint32 {
				q = math.MaxUint32
			}
			c.twr(in.C, uint32(q))
		}
		c.baseCycles += 36
		return nb, nil
	}
	h[sSdiv] = func(c *CPU, _ *exec.Body, in *exec.Instr) (int32, error) {
		b := c.topnd2(in)
		dividend := int64(uint64(c.y)<<32 | uint64(uint32(c.r[in.A])))
		if b == 0 {
			c.twr(in.C, 0)
		} else {
			q := dividend / int64(int32(b))
			switch {
			case q > math.MaxInt32:
				q = math.MaxInt32
			case q < math.MinInt32:
				q = math.MinInt32
			}
			c.twr(in.C, uint32(int32(q)))
		}
		c.baseCycles += 36
		return nb, nil
	}
	h[sRdY] = func(c *CPU, _ *exec.Body, in *exec.Instr) (int32, error) {
		c.twr(in.C, c.y)
		return nb, nil
	}
	h[sWrY] = func(c *CPU, _ *exec.Body, in *exec.Instr) (int32, error) {
		c.y = uint32(c.r[in.A]) ^ c.topnd2(in)
		return nb, nil
	}
	h[sJmpl] = func(c *CPU, b *exec.Body, in *exec.Instr) (int32, error) {
		// Read the sources before the link write, as the oracle does.
		a := uint32(c.r[in.A])
		o2 := c.topnd2(in)
		c.twr(in.C, uint32(in.PC))
		t := uint64(a + o2)
		if b.Contains(t) {
			return int32(b.IndexOf(t)), nil
		}
		c.extPC = t
		return exec.External, nil
	}
	h[sBadOp3] = func(_ *CPU, _ *exec.Body, in *exec.Instr) (int32, error) {
		return 0, fmt.Errorf("sparc: unknown op3 %#x at %#x", uint32(in.Imm)>>19&0x3f, in.PC)
	}
	h[sFmovs] = func(c *CPU, _ *exec.Body, in *exec.Instr) (int32, error) {
		c.f[in.C] = c.f[in.B]
		return nb, nil
	}
	h[sFnegs] = func(c *CPU, _ *exec.Body, in *exec.Instr) (int32, error) {
		c.f[in.C] = c.f[in.B] ^ 0x80000000
		return nb, nil
	}
	h[sFabss] = func(c *CPU, _ *exec.Body, in *exec.Instr) (int32, error) {
		c.f[in.C] = c.f[in.B] &^ 0x80000000
		return nb, nil
	}
	h[sFsqrts] = func(c *CPU, _ *exec.Body, in *exec.Instr) (int32, error) {
		c.wfsingle(uint32(in.C), float32(math.Sqrt(float64(c.fsingle(uint32(in.B))))))
		c.baseCycles += 29
		return nb, nil
	}
	h[sFsqrtd] = func(c *CPU, _ *exec.Body, in *exec.Instr) (int32, error) {
		c.wfdouble(uint32(in.C), math.Sqrt(c.fdouble(uint32(in.B))))
		c.baseCycles += 29
		return nb, nil
	}
	h[sFadds] = fps(1, func(a, b float32) float32 { return a + b })
	h[sFaddd] = fpd(1, func(a, b float64) float64 { return a + b })
	h[sFsubs] = fps(1, func(a, b float32) float32 { return a - b })
	h[sFsubd] = fpd(1, func(a, b float64) float64 { return a - b })
	h[sFmuls] = fps(3, func(a, b float32) float32 { return a * b })
	h[sFmuld] = fpd(4, func(a, b float64) float64 { return a * b })
	h[sFdivs] = fps(12, func(a, b float32) float32 { return a / b })
	h[sFdivd] = fpd(18, func(a, b float64) float64 { return a / b })
	h[sFitos] = func(c *CPU, _ *exec.Body, in *exec.Instr) (int32, error) {
		c.wfsingle(uint32(in.C), float32(int32(c.f[in.B])))
		return nb, nil
	}
	h[sFitod] = func(c *CPU, _ *exec.Body, in *exec.Instr) (int32, error) {
		c.wfdouble(uint32(in.C), float64(int32(c.f[in.B])))
		return nb, nil
	}
	h[sFstoi] = func(c *CPU, _ *exec.Body, in *exec.Instr) (int32, error) {
		c.f[in.C] = uint32(truncToI32(float64(c.fsingle(uint32(in.B)))))
		return nb, nil
	}
	h[sFdtoi] = func(c *CPU, _ *exec.Body, in *exec.Instr) (int32, error) {
		c.f[in.C] = uint32(truncToI32(c.fdouble(uint32(in.B))))
		return nb, nil
	}
	h[sFstod] = func(c *CPU, _ *exec.Body, in *exec.Instr) (int32, error) {
		c.wfdouble(uint32(in.C), float64(c.fsingle(uint32(in.B))))
		return nb, nil
	}
	h[sFdtos] = func(c *CPU, _ *exec.Body, in *exec.Instr) (int32, error) {
		c.wfsingle(uint32(in.C), float32(c.fdouble(uint32(in.B))))
		return nb, nil
	}
	h[sBadFPop1] = func(_ *CPU, _ *exec.Body, in *exec.Instr) (int32, error) {
		return 0, fmt.Errorf("sparc: unknown FPop1 opf %#x at %#x", uint32(in.Imm)>>5&0x1ff, in.PC)
	}
	h[sFcmps] = func(c *CPU, _ *exec.Body, in *exec.Instr) (int32, error) {
		c.fcmp(float64(c.fsingle(uint32(in.A))), float64(c.fsingle(uint32(in.B))))
		return nb, nil
	}
	h[sFcmpd] = func(c *CPU, _ *exec.Body, in *exec.Instr) (int32, error) {
		c.fcmp(c.fdouble(uint32(in.A)), c.fdouble(uint32(in.B)))
		return nb, nil
	}
	h[sBadFPop2] = func(_ *CPU, _ *exec.Body, in *exec.Instr) (int32, error) {
		return 0, fmt.Errorf("sparc: unknown FPop2 opf %#x at %#x", uint32(in.Imm)>>5&0x1ff, in.PC)
	}
	h[sLd] = sload(4, "load", func(c *CPU, in *exec.Instr, v uint64) { c.twr(in.C, uint32(v)) })
	h[sLdub] = sload(1, "load", func(c *CPU, in *exec.Instr, v uint64) { c.twr(in.C, uint32(v)) })
	h[sLduh] = sload(2, "load", func(c *CPU, in *exec.Instr, v uint64) { c.twr(in.C, uint32(v)) })
	h[sLdsb] = sload(1, "load", func(c *CPU, in *exec.Instr, v uint64) {
		c.twr(in.C, uint32(int32(int8(v))))
	})
	h[sLdsh] = sload(2, "load", func(c *CPU, in *exec.Instr, v uint64) {
		c.twr(in.C, uint32(int32(int16(v))))
	})
	h[sLdf] = sload(4, "ldf", func(c *CPU, in *exec.Instr, v uint64) { c.f[in.C] = uint32(v) })
	h[sLddf] = sload(8, "lddf", func(c *CPU, in *exec.Instr, v uint64) {
		c.f[in.C&^1] = uint32(v >> 32)
		c.f[in.C|1] = uint32(v)
	})
	h[sSt] = sstore(4, "store", func(c *CPU, in *exec.Instr) uint64 { return uint64(uint32(c.r[in.C])) })
	h[sStb] = sstore(1, "store", func(c *CPU, in *exec.Instr) uint64 { return uint64(uint32(c.r[in.C])) })
	h[sSth] = sstore(2, "store", func(c *CPU, in *exec.Instr) uint64 { return uint64(uint32(c.r[in.C])) })
	h[sStf] = sstore(4, "stf", func(c *CPU, in *exec.Instr) uint64 { return uint64(c.f[in.C]) })
	h[sStdf] = sstore(8, "stdf", func(c *CPU, in *exec.Instr) uint64 {
		return uint64(c.f[in.C&^1])<<32 | uint64(c.f[in.C|1])
	})
	h[sBadMem] = func(_ *CPU, _ *exec.Body, in *exec.Instr) (int32, error) {
		return 0, fmt.Errorf("sparc: unknown mem op3 %#x at %#x", uint32(in.Imm)>>19&0x3f, in.PC)
	}
}

// fcmp sets fcc exactly like the oracle's fpop2 tail.
func (c *CPU) fcmp(a, b float64) {
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
}

func alu(f func(a, b uint32) uint32) thandler {
	return func(c *CPU, _ *exec.Body, in *exec.Instr) (int32, error) {
		c.twr(in.C, f(uint32(c.r[in.A]), c.topnd2(in)))
		return exec.NoBranch, nil
	}
}

func fps(cycles uint64, f func(a, b float32) float32) thandler {
	return func(c *CPU, _ *exec.Body, in *exec.Instr) (int32, error) {
		c.wfsingle(uint32(in.C), f(c.fsingle(uint32(in.A)), c.fsingle(uint32(in.B))))
		c.baseCycles += cycles
		return exec.NoBranch, nil
	}
}

func fpd(cycles uint64, f func(a, b float64) float64) thandler {
	return func(c *CPU, _ *exec.Body, in *exec.Instr) (int32, error) {
		c.wfdouble(uint32(in.C), f(c.fdouble(uint32(in.A)), c.fdouble(uint32(in.B))))
		c.baseCycles += cycles
		return exec.NoBranch, nil
	}
}

func sload(size int, what string, sink func(c *CPU, in *exec.Instr, v uint64)) thandler {
	return func(c *CPU, _ *exec.Body, in *exec.Instr) (int32, error) {
		v, err := c.m.Load(uint64(uint32(c.r[in.A])+c.topnd2(in)), size)
		if err != nil {
			return 0, fmt.Errorf("sparc: %s at pc %#x: %w", what, in.PC, err)
		}
		sink(c, in, v)
		return exec.NoBranch, nil
	}
}

func sstore(size int, what string, src func(c *CPU, in *exec.Instr) uint64) thandler {
	return func(c *CPU, _ *exec.Body, in *exec.Instr) (int32, error) {
		addr := uint64(uint32(c.r[in.A]) + c.topnd2(in))
		if err := c.m.Store(addr, size, src(c, in)); err != nil {
			return 0, fmt.Errorf("sparc: %s at pc %#x: %w", what, in.PC, err)
		}
		return exec.NoBranch, nil
	}
}
