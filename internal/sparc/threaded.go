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

// Dense opcodes.  Each is described exactly once: a transfer or an
// undecodable word by the entry of sparcHandlers its number indexes, a
// plain instruction (a row of kind verify.KindOther) by a case of plain.
const (
	sBicc uint16 = iota
	sFBfcc
	sCall
	sJmpl
	sBad // a word with no row
	sNumHandlers
)

const (
	sSethi = sNumHandlers + iota
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
	sFcmps
	sFcmpd
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
)

// Register helpers over the narrow predecoded operand fields.  (Not
// masked with 31 to spare the compiler's index check, as on MIPS and
// Alpha: here that form reads 10% slower on loop_long, EXPERIMENTS S8.)
func (c *CPU) tru(n uint8) uint32 { return uint32(c.r[n]) }
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
	return c.tru(in.B)
}

// taddr is the effective address of a load or store.
func (c *CPU) taddr(in *exec.Instr) uint64 { return uint64(c.tru(in.A) + c.topnd2(in)) }

// branch resolves in, an instruction of a pc-relative branch row
// (verify.KindBranch): it reports whether in is taken, after the edge probe
// that fires on every resolution, as in the oracle.  RunBody calls it for a
// branch it folds, the handler for one it does not.
func (c *CPU) branch(in *exec.Instr) bool {
	var taken bool
	switch in.Op {
	case sBicc:
		taken = c.takenI(uint32(in.A))
	case sFBfcc:
		taken = c.takenF(uint32(in.A))
	default:
		panic(fmt.Sprintf("sparc: opcode %d at %#x is marked a branch and has no case", in.Op, in.PC))
	}
	if c.edgeEvery != 0 { // edge's own guard: edge is too big to inline
		c.edge(in.PC, taken)
	}
	return taken
}

// PendingDelay reports whether a taken branch is waiting on its delay
// slot.
func (c *CPU) PendingDelay() bool { return c.inDelay }

// Predecode unpacks words into a threaded body: each word's row in the
// instruction table (isa.go) names its opcode, whether it is plain, and
// which operands to unpack.  Pure function of its arguments; a word with
// no row becomes sBad, whose handler reproduces the oracle's exact message,
// never a predecode failure.
func (c *CPU) Predecode(words []uint32, base uint64) *exec.Body {
	code := make([]exec.Instr, len(words))
	body := &exec.Body{Base: base, Code: code}
	for i, w := range words {
		in := &code[i]
		in.PC = base + 4*uint64(i)
		in.SrcA, in.SrcB, in.LoadReg = exec.NoReg, exec.NoReg, exec.NoReg

		r := isa.Lookup(w)
		if r == nil {
			in.Op, in.Imm = sBad, int64(w)
			continue
		}
		r.Start(in, w, body)
		if w == encNop {
			in.Flags |= exec.FNop
		}
		rd := uint8(w >> 25 & 31)
		rs1 := uint8(w >> 14 & 31)
		switch r.Layout {
		case laySethi:
			in.C, in.Imm = rd, int64(w<<10)
		case layBr:
			in.A = rd & 0xf // cond
		case layArith:
			in.A, in.C = rs1, rd
			if w>>13&1 == 1 {
				in.Flags |= exec.FImm
				in.Imm = int64(int32(w<<19) >> 19)
			} else {
				in.B = uint8(w & 31)
			}
		case layFP:
			in.A, in.B, in.C = rs1, uint8(w&31), rd
		}
	}
	exec.MarkRuns(code, exec.NoReg, 1)
	return body
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
		if in.Flags&exec.FFold != 0 && allow-n >= 2 && !sampling {
			// An in-body branch with a nop in its slot, and the budget
			// admits both: resolved here, with no handler call, and the
			// trip goes on at its successor (see the MIPS engine).
			if n++; c.branch(in) {
				n++
				idx = int(in.Target)
			} else {
				idx++
			}
			if n == allow {
				break
			}
			in = &code[idx]
		}
		if run := min(uint64(in.Run), allow-n); run > 1 && !sampling {
			// A straight-line run, nobody sampling: plain executes as much
			// of it as the budget admits (one instruction alone costs less
			// on the path below).
			done, err := c.plain(code[idx : idx+int(run)])
			idx += done
			n += uint64(done)
			if err != nil {
				n++ // code[idx] faulted, and retires
				c.flushBody(code[idx].PC, n-flushed)
				return n, err
			}
			if idx == len(code) {
				c.flushBody(b.End(), n-flushed)
				return n, nil
			}
			continue
		}
		if sampling {
			if c.sampleLeft--; c.sampleLeft == 0 {
				c.sampleLeft = c.sampleEvery
				c.flushBody(in.PC, n+1-flushed)
				flushed = n + 1
				c.sampleFn(in.PC)
			}
		}
		br, err := exec.NoBranch, error(nil)
		if in.Run != 0 {
			_, err = c.plain(code[idx : idx+1])
		} else {
			br, err = sparcHandlers[in.Op](c, b, in)
		}
		n++
		if err != nil {
			c.flushBody(in.PC, n-flushed)
			return n, err
		}
		if br == exec.NoBranch {
			idx++
			if idx == len(code) {
				c.flushBody(in.PC+4, n-flushed)
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
			c.inDelay = true
			c.delayTarget = pendAddr
			c.flushBody(in.PC+4, n-flushed)
			return n, nil
		}
		din := &code[dIdx]
		if sampling {
			if c.sampleLeft--; c.sampleLeft == 0 {
				c.sampleLeft = c.sampleEvery
				c.flushBody(din.PC, n+1-flushed)
				flushed = n + 1
				c.sampleFn(din.PC)
			}
		}
		dbr, derr := exec.NoBranch, error(nil)
		switch {
		case din.Flags&exec.FNop != 0:
			// What most slots hold: it retires, and that is all it does.
		case din.Run != 0:
			_, derr = c.plain(code[dIdx : dIdx+1])
		default:
			dbr, derr = sparcHandlers[din.Op](c, b, din)
		}
		n++
		if derr != nil {
			c.inDelay = true
			c.delayTarget = pendAddr
			c.flushBody(din.PC, n-flushed)
			return n, derr
		}
		if dbr != exec.NoBranch {
			c.flushBody(pendAddr, n-flushed)
			return n, fmt.Errorf("sparc: branch in delay slot at %#x", c.pc)
		}
		if br == exec.External {
			c.flushBody(pendAddr, n-flushed)
			return n, nil
		}
		idx = int(br)
	}
	c.flushBody(code[idx].PC, n-flushed)
	return n, nil
}

// flushBody brings the simulator's own state up to date at pc, where the
// dispatch loop is leaving or a probe is about to look: pend retired
// instructions not yet counted, and their base cycles.
func (c *CPU) flushBody(pc, pend uint64) {
	c.pc = pc
	c.insns += pend
	c.baseCycles += pend
}

// thandler executes one transfer (or refuses one undecodable word); see
// the MIPS engine for what it returns.
type thandler func(c *CPU, b *exec.Body, in *exec.Instr) (int32, error)

// tbranch is the handler of every pc-relative branch row: a branch
// RunBody did not fold.
func tbranch(c *CPU, _ *exec.Body, in *exec.Instr) (int32, error) {
	if !c.branch(in) {
		return exec.NoBranch, nil
	}
	return in.Jump(&c.extPC), nil
}

var sparcHandlers = [sNumHandlers]thandler{
	sBicc:  tbranch,
	sFBfcc: tbranch,
	sCall: func(c *CPU, _ *exec.Body, in *exec.Instr) (int32, error) {
		c.twr(rO7, uint32(in.PC))
		return in.Jump(&c.extPC), nil
	},
	sJmpl: func(c *CPU, b *exec.Body, in *exec.Instr) (int32, error) {
		// Read the sources before the link write, as the oracle does.
		t := c.taddr(in)
		c.twr(in.C, uint32(in.PC))
		return b.Indirect(t, &c.extPC), nil
	},
	sBad: func(_ *CPU, _ *exec.Body, in *exec.Instr) (int32, error) {
		return 0, badWord(uint32(in.Imm), in.PC)
	},
}

// badWord is what the oracle says of a word with no row, decode group by
// decode group.
func badWord(w uint32, pc uint64) error {
	op3 := w >> 19 & 0x3f
	switch {
	case w>>30 == 0:
		return fmt.Errorf("sparc: unknown op2 %d at %#x", w>>22&7, pc)
	case w>>30 == 3:
		return fmt.Errorf("sparc: unknown mem op3 %#x at %#x", op3, pc)
	case op3 == op3FPop1:
		return fmt.Errorf("sparc: unknown FPop1 opf %#x at %#x", w>>5&0x1ff, pc)
	case op3 == op3FPop2:
		return fmt.Errorf("sparc: unknown FPop2 opf %#x at %#x", w>>5&0x1ff, pc)
	}
	return fmt.Errorf("sparc: unknown op3 %#x at %#x", op3, pc)
}

// plain executes code, which holds only plain instructions, in order.  It
// returns how many completed and the fault of the one that did not, if
// any.
func (c *CPU) plain(code []exec.Instr) (done int, err error) {
	for i := range code {
		in := &code[i]
		switch in.Op {
		case sSethi:
			c.twr(in.C, uint32(in.Imm))
		case sAdd:
			c.twr(in.C, c.tru(in.A)+c.topnd2(in))
		case sSub:
			c.twr(in.C, c.tru(in.A)-c.topnd2(in))
		case sAnd:
			c.twr(in.C, c.tru(in.A)&c.topnd2(in))
		case sAndn:
			c.twr(in.C, c.tru(in.A)&^c.topnd2(in))
		case sOr:
			c.twr(in.C, c.tru(in.A)|c.topnd2(in))
		case sXor:
			c.twr(in.C, c.tru(in.A)^c.topnd2(in))
		case sXnor:
			c.twr(in.C, ^(c.tru(in.A) ^ c.topnd2(in)))
		case sAddx:
			x := uint32(0)
			if c.c {
				x = 1
			}
			c.twr(in.C, c.tru(in.A)+c.topnd2(in)+x)
		case sAddCC:
			a, b := c.tru(in.A), c.topnd2(in)
			r := a + b
			c.twr(in.C, r)
			c.n, c.z = int32(r) < 0, r == 0
			c.v = (a>>31 == b>>31) && (r>>31 != a>>31)
			c.c = r < a
		case sSubCC:
			a, b := c.tru(in.A), c.topnd2(in)
			r := a - b
			c.twr(in.C, r)
			c.n, c.z = int32(r) < 0, r == 0
			c.v = (a>>31 != b>>31) && (r>>31 != a>>31)
			c.c = a < b
		case sSll:
			c.twr(in.C, c.tru(in.A)<<(c.topnd2(in)&31))
		case sSrl:
			c.twr(in.C, c.tru(in.A)>>(c.topnd2(in)&31))
		case sSra:
			c.twr(in.C, uint32(int32(c.tru(in.A))>>(c.topnd2(in)&31)))
		case sUmul:
			p := uint64(c.tru(in.A)) * uint64(c.topnd2(in))
			c.y = uint32(p >> 32)
			c.twr(in.C, uint32(p))
			c.baseCycles += 4
		case sSmul:
			p := int64(int32(c.tru(in.A))) * int64(int32(c.topnd2(in)))
			c.y = uint32(uint64(p) >> 32)
			c.twr(in.C, uint32(p))
			c.baseCycles += 4
		case sUdiv:
			b := c.topnd2(in)
			dividend := uint64(c.y)<<32 | uint64(c.tru(in.A))
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
		case sSdiv:
			b := c.topnd2(in)
			dividend := int64(uint64(c.y)<<32 | uint64(c.tru(in.A)))
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
		case sRdY:
			c.twr(in.C, c.y)
		case sWrY:
			c.y = c.tru(in.A) ^ c.topnd2(in)
		case sFmovs:
			c.f[in.C] = c.f[in.B]
		case sFnegs:
			c.f[in.C] = c.f[in.B] ^ 0x80000000
		case sFabss:
			c.f[in.C] = c.f[in.B] &^ 0x80000000
		case sFsqrts:
			c.wfsingle(uint32(in.C), float32(math.Sqrt(float64(c.fsingle(uint32(in.B))))))
			c.baseCycles += 29
		case sFsqrtd:
			c.wfdouble(uint32(in.C), math.Sqrt(c.fdouble(uint32(in.B))))
			c.baseCycles += 29
		case sFadds:
			c.wfsingle(uint32(in.C), c.fsingle(uint32(in.A))+c.fsingle(uint32(in.B)))
			c.baseCycles++
		case sFaddd:
			c.wfdouble(uint32(in.C), c.fdouble(uint32(in.A))+c.fdouble(uint32(in.B)))
			c.baseCycles++
		case sFsubs:
			c.wfsingle(uint32(in.C), c.fsingle(uint32(in.A))-c.fsingle(uint32(in.B)))
			c.baseCycles++
		case sFsubd:
			c.wfdouble(uint32(in.C), c.fdouble(uint32(in.A))-c.fdouble(uint32(in.B)))
			c.baseCycles++
		case sFmuls:
			c.wfsingle(uint32(in.C), c.fsingle(uint32(in.A))*c.fsingle(uint32(in.B)))
			c.baseCycles += 3
		case sFmuld:
			c.wfdouble(uint32(in.C), c.fdouble(uint32(in.A))*c.fdouble(uint32(in.B)))
			c.baseCycles += 4
		case sFdivs:
			c.wfsingle(uint32(in.C), c.fsingle(uint32(in.A))/c.fsingle(uint32(in.B)))
			c.baseCycles += 12
		case sFdivd:
			c.wfdouble(uint32(in.C), c.fdouble(uint32(in.A))/c.fdouble(uint32(in.B)))
			c.baseCycles += 18
		case sFitos:
			c.wfsingle(uint32(in.C), float32(int32(c.f[in.B])))
		case sFitod:
			c.wfdouble(uint32(in.C), float64(int32(c.f[in.B])))
		case sFstoi:
			c.f[in.C] = uint32(truncToI32(float64(c.fsingle(uint32(in.B)))))
		case sFdtoi:
			c.f[in.C] = uint32(truncToI32(c.fdouble(uint32(in.B))))
		case sFstod:
			c.wfdouble(uint32(in.C), float64(c.fsingle(uint32(in.B))))
		case sFdtos:
			c.wfsingle(uint32(in.C), float32(c.fdouble(uint32(in.B))))
		case sFcmps:
			c.fcmp(float64(c.fsingle(uint32(in.A))), float64(c.fsingle(uint32(in.B))))
		case sFcmpd:
			c.fcmp(c.fdouble(uint32(in.A)), c.fdouble(uint32(in.B)))
		case sLd:
			a := c.taddr(in)
			v, ok := c.m.Load4(a)
			if !ok {
				w, err := c.m.Load(a, 4)
				if err != nil {
					return i, memErr("load", in, err)
				}
				v = uint32(w)
			}
			c.twr(in.C, v)
		case sLdub:
			v, err := c.m.Load(c.taddr(in), 1)
			if err != nil {
				return i, memErr("load", in, err)
			}
			c.twr(in.C, uint32(v))
		case sLduh:
			v, err := c.m.Load(c.taddr(in), 2)
			if err != nil {
				return i, memErr("load", in, err)
			}
			c.twr(in.C, uint32(v))
		case sLdsb:
			v, err := c.m.Load(c.taddr(in), 1)
			if err != nil {
				return i, memErr("load", in, err)
			}
			c.twr(in.C, uint32(int32(int8(v))))
		case sLdsh:
			v, err := c.m.Load(c.taddr(in), 2)
			if err != nil {
				return i, memErr("load", in, err)
			}
			c.twr(in.C, uint32(int32(int16(v))))
		case sLdf:
			v, err := c.m.Load(c.taddr(in), 4)
			if err != nil {
				return i, memErr("ldf", in, err)
			}
			c.f[in.C] = uint32(v)
		case sLddf:
			v, err := c.m.Load(c.taddr(in), 8)
			if err != nil {
				return i, memErr("lddf", in, err)
			}
			c.f[in.C&^1] = uint32(v >> 32)
			c.f[in.C|1] = uint32(v)
		case sSt:
			if a, v := c.taddr(in), c.tru(in.C); !c.m.Store4(a, v) {
				if err := c.m.Store(a, 4, uint64(v)); err != nil {
					return i, memErr("store", in, err)
				}
			}
		case sStb:
			if err := c.m.Store(c.taddr(in), 1, uint64(c.tru(in.C))); err != nil {
				return i, memErr("store", in, err)
			}
		case sSth:
			if err := c.m.Store(c.taddr(in), 2, uint64(c.tru(in.C))); err != nil {
				return i, memErr("store", in, err)
			}
		case sStf:
			if err := c.m.Store(c.taddr(in), 4, uint64(c.f[in.C])); err != nil {
				return i, memErr("stf", in, err)
			}
		case sStdf:
			if err := c.m.Store(c.taddr(in), 8, uint64(c.f[in.C&^1])<<32|uint64(c.f[in.C|1])); err != nil {
				return i, memErr("stdf", in, err)
			}
		default:
			panic(fmt.Sprintf("sparc: opcode %d at %#x is marked plain and has no case", in.Op, in.PC))
		}
	}
	return len(code), nil
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

func memErr(what string, in *exec.Instr, err error) error {
	return fmt.Errorf("sparc: %s at pc %#x: %w", what, in.PC, err)
}
