package sparc

import (
	"fmt"
	"math"

	"repro/internal/exec"
)

// SPARC port of the predecoded direct-threaded execution engine
// (internal/exec): what exec's one decoder needs beside the table, whose
// fields name each operand's slot, and what exec's run loop executes the
// body through (port): plain, branch and the transfer handlers.  The
// fetch/switch Step in cpu.go stays the verification oracle: registers,
// memory, icc/fcc/Y state, cycle charges, probes, delay slots, and error
// strings must match bit for bit (internal/exec/diff enforces it).  SPARC
// models no load-use interlock, so the predecoded interlock metadata stays
// NoReg — exactly like the oracle.

// Dense opcodes.  Each is described exactly once: a pc-relative branch
// (a row of kind exec.KindBranch) by a case of branch, any other transfer
// or an undecodable word by the handler its number indexes, a plain
// instruction (a row of kind exec.KindOther) by a case of plain.
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
// (exec.KindBranch): it reports whether in is taken, after the edge probe
// that fires on every resolution, as in the oracle.
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

// port is what SPARC gives exec's decoder and run loop: one delay slot
// and its nop, no load-use interlock, and its switches and handlers.
var port = exec.Port[*CPU]{
	Name: "sparc", Slots: 1, Nop: encNop, Never: exec.NoReg, Bad: sBad,
	Plain: (*CPU).plain, Branch: (*CPU).branch,
	Handlers: []exec.Handler[*CPU]{
		sCall: func(c *CPU, _ *exec.Body, in *exec.Instr) (int32, error) {
			c.twr(rO7, uint32(in.PC))
			return in.Jump(&c.ExtPC), nil
		},
		sJmpl: func(c *CPU, b *exec.Body, in *exec.Instr) (int32, error) {
			// Read the sources before the link write, as the oracle does.
			t := c.taddr(in)
			c.twr(in.C, uint32(in.PC))
			return b.Indirect(t, &c.ExtPC), nil
		},
		sBad: func(_ *CPU, _ *exec.Body, in *exec.Instr) (int32, error) {
			return 0, badWord(uint32(in.Imm), in.PC)
		},
	},
}

// Run executes b from index idx through the run loop every port shares.
func (c *CPU) Run(b *exec.Body, idx int, allow uint64) (uint64, error) {
	return port.Run(c, &c.State, b, idx, allow)
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
// returns how many completed, no bubbles (no instruction has a Stall bit
// without an interlock), and the fault of the one that did not complete,
// if any.
func (c *CPU) plain(code []exec.Instr) (done int, bubbles uint64, err error) {
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
			c.BaseCycles += 4
		case sSmul:
			p := int64(int32(c.tru(in.A))) * int64(int32(c.topnd2(in)))
			c.y = uint32(uint64(p) >> 32)
			c.twr(in.C, uint32(p))
			c.BaseCycles += 4
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
			c.BaseCycles += 36
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
			c.BaseCycles += 36
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
			c.BaseCycles += 29
		case sFsqrtd:
			c.wfdouble(uint32(in.C), math.Sqrt(c.fdouble(uint32(in.B))))
			c.BaseCycles += 29
		case sFadds:
			c.wfsingle(uint32(in.C), c.fsingle(uint32(in.A))+c.fsingle(uint32(in.B)))
			c.BaseCycles++
		case sFaddd:
			c.wfdouble(uint32(in.C), c.fdouble(uint32(in.A))+c.fdouble(uint32(in.B)))
			c.BaseCycles++
		case sFsubs:
			c.wfsingle(uint32(in.C), c.fsingle(uint32(in.A))-c.fsingle(uint32(in.B)))
			c.BaseCycles++
		case sFsubd:
			c.wfdouble(uint32(in.C), c.fdouble(uint32(in.A))-c.fdouble(uint32(in.B)))
			c.BaseCycles++
		case sFmuls:
			c.wfsingle(uint32(in.C), c.fsingle(uint32(in.A))*c.fsingle(uint32(in.B)))
			c.BaseCycles += 3
		case sFmuld:
			c.wfdouble(uint32(in.C), c.fdouble(uint32(in.A))*c.fdouble(uint32(in.B)))
			c.BaseCycles += 4
		case sFdivs:
			c.wfsingle(uint32(in.C), c.fsingle(uint32(in.A))/c.fsingle(uint32(in.B)))
			c.BaseCycles += 12
		case sFdivd:
			c.wfdouble(uint32(in.C), c.fdouble(uint32(in.A))/c.fdouble(uint32(in.B)))
			c.BaseCycles += 18
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
			v, ok := c.Mem.Load4(a)
			if !ok {
				w, err := c.Mem.Load(a, 4)
				if err != nil {
					return i, 0, memErr("load", in, err)
				}
				v = uint32(w)
			}
			c.twr(in.C, v)
		case sLdub:
			v, err := c.Mem.Load(c.taddr(in), 1)
			if err != nil {
				return i, 0, memErr("load", in, err)
			}
			c.twr(in.C, uint32(v))
		case sLduh:
			v, err := c.Mem.Load(c.taddr(in), 2)
			if err != nil {
				return i, 0, memErr("load", in, err)
			}
			c.twr(in.C, uint32(v))
		case sLdsb:
			v, err := c.Mem.Load(c.taddr(in), 1)
			if err != nil {
				return i, 0, memErr("load", in, err)
			}
			c.twr(in.C, uint32(int32(int8(v))))
		case sLdsh:
			v, err := c.Mem.Load(c.taddr(in), 2)
			if err != nil {
				return i, 0, memErr("load", in, err)
			}
			c.twr(in.C, uint32(int32(int16(v))))
		case sLdf:
			v, err := c.Mem.Load(c.taddr(in), 4)
			if err != nil {
				return i, 0, memErr("ldf", in, err)
			}
			c.f[in.C] = uint32(v)
		case sLddf:
			v, err := c.Mem.Load(c.taddr(in), 8)
			if err != nil {
				return i, 0, memErr("lddf", in, err)
			}
			c.f[in.C&^1] = uint32(v >> 32)
			c.f[in.C|1] = uint32(v)
		case sSt:
			if a, v := c.taddr(in), c.tru(in.C); !c.Mem.Store4(a, v) {
				if err := c.Mem.Store(a, 4, uint64(v)); err != nil {
					return i, 0, memErr("store", in, err)
				}
			}
		case sStb:
			if err := c.Mem.Store(c.taddr(in), 1, uint64(c.tru(in.C))); err != nil {
				return i, 0, memErr("store", in, err)
			}
		case sSth:
			if err := c.Mem.Store(c.taddr(in), 2, uint64(c.tru(in.C))); err != nil {
				return i, 0, memErr("store", in, err)
			}
		case sStf:
			if err := c.Mem.Store(c.taddr(in), 4, uint64(c.f[in.C])); err != nil {
				return i, 0, memErr("stf", in, err)
			}
		case sStdf:
			if err := c.Mem.Store(c.taddr(in), 8, uint64(c.f[in.C&^1])<<32|uint64(c.f[in.C|1])); err != nil {
				return i, 0, memErr("stdf", in, err)
			}
		default:
			panic(fmt.Sprintf("sparc: opcode %d at %#x is marked plain and has no case", in.Op, in.PC))
		}
	}
	return len(code), 0, nil
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
