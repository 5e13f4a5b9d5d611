package sparc

import (
	"encoding/binary"
	"math"
	"unsafe"

	"repro/internal/exec"
)

// The SPARC port of the predecoded direct-threaded execution engine
// (internal/exec): what its run loop executes a body through (exec.Machine):
// Loop, the hot loop, Transfer, a branch by cond, and Step for the rest.  The fetch/switch Step in
// cpu.go stays the oracle, bit for bit (internal/exec/diff enforces it).
// SPARC models no load-use interlock, so no Instr has interlock metadata.

// Dense opcodes, each described once: a pc-relative branch by cond,
// another transfer by a case of Transfer, a plain instruction by a case
// of Loop or, last of the plain ones, by Step alone (these come first,
// from 0, so that Loop's jump table needs no offset).
const (
	sSethi uint16 = iota
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
	sSt
	// Loop has no case for these: Step runs them.
	sLdub
	sLduh
	sLdsb
	sLdsh
	sLdf
	sLddf
	sStb
	sSth
	sStf
	sStdf
	sNumPlain
)

const (
	sBicc = sNumPlain + iota
	sFBfcc
	sCall
	sJmpl
	sBad // a word with no row
)

// Register helpers over the narrow predecoded operand fields, which index
// the register file with no mask and no bounds check: it has a slot for
// every uint8.  A write to %g0 was predecoded to exec.Sink.
func (c *CPU) tru(n uint8) uint32    { return uint32(c.r[n]) }
func (c *CPU) twr(n uint8, v uint32) { c.r[n] = uint64(v) }

// topnd2 is the predecoded form of operand2: rs2 plus the sign-extended
// simm13, one of which predecode made %g0 or 0.
func (c *CPU) topnd2(in *exec.Instr) uint32 { return c.tru(in.B) + uint32(in.Imm) }

// taddr is the effective address of a load or store.
func (c *CPU) taddr(in *exec.Instr) uint64 { return uint64(c.tru(in.A) + c.topnd2(in)) }

// cond reports whether in, of a pc-relative branch row, is taken: the
// oracle's takenI and takenF as a table.  The four icc bools, adjacent in
// CPU, are read in one load, and a multiply gathers them.
func (c *CPU) cond(in *exec.Instr) bool {
	icc := binary.LittleEndian.Uint32((*[4]byte)(unsafe.Pointer(&c.n))[:]) * 0x08040201 >> 24
	return branches[in.Op&1][in.A&15]&(1<<(icc|uint32(c.fcc&3)<<4)) != 0
}

var _ [unsafe.Offsetof(CPU{}.c) - unsafe.Offsetof(CPU{}.n) - 3]byte // n, z, v, c adjacent
var _ [unsafe.Offsetof(CPU{}.n) + 3 - unsafe.Offsetof(CPU{}.c)]byte

// branches is, by opcode (its low bit: sBicc and sFBfcc are adjacent)
// and condition, the states it holds in: icc's n, z, v, c, then fcc.
var branches = conditions()

func conditions() (t [2][16]uint64) {
	var c CPU
	for cond := uint32(0); cond < 16; cond++ {
		for st := uint32(0); st < 64; st++ {
			c.n, c.z, c.v, c.c, c.fcc = st&8 != 0, st&4 != 0, st&2 != 0, st&1 != 0, uint8(st>>4)
			t[sBicc&1][cond] |= uint64(b2u(c.takenI(cond))) << st
			t[sFBfcc&1][cond] |= uint64(b2u(c.takenF(cond))) << st
		}
	}
	return t
}

func b2u(b bool) uint32 {
	if b {
		return 1
	}
	return 0
}

// Predecode unpacks words, the installed image of one function at base,
// into a fresh threaded body (Decode, each word looked up).
func (c *CPU) Predecode(words []uint32, base uint64) *exec.Body {
	return exec.Predecode(words, base, c.Decode)
}

// Decode unpacks words into b through exec's one decoder, from the table.
func (*CPU) Decode(b *exec.Body, words []uint32, rows []*exec.Row) { port.Decode(isa, b, words, rows) }

// port is what SPARC gives exec's decoder and run loop: one delay slot
// and its nop, and no load-use interlock.
var port = exec.Port{Slots: 1, Nop: encNop, Never: exec.NoReg, Bad: sBad, Uncond: sBad}

// Threaded returns the port and state the run loop executes c with, and
// the integer registers.
func (c *CPU) Threaded() (*exec.Port, *exec.State, *[32]uint64) {
	return &port, &c.State, (*[32]uint64)(c.r[:32])
}

// Loop is exec.Machine.Loop: integer and FP operates, the word loads and
// stores the inline accessors answer, and folds.  Nothing stalls.
func (c *CPU) Loop(code []exec.Instr, i int, left uint64) (int, uint64) {
	if left == 0 {
		return i, 0
	}
	in, pc := &code[i], &code // code itself stays in memory while a segment runs
	for {
		if in.Run != 0 {
			seg, start := code[:i+int(min(uint64(in.Run), left))], i
		loop:
			for ; uint(i) < uint(len(seg)); i++ {
				in := &seg[i]
				switch in.Op & 127 { // every value a case: no range check
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
					c.v = ^(a^b)&(a^r)>>31 != 0
					c.c = r < a
				case sSubCC:
					a, b := c.tru(in.A), c.topnd2(in)
					r := a - b
					c.twr(in.C, r)
					c.n, c.z = int32(r) < 0, r == 0
					c.v = (a^b)&(a^r)>>31 != 0
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
					v, ok := c.Mem.Load4(c.taddr(in))
					if !ok {
						break loop
					}
					c.twr(in.C, v)
				case sSt:
					if !c.Mem.Store4(c.taddr(in), c.tru(in.C)) {
						break loop
					}
				case 127:
					break loop
				default:
					break loop
				}
			}
			left -= uint64(i - start)
			if i < len(seg) || i == len(*pc) {
				break
			}
			if in = &(*pc)[i]; in.Run != 0 && left > 0 {
				continue // a run longer than Run holds
			}
		}
		// A folded branch, where a segment ends: taken, its nop slot retires.
		if in.Flags&exec.FFold == 0 || left < 2 {
			break
		}
		left--
		if c.cond(in) {
			i, left = int(in.Target), left-1
		} else {
			i++
		}
		if left == 0 {
			break
		}
		in = &(*pc)[i]
	}
	return i, left
}

// Transfer is exec.Machine.Transfer: call, jmpl, and a pc-relative branch
// by cond.
func (c *CPU) Transfer(b *exec.Body, in *exec.Instr) int32 {
	switch in.Op {
	case sCall:
		c.twr(rO7, uint32(in.PC))
		return in.Jump(&c.ExtPC)
	case sJmpl:
		// Read the sources before the link write, as the oracle does.
		t := c.taddr(in)
		c.twr(in.C, uint32(in.PC))
		return b.Indirect(t, &c.ExtPC)
	}
	return port.Branch(&c.State, in, c.cond(in))
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
