package mips

import (
	"math"

	"repro/internal/exec"
)

// The MIPS port of the predecoded direct-threaded execution engine
// (internal/exec): what exec's one decoder needs beside the table
// (interlock), and what its run loop executes a body through (exec.Machine):
// Loop, the hot loop, Transfer, a branch by cond, and Step for the rest.
// Semantics must stay bit-identical to the fetch/switch oracle in cpu.go,
// error strings included; internal/exec/diff enforces that.

// Dense opcodes, each described once: a pc-relative branch by a case of
// cond, another transfer by a case of Transfer, a plain instruction by a
// case of Loop or, last of the plain ones, by Step alone (these come
// first, from 0, so that Loop's jump table needs no offset).
const (
	mSll uint16 = iota
	mSrl
	mSra
	mSllv
	mSrlv
	mSrav
	mMfhi
	mMflo
	mMult
	mMultu
	mAddu
	mSubu
	mAnd
	mOr
	mXor
	mNor
	mSlt
	mSltu
	mAddiu
	mSlti
	mSltiu
	mAndi
	mOri
	mXori
	mLui
	mLw
	mSw
	mMfc1
	mMtc1
	mFAddS
	mFSubS
	mFMulS
	mFDivS
	mFSqrtS
	mFAbsS
	mFMovS
	mFNegS
	mFCvtDS
	mFCvtWS
	mFCEqS
	mFCLtS
	mFCLeS
	mFAddD
	mFSubD
	mFMulD
	mFDivD
	mFSqrtD
	mFAbsD
	mFMovD
	mFNegD
	mFCvtSD
	mFCvtWD
	mFCEqD
	mFCLtD
	mFCLeD
	mFCvtSW
	mFCvtDW
	// Loop has no case for these: Step runs them.
	mDiv
	mDivu
	mLb
	mLbu
	mLh
	mLhu
	mLwc1
	mLdc1
	mSb
	mSh
	mSwc1
	mSdc1
	mNumPlain
)

const (
	mJr = mNumPlain + iota
	mJalr
	mBltz
	mBgez
	mBal
	mJ
	mJal
	mBeq
	mBne
	mBlez
	mBgtz
	mBc1f
	mBc1t
	mBad // a word with no row
)

// Register helpers over the narrow predecoded operand fields, which index
// the register file with no mask and no bounds check: it has a slot for
// every uint8.  A write to $zero was predecoded to exec.Sink.
func (c *CPU) tru(n uint8) uint32    { return uint32(c.r[n]) }
func (c *CPU) trs(n uint8) int32     { return int32(c.r[n]) }
func (c *CPU) twr(n uint8, v uint32) { c.r[n] = uint64(v) }

// taddr is the effective address of a load or store.
func (c *CPU) taddr(in *exec.Instr) uint64 { return uint64(c.tru(in.A) + uint32(int32(in.Imm))) }

// cond reports whether in, of a pc-relative branch row, is taken.  A field
// a row does not name decodes as $zero: d is rs but in beq and bne, 0 in j.
func (c *CPU) cond(in *exec.Instr) bool {
	d := int32(c.tru(in.A) - c.tru(in.B))
	switch in.Op {
	case mBltz:
		return d < 0
	case mBgez:
		return d >= 0
	case mBeq, mJ:
		return d == 0
	case mBne:
		return d != 0
	case mBlez:
		return d <= 0
	case mBgtz:
		return d > 0
	}
	return c.cc == (in.Op == mBc1t) // bc1f, bc1t
}

// Predecode unpacks words, the installed image of one function at base,
// into a fresh threaded body (Decode, each word looked up).
func (c *CPU) Predecode(words []uint32, base uint64) *exec.Body {
	return exec.Predecode(words, base, c.Decode)
}

// Decode unpacks words into b through exec's one decoder, from the table.
func (*CPU) Decode(b *exec.Body, words []uint32, rows []*exec.Row) { port.Decode(isa, b, words, rows) }

// port is what MIPS gives exec's decoder and run loop: one delay slot and
// its nop, and an interlock that never charges $zero.
var port = exec.Port{Slots: 1, Nop: encNop, Never: 0, Bad: mBad, Uncond: mJ}

// Transfer is exec.Machine.Transfer: jr, jalr, bal, jal, and a
// pc-relative branch by cond.
func (c *CPU) Transfer(b *exec.Body, in *exec.Instr) int32 {
	switch in.Op {
	case mJr:
		return b.Indirect(uint64(c.tru(in.A)), &c.ExtPC)
	case mJalr:
		// Link before reading rs, as the oracle does (rd == rs uses the
		// freshly written link value).
		c.twr(in.C, uint32(in.PC+8))
		return b.Indirect(uint64(c.tru(in.A)), &c.ExtPC)
	case mBal:
		// The oracle writes the link register before evaluating the
		// condition, taken or not; the condition is bgez's.
		c.twr(rRA, uint32(in.PC+8))
		taken := c.trs(in.A) >= 0
		c.Edge(in.PC, taken)
		if !taken {
			return exec.NoBranch
		}
		return in.Jump(&c.ExtPC)
	case mJal:
		c.twr(rRA, uint32(in.PC+8))
		return in.Jump(&c.ExtPC)
	}
	return port.Branch(&c.State, in, c.cond(in))
}

// Loop is exec.Machine.Loop: integer and FP operates but the divides, moves,
// and the word loads and stores the inline accessors answer, and folds.
func (c *CPU) Loop(code []exec.Instr, i int, left uint64) (int, uint64) {
	if left == 0 {
		return i, 0
	}
	in, pc := &code[i], &code // code itself stays in memory while a segment runs
	c.BaseCycles += exec.Bubble(in, c.LastLoad, 0)
	for {
		if in.Run != 0 {
			seg, start, after := code[:i+int(min(uint64(in.Run), left))], i, in.Target
		loop:
			for ; uint(i) < uint(len(seg)); i++ {
				in := &seg[i]
				switch in.Op & 127 { // every value a case: no range check
				case mSll:
					c.twr(in.C, c.tru(in.B)<<(uint32(in.Imm)&31))
				case mSrl:
					c.twr(in.C, c.tru(in.B)>>(uint32(in.Imm)&31))
				case mSra:
					c.twr(in.C, uint32(c.trs(in.B)>>(uint32(in.Imm)&31)))
				case mSllv:
					c.twr(in.C, c.tru(in.B)<<(c.tru(in.A)&31))
				case mSrlv:
					c.twr(in.C, c.tru(in.B)>>(c.tru(in.A)&31))
				case mSrav:
					c.twr(in.C, uint32(c.trs(in.B)>>(c.tru(in.A)&31)))
				case mMfhi:
					c.twr(in.C, c.hi)
				case mMflo:
					c.twr(in.C, c.lo)
				case mMult:
					p := int64(c.trs(in.A)) * int64(c.trs(in.B))
					c.lo, c.hi = uint32(p), uint32(p>>32)
					c.BaseCycles += 11
				case mMultu:
					p := uint64(c.tru(in.A)) * uint64(c.tru(in.B))
					c.lo, c.hi = uint32(p), uint32(p>>32)
					c.BaseCycles += 11
				case mAddu:
					c.twr(in.C, c.tru(in.A)+c.tru(in.B))
				case mSubu:
					c.twr(in.C, c.tru(in.A)-c.tru(in.B))
				case mAnd:
					c.twr(in.C, c.tru(in.A)&c.tru(in.B))
				case mOr:
					c.twr(in.C, c.tru(in.A)|c.tru(in.B))
				case mXor:
					c.twr(in.C, c.tru(in.A)^c.tru(in.B))
				case mNor:
					c.twr(in.C, ^(c.tru(in.A) | c.tru(in.B)))
				case mSlt:
					c.twr(in.C, b2u(c.trs(in.A) < c.trs(in.B)))
				case mSltu:
					c.twr(in.C, b2u(c.tru(in.A) < c.tru(in.B)))
				case mAddiu:
					c.twr(in.B, c.tru(in.A)+uint32(int32(in.Imm)))
				case mSlti:
					c.twr(in.B, b2u(c.trs(in.A) < int32(in.Imm)))
				case mSltiu:
					c.twr(in.B, b2u(c.tru(in.A) < uint32(int32(in.Imm))))
				case mAndi:
					c.twr(in.B, c.tru(in.A)&uint32(in.Imm))
				case mOri:
					c.twr(in.B, c.tru(in.A)|uint32(in.Imm))
				case mXori:
					c.twr(in.B, c.tru(in.A)^uint32(in.Imm))
				case mLui:
					c.twr(in.B, uint32(in.Imm)<<16)
				case mLw:
					v, ok := c.Mem.Load4(c.taddr(in))
					if !ok {
						break loop
					}
					c.twr(in.B, v)
				case mSw:
					if !c.Mem.Store4(c.taddr(in), c.tru(in.B)) {
						break loop
					}
				case mMfc1:
					c.twr(in.B, uint32(c.f[in.A]))
				case mMtc1:
					c.f[in.A] = uint64(c.tru(in.B))
				case mFAddS:
					c.wfs(uint32(in.C), c.fs(uint32(in.A))+c.fs(uint32(in.B)))
					c.BaseCycles++
				case mFSubS:
					c.wfs(uint32(in.C), c.fs(uint32(in.A))-c.fs(uint32(in.B)))
					c.BaseCycles++
				case mFMulS:
					c.wfs(uint32(in.C), c.fs(uint32(in.A))*c.fs(uint32(in.B)))
					c.BaseCycles += 3
				case mFDivS:
					c.wfs(uint32(in.C), c.fs(uint32(in.A))/c.fs(uint32(in.B)))
					c.BaseCycles += 11
				case mFSqrtS:
					c.wfs(uint32(in.C), float32(math.Sqrt(float64(c.fs(uint32(in.A))))))
					c.BaseCycles += 29
				case mFAbsS:
					c.wfs(uint32(in.C), float32(math.Abs(float64(c.fs(uint32(in.A))))))
				case mFMovS:
					c.f[in.C] = c.f[in.A] & 0xffffffff
				case mFNegS:
					c.wfs(uint32(in.C), -c.fs(uint32(in.A)))
				case mFCvtDS:
					c.wfd(uint32(in.C), float64(c.fs(uint32(in.A))))
				case mFCvtWS:
					c.f[in.C] = uint64(uint32(truncToI32(float64(c.fs(uint32(in.A))))))
				case mFCEqS:
					c.cc = c.fs(uint32(in.A)) == c.fs(uint32(in.B))
				case mFCLtS:
					c.cc = c.fs(uint32(in.A)) < c.fs(uint32(in.B))
				case mFCLeS:
					c.cc = c.fs(uint32(in.A)) <= c.fs(uint32(in.B))
				case mFAddD:
					c.wfd(uint32(in.C), c.fd(uint32(in.A))+c.fd(uint32(in.B)))
					c.BaseCycles++
				case mFSubD:
					c.wfd(uint32(in.C), c.fd(uint32(in.A))-c.fd(uint32(in.B)))
					c.BaseCycles++
				case mFMulD:
					c.wfd(uint32(in.C), c.fd(uint32(in.A))*c.fd(uint32(in.B)))
					c.BaseCycles += 4
				case mFDivD:
					c.wfd(uint32(in.C), c.fd(uint32(in.A))/c.fd(uint32(in.B)))
					c.BaseCycles += 18
				case mFSqrtD:
					c.wfd(uint32(in.C), math.Sqrt(c.fd(uint32(in.A))))
					c.BaseCycles += 29
				case mFAbsD:
					c.wfd(uint32(in.C), math.Abs(c.fd(uint32(in.A))))
				case mFMovD:
					c.f[in.C] = c.f[in.A]
				case mFNegD:
					c.wfd(uint32(in.C), -c.fd(uint32(in.A)))
				case mFCvtSD:
					c.wfs(uint32(in.C), float32(c.fd(uint32(in.A))))
				case mFCvtWD:
					c.f[in.C] = uint64(uint32(truncToI32(c.fd(uint32(in.A)))))
				case mFCEqD:
					c.cc = c.fd(uint32(in.A)) == c.fd(uint32(in.B))
				case mFCLtD:
					c.cc = c.fd(uint32(in.A)) < c.fd(uint32(in.B))
				case mFCLeD:
					c.cc = c.fd(uint32(in.A)) <= c.fd(uint32(in.B))
				case mFCvtSW:
					c.wfs(uint32(in.C), float32(int32(uint32(c.f[in.A]))))
				case mFCvtDW:
					c.wfd(uint32(in.C), float64(int32(uint32(c.f[in.A]))))
				case 127:
					break loop
				default:
					break loop
				}
			}
			if i == start {
				break
			}
			last := &seg[i-1]
			c.BaseCycles += uint64(after - last.Target)
			c.LastLoad, left = int(int8(last.LoadReg)), left-uint64(i-start)
			if i < len(seg) { // declined: it pays its Stall bit, reached by falling through
				c.BaseCycles += uint64((*pc)[i].Stall)
				break
			}
			if i == len(*pc) {
				break
			}
			in = &(*pc)[i]
			if c.BaseCycles += uint64(in.Stall); in.Run != 0 && left > 0 {
				continue // a run longer than Run holds
			}
		}
		// A folded branch, where a segment ends: taken, its nop slot retires.
		if in.Flags&exec.FFold == 0 || left < 2 {
			if left == 0 { // not reached: it pays nothing yet
				c.BaseCycles -= exec.Bubble(in, c.LastLoad, 0)
			}
			break
		}
		c.LastLoad, left = -1, left-1
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

// interlock is the oracle's load-use check read off a word, which it
// makes before it decodes: every word reads rs; SPECIAL, beq, bne and the
// integer stores read rt; lb..lw load rt.
func interlock(w uint32) (srcA, srcB, load byte) {
	switch w >> 26 {
	case opSpecial, opBeq, opBne, opSb, opSh, opSw:
		return 's', 't', 0
	case opLb, opLbu, opLh, opLhu, opLw:
		return 's', 0, 't'
	}
	return 's', 0, 0
}

// Threaded returns the port and state the run loop executes c with, and
// the integer registers.
func (c *CPU) Threaded() (*exec.Port, *exec.State, *[32]uint64) {
	return &port, &c.State, (*[32]uint64)(c.r[:32])
}
