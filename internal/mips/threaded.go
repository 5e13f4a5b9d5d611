package mips

import (
	"fmt"
	"math"

	"repro/internal/exec"
)

// This file is the MIPS port of the predecoded direct-threaded execution
// engine (internal/exec).  Predecode unpacks every word of an installed
// function once — operands extracted, static branch targets resolved to
// body indices, load-use interlock metadata precomputed — and RunBody
// drives a dense function-pointer dispatch table over the resulting
// contiguous []exec.Instr.  Semantics must stay bit-identical to the
// fetch/switch oracle in cpu.go: same registers, memory, cycle charges,
// interlock stalls, sampling/edge probes, delay-slot behaviour, and
// error strings.  internal/exec/diff enforces that differentially.

// Dense opcodes: indices into mipsHandlers.
const (
	mSll uint16 = iota
	mSrl
	mSra
	mSllv
	mSrlv
	mSrav
	mJr
	mJalr
	mMfhi
	mMflo
	mMult
	mMultu
	mDiv
	mDivu
	mAddu
	mSubu
	mAnd
	mOr
	mXor
	mNor
	mSlt
	mSltu
	mBadSpecial
	mBltz
	mBgez
	mBal
	mBadRegimm
	mJ
	mJal
	mBeq
	mBne
	mBlez
	mBgtz
	mAddiu
	mSlti
	mSltiu
	mAndi
	mOri
	mXori
	mLui
	mLb
	mLbu
	mLh
	mLhu
	mLw
	mLwc1
	mLdc1
	mSb
	mSh
	mSw
	mSwc1
	mSdc1
	mMfc1
	mMtc1
	mBc1
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
	mBadFS
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
	mBadFD
	mFCvtSW
	mFCvtDW
	mBadFW
	mBadCop1
	mBadOp
	mNumOps
)

// thandler executes one predecoded instruction.  It returns NoBranch for
// fall-through, an in-body index for a resolved taken transfer, or
// External after depositing the destination in c.extPC.
type thandler func(c *CPU, b *exec.Body, in *exec.Instr) (int32, error)

var mipsHandlers [exec.OpTableSize]thandler

// opMask aliases exec.OpMask for the dispatch hot loop; the next line
// fails to compile if the opcode count ever outgrows the table.
const opMask = exec.OpMask

var _ [exec.OpTableSize - mNumOps]struct{}

// Register helpers over the narrow predecoded operand fields.
func (c *CPU) tru(n uint8) uint32 { return uint32(c.r[n]) }
func (c *CPU) trs(n uint8) int32  { return int32(c.r[n]) }
func (c *CPU) twr(n uint8, v uint32) {
	if n != 0 {
		c.r[n] = uint64(v)
	}
}

// mbr resolves a conditional relative branch: edge probe fires on every
// resolution (taken or not), exactly like the oracle's branchRel.
func (c *CPU) mbr(in *exec.Instr, taken bool) int32 {
	c.edge(in.PC, taken)
	if !taken {
		return exec.NoBranch
	}
	return c.mjump(in)
}

// mjump follows a statically resolved transfer.
func (c *CPU) mjump(in *exec.Instr) int32 {
	if in.Target == exec.External {
		c.extPC = uint64(in.Imm)
		return exec.External
	}
	return in.Target
}

// mindirect classifies a runtime-computed transfer destination.
func (c *CPU) mindirect(b *exec.Body, a uint64) int32 {
	if b.Contains(a) {
		return int32(b.IndexOf(a))
	}
	c.extPC = a
	return exec.External
}

// PendingDelay reports whether a taken branch is waiting on its delay
// slot; the generic fetch/switch engine must run the next instruction.
func (c *CPU) PendingDelay() bool { return c.inDelay }

// Predecode unpacks words (the installed image of one function, starting
// at base) into a threaded body: each word's row in the instruction
// table (isa.go) names its handler and which operands to unpack.  It is
// a pure function of its arguments — no CPU state is read or written —
// so the batch installer may call it from worker goroutines.  Malformed
// words never fail predecode: a word with no row becomes the bad-op
// handler of its decode group, which reproduces the oracle's exact error
// text, so unreachable garbage (alignment pads, literal pools) still
// installs.
func (c *CPU) Predecode(words []uint32, base uint64) *exec.Body {
	code := make([]exec.Instr, len(words))
	n := len(words)
	for i, w := range words {
		in := &code[i]
		pc := base + 4*uint64(i)
		rs := uint8(w >> 21 & 31)
		rt := uint8(w >> 16 & 31)
		rd := uint8(w >> 11 & 31)
		sh := uint8(w >> 6 & 31)
		in.PC = pc
		// The oracle charges the load-use interlock on the raw rs field
		// of every word (and on rt where a layout says so) before it
		// even validates the word.
		in.SrcA, in.SrcB, in.LoadReg = rs, exec.NoReg, exec.NoReg

		r := isa.Lookup(w)
		if r == nil {
			in.Imm = int64(w)
			switch w >> 26 {
			case opSpecial:
				in.Op, in.SrcB = mBadSpecial, rt
			case opRegimm:
				in.Op = mBadRegimm
			case opCop1:
				switch w >> 21 & 31 {
				case fmtS:
					in.Op = mBadFS
				case fmtD:
					in.Op = mBadFD
				case fmtW:
					in.Op = mBadFW
				default:
					in.Op = mBadCop1
				}
			default:
				in.Op = mBadOp
			}
			continue
		}
		in.Op, in.A, in.B = r.Op, rs, rt
		switch r.Layout {
		case layR:
			in.C, in.Imm, in.SrcB = rd, int64(sh), rt
		case layBr1:
			in.SetTarget(base, n, branchTarget(w, pc))
		case layBr2:
			in.SrcB = rt
			in.SetTarget(base, n, branchTarget(w, pc))
		case layJ:
			in.SetTarget(base, n, jumpTarget(w, pc))
		case layImmS:
			in.Imm = int64(int16(w))
		case layImmU:
			in.Imm = int64(w & 0xffff)
		case layLoad:
			in.Imm, in.LoadReg = int64(int16(w)), rt
		case layStore:
			in.Imm, in.SrcB = int64(int16(w)), rt
		case layFP, layFBr:
			// cop1 operand convention: A = fs (rd field), B = ft (rt
			// field), C = fd (sh field) — matching the oracle's cop1()
			// parameter mapping.
			in.A, in.B, in.C = rd, rt, sh
			if r.Layout == layFBr {
				in.SetTarget(base, n, branchTarget(w, pc))
			}
		}
	}
	return &exec.Body{Base: base, Code: code}
}

// RunBody executes predecoded instructions starting at body index idx
// until allow instructions have retired, control leaves the body, or an
// instruction faults; it returns the number retired.  Preconditions
// (enforced by core.Machine): allow > 0, no pending delay slot.  On
// return the architectural state — including pc and any delay-slot
// state handed back via inDelay/delayTarget — is exactly what the
// fetch/switch loop would have produced.
func (c *CPU) RunBody(b *exec.Body, idx int, allow uint64) (uint64, error) {
	code := b.Code
	// Retired instructions and base cycles accumulate in locals (n, plus
	// stall for load-use bubbles) and flush into c.insns/c.baseCycles at
	// every exit: two read-modify-writes per instruction are a measurable
	// fraction of threaded dispatch cost.  Handlers that charge extra
	// cycles still add to c.baseCycles directly — addition commutes, so
	// the totals stay oracle-exact.  The sampler branch flushes through
	// the current instruction first (flushed tracks how much of n is
	// already applied) so probes observe the counters the fetch/switch
	// loop would show.
	var n, stall, flushed uint64
	ll := c.lastLoad
	sampling := c.sampleEvery != 0
	for n < allow {
		in := &code[idx]
		// One combined predicate guards both rare per-instruction
		// concerns (PC sampling, a pending load-use interlock), so the
		// common ALU-stream iteration pays a single not-taken branch.
		if sampling || ll > 0 {
			if sampling {
				if c.sampleLeft--; c.sampleLeft == 0 {
					c.sampleLeft = c.sampleEvery
					c.insns += n + 1 - flushed
					c.baseCycles += n + 1 - flushed + stall
					flushed, stall = n+1, 0
					c.sampleFn(in.PC)
				}
			}
			if ll > 0 {
				if in.SrcA == uint8(ll) || in.SrcB == uint8(ll) {
					stall++
				}
			}
		}
		br, err := mipsHandlers[in.Op&opMask](c, b, in)
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

		// Taken transfer: the next word is the delay slot and the
		// transfer lands after it.
		var pendAddr uint64
		if br == exec.External {
			pendAddr = c.extPC
		} else {
			pendAddr = b.Base + 4*uint64(br)
		}
		dIdx := idx + 1
		if dIdx == len(code) || n >= allow {
			// Delay slot beyond this body or beyond budget: hand the
			// pending transfer back in architectural form so the
			// generic engine (or the next RunBody) resumes correctly.
			c.pc = in.PC + 4
			c.inDelay = true
			c.delayTarget = pendAddr
			c.flushBody(n-flushed, stall, ll)
			return n, nil
		}
		din := &code[dIdx]
		if sampling || ll > 0 {
			if sampling {
				if c.sampleLeft--; c.sampleLeft == 0 {
					c.sampleLeft = c.sampleEvery
					c.insns += n + 1 - flushed
					c.baseCycles += n + 1 - flushed + stall
					flushed, stall = n+1, 0
					c.sampleFn(din.PC)
				}
			}
			if ll > 0 {
				if din.SrcA == uint8(ll) || din.SrcB == uint8(ll) {
					stall++
				}
			}
		}
		dbr, derr := mipsHandlers[din.Op&opMask](c, b, din)
		n++
		if derr != nil {
			c.pc = din.PC
			c.inDelay = true
			c.delayTarget = pendAddr
			c.flushBody(n-flushed, stall, ll)
			return n, derr
		}
		ll = int(int8(din.LoadReg))
		if dbr != exec.NoBranch {
			// Branch in a delay slot: the oracle resolves the pending
			// transfer first, then reports the bug at the landing pc.
			c.pc = pendAddr
			c.flushBody(n-flushed, stall, ll)
			return n, fmt.Errorf("mips: branch in delay slot at %#x", c.pc)
		}
		if br == exec.External {
			c.pc = pendAddr
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
	h := mipsHandlers[:]
	nb := exec.NoBranch

	h[mSll] = func(c *CPU, _ *exec.Body, in *exec.Instr) (int32, error) {
		c.twr(in.C, c.tru(in.B)<<uint32(in.Imm))
		return nb, nil
	}
	h[mSrl] = func(c *CPU, _ *exec.Body, in *exec.Instr) (int32, error) {
		c.twr(in.C, c.tru(in.B)>>uint32(in.Imm))
		return nb, nil
	}
	h[mSra] = func(c *CPU, _ *exec.Body, in *exec.Instr) (int32, error) {
		c.twr(in.C, uint32(c.trs(in.B)>>uint32(in.Imm)))
		return nb, nil
	}
	h[mSllv] = func(c *CPU, _ *exec.Body, in *exec.Instr) (int32, error) {
		c.twr(in.C, c.tru(in.B)<<(c.tru(in.A)&31))
		return nb, nil
	}
	h[mSrlv] = func(c *CPU, _ *exec.Body, in *exec.Instr) (int32, error) {
		c.twr(in.C, c.tru(in.B)>>(c.tru(in.A)&31))
		return nb, nil
	}
	h[mSrav] = func(c *CPU, _ *exec.Body, in *exec.Instr) (int32, error) {
		c.twr(in.C, uint32(c.trs(in.B)>>(c.tru(in.A)&31)))
		return nb, nil
	}
	h[mJr] = func(c *CPU, b *exec.Body, in *exec.Instr) (int32, error) {
		return c.mindirect(b, uint64(c.tru(in.A))), nil
	}
	h[mJalr] = func(c *CPU, b *exec.Body, in *exec.Instr) (int32, error) {
		// Link before reading rs, as the oracle does (rd == rs uses the
		// freshly written link value).
		c.twr(in.C, uint32(in.PC+8))
		return c.mindirect(b, uint64(c.tru(in.A))), nil
	}
	h[mMfhi] = func(c *CPU, _ *exec.Body, in *exec.Instr) (int32, error) {
		c.twr(in.C, c.hi)
		return nb, nil
	}
	h[mMflo] = func(c *CPU, _ *exec.Body, in *exec.Instr) (int32, error) {
		c.twr(in.C, c.lo)
		return nb, nil
	}
	h[mMult] = func(c *CPU, _ *exec.Body, in *exec.Instr) (int32, error) {
		p := int64(c.trs(in.A)) * int64(c.trs(in.B))
		c.lo, c.hi = uint32(p), uint32(p>>32)
		c.baseCycles += 11
		return nb, nil
	}
	h[mMultu] = func(c *CPU, _ *exec.Body, in *exec.Instr) (int32, error) {
		p := uint64(c.tru(in.A)) * uint64(c.tru(in.B))
		c.lo, c.hi = uint32(p), uint32(p>>32)
		c.baseCycles += 11
		return nb, nil
	}
	h[mDiv] = func(c *CPU, _ *exec.Body, in *exec.Instr) (int32, error) {
		d := c.trs(in.B)
		if d == 0 {
			c.lo, c.hi = 0, 0
		} else if c.trs(in.A) == math.MinInt32 && d == -1 {
			c.lo, c.hi = 0x80000000, 0
		} else {
			c.lo, c.hi = uint32(c.trs(in.A)/d), uint32(c.trs(in.A)%d)
		}
		c.baseCycles += 34
		return nb, nil
	}
	h[mDivu] = func(c *CPU, _ *exec.Body, in *exec.Instr) (int32, error) {
		d := c.tru(in.B)
		if d == 0 {
			c.lo, c.hi = 0, 0
		} else {
			c.lo, c.hi = c.tru(in.A)/d, c.tru(in.A)%d
		}
		c.baseCycles += 34
		return nb, nil
	}
	h[mAddu] = func(c *CPU, _ *exec.Body, in *exec.Instr) (int32, error) {
		c.twr(in.C, c.tru(in.A)+c.tru(in.B))
		return nb, nil
	}
	h[mSubu] = func(c *CPU, _ *exec.Body, in *exec.Instr) (int32, error) {
		c.twr(in.C, c.tru(in.A)-c.tru(in.B))
		return nb, nil
	}
	h[mAnd] = func(c *CPU, _ *exec.Body, in *exec.Instr) (int32, error) {
		c.twr(in.C, c.tru(in.A)&c.tru(in.B))
		return nb, nil
	}
	h[mOr] = func(c *CPU, _ *exec.Body, in *exec.Instr) (int32, error) {
		c.twr(in.C, c.tru(in.A)|c.tru(in.B))
		return nb, nil
	}
	h[mXor] = func(c *CPU, _ *exec.Body, in *exec.Instr) (int32, error) {
		c.twr(in.C, c.tru(in.A)^c.tru(in.B))
		return nb, nil
	}
	h[mNor] = func(c *CPU, _ *exec.Body, in *exec.Instr) (int32, error) {
		c.twr(in.C, ^(c.tru(in.A) | c.tru(in.B)))
		return nb, nil
	}
	h[mSlt] = func(c *CPU, _ *exec.Body, in *exec.Instr) (int32, error) {
		c.twr(in.C, b2u(c.trs(in.A) < c.trs(in.B)))
		return nb, nil
	}
	h[mSltu] = func(c *CPU, _ *exec.Body, in *exec.Instr) (int32, error) {
		c.twr(in.C, b2u(c.tru(in.A) < c.tru(in.B)))
		return nb, nil
	}
	h[mBadSpecial] = func(_ *CPU, _ *exec.Body, in *exec.Instr) (int32, error) {
		return 0, fmt.Errorf("mips: unknown SPECIAL funct %#x at %#x", uint32(in.Imm)&63, in.PC)
	}
	h[mBltz] = func(c *CPU, _ *exec.Body, in *exec.Instr) (int32, error) {
		return c.mbr(in, c.trs(in.A) < 0), nil
	}
	h[mBgez] = func(c *CPU, _ *exec.Body, in *exec.Instr) (int32, error) {
		return c.mbr(in, c.trs(in.A) >= 0), nil
	}
	h[mBal] = func(c *CPU, _ *exec.Body, in *exec.Instr) (int32, error) {
		// The oracle writes the link register before evaluating the
		// condition, taken or not.
		c.twr(rRA, uint32(in.PC+8))
		return c.mbr(in, c.trs(in.A) >= 0), nil
	}
	h[mBadRegimm] = func(_ *CPU, _ *exec.Body, in *exec.Instr) (int32, error) {
		return 0, fmt.Errorf("mips: unknown REGIMM rt %#x at %#x", uint32(in.Imm)>>16&31, in.PC)
	}
	h[mJ] = func(c *CPU, _ *exec.Body, in *exec.Instr) (int32, error) {
		return c.mjump(in), nil
	}
	h[mJal] = func(c *CPU, _ *exec.Body, in *exec.Instr) (int32, error) {
		c.twr(rRA, uint32(in.PC+8))
		return c.mjump(in), nil
	}
	h[mBeq] = func(c *CPU, _ *exec.Body, in *exec.Instr) (int32, error) {
		return c.mbr(in, c.tru(in.A) == c.tru(in.B)), nil
	}
	h[mBne] = func(c *CPU, _ *exec.Body, in *exec.Instr) (int32, error) {
		return c.mbr(in, c.tru(in.A) != c.tru(in.B)), nil
	}
	h[mBlez] = func(c *CPU, _ *exec.Body, in *exec.Instr) (int32, error) {
		return c.mbr(in, c.trs(in.A) <= 0), nil
	}
	h[mBgtz] = func(c *CPU, _ *exec.Body, in *exec.Instr) (int32, error) {
		return c.mbr(in, c.trs(in.A) > 0), nil
	}
	h[mAddiu] = func(c *CPU, _ *exec.Body, in *exec.Instr) (int32, error) {
		c.twr(in.B, c.tru(in.A)+uint32(int32(in.Imm)))
		return nb, nil
	}
	h[mSlti] = func(c *CPU, _ *exec.Body, in *exec.Instr) (int32, error) {
		c.twr(in.B, b2u(c.trs(in.A) < int32(in.Imm)))
		return nb, nil
	}
	h[mSltiu] = func(c *CPU, _ *exec.Body, in *exec.Instr) (int32, error) {
		c.twr(in.B, b2u(c.tru(in.A) < uint32(int32(in.Imm))))
		return nb, nil
	}
	h[mAndi] = func(c *CPU, _ *exec.Body, in *exec.Instr) (int32, error) {
		c.twr(in.B, c.tru(in.A)&uint32(in.Imm))
		return nb, nil
	}
	h[mOri] = func(c *CPU, _ *exec.Body, in *exec.Instr) (int32, error) {
		c.twr(in.B, c.tru(in.A)|uint32(in.Imm))
		return nb, nil
	}
	h[mXori] = func(c *CPU, _ *exec.Body, in *exec.Instr) (int32, error) {
		c.twr(in.B, c.tru(in.A)^uint32(in.Imm))
		return nb, nil
	}
	h[mLui] = func(c *CPU, _ *exec.Body, in *exec.Instr) (int32, error) {
		c.twr(in.B, uint32(in.Imm)<<16)
		return nb, nil
	}
	h[mLb] = mipsLoad(1, func(c *CPU, in *exec.Instr, v uint64) { c.twr(in.B, uint32(int32(int8(v)))) })
	h[mLbu] = mipsLoad(1, func(c *CPU, in *exec.Instr, v uint64) { c.twr(in.B, uint32(uint8(v))) })
	h[mLh] = mipsLoad(2, func(c *CPU, in *exec.Instr, v uint64) { c.twr(in.B, uint32(int32(int16(v)))) })
	h[mLhu] = mipsLoad(2, func(c *CPU, in *exec.Instr, v uint64) { c.twr(in.B, uint32(uint16(v))) })
	h[mLw] = mipsLoad(4, func(c *CPU, in *exec.Instr, v uint64) { c.twr(in.B, uint32(v)) })
	h[mLwc1] = mipsLoad(4, func(c *CPU, in *exec.Instr, v uint64) { c.f[in.B] = uint64(uint32(v)) })
	h[mLdc1] = mipsLoad(8, func(c *CPU, in *exec.Instr, v uint64) { c.f[in.B] = v })
	h[mSb] = mipsStore(1, func(c *CPU, in *exec.Instr) uint64 { return uint64(uint8(c.tru(in.B))) })
	h[mSh] = mipsStore(2, func(c *CPU, in *exec.Instr) uint64 { return uint64(uint16(c.tru(in.B))) })
	h[mSw] = mipsStore(4, func(c *CPU, in *exec.Instr) uint64 { return uint64(c.tru(in.B)) })
	h[mSwc1] = mipsStore(4, func(c *CPU, in *exec.Instr) uint64 { return uint64(uint32(c.f[in.B])) })
	h[mSdc1] = mipsStore(8, func(c *CPU, in *exec.Instr) uint64 { return c.f[in.B] })
	h[mMfc1] = func(c *CPU, _ *exec.Body, in *exec.Instr) (int32, error) {
		c.twr(in.B, uint32(c.f[in.A]))
		return nb, nil
	}
	h[mMtc1] = func(c *CPU, _ *exec.Body, in *exec.Instr) (int32, error) {
		c.f[in.A] = uint64(c.tru(in.B))
		return nb, nil
	}
	h[mBc1] = func(c *CPU, _ *exec.Body, in *exec.Instr) (int32, error) {
		return c.mbr(in, (in.B&1 == 1) == c.cc), nil
	}
	h[mFAddS] = fpS(1, func(a, b float32) float32 { return a + b })
	h[mFSubS] = fpS(1, func(a, b float32) float32 { return a - b })
	h[mFMulS] = fpS(3, func(a, b float32) float32 { return a * b })
	h[mFDivS] = fpS(11, func(a, b float32) float32 { return a / b })
	h[mFSqrtS] = fpS(29, func(a, _ float32) float32 { return float32(math.Sqrt(float64(a))) })
	h[mFAbsS] = fpS(0, func(a, _ float32) float32 { return float32(math.Abs(float64(a))) })
	h[mFMovS] = func(c *CPU, _ *exec.Body, in *exec.Instr) (int32, error) {
		c.f[in.C] = c.f[in.A] & 0xffffffff
		return nb, nil
	}
	h[mFNegS] = fpS(0, func(a, _ float32) float32 { return -a })
	h[mFCvtDS] = func(c *CPU, _ *exec.Body, in *exec.Instr) (int32, error) {
		c.wfd(uint32(in.C), float64(c.fs(uint32(in.A))))
		return nb, nil
	}
	h[mFCvtWS] = func(c *CPU, _ *exec.Body, in *exec.Instr) (int32, error) {
		c.f[in.C] = uint64(uint32(truncToI32(float64(c.fs(uint32(in.A))))))
		return nb, nil
	}
	h[mFCEqS] = fcmpS(func(a, b float32) bool { return a == b })
	h[mFCLtS] = fcmpS(func(a, b float32) bool { return a < b })
	h[mFCLeS] = fcmpS(func(a, b float32) bool { return a <= b })
	h[mBadFS] = func(_ *CPU, _ *exec.Body, in *exec.Instr) (int32, error) {
		return 0, fmt.Errorf("mips: unknown fp.s funct %#x at %#x", uint32(in.Imm)&63, in.PC)
	}
	h[mFAddD] = fpD(1, func(a, b float64) float64 { return a + b })
	h[mFSubD] = fpD(1, func(a, b float64) float64 { return a - b })
	h[mFMulD] = fpD(4, func(a, b float64) float64 { return a * b })
	h[mFDivD] = fpD(18, func(a, b float64) float64 { return a / b })
	h[mFSqrtD] = fpD(29, func(a, _ float64) float64 { return math.Sqrt(a) })
	h[mFAbsD] = fpD(0, func(a, _ float64) float64 { return math.Abs(a) })
	h[mFMovD] = func(c *CPU, _ *exec.Body, in *exec.Instr) (int32, error) {
		c.f[in.C] = c.f[in.A]
		return nb, nil
	}
	h[mFNegD] = fpD(0, func(a, _ float64) float64 { return -a })
	h[mFCvtSD] = func(c *CPU, _ *exec.Body, in *exec.Instr) (int32, error) {
		c.wfs(uint32(in.C), float32(c.fd(uint32(in.A))))
		return nb, nil
	}
	h[mFCvtWD] = func(c *CPU, _ *exec.Body, in *exec.Instr) (int32, error) {
		c.f[in.C] = uint64(uint32(truncToI32(c.fd(uint32(in.A)))))
		return nb, nil
	}
	h[mFCEqD] = fcmpD(func(a, b float64) bool { return a == b })
	h[mFCLtD] = fcmpD(func(a, b float64) bool { return a < b })
	h[mFCLeD] = fcmpD(func(a, b float64) bool { return a <= b })
	h[mBadFD] = func(_ *CPU, _ *exec.Body, in *exec.Instr) (int32, error) {
		return 0, fmt.Errorf("mips: unknown fp.d funct %#x at %#x", uint32(in.Imm)&63, in.PC)
	}
	h[mFCvtSW] = func(c *CPU, _ *exec.Body, in *exec.Instr) (int32, error) {
		c.wfs(uint32(in.C), float32(int32(uint32(c.f[in.A]))))
		return nb, nil
	}
	h[mFCvtDW] = func(c *CPU, _ *exec.Body, in *exec.Instr) (int32, error) {
		c.wfd(uint32(in.C), float64(int32(uint32(c.f[in.A]))))
		return nb, nil
	}
	h[mBadFW] = func(_ *CPU, _ *exec.Body, in *exec.Instr) (int32, error) {
		return 0, fmt.Errorf("mips: unknown fp.w funct %#x at %#x", uint32(in.Imm)&63, in.PC)
	}
	h[mBadCop1] = func(_ *CPU, _ *exec.Body, in *exec.Instr) (int32, error) {
		return 0, fmt.Errorf("mips: unknown COP1 fmt %#x (word %#08x) at %#x", uint32(in.Imm)>>21&31, uint32(in.Imm), in.PC)
	}
	h[mBadOp] = func(_ *CPU, _ *exec.Body, in *exec.Instr) (int32, error) {
		return 0, fmt.Errorf("mips: unknown opcode %#x (word %#08x) at %#x", uint32(in.Imm)>>26, uint32(in.Imm), in.PC)
	}
}

func mipsLoad(size int, sink func(c *CPU, in *exec.Instr, v uint64)) thandler {
	return func(c *CPU, _ *exec.Body, in *exec.Instr) (int32, error) {
		v, err := c.m.Load(uint64(c.tru(in.A)+uint32(int32(in.Imm))), size)
		if err != nil {
			return 0, fmt.Errorf("mips: load at pc %#x: %w", in.PC, err)
		}
		sink(c, in, v)
		return exec.NoBranch, nil
	}
}

func mipsStore(size int, src func(c *CPU, in *exec.Instr) uint64) thandler {
	return func(c *CPU, _ *exec.Body, in *exec.Instr) (int32, error) {
		addr := uint64(c.tru(in.A) + uint32(int32(in.Imm)))
		if err := c.m.Store(addr, size, src(c, in)); err != nil {
			return 0, fmt.Errorf("mips: store at pc %#x: %w", in.PC, err)
		}
		return exec.NoBranch, nil
	}
}

func fpS(cycles uint64, f func(a, b float32) float32) thandler {
	return func(c *CPU, _ *exec.Body, in *exec.Instr) (int32, error) {
		c.wfs(uint32(in.C), f(c.fs(uint32(in.A)), c.fs(uint32(in.B))))
		c.baseCycles += cycles
		return exec.NoBranch, nil
	}
}

func fpD(cycles uint64, f func(a, b float64) float64) thandler {
	return func(c *CPU, _ *exec.Body, in *exec.Instr) (int32, error) {
		c.wfd(uint32(in.C), f(c.fd(uint32(in.A)), c.fd(uint32(in.B))))
		c.baseCycles += cycles
		return exec.NoBranch, nil
	}
}

func fcmpS(f func(a, b float32) bool) thandler {
	return func(c *CPU, _ *exec.Body, in *exec.Instr) (int32, error) {
		c.cc = f(c.fs(uint32(in.A)), c.fs(uint32(in.B)))
		return exec.NoBranch, nil
	}
}

func fcmpD(f func(a, b float64) bool) thandler {
	return func(c *CPU, _ *exec.Body, in *exec.Instr) (int32, error) {
		c.cc = f(c.fd(uint32(in.A)), c.fd(uint32(in.B)))
		return exec.NoBranch, nil
	}
}
