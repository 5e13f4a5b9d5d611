package mips

import (
	"fmt"
	"math"

	"repro/internal/exec"
)

// This file is the MIPS port of the predecoded direct-threaded execution
// engine (internal/exec).  Predecode unpacks every word of an installed
// function once — operands extracted, static branch targets resolved to
// body indices, load-use interlock metadata precomputed, straight-line
// runs measured — and RunBody executes the resulting contiguous
// []exec.Instr: a run of plain instructions in one switch loop (plain), a
// transfer through a small function-pointer table.  Semantics must stay
// bit-identical to the fetch/switch oracle in cpu.go: same registers,
// memory, cycle charges, interlock stalls, sampling/edge probes,
// delay-slot behaviour, and error strings.  internal/exec/diff enforces
// that differentially.

// Dense opcodes.  Each is described exactly once: a transfer or an
// undecodable word by the entry of mipsHandlers its number indexes, a
// plain instruction (a row of kind verify.KindOther) by a case of plain.
const (
	mJr uint16 = iota
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
	mBc1
	mBad // a word with no row
	mNumHandlers
)

const (
	mSll = mNumHandlers + iota
	mSrl
	mSra
	mSllv
	mSrlv
	mSrav
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
)

// Register helpers over the narrow predecoded operand fields.  Predecode
// only stores numbers below 32 in them; the mask tells the compiler, which
// would otherwise check every index (5% of loop_long).
func (c *CPU) tru(n uint8) uint32 { return uint32(c.r[n&31]) }
func (c *CPU) trs(n uint8) int32  { return int32(c.r[n&31]) }
func (c *CPU) twr(n uint8, v uint32) {
	if n != 0 {
		c.r[n&31] = uint64(v)
	}
}

// taddr is the effective address of a load or store.
func (c *CPU) taddr(in *exec.Instr) uint64 { return uint64(c.tru(in.A) + uint32(int32(in.Imm))) }

// mbr resolves a conditional relative branch: edge probe fires on every
// resolution (taken or not), exactly like the oracle's branchRel.
func (c *CPU) mbr(in *exec.Instr, taken bool) int32 {
	c.edge(in.PC, taken)
	if !taken {
		return exec.NoBranch
	}
	return in.Jump(&c.extPC)
}

// PendingDelay reports whether a taken branch is waiting on its delay
// slot; the generic fetch/switch engine must run the next instruction.
func (c *CPU) PendingDelay() bool { return c.inDelay }

// Predecode unpacks words (the installed image of one function, starting
// at base) into a threaded body: each word's row in the instruction
// table (isa.go) names its opcode, whether it is plain, and which
// operands to unpack.  It is a pure function of its arguments — no CPU
// state is read or written.  Malformed words never fail predecode: a word
// with no row becomes mBad, whose handler reproduces the oracle's exact
// error text, so unreachable garbage (alignment pads, literal pools) still
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
			in.Op, in.Imm = mBad, int64(w)
			if w>>26 == opSpecial {
				in.SrcB = rt
			}
			continue
		}
		in.Op, in.A, in.B, in.Run = r.Op, rs, rt, r.Run()
		if w == encNop {
			in.Flags |= exec.FNop
		}
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
	exec.MarkRuns(code, 0)
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
	// fraction of threaded dispatch cost.  Instructions that charge extra
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
		if run := uint64(in.Run); run > 1 && run <= allow-n && !sampling {
			// A straight-line run that fits the budget, nobody sampling:
			// plain executes all of it.  (One instruction alone costs
			// less on the path below, which need not ask how far plain
			// got.)  Its first instruction may have been reached by a
			// branch, so ll decides its bubble; each of the others
			// follows its array predecessor and carries its bubble as a
			// bit, which plain sums (the first one's bit comes off
			// again).
			if ll > 0 && (in.SrcA == uint8(ll) || in.SrcB == uint8(ll)) {
				stall++
			}
			done, bubbles, err := c.plain(code[idx : idx+int(run)])
			stall += bubbles - uint64(in.Stall)
			if done > 0 {
				ll = int(int8(code[idx+done-1].LoadReg))
			}
			idx += done
			n += uint64(done)
			if err != nil {
				// code[idx] faulted: it retires and has paid its bubble,
				// but does not become the interlock producer.
				n++
				c.flushBody(code[idx].PC, n-flushed, stall, ll)
				return n, err
			}
			if idx == len(code) {
				c.flushBody(b.End(), n-flushed, stall, ll)
				return n, nil
			}
			continue
		}
		// One combined predicate guards both rare per-instruction
		// concerns (PC sampling, a pending load-use interlock), so the
		// common iteration pays a single not-taken branch.
		if sampling || ll > 0 {
			if sampling {
				if c.sampleLeft--; c.sampleLeft == 0 {
					c.sampleLeft = c.sampleEvery
					c.flushBody(in.PC, n+1-flushed, stall, ll)
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
		br, err := exec.NoBranch, error(nil)
		if in.Run != 0 {
			_, _, err = c.plain(code[idx : idx+1])
		} else {
			br, err = mipsHandlers[in.Op](c, b, in)
		}
		n++
		if err != nil {
			c.flushBody(in.PC, n-flushed, stall, ll)
			return n, err
		}
		ll = int(int8(in.LoadReg))
		if br == exec.NoBranch {
			idx++
			if idx == len(code) {
				c.flushBody(in.PC+4, n-flushed, stall, ll)
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
			c.inDelay = true
			c.delayTarget = pendAddr
			c.flushBody(in.PC+4, n-flushed, stall, ll)
			return n, nil
		}
		din := &code[dIdx]
		if sampling || ll > 0 {
			if sampling {
				if c.sampleLeft--; c.sampleLeft == 0 {
					c.sampleLeft = c.sampleEvery
					c.flushBody(din.PC, n+1-flushed, stall, ll)
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
		dbr, derr := exec.NoBranch, error(nil)
		switch {
		case din.Flags&exec.FNop != 0:
			// What most slots hold: it retires, and that is all it does.
		case din.Run != 0:
			_, _, derr = c.plain(code[dIdx : dIdx+1])
		default:
			dbr, derr = mipsHandlers[din.Op](c, b, din)
		}
		n++
		if derr != nil {
			c.inDelay = true
			c.delayTarget = pendAddr
			c.flushBody(din.PC, n-flushed, stall, ll)
			return n, derr
		}
		ll = int(int8(din.LoadReg))
		if dbr != exec.NoBranch {
			// Branch in a delay slot: the oracle resolves the pending
			// transfer first, then reports the bug at the landing pc.
			c.flushBody(pendAddr, n-flushed, stall, ll)
			return n, fmt.Errorf("mips: branch in delay slot at %#x", c.pc)
		}
		if br == exec.External {
			c.flushBody(pendAddr, n-flushed, stall, ll)
			return n, nil
		}
		idx = int(br)
	}
	c.flushBody(code[idx].PC, n-flushed, stall, ll)
	return n, nil
}

// flushBody brings the simulator's own state up to date at pc, where the
// dispatch loop is leaving or a probe is about to look: pend retired
// instructions not yet counted, their base cycles plus stall interlock
// bubbles, and the interlock producer register.
func (c *CPU) flushBody(pc, pend, stall uint64, ll int) {
	c.pc = pc
	c.insns += pend
	c.baseCycles += pend + stall
	c.lastLoad = ll
}

// thandler executes one transfer (or refuses one undecodable word).  It
// returns NoBranch for fall-through, an in-body index for a resolved
// taken transfer, or External after depositing the destination in
// c.extPC.
type thandler func(c *CPU, b *exec.Body, in *exec.Instr) (int32, error)

var mipsHandlers = [mNumHandlers]thandler{
	mJr: func(c *CPU, b *exec.Body, in *exec.Instr) (int32, error) {
		return b.Indirect(uint64(c.tru(in.A)), &c.extPC), nil
	},
	mJalr: func(c *CPU, b *exec.Body, in *exec.Instr) (int32, error) {
		// Link before reading rs, as the oracle does (rd == rs uses the
		// freshly written link value).
		c.twr(in.C, uint32(in.PC+8))
		return b.Indirect(uint64(c.tru(in.A)), &c.extPC), nil
	},
	mBltz: func(c *CPU, _ *exec.Body, in *exec.Instr) (int32, error) {
		return c.mbr(in, c.trs(in.A) < 0), nil
	},
	mBgez: func(c *CPU, _ *exec.Body, in *exec.Instr) (int32, error) {
		return c.mbr(in, c.trs(in.A) >= 0), nil
	},
	mBal: func(c *CPU, _ *exec.Body, in *exec.Instr) (int32, error) {
		// The oracle writes the link register before evaluating the
		// condition, taken or not.
		c.twr(rRA, uint32(in.PC+8))
		return c.mbr(in, c.trs(in.A) >= 0), nil
	},
	mJ: func(c *CPU, _ *exec.Body, in *exec.Instr) (int32, error) {
		return in.Jump(&c.extPC), nil
	},
	mJal: func(c *CPU, _ *exec.Body, in *exec.Instr) (int32, error) {
		c.twr(rRA, uint32(in.PC+8))
		return in.Jump(&c.extPC), nil
	},
	mBeq: func(c *CPU, _ *exec.Body, in *exec.Instr) (int32, error) {
		return c.mbr(in, c.tru(in.A) == c.tru(in.B)), nil
	},
	mBne: func(c *CPU, _ *exec.Body, in *exec.Instr) (int32, error) {
		return c.mbr(in, c.tru(in.A) != c.tru(in.B)), nil
	},
	mBlez: func(c *CPU, _ *exec.Body, in *exec.Instr) (int32, error) {
		return c.mbr(in, c.trs(in.A) <= 0), nil
	},
	mBgtz: func(c *CPU, _ *exec.Body, in *exec.Instr) (int32, error) {
		return c.mbr(in, c.trs(in.A) > 0), nil
	},
	mBc1: func(c *CPU, _ *exec.Body, in *exec.Instr) (int32, error) {
		return c.mbr(in, (in.B&1 == 1) == c.cc), nil
	},
	mBad: func(_ *CPU, _ *exec.Body, in *exec.Instr) (int32, error) {
		return 0, badWord(uint32(in.Imm), in.PC)
	},
}

// badWord is what the oracle says of a word with no row, decode group by
// decode group.
func badWord(w uint32, pc uint64) error {
	switch w >> 26 {
	case opSpecial:
		return fmt.Errorf("mips: unknown SPECIAL funct %#x at %#x", w&63, pc)
	case opRegimm:
		return fmt.Errorf("mips: unknown REGIMM rt %#x at %#x", w>>16&31, pc)
	case opCop1:
		switch w >> 21 & 31 {
		case fmtS:
			return fmt.Errorf("mips: unknown fp.s funct %#x at %#x", w&63, pc)
		case fmtD:
			return fmt.Errorf("mips: unknown fp.d funct %#x at %#x", w&63, pc)
		case fmtW:
			return fmt.Errorf("mips: unknown fp.w funct %#x at %#x", w&63, pc)
		}
		return fmt.Errorf("mips: unknown COP1 fmt %#x (word %#08x) at %#x", w>>21&31, w, pc)
	}
	return fmt.Errorf("mips: unknown opcode %#x (word %#08x) at %#x", w>>26, w, pc)
}

// plain executes code, which holds only plain instructions, in order.  It
// returns how many completed, the sum of the Stall bits of those it
// started, and the fault of the one that did not complete, if any.
func (c *CPU) plain(code []exec.Instr) (done int, bubbles uint64, err error) {
	for i := range code {
		in := &code[i]
		bubbles += uint64(in.Stall)
		switch in.Op {
		case mSll:
			c.twr(in.C, c.tru(in.B)<<uint32(in.Imm))
		case mSrl:
			c.twr(in.C, c.tru(in.B)>>uint32(in.Imm))
		case mSra:
			c.twr(in.C, uint32(c.trs(in.B)>>uint32(in.Imm)))
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
			c.baseCycles += 11
		case mMultu:
			p := uint64(c.tru(in.A)) * uint64(c.tru(in.B))
			c.lo, c.hi = uint32(p), uint32(p>>32)
			c.baseCycles += 11
		case mDiv:
			d := c.trs(in.B)
			if d == 0 {
				c.lo, c.hi = 0, 0
			} else if c.trs(in.A) == math.MinInt32 && d == -1 {
				c.lo, c.hi = 0x80000000, 0
			} else {
				c.lo, c.hi = uint32(c.trs(in.A)/d), uint32(c.trs(in.A)%d)
			}
			c.baseCycles += 34
		case mDivu:
			d := c.tru(in.B)
			if d == 0 {
				c.lo, c.hi = 0, 0
			} else {
				c.lo, c.hi = c.tru(in.A)/d, c.tru(in.A)%d
			}
			c.baseCycles += 34
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
		case mLb:
			v, err := c.m.Load(c.taddr(in), 1)
			if err != nil {
				return i, bubbles, memErr("load", in, err)
			}
			c.twr(in.B, uint32(int32(int8(v))))
		case mLbu:
			v, err := c.m.Load(c.taddr(in), 1)
			if err != nil {
				return i, bubbles, memErr("load", in, err)
			}
			c.twr(in.B, uint32(uint8(v)))
		case mLh:
			v, err := c.m.Load(c.taddr(in), 2)
			if err != nil {
				return i, bubbles, memErr("load", in, err)
			}
			c.twr(in.B, uint32(int32(int16(v))))
		case mLhu:
			v, err := c.m.Load(c.taddr(in), 2)
			if err != nil {
				return i, bubbles, memErr("load", in, err)
			}
			c.twr(in.B, uint32(uint16(v)))
		case mLw:
			v, err := c.m.Load(c.taddr(in), 4)
			if err != nil {
				return i, bubbles, memErr("load", in, err)
			}
			c.twr(in.B, uint32(v))
		case mLwc1:
			v, err := c.m.Load(c.taddr(in), 4)
			if err != nil {
				return i, bubbles, memErr("load", in, err)
			}
			c.f[in.B] = uint64(uint32(v))
		case mLdc1:
			v, err := c.m.Load(c.taddr(in), 8)
			if err != nil {
				return i, bubbles, memErr("load", in, err)
			}
			c.f[in.B] = v
		case mSb:
			if err := c.m.Store(c.taddr(in), 1, uint64(uint8(c.tru(in.B)))); err != nil {
				return i, bubbles, memErr("store", in, err)
			}
		case mSh:
			if err := c.m.Store(c.taddr(in), 2, uint64(uint16(c.tru(in.B)))); err != nil {
				return i, bubbles, memErr("store", in, err)
			}
		case mSw:
			if err := c.m.Store(c.taddr(in), 4, uint64(c.tru(in.B))); err != nil {
				return i, bubbles, memErr("store", in, err)
			}
		case mSwc1:
			if err := c.m.Store(c.taddr(in), 4, uint64(uint32(c.f[in.B]))); err != nil {
				return i, bubbles, memErr("store", in, err)
			}
		case mSdc1:
			if err := c.m.Store(c.taddr(in), 8, c.f[in.B]); err != nil {
				return i, bubbles, memErr("store", in, err)
			}
		case mMfc1:
			c.twr(in.B, uint32(c.f[in.A]))
		case mMtc1:
			c.f[in.A] = uint64(c.tru(in.B))
		case mFAddS:
			c.wfs(uint32(in.C), c.fs(uint32(in.A))+c.fs(uint32(in.B)))
			c.baseCycles++
		case mFSubS:
			c.wfs(uint32(in.C), c.fs(uint32(in.A))-c.fs(uint32(in.B)))
			c.baseCycles++
		case mFMulS:
			c.wfs(uint32(in.C), c.fs(uint32(in.A))*c.fs(uint32(in.B)))
			c.baseCycles += 3
		case mFDivS:
			c.wfs(uint32(in.C), c.fs(uint32(in.A))/c.fs(uint32(in.B)))
			c.baseCycles += 11
		case mFSqrtS:
			c.wfs(uint32(in.C), float32(math.Sqrt(float64(c.fs(uint32(in.A))))))
			c.baseCycles += 29
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
			c.baseCycles++
		case mFSubD:
			c.wfd(uint32(in.C), c.fd(uint32(in.A))-c.fd(uint32(in.B)))
			c.baseCycles++
		case mFMulD:
			c.wfd(uint32(in.C), c.fd(uint32(in.A))*c.fd(uint32(in.B)))
			c.baseCycles += 4
		case mFDivD:
			c.wfd(uint32(in.C), c.fd(uint32(in.A))/c.fd(uint32(in.B)))
			c.baseCycles += 18
		case mFSqrtD:
			c.wfd(uint32(in.C), math.Sqrt(c.fd(uint32(in.A))))
			c.baseCycles += 29
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
		default:
			panic(fmt.Sprintf("mips: opcode %d at %#x is marked plain and has no case", in.Op, in.PC))
		}
	}
	return len(code), bubbles, nil
}

func memErr(what string, in *exec.Instr, err error) error {
	return fmt.Errorf("mips: %s at pc %#x: %w", what, in.PC, err)
}
