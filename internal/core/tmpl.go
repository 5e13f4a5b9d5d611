package core

import (
	"math"
	"math/bits"
)

// tmpl is one (op, type) of one port as the generic emitters use it: the
// instruction word with every operand zero, and where each operand goes.
// The paper's emitters are macros whose op and type are compile-time
// constants, so an instruction costs a handful of shifts and a store; here
// they are run-time values, and a table load takes the place of the
// interface call and the `switch op` the port's encoder opens with.
//
// An encoding is templatable when the port's encoder answers with exactly
// one word, each register number sits in a bit field of its own, and the
// immediate (or its negation), masked, sits in one more:
//
//	word | rd<<d | rs1<<s1 | rs2<<s2 | (±imm & mask)<<sh,  lo <= imm <= hi
//
// Anything else — a multi-word expansion, an immediate outside [lo, hi], an
// emulated operation, a branch — has no template and goes through the
// Backend interface.  That path is the reference: a template is read off the
// port's encoder (fit) and held to it word for word
// (TestTemplatesAgreeWithEncoders); no port declares one.
type tmpl struct {
	word, mask    uint32
	d, s1, s2, sh uint8 // field shifts: rd (or the stored register), rs1, rs2, immediate
	neg           uint8 // 1 when the field holds -imm (mips subtracts by addiu)
	ok            bool
	lo, hi        int64
}

// regs is the word for an all-register form.  Register numbers are taken
// modulo the bank (an FPR is fprBase+n); the emitters' bank test has already
// refused anything that is not a register.
func (tp *tmpl) regs(rd, rs1, rs2 Reg) uint32 {
	return tp.word | uint32(rd)&63<<(tp.d&31) | uint32(rs1)&63<<(tp.s1&31) | uint32(rs2)&63<<(tp.s2&31)
}

// imm is the word for a two-register form with an immediate inside
// [lo, hi].  (x^n)-n is x for n = 0 and -x for n = ^0: the two adjacent
// mips forms addiu-by-imm and addiu-by-minus-imm do not become a branch.
func (tp *tmpl) imm(rd, rs Reg, imm int64) uint32 {
	n := -uint32(tp.neg)
	return tp.regs(rd, rs, 0) | ((uint32(imm)^n)-n)&tp.mask<<(tp.sh&31)
}

// holds reports whether there is a template and imm is inside its range.
func (tp *tmpl) holds(imm int64) bool { return tp.ok && tp.lo <= imm && imm <= tp.hi }

// numBinOps bounds the ops of the two-source forms (OpAdd..OpRsh).
const numBinOps = OpRsh + 1

// Templates is one port's single-word encodings, per generic emitter and
// (op, type).  32 bytes a template, 8.25 KB a port; an emitter touches the
// few entries its client's instruction mix names.
type Templates struct {
	alu, alui [numBinOps][numTypes]tmpl
	ld, st    [numTypes]tmpl
}

// TemplatesOf returns b's templates: like EmulatedOpsOf, derived once per
// Backend type from the port's own methods and shared.
func TemplatesOf(b Backend) *Templates { return &portOf(b).tmpl }

// encoder is one Backend method with its op and type bound, as fit calls
// it.  Unused operands are ignored.
type encoder func(b *Buf, r [3]Reg, imm int64) error

// derive fills ts in from bk's ALU, ALUImm, Load and Store, over every (op,
// type) the generic emitters accept.
func (ts *Templates) derive(bk Backend) {
	buf := NewBuf(8)
	for t := TypeV; t < numTypes; t++ {
		bank := [3]bool{t.IsFloat(), t.IsFloat(), t.IsFloat()}
		for op := Op(0); op < numBinOps; op++ {
			if legal.alu[op].has(t) {
				ts.alu[op][t] = fit(buf, bank, false, func(b *Buf, r [3]Reg, _ int64) error {
					return bk.ALU(b, op, t, r[0], r[1], r[2])
				})
			}
			if legal.alui[op].has(t) {
				ts.alui[op][t] = fit(buf, bank, true, func(b *Buf, r [3]Reg, imm int64) error {
					return bk.ALUImm(b, op, t, r[0], r[1], imm)
				})
			}
		}
		if legal.mem.has(t) {
			bank[1] = false // the base is an address whatever is loaded
			ts.ld[t] = fit(buf, bank, true, func(b *Buf, r [3]Reg, off int64) error {
				return bk.Load(b, t, r[0], r[1], off)
			})
			ts.st[t] = fit(buf, bank, true, func(b *Buf, r [3]Reg, off int64) error {
				return bk.Store(b, t, r[0], r[1], off)
			})
		}
	}
}

// fit fits enc — three register operands, or two and an immediate when
// hasImm, in the banks fp names — to the template model by probing it, and
// returns the zero tmpl when it does not fit.  The probes are a sample:
// every register bit alone, some register triples, both ends of the
// immediate range, every power of two inside it and its neighbours; the
// exhaustive check is the test's.
func fit(buf *Buf, fp [3]bool, hasImm bool, enc encoder) tmpl {
	one := func(n [3]int, imm int64) (uint32, bool) {
		var r [3]Reg
		for i := range r {
			if r[i] = GPR(n[i]); fp[i] {
				r[i] = FPR(n[i])
			}
		}
		buf.Reset()
		if enc(buf, r, imm) != nil || buf.Len() != 1 {
			return 0, false
		}
		return buf.At(0), true
	}
	var none [3]int
	base, ok := one(none, 0)
	if !ok {
		return tmpl{}
	}
	tp := tmpl{word: base, ok: true}

	// A register field starts where register 1 shows up, and every bit of
	// the number lands in it.
	fields := []*uint8{&tp.d, &tp.s1, &tp.s2}
	if hasImm {
		fields = fields[:2]
	}
	for i, sh := range fields {
		n := none
		n[i] = 1
		w, ok := one(n, 0)
		if !ok || bits.OnesCount32(w^base) != 1 {
			return tmpl{}
		}
		*sh = uint8(bits.TrailingZeros32(w ^ base))
		for k := 1; k < 6; k++ {
			n[i] = 1 << k
			if w, ok := one(n, 0); !ok || w != tp.at(n, 0) {
				return tmpl{}
			}
		}
	}

	imms := make([]int64, 1, 256) // 0, and what the range below adds
	if hasImm {
		single := func(imm int64) bool { _, ok := one(none, imm); return ok }
		tp.lo, tp.hi = edge(single, math.MinInt64), edge(single, math.MaxInt64)
		for k := 0; k < 63; k++ {
			for _, v := range [...]int64{1<<k - 1, 1 << k, -1 << k, -1<<k - 1} {
				if tp.holds(v) {
					imms = append(imms, v)
				}
			}
		}
		imms = append(imms, tp.lo, tp.hi)
		// The field starts where 1 shows up, or -1 if it holds -imm.
		field := func(imm int64) uint32 {
			if w, ok := one(none, imm); ok && tp.holds(imm) {
				return w ^ base
			}
			return 0
		}
		if f := field(1); bits.OnesCount32(f) == 1 {
			tp.sh = uint8(bits.TrailingZeros32(f))
		} else if f := field(-1); bits.OnesCount32(f) == 1 {
			tp.sh, tp.neg = uint8(bits.TrailingZeros32(f)), 1
		} else {
			return tmpl{}
		}
	}

	// Every immediate once, among registers that vary (sixteen triples at
	// least): the field is as wide as the bits they set between them, and
	// with that the template must give each word back.
	for len(imms) < 16 {
		imms = append(imms, 0)
	}
	regs := func(j int) [3]int {
		n := [3]int{5 * j % 64, (7*j + 1) % 64, (11*j + 3) % 64}
		if hasImm {
			n[2] = 0
		}
		return n
	}
	words := make([]uint32, len(imms))
	for j, v := range imms {
		n := regs(j)
		if words[j], ok = one(n, v); !ok {
			return tmpl{}
		}
		if hasImm {
			tp.mask |= (words[j] ^ tp.at(n, 0)) >> tp.sh
		}
	}
	for j, v := range imms {
		if words[j] != tp.at(regs(j), v) {
			return tmpl{}
		}
	}
	return tp
}

// at is the template's word for register numbers n, of whichever bank.
func (tp *tmpl) at(n [3]int, imm int64) uint32 {
	return tp.imm(Reg(n[0]), Reg(n[1]), imm) | tp.regs(0, 0, Reg(n[2]))
}

// edge returns the last immediate, going from 0 towards lim, of the run for
// which single holds (0 is known to).  An encoder switches to its multi-word
// expansion where the immediate stops fitting a field: double the step until
// it does, then bisect.
func edge(single func(int64) bool, lim int64) int64 {
	if single(lim) {
		return lim
	}
	in, out := int64(0), int64(1)
	if lim < 0 {
		out = -1
	}
	for single(out) {
		in = out
		if out *= 2; out/2 != in {
			out = lim // doubling overflowed
		}
	}
	for d := out - in; d > 1 || d < -1; d = out - in {
		if mid := in + d/2; single(mid) {
			in = mid
		} else {
			out = mid
		}
	}
	return in
}
