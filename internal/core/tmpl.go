package core

import (
	"math"

	"repro/internal/exec"
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
// Backend interface, the reference.  A template is read from the port's
// field declaration (Backend.ISA), not found by probing: the encoder's word
// names the row, the row's syntax the fields, and their declared shifts and
// ranges are the template's (TestTemplatesAgreeWithEncoders holds it to the
// encoder word for word).
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

// derive fills ts in from bk's ALU, ALUImm, Load and Store, over every (op,
// type) the generic emitters accept.
func (ts *Templates) derive(bk Backend) {
	isa, buf := bk.ISA(), NewBuf(8)
	for t := TypeV; t < numTypes; t++ {
		reg := GPR
		if t.IsFloat() {
			reg = FPR
		}
		r := [3]Reg{reg(5), reg(6), reg(7)}
		for op := Op(0); op < numBinOps; op++ {
			if legal.alu[op].has(t) {
				ts.alu[op][t] = read(isa, buf, r[:], func(b *Buf, _ int64) error {
					return bk.ALU(b, op, t, r[0], r[1], r[2])
				})
			}
			if legal.alui[op].has(t) {
				ts.alui[op][t] = read(isa, buf, r[:2], func(b *Buf, imm int64) error {
					return bk.ALUImm(b, op, t, r[0], r[1], imm)
				})
			}
		}
		if legal.mem.has(t) {
			m := []Reg{r[0], GPR(6)} // the base is an address whatever is loaded
			ts.ld[t] = read(isa, buf, m, func(b *Buf, off int64) error {
				return bk.Load(b, t, m[0], m[1], off)
			})
			ts.st[t] = read(isa, buf, m, func(b *Buf, off int64) error {
				return bk.Store(b, t, m[0], m[1], off)
			})
		}
	}
}

// read reads enc's template off the row of the word it encodes and that
// row's fields in isa, or returns the zero tmpl.  enc's operands are regs
// (rd, rs1, and rs2 for a form without an immediate), registers no port
// hardwires, so the field each turns up in is its operand's; probes at a
// few immediates settle how the immediate goes in.
func read(isa *exec.Table, buf *Buf, regs []Reg, enc func(b *Buf, imm int64) error) tmpl {
	one := func(imm int64) (uint32, bool) {
		buf.Reset()
		if enc(buf, imm) != nil || buf.Len() != 1 {
			return 0, false
		}
		return buf.At(0), true
	}
	w, ok := one(0)
	row := isa.Lookup(w)
	if !ok || row == nil {
		return tmpl{}
	}
	tp, found := tmpl{word: w, ok: true}, 0
	shift := [3]*uint8{&tp.d, &tp.s1, &tp.s2}
	var imm *exec.Field
	for _, c := range []byte(row.Syntax) {
		f := isa.Field(c).In(w)
		if f == nil {
			continue
		}
		for i, r := range regs {
			if f.Names != nil && f.Get(w) == int64(r.Num()) {
				*shift[i], found = f.Shift, found|1<<i
				tp.word &^= f.Bits() << f.Shift
			}
		}
		if f.Names == nil && !f.Target && f.Scale == 0 {
			imm = f
		}
	}
	hasImm := len(regs) == 2
	if found != 1<<len(regs)-1 || hasImm && imm == nil {
		return tmpl{}
	}
	if hasImm {
		// The field holds imm, or -imm (mips subtracts by addiu), over its
		// declared range; or the encoder masks imm into it (a shift count)
		// and every imm is one word.
		tp.sh, tp.mask = imm.Shift, imm.Bits()
		tp.lo, tp.hi = imm.Range()
		if w, _ := one(1); imm.Get(w) == -1 {
			tp.neg, tp.lo, tp.hi = 1, -tp.hi, -tp.lo
		}
		_, min := one(math.MinInt64)
		if _, max := one(math.MaxInt64); min && max {
			w, _ := one(-1)
			tp.mask &= uint32(imm.Get(w))
			tp.lo, tp.hi = math.MinInt64, math.MaxInt64
		}
	}
	return tp
}
