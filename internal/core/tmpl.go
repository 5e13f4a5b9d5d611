package core

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"strings"

	"repro/internal/exec"
)

// Mapping is a port's instruction mapping (paper §3.3), declared once as
// data beside its Fixed: which row of the port's instruction table each
// generic emitter's (op, type) is and which syntax letter each operand goes
// into, which rows each conditional branch is, which row each extension the
// hardware has is, and which operations go through a runtime helper.  What
// no rule covers — a multi-word expansion, an immediate its field cannot
// hold — the port's own method emits; an expansion that ends in a mapped
// word takes it from here too.
type Mapping struct {
	ALU    []Rule
	Ld, St []Mem
	Unary  []ExtRule // named by the op: com, not, mov, neg
	Ext    []ExtRule
	Br     []Cond
	// Gap names the compare rows a branch may not follow at once: a nop
	// goes between (SPARC's fcmp and fbfcc).
	Gap      []string
	Emulated []Helper
}

// Rule maps Op at Types onto the row named Row, rd, rs1 and rs2 into the
// fields of the letters Regs; and, where Imm names a row, ALUI's rd, rs and
// immediate into the fields of ImmRegs (Regs if empty).  The paper's spec
// clause is the same pair: (types mach-insn [mach-imm-insn]).
type Rule struct {
	Op           Op
	Types        string // type letters, "i u l ul p"; only those the emitter accepts count
	Row, Regs    string
	Imm, ImmRegs string
	Neg          bool   // the immediate's field holds -imm (mips subtracts by addiu)
	Mask         uint32 // not 0: imm&Mask goes in, for every imm (a shift count)
}

// Mem maps a load or store at Types onto the row named Row, the loaded or
// stored register, the base and the displacement into the fields of the
// letters Regs.
type Mem struct{ Types, Row, Regs string }

// ExtRule maps the extension Name at Types onto the row named Row: Regs
// has rd's letter, then each source's.  A register field the row reads and
// the extension does not name is Fix, holding register FixTo.  A unary
// op's source goes into each source letter (Alpha's mov is bis rs, rs, rd),
// and its Fix may hold a number (MIPS's not is sltiu rd, rs, 1).
type ExtRule struct {
	Name, Types, Row, Regs string
	Fix                    byte
	FixTo                  int64
}

// Cond maps the conditional branch Op at Types onto a compare row, Cmp,
// then the branch row, Br, which core follows with the port's delay slots.
// Regs and BrRegs put the scratch, rs1 and rs2, in that order, into the
// fields of their letters, '_' leaving one out: the compare writes the
// scratch (ScratchReg, or ScratchFPR at a float type) or, naming no letter
// for it, the condition codes, and the branch reads what the compare wrote.
// Without Cmp the branch compares the sources itself; one that reads rs1
// alone compares it with zero, and is BrI's form for an immediate of 0.
// Fix is a field of Br holding FixTo (SPARC's condition).
//
// Imm names the compare's immediate form, BrI's where the field of
// ImmRegs's third letter holds imm (ImmRegs is Regs if empty): with Inc
// the field holds imm+1 (mips's ble and bgt as blt and bge), with NonNeg
// no imm below 0 goes in.  A rule with Imm and no Cmp is that form alone.
// BrI tries the zero form, then the immediate form, then sets imm into the
// scratch and takes the register form (BranchImm).
type Cond struct {
	Op           Op
	Types        string
	Cmp, Regs    string
	Br, BrRegs   string
	Imm, ImmRegs string
	Fix          byte
	FixTo        int64
	Inc, NonNeg  bool
}

// Helper routes Op at Types through the runtime helper Sym, the paper's
// emulated instructions (§5.2, integer division on the Alpha): operands in
// the first integer argument registers, result in the integer return
// register, all other registers preserved.
type Helper struct {
	Op         Op
	Types, Sym string
}

// tmpl is one (op, type) of one port as the generic emitters use it: the
// instruction word with every operand zero, and where each operand goes.
// The paper's emitters are macros whose op and type are compile-time
// constants, so an instruction costs a handful of shifts and a store; here
// they are run-time values, and a table load takes the place of the
// interface call and the `switch op` of an encoder:
//
//	word | rd*d | rs1*s1 | rs2*s2 | imm*sh & mask,  lo <= imm <= hi
//
// The word is the mapped row's Match, with the selector bit of a field
// that has a register form set for an immediate (Field.Put); d, s1, s2 and
// sh are 1<<shift of the declared fields (a multiply takes its scale from
// memory, where a shift wants its count in a register), mask is the
// immediate field's bits in place, and the range is the immediate field's.
//
// bank and lim are the generic emitters' gate (see asm.go): a register
// XORed with its bank (0, or fprBase) is its number, and anything else 32
// or more, so the accepted case takes the template when every operand
// XORed with the bank of its type is below lim: 32, a bank's registers,
// where the entry is ok, legal at its type and not emulated, 0 where it
// never is.
type tmpl struct {
	word, mask uint32
	d, s1, s2  uint32 // field scales: rd (or the stored register), rs1, rs2
	sh         uint32 // the immediate's, negated when the field holds -imm (mips subtracts by addiu)
	ok         bool
	bank, lim  uint8
	lo, hi     int64
}

// take is regs for the gate: the word, and whether the case takes it.
func (tp *tmpl) take(rd, rs1, rs2 Reg) (uint32, bool) {
	b := uint32(tp.bank)
	d, s1, s2 := uint32(uint16(rd))^b, uint32(uint16(rs1))^b, uint32(uint16(rs2))^b
	return tp.word | d*tp.d | s1*tp.s1 | s2*tp.s2, d|s1|s2 < uint32(tp.lim)
}

// takeImm is take for an integer rs and an immediate, which the emitter
// holds to [lo, hi] itself.
func (tp *tmpl) takeImm(rd, rs Reg, imm int64) (uint32, bool) {
	d, s := uint32(uint16(rd))^uint32(tp.bank), uint32(uint16(rs))
	return tp.word | d*tp.d | s*tp.s1 | uint32(imm)*tp.sh&tp.mask, d|s < uint32(tp.lim)
}

// admit opens tp to the gate at t for an emitter whose legal types are
// legal, unless t is emulated.
func (tp *tmpl) admit(legal, emulated typeSet, t Type) {
	if tp.ok && legal.has(t) && !emulated.has(t) {
		tp.lim = 32
		if t.IsFloat() {
			tp.bank = fprBase
		}
	}
}

// regs is the word for an all-register form.  Register numbers are taken
// modulo the bank (an FPR is fprBase+n); the emitters' bank test has already
// refused anything that is not a register.
func (tp *tmpl) regs(rd, rs1, rs2 Reg) uint32 {
	return tp.word | uint32(rd)&63*tp.d | uint32(rs1)&63*tp.s1 | uint32(rs2)&63*tp.s2
}

// imm is the word for a two-register form with an immediate inside
// [lo, hi].  The sign is in the scale: the two adjacent mips forms
// addiu-by-imm and addiu-by-minus-imm do not become a branch.
func (tp *tmpl) imm(rd, rs Reg, imm int64) uint32 {
	return tp.regs(rd, rs, 0) | uint32(imm)*tp.sh&tp.mask
}

// holds reports whether there is a template and imm is inside its range.
func (tp *tmpl) holds(imm int64) bool { return tp.ok && tp.lo <= imm && imm <= tp.hi }

// numBinOps bounds the ops of the two-source forms (OpAdd..OpRsh); the
// unary ops (OpCom..OpNeg) and the branches (OpBlt..OpBne) are numUnOps
// and numConds from their first.
const (
	numBinOps = OpRsh + 1
	numUnOps  = OpNeg - OpCom + 1
	numConds  = OpBne - OpBlt + 1
)

// seq is one (op, type) of a branch form as core emits it: n words, the
// compare, a gap's nop, the branch and the delay slots' nops, the branch
// being word site.  The first word, tmpl, is the one that reads the
// operands (and, for BrI, imm+inc); the rest, w[1:n], are constant: a
// compare's branch reads the scratch, which is already in.
type seq struct {
	tmpl
	w       [4]uint32
	n, site int
	inc     int64
}

// emit appends sq's words for rs1, rs2 and an immediate's bits v, and
// returns the branch's index.  It appends all four words and keeps n of
// them: one capacity test, not one a word.
func (sq *seq) emit(b *Buf, rs1, rs2 Reg, v uint32) int {
	at := len(b.w)
	b.w = append(b.w, sq.word|uint32(rs1)&63*sq.s1|uint32(rs2)&63*sq.s2|v, sq.w[1], sq.w[2], sq.w[3])
	b.w = b.w[:at+sq.n]
	return at + sq.site
}

// Templates is a port's Mapping as the emitters read it, built once by the
// port and read by the core and the port's own methods alike: a template
// per generic emitter and (op, type), about 30 KB a port; the hardware
// extensions; the emulated set and its helpers; and the port's fixed
// words, whose nop and delay slots a branch is followed by.
type Templates struct {
	alu, alui [numBinOps][numTypes]tmpl
	ld, st    [numTypes]tmpl
	ldx, stx  [numTypes]tmpl // ld and st with a register for the displacement (SPARC)
	un        [numUnOps][numTypes]tmpl
	br        [numConds][numTypes]seq
	zero, bri [numConds][numTypes]seq // BrI's form for 0, its immediate form
	fx        fixed
	ext       []extTmpl
	emul      EmulatedOps
	syms      [numBinOps][numTypes]string
}

// Fixed returns the fixed words the port handed NewTemplates.
func (ts *Templates) Fixed() *Fixed { return ts.fx.Fixed }

// extTmpl is one hardware extension: a template for name at types.
type extTmpl struct {
	name  string
	types typeSet
	tmpl
}

// EmulatedOps is the set of (op, type) pairs a port routes through runtime
// helpers, as a table the per-instruction path reads with one load.
type EmulatedOps struct {
	types [1 << 8]typeSet // by Op, over its whole range
}

// Has reports whether the port emulates op at type t.
func (e *EmulatedOps) Has(op Op, t Type) bool { return e.types[op].has(t) }

// EmulatedOpsOf returns b's emulated-operation set.
func EmulatedOpsOf(b Backend) *EmulatedOps { return &b.Templates().emul }

// NewTemplates builds b's mapping m over its instruction table, for the
// types each emitter accepts, with its scratch registers and delay slots,
// and works out its fixed words fx, whose nop the branches take.  A rule
// or word that names no row, letter, op or type is a bug in the port, and
// panics when its package starts.
func NewTemplates(b Backend, fx *Fixed, m Mapping) *Templates {
	isa := b.ISA()
	ts := new(Templates)
	ts.fx.derive(b, fx)
	for _, r := range m.ALU {
		tp, _ := build(isa, r.Row, r.Regs, false)
		types := typesOf(r.Types)
		set(&ts.alu[r.Op], types&legal.alu[r.Op], tp)
		if r.Imm == "" {
			continue
		}
		if r.ImmRegs == "" {
			r.ImmRegs = r.Regs
		}
		tp, _ = build(isa, r.Imm, r.ImmRegs, true)
		if r.Mask != 0 {
			tp.mask &= r.Mask * tp.sh
			tp.lo, tp.hi = math.MinInt64, math.MaxInt64
		}
		if r.Neg {
			tp.sh, tp.lo, tp.hi = -tp.sh, -tp.hi, -tp.lo
		}
		set(&ts.alui[r.Op], types&legal.alui[r.Op], tp)
	}
	tabs := [2][2]*[numTypes]tmpl{{&ts.ld, &ts.ldx}, {&ts.st, &ts.stx}}
	for i, rules := range [2][]Mem{m.Ld, m.St} {
		for _, r := range rules {
			tp, x := build(isa, r.Row, r.Regs, true)
			types := typesOf(r.Types) & legal.mem
			set(tabs[i][0], types, tp)
			set(tabs[i][1], types, x)
		}
	}
	for _, r := range m.Unary {
		op := slices.Index(opNames[OpCom:OpNeg+1], r.Name)
		if op < 0 {
			panic(fmt.Sprintf("core: mapping names unary op %q", r.Name))
		}
		set(&ts.un[op], typesOf(r.Types)&legal.unary[OpCom+Op(op)], extTemplate(isa, r))
	}
	for _, r := range m.Ext {
		ts.ext = append(ts.ext, extTmpl{r.Name, typesOf(r.Types), extTemplate(isa, r)})
	}
	for _, c := range m.Br {
		ts.addCond(b, c, m.Gap)
	}
	for _, h := range m.Emulated {
		emul := typesOf(h.Types) & legal.alu[h.Op]
		ts.emul.types[h.Op] |= emul
		set(&ts.syms[h.Op], emul, h.Sym)
	}
	for t := TypeV; t < numTypes; t++ {
		for op := Op(0); op < numBinOps; op++ {
			ts.alu[op][t].admit(legal.alu[op], ts.emul.types[op], t)
			ts.alui[op][t].admit(legal.alui[op], ts.emul.types[op], t)
		}
		ts.ld[t].admit(legal.mem, 0, t)
		ts.st[t].admit(legal.mem, 0, t)
		if !t.IsFloat() { // take holds base and index to rd's bank
			ts.ldx[t].admit(legal.mem, 0, t)
			ts.stx[t].admit(legal.mem, 0, t)
		}
	}
	return ts
}

// extTemplate is r's template: its row with its operands' fields and Fix,
// if any, holding FixTo.
func extTemplate(isa *exec.Table, r ExtRule) tmpl {
	tp, _ := build(isa, r.Row, r.Regs, false)
	if r.Fix != 0 {
		tp.word, _ = isa.Field(r.Fix).Put(tp.word, r.FixTo)
	}
	return tp
}

// addCond builds c into the branch forms it declares; a row's scratch
// letter holds b's scratch register of c's bank.
func (ts *Templates) addCond(b Backend, c Cond, gap []string) {
	isa, i, types := b.ISA(), c.Op-OpBlt, typesOf(c.Types)&legal.br[c.Op]
	sc := uint32(b.ScratchReg().Num())
	if types&(1<<TypeF|1<<TypeD) != 0 {
		sc = uint32(b.ScratchFPR().Num())
	}
	form := func(cmp, letters string, imm bool) seq {
		var tps []tmpl
		if cmp != "" {
			tp, _ := build(isa, cmp, letters, imm)
			if tps = append(tps, tp); slices.Contains(gap, cmp) {
				tps = append(tps, tmpl{word: ts.fx.Nop})
			}
		}
		sq := seq{site: len(tps)}
		tps = append(tps, extTemplate(isa, ExtRule{Row: c.Br, Regs: c.BrRegs, Fix: c.Fix, FixTo: c.FixTo}))
		for range ts.fx.slots {
			tps = append(tps, tmpl{word: ts.fx.Nop})
		}
		for k, tp := range tps {
			sq.w[k] = tp.word | sc*tp.d
		}
		sq.tmpl, sq.n = tps[0], len(tps)
		sq.word = sq.w[0]
		return sq
	}
	switch {
	case c.Cmp == "" && c.Imm == "" && len(c.BrRegs) < 3: // rs1 against zero
		set(&ts.zero[i], types&legal.bri[c.Op], form("", "", false))
	case c.Cmp != "" || c.Imm == "":
		set(&ts.br[i], types, form(c.Cmp, c.Regs, false))
	}
	if c.Imm != "" {
		sq := form(c.Imm, cmp.Or(c.ImmRegs, c.Regs), true)
		if c.Inc {
			sq.inc, sq.lo, sq.hi = 1, sq.lo-1, sq.hi-1
		}
		if c.NonNeg {
			sq.lo = max(sq.lo, 0)
		}
		set(&ts.bri[i], types&legal.bri[c.Op], sq)
	}
}

// set puts v into tab at each of types.
func set[T any](tab *[numTypes]T, types typeSet, v T) {
	for t := TypeV; t < numTypes; t++ {
		if types.has(t) {
			tab[t] = v
		}
	}
}

// build is the template of the row named name with its operands in the
// fields of letters: rd's, rs1's, then rs2's or, with imm, the
// immediate's.  x is the same row with a register where the immediate
// goes, when the immediate's field has a register form.
func build(isa *exec.Table, name, letters string, imm bool) (tp, x tmpl) {
	row := isa.Row(name)
	if row == nil || len(letters) > 3 {
		panic(fmt.Sprintf("core: mapping names row %q with operands %q", name, letters))
	}
	tp = tmpl{word: row.Match, ok: true}
	scale := [3]*uint32{&tp.d, &tp.s1, &tp.s2}
	for i, c := range []byte(letters) {
		f := isa.Field(c)
		switch {
		case c == '_':
		case f == nil:
			panic(fmt.Sprintf("core: mapping of %q names no field %q", name, c))
		case imm && i == 2:
			if x = tp; f.Else != nil {
				x.s2 = 1 << f.Else.Shift
			} else {
				x.ok = false
			}
			tp.word, _ = f.Put(tp.word, 0)
			tp.sh, tp.mask = 1<<f.Shift, f.Bits()<<f.Shift
			tp.lo, tp.hi = f.Range()
		default:
			*scale[i] = 1 << f.In(row.Match).Shift
		}
	}
	return tp, x
}

// typesOf parses a rule's type letters.
func typesOf(letters string) typeSet {
	var s typeSet
	for _, l := range strings.Fields(letters) {
		i := slices.Index(typeLetters[:], l)
		if i < 0 {
			panic(fmt.Sprintf("core: mapping names type %q", l))
		}
		s |= 1 << i
	}
	return s
}

// ALU appends rd = rs1 op rs2 if the mapping has a row for it, and reports
// whether it did.
func (ts *Templates) ALU(b *Buf, op Op, t Type, rd, rs1, rs2 Reg) bool {
	if op >= numBinOps || t >= numTypes || !ts.alu[op][t].ok {
		return false
	}
	b.Emit(ts.alu[op][t].regs(rd, rs1, rs2))
	return true
}

// ALUImm appends rd = rs op imm if the mapping has a row for it whose
// field holds imm, and reports whether it did.
func (ts *Templates) ALUImm(b *Buf, op Op, t Type, rd, rs Reg, imm int64) bool {
	if op >= numBinOps || t >= numTypes || !ts.alui[op][t].holds(imm) {
		return false
	}
	b.Emit(ts.alui[op][t].imm(rd, rs, imm))
	return true
}

// Load appends rd = *(t*)(base + off) if the mapping has a row for it whose
// field holds off, and reports whether it did.
func (ts *Templates) Load(b *Buf, t Type, rd, base Reg, off int64) bool {
	return ts.mem(b, &ts.ld, t, rd, base, off)
}

// Store appends *(t*)(base + off) = rs as Load does.
func (ts *Templates) Store(b *Buf, t Type, rs, base Reg, off int64) bool {
	return ts.mem(b, &ts.st, t, rs, base, off)
}

func (ts *Templates) mem(b *Buf, tab *[numTypes]tmpl, t Type, r, base Reg, off int64) bool {
	if t >= numTypes || !tab[t].holds(off) {
		return false
	}
	b.Emit(tab[t].imm(r, base, off))
	return true
}

// Indexed appends the load (or, with store, the store) of r at base + idx
// if the mapped row's displacement field has a register form, and reports
// whether it did.
func (ts *Templates) Indexed(b *Buf, store bool, t Type, r, base, idx Reg) bool {
	tab := &ts.ldx
	if store {
		tab = &ts.stx
	}
	if t >= numTypes || !tab[t].ok {
		return false
	}
	b.Emit(tab[t].regs(r, base, idx))
	return true
}

// Unary appends rd = op rs if the mapping has a row for it, and reports
// whether it did.
func (ts *Templates) Unary(b *Buf, op Op, t Type, rd, rs Reg) bool {
	if op-OpCom >= numUnOps || t >= numTypes || !ts.un[op-OpCom][t].ok {
		return false
	}
	b.Emit(ts.un[op-OpCom][t].regs(rd, rs, rs))
	return true
}

// brForm is Br's form of op at t, nil where there is none.
func (ts *Templates) brForm(op Op, t Type) *seq {
	if op-OpBlt >= numConds || t >= numTypes || !ts.br[op-OpBlt][t].ok {
		return nil
	}
	return &ts.br[op-OpBlt][t]
}

// immForm is BrI's form of op at t for imm, the zero form or the compare's
// immediate form, and imm's bits in its first word; nil where neither
// holds imm.
func (ts *Templates) immForm(op Op, t Type, imm int64) (*seq, uint32) {
	if op-OpBlt >= numConds || t >= numTypes {
		return nil, 0
	}
	if z := &ts.zero[op-OpBlt][t]; imm == 0 && z.ok {
		return z, 0
	} else if sq := &ts.bri[op-OpBlt][t]; sq.holds(imm) {
		return sq, uint32(imm+sq.inc) * sq.sh & sq.mask
	}
	return nil, 0
}

// Branch is a port's Backend.Branch where every branch is a mapped form.
func Branch(bk Backend, b *Buf, op Op, t Type, rs1, rs2 Reg) (int, error) {
	if sq := bk.Templates().brForm(op, t); sq != nil {
		return sq.emit(b, rs1, rs2, 0), nil
	}
	return 0, fmt.Errorf("%s: branch op %s%s unsupported", bk.Name(), op, t)
}

// BranchImm is a port's Backend.BranchImm: rs op imm's mapped form, else
// imm set into the scratch register and the register form.
func BranchImm(bk Backend, b *Buf, op Op, t Type, rs Reg, imm int64) (int, error) {
	if sq, v := bk.Templates().immForm(op, t, imm); sq != nil {
		return sq.emit(b, rs, 0, v), nil
	}
	sc := bk.ScratchReg()
	if err := bk.SetImm(b, t, sc, imm); err != nil {
		return 0, err
	}
	return bk.Branch(b, op, t, rs, sc)
}

// extOf returns the hardware extension name at t, nil when there is none.
func (ts *Templates) extOf(name string, t Type) *tmpl {
	for i := range ts.ext {
		if x := &ts.ext[i]; x.name == name && x.types.has(t) {
			return &x.tmpl
		}
	}
	return nil
}
