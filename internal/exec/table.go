package exec

import (
	"fmt"
	"math/bits"
	"slices"
	"strings"
)

// Kind classifies one instruction word's control-flow behaviour.
type Kind int

const (
	// KindOther is a non-control-transfer instruction (ALU, load, store,
	// ...).
	KindOther Kind = iota
	// KindBranch is a pc-relative (or region-absolute) jump or
	// conditional branch whose target must stay inside the function.
	KindBranch
	// KindCall is a call: the target (when statically known) may be
	// inside the function or an external address the machine resolves.
	KindCall
	// KindJumpReg is a register-indirect jump, call or return; its
	// target cannot be checked statically.
	KindJumpReg
	// KindIllegal is a word that is not an instruction of the target:
	// the simulator would reject it with a decode fault.  Classify must
	// return it for exactly those words — it is the one legality check.
	KindIllegal
)

func (k Kind) String() string {
	switch k {
	case KindOther:
		return "other"
	case KindBranch:
		return "branch"
	case KindCall:
		return "call"
	case KindJumpReg:
		return "jump-reg"
	case KindIllegal:
		return "illegal"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// IsControl reports whether the kind transfers control (and therefore owns
// a delay slot on delayed-branch targets).
func (k Kind) IsControl() bool {
	return k == KindBranch || k == KindCall || k == KindJumpReg
}

// Insn is the classification of one instruction word.
type Insn struct {
	Kind      Kind
	Target    uint64 // absolute target address; meaningful iff HasTarget
	HasTarget bool
}

// Row is one instruction of an ISA: the single place a backend pairs a
// bit pattern with a mnemonic, its operands, a control-flow kind and a
// threaded opcode.  The backend's Classify, Disasm and Predecode all read
// it; a word no row matches is illegal.  Syntax letters name the ISA's
// declared Fields, and each field's Slot says where Predecode puts it.
type Row struct {
	Name   string // mnemonic
	Match  uint32 // the row decodes w when w&Mask == Match
	Mask   uint32
	Syntax string // operands as Disasm prints them, one letter per field
	Kind   Kind   // control-flow behaviour, for the verifier
	Op     uint16 // dense opcode: what the threaded engine executes it as
	dst    byte   // the letter of the integer register it writes (Writes)

	// Tgt and Num are the fields Syntax names that hold a target and a
	// number, nil for none.  ops reads the operands of the other fields
	// it names (an alias: of the row it specialises) and the registers the
	// interlock reads; two is 1 in a row with a field of two forms, and
	// form 1 reads a word whose bit sel selects the number form.  NewTable
	// sets them, in the rows it is given.
	sel, two uint8
	Tgt, Num *Field
	ops      *[2]operands
}

// Slot is the operand of an Instr a field's value goes into; a target
// field has none (Predecode resolves it).
type Slot uint8

const (
	NoSlot Slot = iota
	SlotA
	SlotB
	SlotC
	SlotImm
)

// operands is how Predecode reads a word of one row form: A, B, C, SrcA,
// SrcB and LoadReg, each a field shifted down and masked, then set (mask
// 0: a constant, such as NoReg or the zero register); and Imm, shifted to
// the top, down again sign-extending, kept to the field's width if it is
// unsigned, and scaled (keep 0 for none).  Where w&dmask == dzero, the
// register the row writes, A, B or C as dst says, is the zero register.
type operands struct {
	shift, mask, set [6]uint8
	lsh, rsh, scale  uint8
	keep             int32
	dst              uint8
	dmask, dzero     uint32
}

func (o *operands) reg(k int, w uint32) uint8 { return uint8(w>>(o.shift[k]&31))&o.mask[k] | o.set[k] }

func (o *operands) imm(w uint32) int64 {
	return int64(int32(w<<(o.lsh&31))>>(o.rsh&31)&o.keep) << (o.scale & 31)
}

// put has o read f, a field r names, into its slot, which must take f's
// value: A, B and C take at most 8 unsigned, unscaled bits.
func (o *operands) put(r *Row, f *Field) {
	switch s := f.Slot; {
	case s == SlotImm:
		o.lsh, o.rsh, o.scale, o.keep = 32-f.Shift-f.Width, 32-f.Width, f.Scale, -1
		if !f.Signed {
			o.keep = int32(f.Bits())
		}
	case s == NoSlot || f.Width > 8 || f.Signed || f.Scale != 0:
		panic(fmt.Sprintf("exec: row %s %q names a field with no slot it fits", r.Name, r.Syntax))
	default:
		o.shift[s-SlotA], o.mask[s-SlotA] = f.Shift, uint8(f.Bits())
	}
}

// Field is what one Syntax letter of an ISA names: where the operand sits
// in a word, what its value means and where Predecode puts it (Slot).
// Each port declares a letter once, for Disasm, Classify, Predecode and
// the core's templates and patcher; the port's tests hold it to the
// encoders and the oracle.  A Target counts from the word's address plus
// PC or, for a Region (MIPS j), from the aligned 2^(Width+Scale)-byte
// region holding that address.
type Field struct {
	Shift, Width   uint8
	Signed         bool
	Scale          uint8    // the value is the contents shifted left Scale bits
	Names          []string // a register's bank, or a condition's suffixes: Disasm prints Names[value]
	Fmt            string   // otherwise, how Disasm prints the value
	Target, Region bool
	PC             uint8
	Sel            uint8  // with Else: bit Sel set selects this (number) form, which sets FImm,
	Else           *Field // clear the register form Else (SPARC operand2, Alpha literals)
	Slot           Slot   // where Predecode puts the value; none for a target

	lo, hi int64  // the values the field holds, worked out once by NewTable
	mask   uint32 // its bits in place
}

// Numbered is a register bank's names: format applied to 0..31.
func Numbered(format string) []string {
	names := make([]string, 32)
	for i := range names {
		names[i] = fmt.Sprintf(format, i)
	}
	return names
}

// In returns the form of f that w selects (nil for no field).
func (f *Field) In(w uint32) *Field {
	if f != nil && f.Else != nil && w>>f.Sel&1 == 0 {
		return f.Else
	}
	return f
}

// Bits is f's contents mask, unshifted.
func (f *Field) Bits() uint32 { return 1<<f.Width - 1 }

// Get reads f's value out of w.
func (f *Field) Get(w uint32) int64 {
	v := int64(w >> f.Shift & f.Bits())
	if f.Signed && v>>(f.Width-1) == 1 {
		v -= 1 << f.Width
	}
	return v << f.Scale
}

// prep works out f's range and mask, and its register form's, once.
func (f *Field) prep() {
	f.lo, f.hi, f.mask = 0, int64(f.Bits())<<f.Scale, f.Bits()<<f.Shift
	if f.Signed {
		f.lo, f.hi = -1<<(f.Width-1)<<f.Scale, (1<<(f.Width-1)-1)<<f.Scale
	}
	if f.Else != nil {
		e := *f.Else
		e.prep()
		f.Else = &e
	}
}

// Range returns the smallest and the largest value f holds.
func (f *Field) Range() (lo, hi int64) { return f.lo, f.hi }

// Put writes v into f of w, selecting f's form; ok is false, and w
// unchanged, when f cannot hold v.
func (f *Field) Put(w uint32, v int64) (_ uint32, ok bool) {
	if v < f.lo || v > f.hi || v&(1<<f.Scale-1) != 0 {
		return w, false
	}
	if f.Else != nil {
		w |= 1 << f.Sel
	}
	return w&^f.mask | uint32(v>>f.Scale)<<f.Shift&f.mask, true
}

// PutTarget points f, the target field of w, the word at pc, to target;
// ok is false, and w unchanged, when f cannot reach it.
func (f *Field) PutTarget(w uint32, pc, target uint64) (_ uint32, ok bool) {
	return f.Put(w, int64(target-f.origin(pc)))
}

// origin is the address a target field of the word at pc counts from.
func (f *Field) origin(pc uint64) uint64 {
	if f.Region {
		return (pc + uint64(f.PC)) &^ (1<<(f.Width+f.Scale) - 1)
	}
	return pc + uint64(f.PC)
}

// Insn classifies w, a word of r at pc: r's kind and the static target
// its target field gives, if any; a word with no row (r nil) is illegal.
func (r *Row) Insn(w uint32, pc uint64) Insn {
	switch {
	case r == nil:
		return Insn{Kind: KindIllegal}
	case r.Tgt == nil:
		return Insn{Kind: r.Kind}
	}
	return Insn{Kind: r.Kind, Target: r.Tgt.origin(pc) + uint64(r.Tgt.Get(w)), HasTarget: true}
}

// Writes returns r with c, a letter of its syntax, named as the integer
// register it writes: Decode sends a write to the zero register to Sink.
func (r Row) Writes(c byte) Row { r.dst = c; return r }

// Ins builds a Row from positional arguments, so a backend's table reads
// one line per instruction.  The row is KindOther — plain: the
// threaded engine executes runs of such rows without looking up — and the
// few that transfer control say so with As.
func Ins(name string, match, mask uint32, syntax string, op uint16) Row {
	return Row{Name: name, Match: match, Mask: mask, Syntax: syntax, Op: op}
}

// As returns r with its control-flow kind set.
func (r Row) As(k Kind) Row { r.Kind = k; return r }

// Table is a backend's rows behind a decode index.  The first row that
// matches wins, so an alias (nop, move, li) is listed before the
// instruction it specialises.
type Table struct {
	rows   []Row  // by value; each leaf's candidates are adjacent
	slots  []slot // every sub-table, concatenated
	root   slot
	fields map[byte]*Field
	ops    []*[2]operands // the distinct ways rows read operands: Row.ops
	rule   Interlock
	zero   uint8 // the register hardwired to zero (NewTable's zero)
}

// Interlock names the fields the oracle's load-use check reads a word's
// source registers and its loaded register from: a letter of the table's
// fields, 0 for none.
type Interlock func(w uint32) (srcA, srcB, load byte)

// slot is one entry of a sub-table: either a further sub-table, selected
// from by the mask-wide field of the word at shift, or (mask == 0, below
// the second level) a run of n candidate rows.  Both start at index at of
// their slice.
type slot struct {
	at    uint32
	n     uint16
	shift uint8
	mask  uint8
}

// maxField bounds a sub-table at 256 slots; a wider field (Alpha's
// 11-bit FP function) is split over two levels.
const maxField = 8

// fixedSteps is how many sub-tables Lookup walks before it starts asking
// whether it has reached a leaf.  Most words decode in exactly two (major
// opcode, then function field), and stepping without asking keeps the
// walk free of a branch that depends on the word: it measured 10-20%
// off Predecode.  A leaf that would sit higher is pushed down through
// one-slot sub-tables (mask 0 selects slot 0 whatever the word).
const fixedSteps = 2

// NewTable indexes rows, whose Syntax letters fields declares.  The index
// is derived from the masks alone: a level switches on the highest run of
// bits that every row still in play specifies, so it narrows without
// reordering and Lookup returns exactly what a first-match scan of rows
// would.  It completes rows in place (Tgt, Num, the operand reads and
// the interlock's, which rule gives; nil for no interlock), and panics on
// a declaration Predecode could not follow: a row naming a field with no
// slot it fits, two fields that fill one slot, a field of two whose
// register form is not B, or a Writes letter that is not its register.
func NewTable(rows []Row, fields map[byte]Field, rule Interlock, zero uint8) *Table {
	t := &Table{fields: make(map[byte]*Field, len(fields)), rule: rule, zero: zero}
	for c, f := range fields {
		f.prep()
		t.fields[c] = &f
	}
	for i := len(rows) - 1; i >= 0; i-- {
		t.derive(rows, i)
	}
	t.root = t.build(rows, 0, 0)
	return t
}

// lock has o read the interlock's registers in the row form of w0 and w1;
// a rule that names other fields for the two is a bug in the port.
func (t *Table) lock(o *operands, w0, w1 uint32) {
	o.set[3], o.set[4], o.set[5] = NoReg, NoReg, NoReg
	if t.rule == nil {
		return
	}
	a, b, ld := t.rule(w0)
	if a1, b1, ld1 := t.rule(w1); a != a1 || b != b1 || ld != ld1 {
		panic(fmt.Sprintf("exec: interlock names other fields for %#x than for %#x", w1, w0))
	}
	for k, c := range []byte{a, b, ld} {
		if f := t.fields[c]; f != nil {
			o.shift[3+k], o.mask[3+k], o.set[3+k] = f.Shift, 31, 0
		}
	}
}

// derive sets what rows[i]'s Syntax names.  An alias (nop, move, li)
// unpacks what the row it specialises does: the next row of its opcode
// that decodes every word it does.
func (t *Table) derive(rows []Row, i int) {
	r, filled := &rows[i], 0
	ops := [2]operands{{dzero: 1}, {dzero: 1}} // w&0 is never 1: it writes no register
	for _, c := range []byte(r.Syntax) {
		f, slots := t.fields[c], 1<<SlotImm // where a target outside the body goes
		switch {
		case f == nil:
			continue
		case f.Target:
			r.Tgt = f
		default:
			reg := f.In(0) // the register form of a field of two
			slots = 1<<f.Slot | 1<<reg.Slot
			ops[0].put(r, reg)
			ops[1].put(r, f)
			if f.Else != nil && reg.Slot == SlotB { // Decode points B at the zero register in the number form
				r.sel, r.two = f.Sel, 1
			} else if f.Else != nil {
				panic(fmt.Sprintf("exec: row %s %q names a field of two whose register form is not B", r.Name, r.Syntax))
			}
			if c == r.dst && f.Else == nil && f.Slot != SlotImm {
				for k := range ops {
					ops[k].dst, ops[k].dmask, ops[k].dzero = uint8(f.Slot-SlotA), f.mask, uint32(t.zero)<<f.Shift
				}
			}
			if f.Names == nil {
				r.Num = f
			}
		}
		if filled&slots != 0 {
			panic(fmt.Sprintf("exec: row %s %q fills a slot twice", r.Name, r.Syntax))
		}
		filled |= slots
	}
	if r.dst != 0 && ops[0].dmask == 0 {
		panic(fmt.Sprintf("exec: row %s %q writes %q, which is not a register it names", r.Name, r.Syntax, r.dst))
	}
	for _, s := range rows[i+1:] {
		if s.Op == r.Op && r.Mask&s.Mask == s.Mask && r.Match&s.Mask == s.Match {
			ops, r.sel, r.two = *s.ops, s.sel, s.two
			break
		}
	}
	sel := uint32(r.two) << r.sel
	for form := range ops { // two words of the form: free bits clear, then set
		w := r.Match | uint32(form)*sel
		t.lock(&ops[form], w, w|^r.Mask&^sel)
	}
	if r.two != 0 { // the number form's register slot reads zero
		ops[1].set[SlotB-SlotA] = t.zero
	}
	k := slices.IndexFunc(t.ops, func(o *[2]operands) bool { return *o == ops })
	if k < 0 {
		k, t.ops = len(t.ops), append(t.ops, &ops)
	}
	r.ops = t.ops[k]
}

// ISA returns t, so that a backend embedding its table has core.Backend's
// ISA, Classify and Disasm.
func (t *Table) ISA() *Table { return t }

// Row returns a row named name, nil when there is none.
func (t *Table) Row(name string) *Row {
	for i := range t.rows {
		if t.rows[i].Name == name {
			return &t.rows[i]
		}
	}
	return nil
}

// Rows returns the table's rows, in the index's order.
func (t *Table) Rows() []Row { return t.rows }

// Field returns the declaration of Syntax letter c, nil for punctuation.
func (t *Table) Field(c byte) *Field { return t.fields[c] }

// build indexes set, depth levels down; done is the bits the levels
// above already switched on.
func (t *Table) build(set []Row, done uint32, depth int) slot {
	common := ^done
	for i := range set {
		common &= set[i].Mask
	}
	at := len(t.slots)
	switch {
	case len(set) > 2 && common != 0:
		hi := bits.Len32(common) // one past the highest common bit
		lo := hi - 1
		for lo > 0 && hi-lo < maxField && common>>(lo-1)&1 == 1 {
			lo--
		}
		field := uint32(1)<<(hi-lo) - 1
		t.slots = append(t.slots, make([]slot, field+1)...)
		for v := uint32(0); v <= field; v++ {
			var sub []Row
			for _, r := range set {
				if r.Match>>lo&field == v {
					sub = append(sub, r)
				}
			}
			t.slots[at+int(v)] = t.build(sub, done|field<<lo, depth+1)
		}
		return slot{at: uint32(at), shift: uint8(lo), mask: uint8(field)}
	case depth < fixedSteps:
		t.slots = append(t.slots, slot{})
		t.slots[at] = t.build(set, done, depth+1)
		return slot{at: uint32(at)}
	}
	t.rows = append(t.rows, set...)
	return slot{at: uint32(len(t.rows) - len(set)), n: uint16(len(set))}
}

// step returns the slot w selects in s's sub-table.
func (t *Table) step(s slot, w uint32) slot { return t.slots[s.at+w>>s.shift&uint32(s.mask)] }

// Lookup returns the row that decodes w, or nil when w is not an
// instruction of the ISA.
func (t *Table) Lookup(w uint32) *Row {
	s := t.step(t.step(t.root, w), w) // fixedSteps of them
	for s.mask != 0 {
		s = t.step(s, w)
	}
	for i := s.at; i < s.at+uint32(s.n); i++ {
		if r := &t.rows[i]; w&r.Mask == r.Match {
			return r
		}
	}
	return nil
}

// Classify decodes the control-flow behaviour of w at pc for the
// pre-install verifier: its row's kind and static target; a word with no
// row is illegal.
func (t *Table) Classify(w uint32, pc uint64) Insn { return t.Lookup(w).Insn(w, pc) }

// Disasm renders w, the word at pc, as its row's mnemonic followed by the
// row's syntax, each field letter expanded as its declaration says and
// anything else (punctuation) printed as is.  A word with no row renders
// as ".word".
func (t *Table) Disasm(w uint32, pc uint64) string {
	r := t.Lookup(w)
	if r == nil {
		return fmt.Sprintf(".word %#08x", w)
	}
	var sb strings.Builder
	sb.WriteString(r.Name)
	for _, c := range []byte(r.Syntax) {
		switch f := t.fields[c].In(w); {
		case f == nil:
			sb.WriteByte(c)
		case f.Names != nil:
			sb.WriteString(f.Names[f.Get(w)])
		case f.Target:
			fmt.Fprintf(&sb, "%#x", r.Insn(w, pc).Target)
		default:
			fmt.Fprintf(&sb, f.Fmt, f.Get(w))
		}
	}
	return sb.String()
}
