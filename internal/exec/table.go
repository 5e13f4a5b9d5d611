package exec

import (
	"fmt"
	"math/bits"
	"strings"

	"repro/internal/verify"
)

// Row is one instruction of an ISA: the single place a backend pairs a
// bit pattern with a mnemonic, an operand layout, a control-flow kind and
// a threaded opcode.  The backend's Classify, Disasm and Predecode
// all read it; a word no row matches is illegal.  Syntax letters name
// the ISA's declared Fields; Layout is backend-local (the backend's
// Predecode switches on it).
type Row struct {
	Name   string // mnemonic
	Match  uint32 // the row decodes w when w&Mask == Match
	Mask   uint32
	Syntax string      // operands as Disasm prints them, one letter per field
	Layout uint8       // which fields Predecode unpacks, and where to
	Kind   verify.Kind // control-flow behaviour, for the verifier
	Op     uint16      // dense opcode: what the threaded engine executes it as

	tgt, imm *Field // the fields Syntax names that hold a target and a number
}

// Field is what one Syntax letter of an ISA names: where the operand sits
// in a word and what its value means.  Each port declares a letter once,
// for Disasm, Classify, Predecode's targets and the core's templates and
// patcher; the port's tests hold it to the encoders and the oracle.  A
// Target counts from the word's address plus PC or, for a Region (MIPS
// j), from the aligned 2^(Width+Scale)-byte region holding that address.
type Field struct {
	Shift, Width   uint8
	Signed         bool
	Scale          uint8    // the value is the contents shifted left Scale bits
	Names          []string // a register's bank, or a condition's suffixes: Disasm prints Names[value]
	Fmt            string   // otherwise, how Disasm prints the value
	Target, Region bool
	PC             uint8
	Sel            uint8  // with Else: bit Sel set selects this (number) form,
	Else           *Field // clear the register form Else (SPARC operand2, Alpha literals)
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

// Range returns the smallest and the largest value f holds.
func (f *Field) Range() (lo, hi int64) {
	if f.Signed {
		return -1 << (f.Width - 1) << f.Scale, (1<<(f.Width-1) - 1) << f.Scale
	}
	return 0, int64(f.Bits()) << f.Scale
}

// Put writes v into f of w, selecting f's form; ok is false, and w
// unchanged, when f cannot hold v.
func (f *Field) Put(w uint32, v int64) (_ uint32, ok bool) {
	if lo, hi := f.Range(); v < lo || v > hi || v&(1<<f.Scale-1) != 0 {
		return w, false
	}
	if f.Else != nil {
		w |= 1 << f.Sel
	}
	return w&^(f.Bits()<<f.Shift) | uint32(v>>f.Scale)&f.Bits()<<f.Shift, true
}

// origin is the address a target field of the word at pc counts from.
func (f *Field) origin(pc uint64) uint64 {
	if f.Region {
		return (pc + uint64(f.PC)) &^ (1<<(f.Width+f.Scale) - 1)
	}
	return pc + uint64(f.PC)
}

// target returns the static target of w, a word of r at pc, if any.
func (r *Row) target(w uint32, pc uint64) (uint64, bool) {
	if r.tgt == nil {
		return 0, false
	}
	return r.tgt.origin(pc) + uint64(r.tgt.Get(w)), true
}

// Ins builds a Row from positional arguments, so a backend's table reads
// one line per instruction.  The row is verify.KindOther — plain: the
// threaded engine executes runs of such rows without looking up — and the
// few that transfer control say so with As.
func Ins(name string, match, mask uint32, syntax string, layout uint8, op uint16) Row {
	return Row{Name: name, Match: match, Mask: mask, Syntax: syntax, Layout: layout, Op: op}
}

// Start starts in, the predecoded form of w, a word of r at in.PC in b:
// r's opcode, Run 1 for a plain row (for MarkRuns to extend), FFold for a
// pc-relative branch (MarkRuns keeps it where RunBody can resolve the
// branch itself), and the target r's field gives, in b or External.
func (r *Row) Start(in *Instr, w uint32, b *Body) {
	in.Op, in.Run, in.Flags = r.Op, 0, 0
	switch r.Kind {
	case verify.KindOther:
		in.Run = 1
	case verify.KindBranch:
		in.Flags = FFold
	}
	if tg, ok := r.target(w, in.PC); ok && b.Contains(tg) {
		in.Target = int32(b.IndexOf(tg))
	} else if ok {
		in.Target, in.Imm = External, int64(tg)
	}
}

// As returns r with its control-flow kind set.
func (r Row) As(k verify.Kind) Row { r.Kind = k; return r }

// Table is a backend's rows behind a decode index.  The first row that
// matches wins, so an alias (nop, move, li) is listed before the
// instruction it specialises.
type Table struct {
	rows   []Row  // by value; each leaf's candidates are adjacent
	slots  []slot // every sub-table, concatenated
	root   slot
	fields map[byte]*Field
}

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
// would.
func NewTable(rows []Row, fields map[byte]Field) *Table {
	t := &Table{fields: make(map[byte]*Field, len(fields))}
	for c, f := range fields {
		t.fields[c] = &f
	}
	t.root = t.build(rows, 0, 0)
	for i := range t.rows {
		for _, c := range []byte(t.rows[i].Syntax) {
			if f := t.fields[c]; f != nil && f.Target {
				t.rows[i].tgt = f
			} else if f != nil && f.Names == nil {
				t.rows[i].imm = f
			}
		}
	}
	return t
}

// ISA returns t, so that a backend embedding its table has core.Backend's
// ISA, Classify and Disasm.
func (t *Table) ISA() *Table { return t }

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
func (t *Table) Classify(w uint32, pc uint64) verify.Insn {
	if r := t.Lookup(w); r != nil {
		tg, ok := r.target(w, pc)
		return verify.Insn{Kind: r.Kind, Target: tg, HasTarget: ok}
	}
	return verify.Insn{Kind: verify.KindIllegal}
}

// Retarget points the transfer code[site] to code[target] through the
// field its row declares; ok is false when the word has no target field
// or the field cannot reach.
func (t *Table) Retarget(code []uint32, site, target int) (ok bool) {
	if r := t.Lookup(code[site]); r != nil && r.tgt != nil {
		code[site], ok = r.tgt.Put(code[site], int64(4*uint64(target)-r.tgt.origin(4*uint64(site))))
	}
	return ok
}

// SetImm writes v into the number the row of code[site] names (a load or
// store's displacement); ok is false when there is none or it cannot hold v.
func (t *Table) SetImm(code []uint32, site int, v int64) (ok bool) {
	if r := t.Lookup(code[site]); r != nil && r.imm != nil {
		code[site], ok = r.imm.Put(code[site], v)
	}
	return ok
}

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
			tg, _ := r.target(w, pc)
			fmt.Fprintf(&sb, "%#x", tg)
		default:
			fmt.Fprintf(&sb, f.Fmt, f.Get(w))
		}
	}
	return sb.String()
}
