package exec

import (
	"fmt"
	"math/bits"
	"strings"

	"repro/internal/verify"
)

// Row is one instruction of an ISA: the single place a backend pairs a
// bit pattern with a mnemonic, an operand layout, a control-flow kind
// and a threaded opcode.  The backend's Classify, Disasm and Predecode
// all read it; a word no row matches is illegal.  Syntax and Layout are
// backend-local vocabularies (the backend's Disasm expands one, its
// Predecode switches on the other).
type Row struct {
	Name   string // mnemonic
	Match  uint32 // the row decodes w when w&Mask == Match
	Mask   uint32
	Syntax string      // operands as Disasm prints them, one letter per field
	Layout uint8       // which fields Predecode unpacks, and where to
	Kind   verify.Kind // control-flow behaviour, for the verifier
	Op     uint16      // dense opcode: what the threaded engine executes it as
}

// Ins builds a Row from positional arguments, so a backend's table reads
// one line per instruction.  The row is verify.KindOther — plain: the
// threaded engine executes runs of such rows without looking up — and the
// few that transfer control say so with As.
func Ins(name string, match, mask uint32, syntax string, layout uint8, op uint16) Row {
	return Row{Name: name, Match: match, Mask: mask, Syntax: syntax, Layout: layout, Op: op}
}

// Run is what a predecoder starts Instr.Run at, for MarkRuns to extend: 1
// for a plain row, 0 for a transfer.
func (r *Row) Run() uint16 {
	if r.Kind == verify.KindOther {
		return 1
	}
	return 0
}

// As returns r with its control-flow kind set.
func (r Row) As(k verify.Kind) Row { r.Kind = k; return r }

// Table is a backend's rows behind a decode index.  The first row that
// matches wins, so an alias (nop, move, li) is listed before the
// instruction it specialises.
type Table struct {
	rows  []Row  // by value; each leaf's candidates are adjacent
	slots []slot // every sub-table, concatenated
	root  slot
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

// NewTable indexes rows.  The index is derived from the masks alone: a
// level switches on the highest run of bits that every row still in
// play specifies, so it narrows without reordering and Lookup returns
// exactly what a first-match scan of rows would.
func NewTable(rows []Row) *Table {
	t := &Table{}
	t.root = t.build(rows, 0, 0)
	return t
}

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

// Disasm renders w as its row's mnemonic followed by the row's syntax,
// each letter expanded by field (which returns "" for a character it
// does not name: punctuation prints as is).  A word with no row renders
// as ".word".
func (t *Table) Disasm(w uint32, field func(c byte) string) string {
	r := t.Lookup(w)
	if r == nil {
		return fmt.Sprintf(".word %#08x", w)
	}
	var sb strings.Builder
	sb.WriteString(r.Name)
	for i := 0; i < len(r.Syntax); i++ {
		if s := field(r.Syntax[i]); s != "" {
			sb.WriteString(s)
		} else {
			sb.WriteByte(r.Syntax[i])
		}
	}
	return sb.String()
}
