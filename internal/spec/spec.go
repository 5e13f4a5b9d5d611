// Package spec implements VCODE's concise instruction-specification
// language (paper §5.4).  A specification is a sequence of s-expressions,
// one per instruction family:
//
//	( base-insn-name ( param-list ) ( type-list mach-insn [mach-imm-insn] )+ )
//
// For example, the paper's square-root extension for the MIPS:
//
//	(sqrt (rd, rs) (f fsqrts) (d fsqrtd))
//
// composes the base name sqrt with the types f and d and associates each
// with a target machine instruction.  The package provides three
// consumers: Parse (the reader), GenerateGo (the preprocessor — it emits a
// Go wrapper family, used by cmd/vcodegen), and Apply (runtime
// registration of the family on an assembler, where hardware mappings are
// the rows of the port's declared mapping and portable definitions are
// supplied as synthesis functions).
package spec

import (
	"fmt"
	"strings"

	"repro/internal/core"
)

// Clause associates a list of types with a target machine instruction (and
// optionally an immediate-form instruction).
type Clause struct {
	Types    []core.Type
	MachInsn string
	MachImm  string
}

// Def is one parsed instruction-family definition.
type Def struct {
	Name    string
	Params  []string
	Clauses []Clause
}

// Types returns the union of types the family composes with.
func (d *Def) AllTypes() []core.Type {
	var out []core.Type
	seen := map[core.Type]bool{}
	for _, c := range d.Clauses {
		for _, t := range c.Types {
			if !seen[t] {
				seen[t] = true
				out = append(out, t)
			}
		}
	}
	return out
}

// ---- s-expression reader ----

type sexpr struct {
	atom string   // set when leaf
	list []*sexpr // set when list
}

type parser struct {
	src   string
	pos   int
	depth int
}

// maxListDepth bounds s-expression nesting: the parser is recursive, and
// without a limit "((((…" input overflows the goroutine stack — a fatal
// runtime error that no recover can catch.
const maxListDepth = 200

func (p *parser) skipSpace() {
	for p.pos < len(p.src) {
		c := p.src[p.pos]
		if c == ';' { // comment to end of line
			for p.pos < len(p.src) && p.src[p.pos] != '\n' {
				p.pos++
			}
			continue
		}
		if c == ' ' || c == '\t' || c == '\n' || c == '\r' || c == ',' {
			p.pos++
			continue
		}
		break
	}
}

func (p *parser) parse() (*sexpr, error) {
	p.skipSpace()
	if p.pos >= len(p.src) {
		return nil, nil
	}
	if p.src[p.pos] == '(' {
		p.depth++
		defer func() { p.depth-- }()
		if p.depth > maxListDepth {
			return nil, fmt.Errorf("spec: lists nested deeper than %d", maxListDepth)
		}
		p.pos++
		node := &sexpr{list: []*sexpr{}}
		for {
			p.skipSpace()
			if p.pos >= len(p.src) {
				return nil, fmt.Errorf("spec: unterminated list")
			}
			if p.src[p.pos] == ')' {
				p.pos++
				return node, nil
			}
			child, err := p.parse()
			if err != nil {
				return nil, err
			}
			node.list = append(node.list, child)
		}
	}
	if p.src[p.pos] == ')' {
		return nil, fmt.Errorf("spec: unexpected ')'")
	}
	start := p.pos
	for p.pos < len(p.src) && !strings.ContainsRune(" \t\n\r(),;", rune(p.src[p.pos])) {
		p.pos++
	}
	return &sexpr{atom: p.src[start:p.pos]}, nil
}

// Parse reads a full specification.
func Parse(text string) ([]*Def, error) {
	p := &parser{src: text}
	var defs []*Def
	for {
		node, err := p.parse()
		if err != nil {
			return nil, err
		}
		if node == nil {
			return defs, nil
		}
		d, err := toDef(node)
		if err != nil {
			return nil, err
		}
		defs = append(defs, d)
	}
}

func toDef(node *sexpr) (*Def, error) {
	if node.atom != "" || len(node.list) < 3 {
		return nil, fmt.Errorf("spec: definition needs (name (params) (clause)+)")
	}
	name := node.list[0].atom
	if name == "" {
		return nil, fmt.Errorf("spec: family name must be an atom")
	}
	params := node.list[1]
	if params.atom != "" {
		return nil, fmt.Errorf("spec: %s: parameter list must be a list", name)
	}
	d := &Def{Name: name}
	for _, pn := range params.list {
		if pn.atom == "" {
			return nil, fmt.Errorf("spec: %s: bad parameter", name)
		}
		d.Params = append(d.Params, pn.atom)
	}
	if len(d.Params) == 0 || d.Params[0] != "rd" {
		return nil, fmt.Errorf("spec: %s: first parameter must be rd", name)
	}
	for _, cn := range node.list[2:] {
		if cn.atom != "" || len(cn.list) < 2 {
			return nil, fmt.Errorf("spec: %s: clause needs (type-list mach-insn [imm-insn])", name)
		}
		var c Clause
		i := 0
		for ; i < len(cn.list); i++ {
			t, err := core.ParseType(cn.list[i].atom)
			if err != nil || cn.list[i].atom == "" {
				break
			}
			c.Types = append(c.Types, t)
		}
		if len(c.Types) == 0 {
			return nil, fmt.Errorf("spec: %s: clause has no types", name)
		}
		rest := cn.list[i:]
		if len(rest) < 1 || len(rest) > 2 || rest[0].atom == "" {
			return nil, fmt.Errorf("spec: %s: clause needs one or two machine instructions", name)
		}
		c.MachInsn = rest[0].atom
		if len(rest) == 2 {
			c.MachImm = rest[1].atom
		}
		d.Clauses = append(d.Clauses, c)
	}
	return d, nil
}

// ---- preprocessor output ----

// GenerateGo emits a Go source file defining one wrapper function per
// family/type composition, in the paper's v_<name><type> naming.  The
// wrappers route through the assembler's extension mechanism, so they pick
// up hardware implementations from the port's mapping (core.Mapping.Ext)
// and portable definitions registered with Apply.
func GenerateGo(pkg string, defs []*Def) (string, error) {
	var b strings.Builder
	fmt.Fprintf(&b, "// Code generated by vcodegen -spec; DO NOT EDIT.\n\n")
	fmt.Fprintf(&b, "package %s\n\n", pkg)
	fmt.Fprintf(&b, "import \"repro/internal/core\"\n\n")
	for _, d := range defs {
		srcs := d.Params[1:]
		args := make([]string, len(srcs))
		for i, s := range srcs {
			args[i] = s
		}
		for _, c := range d.Clauses {
			for _, t := range c.Types {
				fn := "V" + capitalize(d.Name) + t.Letter()
				fmt.Fprintf(&b, "// %s emits v_%s%s (machine form %s).\n", fn, d.Name, t.Letter(), c.MachInsn)
				fmt.Fprintf(&b, "func %s(a *core.Asm, rd", fn)
				for _, s := range args {
					fmt.Fprintf(&b, ", %s", s)
				}
				fmt.Fprintf(&b, " core.Reg) {\n")
				fmt.Fprintf(&b, "\ta.Ext(%q, core.Type%s, rd", d.Name, strings.ToUpper(t.Letter()))
				for _, s := range args {
					fmt.Fprintf(&b, ", %s", s)
				}
				fmt.Fprintf(&b, ")\n}\n\n")
			}
		}
	}
	return b.String(), nil
}

func capitalize(s string) string {
	if s == "" {
		return s
	}
	return strings.ToUpper(s[:1]) + s[1:]
}

// ---- runtime registration ----

// Synth is a portable definition for a family, expressed (as the paper
// requires) purely in terms of core VCODE instructions.
type Synth func(a *core.Asm, t core.Type, rd core.Reg, rs []core.Reg)

// Apply registers every family in defs on the assembler.  A family whose
// machine instructions the port's mapping has rows for needs no
// synthesis; families with an entry in synths carry a portable definition
// and therefore work on every target.
func Apply(a *core.Asm, defs []*Def, synths map[string]Synth) {
	for _, d := range defs {
		ext := &core.ExtDef{
			Name:  d.Name,
			NSrc:  len(d.Params) - 1,
			Types: d.AllTypes(),
		}
		if s, ok := synths[d.Name]; ok {
			ext.Synth = s
		}
		a.DefineExt(ext)
	}
}
