// Package vasm implements a textual assembly language for the VCODE
// instruction set, using the paper's instruction naming (v_addii is
// written addii).  It is both a demonstration client — every instruction
// line maps one-to-one onto a VCODE per-instruction call — and a handy
// tool: cmd/vasm assembles a file, installs the functions on a simulated
// target, and runs one of them.
//
// Syntax:
//
//	; comment
//	.func name (%i%i) leaf     ; v_lambda: signature and leaf flag
//	.reg  acc var i            ; v_getreg: named register, class, type
//	.local buf d               ; v_local: named stack slot (use with ld/st)
//	    seti    acc, 0
//	loop:                      ; label binds here
//	    addi    acc, acc, arg0
//	    subii   arg1, arg1, 1
//	    bgtii   arg1, 0, loop
//	    reti    acc
//	.end                       ; v_end
//
// Registers: arg0..argN name the incoming parameters, t0../s0../ft0../fs0..
// are the hard-coded names of §5.3, and .reg-declared names are
// allocator-managed.  call <func> invokes another .func from the same
// file (resolved through a function table, so order and recursion are
// unconstrained); callsym <symbol> invokes a machine symbol.
//
// Data sections declare named tables in simulated memory:
//
//	.data squares
//	.word 0, 1, 4, 9, 16
//
// and generated code takes their address with `setsym rd, squares`.  Data
// names belong to the program: two programs on one machine may both say
// `.data squares`, and neither sees the other's.
package vasm

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"

	"repro/internal/core"
)

// Program is an assembled program, installed.
type Program struct {
	Funcs map[string]*core.Func
	Order []string
	// Unit owns what the program placed on the machine; Unload returns it.
	Unit *core.Unit

	machine *core.Machine
}

// Assemble parses and assembles src for the machine's backend.  All
// functions are installed and cross-function calls resolved.  When it
// fails nothing of the program stays on the machine.
func Assemble(machine *core.Machine, src string) (_ *Program, err error) {
	if len(src) > math.MaxInt32 {
		return nil, fmt.Errorf("vasm: source of %d bytes is too long", len(src))
	}
	p := &parser{
		machine: machine,
		backend: machine.Backend(),
		prog:    &Program{machine: machine, Unit: machine.NewUnit()},
		src:     src,
	}
	defer func() {
		if err != nil {
			p.prog.Unit.Unload()
		}
	}()
	p.tokenise()
	if err := p.scanFuncs(); err != nil {
		return nil, err
	}
	if err := p.layoutData(); err != nil {
		return nil, err
	}
	if p.table, err = p.prog.Unit.Table(len(p.prog.Order)); err != nil {
		return nil, err
	}
	// Every function is built on one borrowed assembler, handed back only
	// when all of them assembled: after an error it may be mid-build.
	p.asm = machine.BorrowAsm()
	if err := p.assemble(); err != nil {
		return nil, err
	}
	machine.ReturnAsm(p.asm)
	for _, name := range p.prog.Order {
		if err := p.prog.Unit.Install(p.prog.Funcs[name]); err != nil {
			return nil, err
		}
	}
	return p.prog, nil
}

// Run calls an assembled function.
func (p *Program) Run(name string, args ...core.Value) (core.Value, error) {
	fn, ok := p.Funcs[name]
	if !ok {
		return core.Value{}, fmt.Errorf("vasm: no function %q", name)
	}
	return p.machine.Call(fn, args...)
}

// tok is one token: src[off:end].
type tok struct{ off, end int32 }

// directive classes a line by its first token, once, for all three phases.
type directive uint8

const (
	dirNone directive = iota // an instruction, a label, or nothing
	dirFunc
	dirEnd
	dirData
	dirWord
	dirReg
	dirLocal
)

// srcLine is one source line: its tokens are toks[previous line's end:end].
type srcLine struct {
	end int32
	dir directive
}

// symbol is what one name means inside the function being assembled.  A
// register, a stack slot and a label may share a name: has says which of
// the three the name currently is.
type symbol struct {
	local int64
	label core.Label
	reg   core.Reg
	has   uint8
}

const (
	symReg uint8 = 1 << iota
	symLocal
	symLabel
)

type parser struct {
	machine *core.Machine
	backend core.Backend
	prog    *Program

	// The source, tokenised once; scanFuncs, layoutData and assemble each
	// walk the lines.
	src   string
	toks  []tok
	lines []srcLine
	table uint64         // the unit's function-pointer table
	slots map[string]int // function name -> slot in the table

	asm  *core.Asm // borrowed for the whole program
	line int

	// per-function state
	a    *core.Asm // asm while between .func and .end, else nil
	name string
	args []core.Reg        // arg0..argN; owned by the assembler
	syms map[string]symbol // .reg, .local and label names; emptied at .func
}

func (p *parser) errf(format string, args ...any) error {
	return fmt.Errorf("vasm: line %d: %s", p.line, fmt.Sprintf(format, args...))
}

func (p *parser) text(t tok) string { return p.src[t.off:t.end] }

// lineToks returns the tokens of line i (0-based) and makes it the line
// errors are reported at.
func (p *parser) lineToks(i int) []tok {
	p.line = i + 1
	first := int32(0)
	if i > 0 {
		first = p.lines[i-1].end
	}
	return p.toks[first:p.lines[i].end]
}

// Byte classes of the tokeniser.
const (
	cTok  uint8 = iota // part of a token
	cSep               // a comma or ASCII white space
	cWide              // 0x80 and up: white space or not, by the rune it starts
	cSemi              // starts a comment
	cNL
)

var byteClass = func() (t [256]uint8) {
	for c := 0x80; c < len(t); c++ {
		t[c] = cWide
	}
	for _, c := range []byte(", \t\v\f\r") {
		t[c] = cSep
	}
	t[';'], t['\n'] = cSemi, cNL
	return t
}()

// tokenise splits src into lines at "\n" and each line, up to its first ';',
// into tokens separated by commas and white space — Unicode's, as
// strings.Fields has it, so a no-break space separates and a stray 0xA0
// byte does not.
func (p *parser) tokenise() {
	src := p.src
	p.lines = make([]srcLine, 0, strings.Count(src, "\n")+1)
	// Assembly runs five to seven bytes a token; append covers denser text.
	p.toks = make([]tok, 0, len(src)/4+8)
	for pos := 0; ; pos++ { // one line a turn; the increment steps over its "\n"
		first := len(p.toks)
		for pos < len(src) {
			c := byteClass[src[pos]]
			if c == cSep {
				pos++
				continue
			}
			if c == cNL {
				break
			}
			if c == cSemi {
				if nl := strings.IndexByte(src[pos:], '\n'); nl >= 0 {
					pos += nl
				} else {
					pos = len(src)
				}
				break
			}
			if c == cWide {
				if r, w := utf8.DecodeRuneInString(src[pos:]); unicode.IsSpace(r) {
					pos += w
					continue
				}
			}
			start := pos
			for pos < len(src) {
				if c := byteClass[src[pos]]; c == cTok {
					pos++
				} else if c != cWide {
					break
				} else if r, w := utf8.DecodeRuneInString(src[pos:]); unicode.IsSpace(r) {
					break
				} else {
					pos += w
				}
			}
			p.toks = append(p.toks, tok{int32(start), int32(pos)})
		}
		ln := srcLine{end: int32(len(p.toks))}
		if len(p.toks) > first && src[p.toks[first].off] == '.' {
			switch p.text(p.toks[first]) {
			case ".func":
				ln.dir = dirFunc
			case ".end":
				ln.dir = dirEnd
			case ".data":
				ln.dir = dirData
			case ".word":
				ln.dir = dirWord
			case ".reg":
				ln.dir = dirReg
			case ".local":
				ln.dir = dirLocal
			}
		}
		p.lines = append(p.lines, ln)
		if pos >= len(src) {
			return
		}
	}
}

// scanFuncs pre-registers every function name so calls resolve in any
// order.
func (p *parser) scanFuncs() error {
	for i, ln := range p.lines {
		if ln.dir != dirFunc {
			continue
		}
		f := p.lineToks(i)
		if len(f) < 2 {
			return p.errf(".func needs a name")
		}
		name := p.text(f[1])
		if _, dup := p.prog.Funcs[name]; dup {
			return p.errf("function %q redefined", name)
		}
		if p.prog.Funcs == nil {
			p.prog.Funcs = make(map[string]*core.Func)
		}
		p.prog.Funcs[name] = nil // until its .end
		p.prog.Order = append(p.prog.Order, name)
	}
	if p.prog.Funcs == nil {
		p.prog.Funcs = map[string]*core.Func{}
	}
	return nil
}

// slot returns the function-pointer table slot of a function: its place in
// Order, looked up through a map the first call instruction builds.
func (p *parser) slot(name string) (int, bool) {
	if p.slots == nil {
		p.slots = make(map[string]int, len(p.prog.Order))
		for i, fn := range p.prog.Order {
			p.slots[fn] = i
		}
	}
	i, ok := p.slots[name]
	return i, ok
}

// layoutData allocates and fills .data sections and registers their
// symbols before any code is assembled.
func (p *parser) layoutData() error {
	for i := 0; i < len(p.lines); i++ {
		if p.lines[i].dir != dirData {
			continue
		}
		f := p.lineToks(i)
		if len(f) != 2 {
			return p.errf(".data needs a name")
		}
		name := p.text(f[1])
		var words []uint32
		j := i + 1
		for ; j < len(p.lines); j++ {
			df := p.lineToks(j)
			if len(df) == 0 {
				continue
			}
			if p.lines[j].dir != dirWord {
				break
			}
			for _, t := range df[1:] {
				v, err := strconv.ParseInt(p.text(t), 0, 64)
				if err != nil {
					return p.errf("bad .word value %q", p.text(t))
				}
				words = append(words, uint32(v))
			}
		}
		if len(words) == 0 {
			return p.errf(".data %s has no .word lines", name)
		}
		addr, err := p.prog.Unit.Alloc(4 * len(words))
		if err != nil {
			return p.errf("%v", err)
		}
		for k, w := range words {
			if err := p.machine.Mem().Store(addr+uint64(4*k), 4, uint64(w)); err != nil {
				return p.errf("%v", err)
			}
		}
		if err := p.prog.Unit.DefineSym(name, addr); err != nil {
			return p.errf("%v", err)
		}
		i = j - 1
	}
	return nil
}

func (p *parser) assemble() error {
	for i, ln := range p.lines {
		f := p.lineToks(i)
		if len(f) == 0 {
			continue
		}
		switch ln.dir {
		case dirFunc:
			if p.a != nil {
				return p.errf("nested .func")
			}
			if err := p.beginFunc(f[1:]); err != nil {
				return err
			}
		case dirEnd:
			if p.a == nil {
				return p.errf(".end outside .func")
			}
			fn, err := p.a.End()
			if err != nil {
				return p.errf("%v", err)
			}
			p.prog.Funcs[p.name] = fn
			p.a = nil
		case dirData, dirWord:
			// Consumed by layoutData; must sit outside functions.
			if p.a != nil {
				return p.errf("%s inside .func", p.text(f[0]))
			}
		case dirReg:
			if err := p.declReg(f[1:]); err != nil {
				return err
			}
		case dirLocal:
			if err := p.declLocal(f[1:]); err != nil {
				return err
			}
		default:
			if p.a == nil {
				return p.errf("instruction outside .func")
			}
			if name := p.text(f[0]); strings.HasSuffix(name, ":") {
				p.a.Bind(p.label(name[:len(name)-1]))
				f = f[1:]
				if len(f) == 0 {
					continue
				}
			}
			if err := p.insn(f); err != nil {
				return err
			}
		}
	}
	if p.a != nil {
		return p.errf("missing .end")
	}
	return nil
}

func (p *parser) beginFunc(f []tok) error {
	if len(f) < 2 {
		return p.errf(".func needs: name (sig) [leaf]")
	}
	p.name = p.text(f[0])
	sig := strings.Trim(p.text(f[1]), "()")
	leaf := len(f) > 2 && p.text(f[2]) == "leaf"
	p.a = p.asm
	p.a.SetName(p.name)
	args, err := p.a.Begin(sig, leaf)
	if err != nil {
		return p.errf("%v", err)
	}
	p.args = args
	if p.syms == nil {
		// Room for a function's worth of names from the start; a map grown
		// to it entry by entry is built twice.
		p.syms = make(map[string]symbol, 16)
	}
	clear(p.syms)
	return nil
}

func (p *parser) declReg(f []tok) error {
	if p.a == nil {
		return p.errf(".reg outside .func")
	}
	if len(f) != 3 {
		return p.errf(".reg needs: name temp|var type")
	}
	class := core.Temp
	switch p.text(f[1]) {
	case "temp":
	case "var":
		class = core.Var
	default:
		return p.errf("class %q (want temp or var)", p.text(f[1]))
	}
	t, err := core.ParseType(p.text(f[2]))
	if err != nil {
		return p.errf("%v", err)
	}
	var r core.Reg
	if t.IsFloat() {
		r, err = p.a.GetFReg(class)
	} else {
		r, err = p.a.GetReg(class)
	}
	if err != nil {
		return p.errf("%v", err)
	}
	name := p.text(f[0])
	sym := p.syms[name]
	sym.reg, sym.has = r, sym.has|symReg
	p.syms[name] = sym
	return nil
}

func (p *parser) declLocal(f []tok) error {
	if p.a == nil {
		return p.errf(".local outside .func")
	}
	if len(f) != 2 {
		return p.errf(".local needs: name type")
	}
	t, err := core.ParseType(p.text(f[1]))
	if err != nil {
		return p.errf("%v", err)
	}
	name := p.text(f[0])
	sym := p.syms[name]
	sym.local, sym.has = p.a.Local(t), sym.has|symLocal
	p.syms[name] = sym
	return nil
}

func (p *parser) label(name string) core.Label {
	sym := p.syms[name]
	if sym.has&symLabel == 0 {
		sym.label, sym.has = p.a.NewLabel(), sym.has|symLabel
		p.syms[name] = sym
	}
	return sym.label
}

// reg resolves a register operand: a .reg name first (it may shadow any of
// the others), then argN, sp, and the hard-coded names tN, sN, ftN, fsN.
func (p *parser) reg(t tok) (core.Reg, error) {
	s := p.text(t)
	if sym := p.syms[s]; sym.has&symReg != 0 {
		return sym.reg, nil
	}
	if n, ok := argIndex(s); ok && n < len(p.args) {
		return p.args[n], nil
	}
	if s == "sp" {
		return p.a.SP(), nil
	}
	if bank, rest := hardBank(s); bank != 0 {
		if n, err := strconv.Atoi(rest); err == nil {
			var r core.Reg
			switch bank {
			case 't':
				r = p.a.T(n)
			case 's':
				r = p.a.S(n)
			case 'T':
				r = p.a.FT(n)
			default:
				r = p.a.FS(n)
			}
			if err := p.a.Err(); err != nil {
				return core.NoReg, p.errf("%q: %v", s, err)
			}
			return r, nil
		}
	}
	return core.NoReg, p.errf("unknown register %q", s)
}

// argIndex decodes "arg<N>", N in plain decimal: no sign, no leading zero.
func argIndex(s string) (n int, ok bool) {
	if len(s) < 4 || len(s) > 12 || s[:3] != "arg" || s[3] == '0' && len(s) > 4 {
		return 0, false
	}
	for _, c := range []byte(s[3:]) {
		if c < '0' || c > '9' {
			return 0, false
		}
		n = n*10 + int(c-'0')
	}
	return n, true
}

// hardBank splits a hard-coded register name into its bank — 't', 's', or
// 'T' and 'S' for the floating-point ft and fs — and the index text that
// follows; bank 0 means s names none.
func hardBank(s string) (bank byte, rest string) {
	switch {
	case strings.HasPrefix(s, "ft"):
		return 'T', s[2:]
	case strings.HasPrefix(s, "fs"):
		return 'S', s[2:]
	case strings.HasPrefix(s, "t"):
		return 't', s[1:]
	case strings.HasPrefix(s, "s"):
		return 's', s[1:]
	}
	return 0, ""
}

func (p *parser) imm(t tok) (int64, error) {
	v, err := strconv.ParseInt(p.text(t), 0, 64)
	if err != nil {
		return 0, p.errf("bad immediate %q", p.text(t))
	}
	return v, nil
}
