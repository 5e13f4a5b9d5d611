package tinyc

import (
	"fmt"
	"hash/maphash"
	"math"
	"math/bits"
)

// Parse parses a tiny-C translation unit.
func Parse(src string) (*Program, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{src: src, toks: toks, prog: &Program{}}
	nIdents := 0
	for i := range toks {
		if toks[i].kind == tokIdent {
			nIdents++
		}
	}
	p.ids = make([]nameID, 1<<bits.Len(uint(2*nIdents)))
	// A name is used four or five times on average.
	p.prog.names = make([]string, 0, nIdents/4+4)
	// A statement or expression node takes a token and a half on average;
	// append covers the source that takes fewer.
	p.prog.nodes = make([]node, 0, len(toks)*3/4+4)
	for p.tok().kind != tokEOF {
		if err := p.funcDecl(); err != nil {
			return nil, err
		}
	}
	prog := p.prog
	prog.funcOf = make([]int32, len(prog.names))
	for i := range prog.funcOf {
		prog.funcOf[i] = -1
	}
	for i := len(prog.funcs) - 1; i >= 0; i-- {
		prog.funcOf[prog.funcs[i].name] = int32(i)
	}
	return prog, nil
}

type parser struct {
	src   string
	toks  []token
	pos   int
	depth int
	prog  *Program
	ids   []nameID // spelling -> identifier; see intern
}

// maxParseDepth bounds statement and expression nesting.  The parser is
// recursive-descent, so without a limit pathological input ("((((…" or
// "{{{{…") grows the goroutine stack until the runtime kills the whole
// process — a fatal error no recover can catch.
const maxParseDepth = 500

// enter counts one more level of stmt, binExpr or unary.  Each of them
// counts itself out again where it returns a node; one that returns an
// error does not bother, since the first error ends the parse.
func (p *parser) enter() error {
	p.depth++
	if p.depth > maxParseDepth {
		return fmt.Errorf("line %d: nesting deeper than %d", p.tok().line, maxParseDepth)
	}
	return nil
}

func (p *parser) tok() *token { return &p.toks[p.pos] }

func (p *parser) text(t *token) string { return p.src[t.off:t.end] }

// at reports whether the current token is the keyword or punctuation s.
func (p *parser) at(s sym) bool { return p.toks[p.pos].sym == s }

func (p *parser) accept(s sym) bool {
	if p.at(s) {
		p.pos++
		return true
	}
	return false
}

func (p *parser) expect(s sym) error {
	if t := p.tok(); t.sym != s {
		return fmt.Errorf("line %d: expected %q, got %q", t.line, symText[s], p.text(t))
	}
	p.pos++
	return nil
}

// ident consumes an identifier.
func (p *parser) ident() (nameID, error) {
	t := p.tok()
	if t.kind != tokIdent {
		return 0, fmt.Errorf("line %d: expected %q, got %q", t.line, "", p.text(t))
	}
	p.pos++
	return p.intern(t), nil
}

// intern returns the identifier t spells, a new one the first time the
// spelling is seen.  ids is an open-addressed table of identifiers plus one
// (so that zero is an empty slot), sized by Parse to stay under half full;
// the hash is seeded per process, so no source can be written to collide.
func (p *parser) intern(t *token) nameID {
	text := p.text(t)
	mask := uint64(len(p.ids) - 1)
	for h := maphash.String(internSeed, text) & mask; ; h = (h + 1) & mask {
		id := p.ids[h] - 1
		if id < 0 {
			id = nameID(len(p.prog.names))
			p.prog.names = append(p.prog.names, text)
			p.ids[h] = id + 1
			return id
		}
		if p.prog.names[id] == text {
			return id
		}
	}
}

var internSeed = maphash.MakeSeed()

func (p *parser) node(n node) nodeID {
	p.prog.nodes = append(p.prog.nodes, n)
	return nodeID(len(p.prog.nodes) - 1)
}

func (p *parser) hasCall(id nodeID) bool { return id != noNode && p.prog.nodes[id].hasCall }

func (p *parser) typeName() (CType, bool) {
	switch {
	case p.accept(kwInt):
		return CInt, true
	case p.accept(kwDouble):
		return CDouble, true
	}
	return CInt, false
}

func (p *parser) funcDecl() error {
	line := p.tok().line
	ret, ok := p.typeName()
	if !ok {
		return fmt.Errorf("line %d: expected return type", line)
	}
	name, err := p.ident()
	if err != nil {
		return err
	}
	if err := p.expect(pLParen); err != nil {
		return err
	}
	fd := funcDecl{name: name, ret: ret, line: line, firstParam: int32(len(p.prog.params))}
	if !p.accept(pRParen) {
		for {
			pt, ok := p.typeName()
			if !ok {
				return fmt.Errorf("line %d: expected parameter type", p.tok().line)
			}
			pn, err := p.ident()
			if err != nil {
				return err
			}
			p.prog.params = append(p.prog.params, param{name: pn, typ: pt})
			fd.nParams++
			if p.accept(pRParen) {
				break
			}
			if err := p.expect(pComma); err != nil {
				return err
			}
		}
	}
	if fd.body, err = p.block(); err != nil {
		return err
	}
	p.prog.funcs = append(p.prog.funcs, fd)
	return nil
}

func (p *parser) block() (nodeID, error) {
	if err := p.expect(pLBrace); err != nil {
		return noNode, err
	}
	blk := p.node(node{kind: nBlock, b: int32(noNode), next: noNode})
	last, hasCall := noNode, false
	for !p.accept(pRBrace) {
		if p.tok().kind == tokEOF {
			return noNode, fmt.Errorf("unexpected end of input in block")
		}
		s, err := p.stmt()
		if err != nil {
			return noNode, err
		}
		p.link(blk, &last, s)
		hasCall = hasCall || p.prog.nodes[s].hasCall
	}
	p.prog.nodes[blk].hasCall = hasCall
	return blk, nil
}

// link appends item to the list that hangs off owner's b operand; last is
// the list's tail so far.
func (p *parser) link(owner nodeID, last *nodeID, item nodeID) {
	if *last == noNode {
		p.prog.nodes[owner].b = int32(item)
	} else {
		p.prog.nodes[*last].next = item
	}
	*last = item
}

func (p *parser) stmt() (nodeID, error) {
	if err := p.enter(); err != nil {
		return noNode, err
	}
	s, err := p.stmt1()
	p.depth--
	return s, err
}

func (p *parser) stmt1() (nodeID, error) {
	line := p.tok().line
	switch p.tok().sym {
	case pLBrace:
		return p.block()
	case kwReturn:
		p.pos++
		e, err := p.expr()
		if err != nil {
			return noNode, err
		}
		if err := p.expect(pSemi); err != nil {
			return noNode, err
		}
		return p.node(node{kind: nReturn, a: int32(e), line: line, next: noNode, hasCall: p.hasCall(e)}), nil
	case kwBreak, kwContinue:
		kind := nBreak
		if p.tok().sym == kwContinue {
			kind = nContinue
		}
		p.pos++
		if err := p.expect(pSemi); err != nil {
			return noNode, err
		}
		return p.node(node{kind: kind, line: line, next: noNode}), nil
	case kwIf:
		p.pos++
		if err := p.expect(pLParen); err != nil {
			return noNode, err
		}
		cond, err := p.expr()
		if err != nil {
			return noNode, err
		}
		if err := p.expect(pRParen); err != nil {
			return noNode, err
		}
		then, err := p.stmt()
		if err != nil {
			return noNode, err
		}
		els := noNode
		if p.accept(kwElse) {
			if els, err = p.stmt(); err != nil {
				return noNode, err
			}
		}
		return p.node(node{kind: nIf, a: int32(cond), b: int32(then), c: int32(els), next: noNode,
			hasCall: p.hasCall(cond) || p.hasCall(then) || p.hasCall(els)}), nil
	case kwFor:
		// for (init; cond; post) body  ==  { init; while (cond) { body; post } }
		p.pos++
		if err := p.expect(pLParen); err != nil {
			return noNode, err
		}
		blk := p.node(node{kind: nBlock, b: int32(noNode), next: noNode})
		last := noNode
		if !p.accept(pSemi) {
			init, err := p.simpleStmt()
			if err != nil {
				return noNode, err
			}
			p.link(blk, &last, init)
			if err := p.expect(pSemi); err != nil {
				return noNode, err
			}
		}
		var cond nodeID
		if p.at(pSemi) {
			cond = p.node(node{kind: nIntLit, a: 1, next: noNode})
		} else {
			var err error
			if cond, err = p.expr(); err != nil {
				return noNode, err
			}
		}
		if err := p.expect(pSemi); err != nil {
			return noNode, err
		}
		post := noNode
		if !p.at(pRParen) {
			var err error
			if post, err = p.simpleStmt(); err != nil {
				return noNode, err
			}
		}
		if err := p.expect(pRParen); err != nil {
			return noNode, err
		}
		body, err := p.stmt()
		if err != nil {
			return noNode, err
		}
		loop := p.node(node{kind: nWhile, a: int32(cond), b: int32(body), c: int32(post), next: noNode,
			hasCall: p.hasCall(cond) || p.hasCall(body) || p.hasCall(post)})
		p.link(blk, &last, loop)
		p.prog.nodes[blk].hasCall = p.hasCall(nodeID(p.prog.nodes[blk].b)) || p.hasCall(loop)
		return blk, nil
	case kwWhile:
		p.pos++
		if err := p.expect(pLParen); err != nil {
			return noNode, err
		}
		cond, err := p.expr()
		if err != nil {
			return noNode, err
		}
		if err := p.expect(pRParen); err != nil {
			return noNode, err
		}
		body, err := p.stmt()
		if err != nil {
			return noNode, err
		}
		return p.node(node{kind: nWhile, a: int32(cond), b: int32(body), c: int32(noNode), next: noNode,
			hasCall: p.hasCall(cond) || p.hasCall(body)}), nil
	}
	s, err := p.simpleStmt()
	if err != nil {
		return noNode, err
	}
	if err := p.expect(pSemi); err != nil {
		return noNode, err
	}
	return s, nil
}

// simpleStmt parses a declaration, assignment or expression statement
// without its trailing semicolon (a statement's own, or a for clause's).
func (p *parser) simpleStmt() (nodeID, error) {
	line := p.tok().line
	switch {
	case p.at(kwInt) || p.at(kwDouble):
		t, _ := p.typeName()
		name, err := p.ident()
		if err != nil {
			return noNode, err
		}
		init := noNode
		if p.accept(pAssign) {
			if init, err = p.expr(); err != nil {
				return noNode, err
			}
		}
		return p.node(node{kind: nDecl, typ: t, a: name, b: int32(init), line: line, next: noNode, hasCall: p.hasCall(init)}), nil
	case p.tok().kind == tokIdent && p.toks[p.pos+1].sym == pAssign:
		name := p.intern(p.tok())
		p.pos += 2
		v, err := p.expr()
		if err != nil {
			return noNode, err
		}
		return p.node(node{kind: nAssign, a: name, b: int32(v), line: line, next: noNode, hasCall: p.hasCall(v)}), nil
	}
	e, err := p.expr()
	if err != nil {
		return noNode, err
	}
	return p.node(node{kind: nExprStmt, a: int32(e), next: noNode, hasCall: p.hasCall(e)}), nil
}

// binPrec is the precedence of each binary operator (C's, for the subset),
// 0 for every other symbol.
var binPrec = [numSyms]uint8{
	pOrOr:   1,
	pAndAnd: 2,
	pEq:     3, pNe: 3,
	pLt: 4, pLe: 4, pGt: 4, pGe: 4,
	pAdd: 5, pSub: 5,
	pMul: 6, pDiv: 6, pMod: 6,
}

func (p *parser) expr() (nodeID, error) { return p.binExpr(1) }

func (p *parser) binExpr(minPrec int) (nodeID, error) {
	if err := p.enter(); err != nil {
		return noNode, err
	}
	lhs, err := p.unary()
	if err != nil {
		return noNode, err
	}
	for {
		t := p.tok()
		prec := int(binPrec[t.sym])
		if prec == 0 || prec < minPrec {
			p.depth--
			return lhs, nil
		}
		p.pos++
		rhs, err := p.binExpr(prec + 1)
		if err != nil {
			return noNode, err
		}
		lhs = p.node(node{kind: nBin, op: t.sym, a: int32(lhs), b: int32(rhs), line: t.line, next: noNode,
			hasCall: p.hasCall(lhs) || p.hasCall(rhs)})
	}
}

func (p *parser) unary() (nodeID, error) {
	if err := p.enter(); err != nil {
		return noNode, err
	}
	var x nodeID
	var err error
	if op := p.tok().sym; op == pSub || op == pNot {
		p.pos++
		if x, err = p.unary(); err != nil {
			return noNode, err
		}
		x = p.node(node{kind: nUn, op: op, a: int32(x), next: noNode, hasCall: p.hasCall(x)})
	} else if x, err = p.primary(); err != nil {
		return noNode, err
	}
	p.depth--
	return x, nil
}

func (p *parser) primary() (nodeID, error) {
	t := p.tok()
	switch {
	case t.kind == tokInt || t.kind == tokFloat:
		p.pos++
		kind, v := nIntLit, uint64(0)
		if t.kind == tokInt {
			v = uint64(intLit(p.text(t)))
		} else {
			kind, v = nFloatLit, math.Float64bits(floatLit(p.text(t)))
		}
		return p.node(node{kind: kind, a: int32(v), b: int32(v >> 32), next: noNode}), nil
	case t.sym == pLParen:
		// Either a cast "(int) expr" or a parenthesized expression.
		if s := p.toks[p.pos+1].sym; s == kwInt || s == kwDouble {
			p.pos++
			ct, _ := p.typeName()
			if err := p.expect(pRParen); err != nil {
				return noNode, err
			}
			x, err := p.unary()
			if err != nil {
				return noNode, err
			}
			return p.node(node{kind: nCast, typ: ct, a: int32(x), next: noNode, hasCall: p.hasCall(x)}), nil
		}
		p.pos++
		e, err := p.expr()
		if err != nil {
			return noNode, err
		}
		if err := p.expect(pRParen); err != nil {
			return noNode, err
		}
		return e, nil
	case t.kind == tokIdent:
		p.pos++
		name := p.intern(t)
		if !p.accept(pLParen) {
			return p.node(node{kind: nVarRef, a: name, line: t.line, next: noNode}), nil
		}
		call := p.node(node{kind: nCall, a: name, b: int32(noNode), line: t.line, next: noNode, hasCall: true})
		if !p.accept(pRParen) {
			last := noNode
			for {
				arg, err := p.expr()
				if err != nil {
					return noNode, err
				}
				p.link(call, &last, arg)
				if p.accept(pRParen) {
					break
				}
				if err := p.expect(pComma); err != nil {
					return noNode, err
				}
			}
		}
		return call, nil
	}
	return noNode, fmt.Errorf("line %d: unexpected token %q", t.line, p.text(t))
}
