// Package tinyc is the reproduction's analog of tcc (§4.1): a small
// C-like language whose compiler uses VCODE as its abstract target
// machine.  Like tcc, it relies on VCODE for calling conventions and
// instruction selection, and the same compiler back end works unchanged
// on every architecture VCODE has been ported to — compiling to VCODE is
// easier than compiling to any one of them.
//
// The language: functions over `int` and `double`, locals, assignment,
// `if`/`else`, `while`, `return`, calls (including recursion), the usual
// arithmetic/comparison/logical operators and explicit casts.
package tinyc

import (
	"fmt"
	"strconv"
	"unicode"
)

type tokKind uint8

const (
	tokEOF tokKind = iota
	tokIdent
	tokInt
	tokFloat
	tokPunct
	tokKeyword
)

type token struct {
	kind tokKind
	text string
	ival int64
	fval float64
	line int
}

var keywords = map[string]bool{
	"int": true, "double": true, "return": true, "if": true,
	"else": true, "while": true, "for": true, "break": true, "continue": true,
}

var punct2 = map[string]bool{
	"==": true, "!=": true, "<=": true, ">=": true, "&&": true, "||": true,
	"<<": true, ">>": true,
}

type lexer struct {
	src  string
	pos  int
	line int
}

func lex(src string) ([]token, error) {
	l := &lexer{src: src, line: 1}
	// One allocation for ordinary code, which runs two to three source
	// bytes per token; growing by doubling from nothing copied the slice
	// seven times for a dozen statements.
	toks := make([]token, 0, len(src)/2+1)
	for {
		t, err := l.next()
		if err != nil {
			return nil, err
		}
		toks = append(toks, t)
		if t.kind == tokEOF {
			return toks, nil
		}
	}
}

func (l *lexer) next() (token, error) {
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case c == '\n':
			l.line++
			l.pos++
		case c == ' ' || c == '\t' || c == '\r':
			l.pos++
		case c == '/' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '/':
			for l.pos < len(l.src) && l.src[l.pos] != '\n' {
				l.pos++
			}
		case c == '/' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '*':
			l.pos += 2
			for l.pos+1 < len(l.src) && !(l.src[l.pos] == '*' && l.src[l.pos+1] == '/') {
				if l.src[l.pos] == '\n' {
					l.line++
				}
				l.pos++
			}
			l.pos += 2
		default:
			goto body
		}
	}
	return token{kind: tokEOF, line: l.line}, nil

body:
	c := l.src[l.pos]
	start := l.pos
	switch {
	case unicode.IsLetter(rune(c)) || c == '_':
		for l.pos < len(l.src) && (isIdentChar(l.src[l.pos])) {
			l.pos++
		}
		text := l.src[start:l.pos]
		k := tokIdent
		if keywords[text] {
			k = tokKeyword
		}
		return token{kind: k, text: text, line: l.line}, nil
	case unicode.IsDigit(rune(c)):
		isFloat := false
		for l.pos < len(l.src) {
			ch := l.src[l.pos]
			if ch == '.' || ch == 'e' || ch == 'E' {
				isFloat = true
				l.pos++
				if l.pos < len(l.src) && (l.src[l.pos] == '+' || l.src[l.pos] == '-') && (ch == 'e' || ch == 'E') {
					l.pos++
				}
				continue
			}
			if unicode.IsDigit(rune(ch)) || ch == 'x' || ch == 'X' ||
				(ch >= 'a' && ch <= 'f') || (ch >= 'A' && ch <= 'F') {
				l.pos++
				continue
			}
			break
		}
		text := l.src[start:l.pos]
		if isFloat {
			f, err := strconv.ParseFloat(text, 64)
			if err != nil {
				return token{}, fmt.Errorf("line %d: bad number %q", l.line, text)
			}
			return token{kind: tokFloat, text: text, fval: f, line: l.line}, nil
		}
		v, err := strconv.ParseInt(text, 0, 64)
		if err != nil {
			return token{}, fmt.Errorf("line %d: bad number %q", l.line, text)
		}
		return token{kind: tokInt, text: text, ival: v, line: l.line}, nil
	default:
		if l.pos+1 < len(l.src) && punct2[l.src[l.pos:l.pos+2]] {
			l.pos += 2
			return token{kind: tokPunct, text: l.src[start:l.pos], line: l.line}, nil
		}
		l.pos++
		return token{kind: tokPunct, text: l.src[start:l.pos], line: l.line}, nil
	}
}

func isIdentChar(c byte) bool {
	return c == '_' || unicode.IsLetter(rune(c)) || unicode.IsDigit(rune(c))
}
