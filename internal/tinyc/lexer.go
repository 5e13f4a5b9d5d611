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
	"math"
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

// sym is which keyword or punctuation a token is — and, on an AST node,
// which operator.  The parser, the code generator and the interpreter
// compare and index by it; the spelling is read back only for messages.
type sym uint8

const (
	symNone sym = iota
	kwInt
	kwDouble
	kwReturn
	kwIf
	kwElse
	kwWhile
	kwFor
	kwBreak
	kwContinue
	pLParen
	pRParen
	pLBrace
	pRBrace
	pSemi
	pComma
	pAssign
	pNot
	pOrOr
	pAndAnd
	pEq
	pNe
	pLt
	pLe
	pGt
	pGe
	pAdd
	pSub
	pMul
	pDiv
	pMod
	// pOther is punctuation the grammar has no use for: "<<", ">>" and any
	// byte that starts nothing else.
	pOther
	numSyms
)

// symText spells the symbols the parser can say it expected.
var symText = [numSyms]string{
	pLParen: "(", pRParen: ")", pLBrace: "{", pRBrace: "}", pSemi: ";", pComma: ",", pAssign: "=",
}

// token is one lexeme: src[off:end], on line.  The lexer has checked that a
// tokInt or tokFloat is a number; intLit and floatLit read its value.
type token struct {
	off, end int32
	line     int32
	kind     tokKind
	sym      sym
}

// Character classes.  The lexer reads bytes and classes each as the
// Latin-1 rune of the same value, so 0xE9 is a letter and 0xD7 is not.
const (
	chOther uint8 = iota
	chSpace       // ' ', '\t', '\r'
	chNewline
	chLetter // a letter or '_'
	chDigit
)

var charClass = func() (t [256]uint8) {
	for c := range t {
		switch {
		case unicode.IsLetter(rune(c)) || c == '_':
			t[c] = chLetter
		case unicode.IsDigit(rune(c)):
			t[c] = chDigit
		}
	}
	t[' '], t['\t'], t['\r'], t['\n'] = chSpace, chSpace, chSpace, chNewline
	return t
}()

func keyword(text string) sym {
	switch text {
	case "int":
		return kwInt
	case "double":
		return kwDouble
	case "return":
		return kwReturn
	case "if":
		return kwIf
	case "else":
		return kwElse
	case "while":
		return kwWhile
	case "for":
		return kwFor
	case "break":
		return kwBreak
	case "continue":
		return kwContinue
	}
	return symNone
}

// punct classes the punctuation src[pos:] starts with and returns its
// width: two bytes for the eight two-byte operators, else one.
func punct(src string, pos int) (sym, int) {
	next := byte(0)
	if pos+1 < len(src) {
		next = src[pos+1]
	}
	switch c := src[pos]; c {
	case '(':
		return pLParen, 1
	case ')':
		return pRParen, 1
	case '{':
		return pLBrace, 1
	case '}':
		return pRBrace, 1
	case ';':
		return pSemi, 1
	case ',':
		return pComma, 1
	case '+':
		return pAdd, 1
	case '-':
		return pSub, 1
	case '*':
		return pMul, 1
	case '/':
		return pDiv, 1
	case '%':
		return pMod, 1
	case '=':
		if next == '=' {
			return pEq, 2
		}
		return pAssign, 1
	case '!':
		if next == '=' {
			return pNe, 2
		}
		return pNot, 1
	case '<':
		if next == '=' {
			return pLe, 2
		}
		if next == '<' {
			return pOther, 2
		}
		return pLt, 1
	case '>':
		if next == '=' {
			return pGe, 2
		}
		if next == '>' {
			return pOther, 2
		}
		return pGt, 1
	case '&':
		if next == '&' {
			return pAndAnd, 2
		}
	case '|':
		if next == '|' {
			return pOrOr, 2
		}
	}
	return pOther, 1
}

// lex tokenises all of src — a bad number anywhere is reported before the
// parser sees the first token — ending with a tokEOF.
func lex(src string) ([]token, error) {
	if len(src) > math.MaxInt32 {
		return nil, fmt.Errorf("tinyc: source of %d bytes is too long", len(src))
	}
	// One allocation for ordinary code, which runs two to three source
	// bytes per token; append covers denser text.
	toks := make([]token, 0, len(src)/2+1)
	pos, line := 0, int32(1)
	for {
		// White space and comments.
		for pos < len(src) {
			c := src[pos]
			switch {
			case charClass[c] == chNewline:
				line++
				pos++
			case charClass[c] == chSpace:
				pos++
			case c == '/' && pos+1 < len(src) && src[pos+1] == '/':
				for pos < len(src) && src[pos] != '\n' {
					pos++
				}
			case c == '/' && pos+1 < len(src) && src[pos+1] == '*':
				pos += 2
				for pos+1 < len(src) && !(src[pos] == '*' && src[pos+1] == '/') {
					if src[pos] == '\n' {
						line++
					}
					pos++
				}
				pos += 2
			default:
				goto body
			}
		}
		return append(toks, token{kind: tokEOF, off: int32(len(src)), end: int32(len(src)), line: line}), nil

	body:
		t := token{off: int32(pos), line: line}
		switch charClass[src[pos]] {
		case chLetter:
			for pos < len(src) && charClass[src[pos]] >= chLetter {
				pos++
			}
			t.kind = tokIdent
			if t.sym = keyword(src[t.off:pos]); t.sym != symNone {
				t.kind = tokKeyword
			}
		case chDigit:
			isFloat, decimal := false, true
			for pos < len(src) {
				ch := src[pos]
				if charClass[ch] == chDigit {
					pos++
					continue
				}
				if ch == '.' || ch == 'e' || ch == 'E' {
					isFloat = true
					pos++
					if pos < len(src) && (src[pos] == '+' || src[pos] == '-') && ch != '.' {
						pos++
					}
					continue
				}
				if ch == 'x' || ch == 'X' || (ch >= 'a' && ch <= 'f') || (ch >= 'A' && ch <= 'F') {
					decimal = false
					pos++
					continue
				}
				break
			}
			text := src[t.off:pos]
			t.kind = tokInt
			if isFloat {
				t.kind = tokFloat
				if _, err := strconv.ParseFloat(text, 64); err != nil {
					return nil, fmt.Errorf("line %d: bad number %q", line, text)
				}
			} else if !decimal || !plainDecimal(text) {
				if _, err := strconv.ParseInt(text, 0, 64); err != nil {
					return nil, fmt.Errorf("line %d: bad number %q", line, text)
				}
			}
		default:
			var w int
			t.kind = tokPunct
			t.sym, w = punct(src, pos)
			pos += w
		}
		t.end = int32(pos)
		toks = append(toks, t)
	}
}

// plainDecimal reports whether text, all digits, is a decimal literal that
// fits an int64 whatever its digits: no leading zero (that is octal, or
// nothing) and at most 18 of them.
func plainDecimal(text string) bool {
	return len(text) <= 18 && (text[0] != '0' || len(text) == 1)
}

// intLit is the value of a tokInt's text.
func intLit(text string) int64 {
	if plainDecimal(text) {
		v, i := int64(0), 0
		for ; i < len(text) && charClass[text[i]] == chDigit; i++ {
			v = v*10 + int64(text[i]-'0')
		}
		if i == len(text) {
			return v
		}
	}
	v, _ := strconv.ParseInt(text, 0, 64) // the lexer checked
	return v
}

// floatLit is the value of a tokFloat's text.
func floatLit(text string) float64 {
	f, _ := strconv.ParseFloat(text, 64) // the lexer checked
	return f
}
