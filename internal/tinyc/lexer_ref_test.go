package tinyc

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"
	"unicode"
)

// refLex is the lexer this package had before its tokens became offsets and
// enums, kept word for word as the definition of the accepted language:
// string-carrying tokens, unicode.IsLetter on each byte, string-keyed
// keyword and two-byte-operator sets.

type refToken struct {
	kind tokKind
	text string
	ival int64
	fval float64
	line int
}

var refKeywords = map[string]bool{
	"int": true, "double": true, "return": true, "if": true,
	"else": true, "while": true, "for": true, "break": true, "continue": true,
}

var refPunct2 = map[string]bool{
	"==": true, "!=": true, "<=": true, ">=": true, "&&": true, "||": true,
	"<<": true, ">>": true,
}

type refLexer struct {
	src  string
	pos  int
	line int
}

func refLex(src string) ([]refToken, error) {
	l := &refLexer{src: src, line: 1}
	var toks []refToken
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

func (l *refLexer) next() (refToken, error) {
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
	return refToken{kind: tokEOF, line: l.line}, nil

body:
	c := l.src[l.pos]
	start := l.pos
	switch {
	case unicode.IsLetter(rune(c)) || c == '_':
		for l.pos < len(l.src) && (refIsIdentChar(l.src[l.pos])) {
			l.pos++
		}
		text := l.src[start:l.pos]
		k := tokIdent
		if refKeywords[text] {
			k = tokKeyword
		}
		return refToken{kind: k, text: text, line: l.line}, nil
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
				return refToken{}, fmt.Errorf("line %d: bad number %q", l.line, text)
			}
			return refToken{kind: tokFloat, text: text, fval: f, line: l.line}, nil
		}
		v, err := strconv.ParseInt(text, 0, 64)
		if err != nil {
			return refToken{}, fmt.Errorf("line %d: bad number %q", l.line, text)
		}
		return refToken{kind: tokInt, text: text, ival: v, line: l.line}, nil
	default:
		if l.pos+1 < len(l.src) && refPunct2[l.src[l.pos:l.pos+2]] {
			l.pos += 2
			return refToken{kind: tokPunct, text: l.src[start:l.pos], line: l.line}, nil
		}
		l.pos++
		return refToken{kind: tokPunct, text: l.src[start:l.pos], line: l.line}, nil
	}
}

func refIsIdentChar(c byte) bool {
	return c == '_' || unicode.IsLetter(rune(c)) || unicode.IsDigit(rune(c))
}

// checkLex holds lex to refLex on src: the same error, or the same tokens
// — kind, spelling, line, and the value of every number.
func checkLex(t *testing.T, src string) {
	t.Helper()
	want, wantErr := refLex(src)
	got, err := lex(src)
	if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
		t.Fatalf("%q: lex error %v, want %v", src, err, wantErr)
	}
	if len(got) != len(want) {
		t.Fatalf("%q: %d tokens, want %d", src, len(got), len(want))
	}
	for i, w := range want {
		g := got[i]
		text := src[g.off:g.end]
		if g.kind != w.kind || text != w.text || int(g.line) != w.line {
			t.Fatalf("%q: token %d is kind %d %q line %d, want kind %d %q line %d", src, i, g.kind, text, g.line, w.kind, w.text, w.line)
		}
		switch g.kind {
		case tokInt:
			if v := intLit(text); v != w.ival {
				t.Fatalf("%q: %q reads as %d, want %d", src, text, v, w.ival)
			}
		case tokFloat:
			if f := floatLit(text); math.Float64bits(f) != math.Float64bits(w.fval) {
				t.Fatalf("%q: %q reads as %v, want %v", src, text, f, w.fval)
			}
		case tokKeyword:
			if keyword(text) != g.sym || g.sym == symNone {
				t.Fatalf("%q: keyword %q carries symbol %d", src, text, g.sym)
			}
		case tokPunct:
			if want := symText[g.sym]; g.sym == symNone || want != "" && want != text {
				t.Fatalf("%q: punctuation %q carries symbol %d (%q)", src, text, g.sym, want)
			}
		}
	}
}

// TestLexMatchesReference runs checkLex over the corpus and over seeded
// strings made of the pieces that decide a token: operators and their
// prefixes, number shapes good and bad, comment openers and closers,
// keywords and their near misses, Latin-1 letters and non-letters, white
// space the lexer skips and white space it does not.
func TestLexMatchesReference(t *testing.T) {
	pieces := []string{" ", "\t", "\n", "\r", "\v", "\f", "//", "/*", "*/", "/", "*", "+", "-", "%", "=", "==", "!", "!=",
		"<", "<=", "<<", ">", ">=", ">>", "&", "&&", "|", "||", "(", ")", "{", "}", ";", ",", "@", "#", "\"", ".",
		"int", "double", "return", "if", "else", "while", "for", "break", "continue", "inte", "fo", "x", "_y", "i9",
		"0", "1", "42", "007", "08", "0x1F", "0x", "0b11", "1e3", "1E+2", "2.5e-1", "7.", "1.2.3", "1e", "9223372036854775807",
		"9223372036854775808", "123456789012345678", "1234567890123456789", "1e999", "0e0", "1ee", "1x", "0xe+1",
		"\xe9", "\xc0\xff", "\xd7", "\xf7", "\xa0", "\xb2", "\xaa", "\x00", "\x7f", "\x80"}
	rng := rand.New(rand.NewSource(43))
	for i := 0; i < 20000; i++ {
		var sb strings.Builder
		for n := rng.Intn(12); n > 0; n-- {
			sb.WriteString(pieces[rng.Intn(len(pieces))])
			if rng.Intn(3) == 0 {
				sb.WriteByte(' ')
			}
		}
		checkLex(t, sb.String())
	}
	names, srcs := goldenCorpus()
	for i, src := range srcs {
		t.Run(names[i], func(t *testing.T) { checkLex(t, src) })
	}
	for _, tc := range refusals {
		checkLex(t, tc.src)
	}
}
