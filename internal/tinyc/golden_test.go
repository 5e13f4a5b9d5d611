package tinyc

import (
	"flag"
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/mips"
	"repro/internal/regtest"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from this build's behaviour")

// tgen prints one seeded program: one to three functions over ints and
// doubles — declarations (enough of them, in some programs, to spill),
// assignments, if/else, bounded while and for loops with break and
// continue, shadowing blocks, calls between the functions, casts, mixed
// arithmetic, comparisons used as values and as conditions, short-circuit
// operators and unary minus and not.
type tgen struct {
	rng     *rand.Rand
	sb      strings.Builder
	ints    []string
	dbls    []string
	helpers int // h0..h<helpers-1> are defined: int hK(int a, double x)
	names   int
	loops   int
}

func (g *tgen) pick(ss ...string) string { return ss[g.rng.Intn(len(ss))] }

func (g *tgen) fresh(prefix string) string {
	g.names++
	return fmt.Sprintf("%s%d", prefix, g.names)
}

func (g *tgen) intExpr(d int) string {
	if d <= 0 || g.rng.Intn(3) == 0 {
		if g.rng.Intn(3) == 0 {
			return g.pick("0", "1", "7", "100", "65536", "0x7fffffff", "12345")
		}
		return g.ints[g.rng.Intn(len(g.ints))]
	}
	switch g.rng.Intn(10) {
	case 0, 1, 2:
		return "(" + g.intExpr(d-1) + " " + g.pick("+", "-", "*") + " " + g.intExpr(d-1) + ")"
	case 3:
		return "(" + g.intExpr(d-1) + " " + g.pick("/", "%") + " (" + g.intExpr(d-1) + " + 101))"
	case 4:
		return "(" + g.intExpr(d-1) + " " + g.pick("<", "<=", ">", ">=", "==", "!=") + " " + g.intExpr(d-1) + ")"
	case 5:
		return "(" + g.intExpr(d-1) + " " + g.pick("&&", "||") + " " + g.anyExpr(d-1) + ")"
	case 6:
		if g.rng.Intn(2) == 0 {
			return "-" + g.intExpr(d-1)
		}
		return "!" + g.anyExpr(d-1)
	case 7:
		return "(int)" + g.dblExpr(d-1)
	case 8:
		if g.helpers > 0 {
			return fmt.Sprintf("h%d(%s, %s)", g.rng.Intn(g.helpers), g.intExpr(d-1), g.anyExpr(d-1))
		}
		return g.intExpr(d - 1)
	default:
		return "(" + g.dblExpr(d-1) + " " + g.pick("<", ">=", "==") + " " + g.dblExpr(d-1) + ")"
	}
}

func (g *tgen) dblExpr(d int) string {
	if d <= 0 || g.rng.Intn(3) == 0 {
		if g.rng.Intn(3) == 0 || len(g.dbls) == 0 {
			return g.pick("0.0", "1.5", "2.0", "1e3", "0.125", "3.")
		}
		return g.dbls[g.rng.Intn(len(g.dbls))]
	}
	switch g.rng.Intn(5) {
	case 0, 1:
		return "(" + g.dblExpr(d-1) + " " + g.pick("+", "-", "*", "/") + " " + g.anyExpr(d-1) + ")"
	case 2:
		return "-" + g.dblExpr(d-1)
	case 3:
		return "(double)" + g.intExpr(d-1)
	default:
		return "(" + g.intExpr(d-1) + " " + g.pick("+", "*") + " " + g.dblExpr(d-1) + ")"
	}
}

func (g *tgen) anyExpr(d int) string {
	if g.rng.Intn(3) == 0 {
		return g.dblExpr(d)
	}
	return g.intExpr(d)
}

func (g *tgen) stmts(indent string, n, depth int) {
	ints, dbls := len(g.ints), len(g.dbls)
	for ; n > 0; n-- {
		g.stmt(indent, depth)
	}
	g.ints, g.dbls = g.ints[:ints], g.dbls[:dbls]
}

func (g *tgen) stmt(indent string, depth int) {
	w := func(format string, args ...any) { fmt.Fprintf(&g.sb, indent+format+"\n", args...) }
	k := g.rng.Intn(12)
	if depth <= 0 && k >= 5 {
		k = g.rng.Intn(5)
	}
	switch k {
	case 0:
		v := g.fresh("v")
		w("int %s = %s;", v, g.anyExpr(2))
		g.ints = append(g.ints, v)
	case 1:
		v := g.fresh("d")
		if g.rng.Intn(4) == 0 {
			w("double %s;", v)
		} else {
			w("double %s = %s;", v, g.anyExpr(2))
		}
		g.dbls = append(g.dbls, v)
	case 2, 3:
		w("%s = %s;", g.ints[g.rng.Intn(len(g.ints))], g.anyExpr(2))
	case 4:
		if len(g.dbls) > 0 {
			w("%s = %s;", g.dbls[g.rng.Intn(len(g.dbls))], g.anyExpr(2))
		} else if g.helpers > 0 {
			w("h%d(%s, %s);", g.rng.Intn(g.helpers), g.intExpr(1), g.dblExpr(1))
		}
	case 5, 6:
		w("if (%s) {", g.anyExpr(2))
		g.stmts(indent+"\t", 1+g.rng.Intn(2), depth-1)
		if g.rng.Intn(2) == 0 {
			w("} else {")
			g.stmts(indent+"\t", 1+g.rng.Intn(2), depth-1)
		}
		w("}")
	case 7:
		w("if (%s) %s = %s; else %s = %s;", g.intExpr(1),
			g.ints[g.rng.Intn(len(g.ints))], g.intExpr(1), g.ints[g.rng.Intn(len(g.ints))], g.intExpr(1))
	case 8:
		c := g.fresh("n")
		w("int %s = %d;", c, 1+g.rng.Intn(6))
		w("while (%s > 0) {", c)
		g.loops++
		g.stmts(indent+"\t", 1+g.rng.Intn(3), depth-1)
		g.loops--
		w("\t%s = %s - 1;", c, c)
		w("}")
	case 9:
		i := g.fresh("i")
		w("for (int %s = 0; %s < %d; %s = %s + 1) {", i, i, 2+g.rng.Intn(6), i, i)
		g.ints = append(g.ints, i)
		g.loops++
		if g.rng.Intn(2) == 0 {
			w("\tif (%s %% 3 == 1) continue;", i)
		}
		g.stmts(indent+"\t", 1+g.rng.Intn(3), depth-1)
		if g.rng.Intn(2) == 0 {
			w("\tif (%s) break;", g.intExpr(1))
		}
		g.loops--
		g.ints = g.ints[:len(g.ints)-1]
		w("}")
	case 10:
		// A block that shadows an outer name.
		outer := g.ints[g.rng.Intn(len(g.ints))]
		w("{")
		w("\tint %s = %s;", outer, g.intExpr(1))
		g.stmts(indent+"\t", 1+g.rng.Intn(2), depth-1)
		w("}")
	default:
		if g.loops > 0 && g.rng.Intn(2) == 0 {
			w("if (%s) %s;", g.intExpr(1), g.pick("break", "continue"))
		} else {
			w("if (%s) return %s;", g.intExpr(1), g.anyExpr(2))
		}
	}
}

func genTinyc(rng *rand.Rand, id int) string {
	g := &tgen{rng: rng}
	for h := 0; h < id%3; h++ {
		fmt.Fprintf(&g.sb, "int h%d(int a, double x) {\n", h)
		g.ints, g.dbls = []string{"a"}, []string{"x"}
		g.stmts("\t", 2+rng.Intn(3), 1)
		fmt.Fprintf(&g.sb, "\treturn %s;\n}\n\n", g.anyExpr(2))
		g.helpers++
	}
	ret := g.pick("int", "int", "double")
	fmt.Fprintf(&g.sb, "%s main(int n, int m) {\n", ret)
	g.ints, g.dbls = []string{"n", "m"}, nil
	if id%8 == 5 {
		// More live variables than any target has registers for.
		for i := 0; i < 14; i++ {
			v := g.fresh("s")
			fmt.Fprintf(&g.sb, "\tint %s = n + %d;", v, i)
			g.ints = append(g.ints, v)
		}
		g.sb.WriteString("\n")
	}
	g.stmts("\t", 5+rng.Intn(6), 2)
	fmt.Fprintf(&g.sb, "\treturn %s; // %d\n}\n", g.anyExpr(2), id)
	return g.sb.String()
}

// goldenCorpus is every program the word-hash golden covers: the programs
// of tinyc_test.go and the fuzz seeds that compile, then generated ones.
func goldenCorpus() (names, srcs []string) {
	add := func(name, src string) { names, srcs = append(names, name), append(srcs, src) }
	add("programs", programs)
	add("inc", "int f(int n) { return n + 1; }")
	add("sum", "int f(int n) { int s = 0; while (n > 0) { s = s + n; n = n - 1; } return s; }")
	add("dbl", "double f(double x) { return x * 2.0; }")
	add("rec", "int f(int n) { if (n % 2 == 0) return 0; return f(n - 1); }")
	add("fwd", "int f() { return g(); } int g() { return 7; }")
	add("comments", "/* a */ int f(int n) { // b\n return n /* c\n */ * 2; } // d")
	rng := rand.New(rand.NewSource(23))
	// 74, of which 65 compile on every target; the others' expressions
	// need more registers than a target has and are held to that refusal.
	for i := 0; i < 74; i++ {
		add(fmt.Sprintf("gen%02d", i), genTinyc(rng, i))
	}
	return names, srcs
}

// funcNames returns the compiled functions' names, sorted.
func funcNames(c *Compiler) []string {
	var names []string
	for name := range c.Funcs() {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// TestGoldenWords holds every function the corpus compiles to, on every
// backend, to the words the compiler produced before its front end was
// rebuilt (testdata/words.golden, captured at afe4d60).  The parent
// installed a program's functions in map order, so for a program of several
// functions the golden is the hash with the relocation sites zeroed; a
// single-function program is held to its full words and its address.
func TestGoldenWords(t *testing.T) {
	names, srcs := goldenCorpus()
	var got []string
	for _, tg := range targets() {
		for i, src := range srcs {
			prog, err := Parse(src)
			if err != nil {
				t.Fatalf("%s: %v\n%s", names[i], err, src)
			}
			m := tg.mk()
			c := NewCompiler(m)
			if err := c.Compile(prog); err != nil {
				// A generated expression can need more registers than the
				// target has; the refusal is then what is held.
				got = append(got, fmt.Sprintf("%s/%s\t%q", tg.name, names[i], err))
				continue
			}
			fnames := funcNames(c)
			for _, fname := range fnames {
				fn := c.Funcs()[fname]
				if err := regtest.CheckRows(m.Backend(), fn); err != nil {
					t.Error(err)
				}
				if err := regtest.CheckBody(m, fn); err != nil {
					t.Error(err)
				}
				full := "-"
				if len(fnames) == 1 {
					full = fmt.Sprintf("%s @%#x", regtest.WordsHash(fn, false), fn.Addr())
				}
				got = append(got, fmt.Sprintf("%s/%s/%s\t%s %s", tg.name, names[i], fname, regtest.WordsHash(fn, true), full))
			}
		}
	}
	regtest.Golden(t, "testdata/words.golden", got, *update)
}

func nest(open string, n int, inner, close string) string {
	return strings.Repeat(open, n) + inner + strings.Repeat(close, n)
}

// refusals is malformed (and a little well-formed but oddly spelled) input:
// at least one case per error site of the lexer, parser and code
// generator, nesting at the depth limit and one past it, and identifiers
// made of bytes 0x80-0xFF (the lexer classes each byte as a Latin-1 rune).
var refusals = []struct{ name, src string }{
	{"empty", ""},
	{"comment-only", "// nothing\n/* at all */"},
	// lexer
	{"bad-int", "int f() { return 12ab; }"},
	{"bad-int-line", "int f() {\n\n return 0x; }"},
	{"bad-float", "int f() { return 1.2.3; }"},
	{"bad-exp", "int f() { return 1e; }"},
	{"bad-number-after-parse-error", "int f( { return 1; }\n int g() { return 9z; }"},
	{"int-overflow", "int f() { return 9223372036854775808; }"},
	{"float-overflow", "double f() { return 1e999; }"},
	{"hex-float-digits", "double f() { return 0x1p-2; }"},
	{"number-forms", "int f() { return 0x10 + 010 + 0b11 + 0o7 + 1_000; }"},
	{"float-forms", "double f() { return 1e3 + 1E+2 + 2.5e-1 + 7. + 1.e1; }"},
	{"number-glued-to-ident", "int f(int x) { return 1x; }"},
	{"exp-sign-only-after-e", "int f(int x) { return 1.+x; }"},
	{"unterminated-comment", "int f() { return 1; } /* never closed"},
	{"unterminated-comment-star", "int f() { return 1; } /*"},
	{"slash-at-eof", "int f() { return 1; } /"},
	// parser
	{"no-return-type", "f() { return 1; }"},
	{"bad-return-type", "float f() { return 1; }"},
	{"no-name", "int () { return 1; }"},
	{"keyword-name", "int while() { return 1; }"},
	{"no-paren", "int f { return 1; }"},
	{"no-param-type", "int f(x) { return 1; }"},
	{"no-param-name", "int f(int) { return 1; }"},
	{"param-comma-missing", "int f(int a int b) { return 1; }"},
	{"param-trailing-comma", "int f(int a,) { return 1; }"},
	{"param-eof", "int f("},
	{"param-eof-after-type", "int f(int"},
	{"no-body", "int f()"},
	{"body-not-block", "int f() return 1;"},
	{"block-eof", "int f() { return 1;"},
	{"block-eof-nested", "int f() { { { "},
	{"return-no-value", "int f() { return ; }"},
	{"return-no-semi", "int f() { return 1 }"},
	{"break-no-semi", "int f() { while (1) { break } return 0; }"},
	{"continue-no-semi", "int f() { while (1) { continue 1; } return 0; }"},
	{"if-no-paren", "int f() { if 1 return 0; return 1; }"},
	{"if-no-close", "int f() { if (1 return 0; return 1; }"},
	{"if-bad-cond", "int f() { if () return 0; return 1; }"},
	{"else-eof", "int f() { if (1) return 0; else"},
	{"while-no-paren", "int f() { while 1 { } return 1; }"},
	{"while-no-close", "int f() { while (1 { } return 1; }"},
	{"for-no-paren", "int f() { for int i = 0; ; ) { } return 1; }"},
	{"for-init-no-semi", "int f() { for (int i = 0 i < 3; ) { } return 1; }"},
	{"for-cond-no-semi", "int f() { for (;1) { } return 1; }"},
	{"for-no-close", "int f() { for (;; { } return 1; }"},
	{"for-empty", "int f() { for (;;) { return 7; } return 1; }"},
	{"for-init-assign", "int f(int n) { int i; for (i = 0; i < n; i = i + 1) n = n - 1; return i; }"},
	{"for-init-expr", "int f(int n) { for (f(0); n; n = n - 1) { } return n; }"},
	{"for-post-decl", "int f(int n) { for (; n; int k = 1) n = n - 1; return n; }"},
	{"for-init-bad-decl", "int f() { for (int = 0;;) { } return 1; }"},
	{"for-init-bad-init", "int f() { for (int i = ;;) { } return 1; }"},
	{"for-init-bad-assign", "int f() { int i; for (i = ;;) { } return 1; }"},
	{"for-bad-post", "int f() { int i; for (;; i = ) { } return 1; }"},
	{"for-bad-post-expr", "int f() { for (;; +) { } return 1; }"},
	{"decl-no-name", "int f() { int = 1; return 0; }"},
	{"decl-two-names", "int f() { int x x; return 0; }"},
	{"decl-bad-init", "int f() { int x = ; return 0; }"},
	{"decl-no-semi", "int f() { int x = 1 return 0; }"},
	{"assign-bad-value", "int f() { int x; x = ; return 0; }"},
	{"assign-no-semi", "int f() { int x; x = 1 return 0; }"},
	{"assign-to-literal", "int f() { 1 = 2; return 0; }"},
	{"expr-stmt-no-semi", "int f() { f() return 0; }"},
	{"expr-stmt-bad", "int f() { ; return 0; }"},
	{"unexpected-token", "int f() { return * 2; }"},
	{"unexpected-keyword", "int f() { return else; }"},
	{"unexpected-eof", "int f() { return 1 +"},
	{"unexpected-close", "int f() { return (); }"},
	{"unexpected-shift", "int f(int n) { return n << 2; }"},
	{"unexpected-amp", "int f(int n) { return n & 2; }"},
	{"unexpected-at", "int f(int n) { return n @ 2; }"},
	{"unexpected-quote", "int f(int n) { return \"n\"; }"},
	{"paren-no-close", "int f() { return (1 + 2; }"},
	{"cast-no-close", "int f() { return (int 1; }"},
	{"cast-no-operand", "int f() { return (double); }"},
	{"cast-of-cast", "int f(int n) { return (int)(double)(int)-n; }"},
	{"call-no-close", "int f() { return f(1; }"},
	{"call-trailing-comma", "int f(int a) { return f(1,); }"},
	{"call-bad-arg", "int f(int a) { return f(+); }"},
	{"unary-chain", "int f(int n) { return - - ! - n; }"},
	{"unary-eof", "int f(int n) { return -"},
	{"precedence", "int f(int a, int b) { return a + b * 2 - a / 3 % 2 < b == 1 && a || b; }"},
	{"stray-top-level", "int f() { return 1; } }"},
	{"second-func-bad", "int f() { return 1; }\nint g( { }"},
	// nesting: every level of ( costs a binExpr and a unary frame, every {
	// a stmt frame, every ! a unary frame
	{"parens-at-limit", "int f() { return " + nest("(", 248, "1", ")") + "; }"},
	{"parens-past-limit", "int f() { return " + nest("(", 249, "1", ")") + "; }"},
	{"parens-way-past-limit", "int f() {\n return " + strings.Repeat("(", 2000) + "1"},
	{"blocks-at-limit", "int f() " + nest("{", 498, "return 1;", "}")},
	{"blocks-past-limit", "int f() " + nest("{", 499, "return 1;", "}")},
	{"blocks-way-past-limit", "int f() " + strings.Repeat("{\n", 2000)},
	{"nots-at-limit", "int f() { return " + strings.Repeat("!", 497) + "1; }"},
	{"nots-past-limit", "int f() { return " + strings.Repeat("!", 498) + "1; }"},
	{"ifs-at-limit", "int f(int n) { " + strings.Repeat("if (n) ", 497) + "return 1; return 0; }"},
	{"ifs-past-limit", "int f(int n) { " + strings.Repeat("if (n) ", 498) + "return 1; return 0; }"},
	{"right-nested-at-limit", "int f(int n) { return " + strings.Repeat("n + (", 165) + "n" + strings.Repeat(")", 165) + "; }"},
	{"right-nested-past-limit", "int f(int n) { return " + strings.Repeat("n + (", 166) + "n" + strings.Repeat(")", 166) + "; }"},
	// code generator
	{"func-redefined", "int f() { return 1; }\nint g() { return 2; }\nint f() { return 3; }"},
	{"var-redeclared", "int f() {\n int x;\n int x;\n return 0; }"},
	{"param-redeclared", "int f(int a, int a) { return 0; }"},
	{"param-shadowed-in-body", "int f(int a) { int a = 2; return a; }"},
	{"var-shadowed-in-block", "int f(int a) { int x = 1; { int x = 2; a = a + x; } return a + x; }"},
	{"var-out-of-scope", "int f() { { int x = 1; } return x; }"},
	{"for-var-out-of-scope", "int f() { for (int i = 0; i < 3; i = i + 1) { } return i; }"},
	{"assign-undefined", "int f() {\n x = 1;\n return 0; }"},
	{"ref-undefined", "int f() {\n return\n y; }"},
	{"ref-undefined-in-second", "int f() { return 1; }\nint g() { return z; }"},
	{"break-outside", "int f() { break; }"},
	{"continue-outside", "int f() {\n continue; }"},
	{"break-in-if-outside-loop", "int f(int n) { if (n) break; return 0; }"},
	{"mod-double", "int f(double x) {\n return x % 2; }"},
	{"mod-double-rhs", "int f(int n) { return n % 2.0; }"},
	{"call-undefined", "int f() {\n return g(); }"},
	{"call-arity", "int f(int a) { return f(); }"},
	{"call-arity-more", "int f(int a) {\n\n return f(1, 2); }"},
	{"call-a-variable", "int f(int a) { return a(1); }"},
	{"function-as-variable", "int f(int a) { return f; }"},
	{"temps-exhausted", "int f(int n) { return " + strings.Repeat("n + (", 40) + "n" + strings.Repeat(")", 40) + "; }"},
	{"ftemps-exhausted", "double f(double x) { return " + strings.Repeat("x + (", 40) + "x" + strings.Repeat(")", 40) + "; }"},
	{"call-args-exhausted", "int f(int a, int b, int c, int d, int e, int g, int h, int i, int j, int k, int l, int m) { return f(a+f(a,b,c,d,e,g,h,i,j,k,l,m), b, c, d, e, g, h, i, j, k, l, m); }"},
	{"many-params", "int f(int a, int b, int c, int d, int e, int g, int h, int i, double x, double y, double z) { return a + i + (int)z; }"},
	{"double-everything", "double f(double x, int n) { double y = n; int k = x; if (x) y = -x; if (!y) k = !x; while (y && k || x) { y = y - 1; k = k - 1; } return k; }"},
	{"fall-off-end", "double f() { } int g() { }"},
	{"expr-stmt-call", "int g() { return 1; } int f() { g(); 1 + 2; return 0; }"},
	// bytes the lexer classes as Latin-1 letters or leaves as punctuation
	{"latin1-letter-names", "int caf\xe9(int \xc0\xff) { int \xaa\xb5\xba = \xc0\xff; return \xaa\xb5\xba; }"},
	{"utf8-names", "int naïve(int über) { return über; }"},
	{"latin1-nonletter-d7", "int f(int a\xd7) { return a\xd7; }"},
	{"latin1-nonletter-f7", "int f() { return \xf7; }"},
	{"latin1-nonletter-in-name", "int f() { int x\xa0y; return 0; }"},
	{"nbsp-is-not-space", "int f() { return 1; }"},
	{"superscript-is-not-digit", "int f() { int x\xb2 = 1; return x\xb2; }"},
	{"digit-start-latin1", "int f() { return 1\xe9; }"},
	{"vt-is-not-space", "int f() {\v return 1; }"},
	{"ff-is-not-space", "int f() {\f return 1; }"},
	{"cr-is-space", "int f() {\r\n return 1;\r\n}"},
	{"nul", "int f() { return 1;\x00 }"},
	{"undefined-latin1", "int f() { return \xe9t\xe9; }"},
}

// TestGoldenRefusals holds the front end's answer to each source — the
// error text with its line number, from Parse or from Compile, or
// acceptance — to the parent's (testdata/refusals.golden, captured at
// afe4d60).
func TestGoldenRefusals(t *testing.T) {
	var got []string
	for _, tc := range refusals {
		got = append(got, tc.name+"\t"+answer(tc.src))
	}
	regtest.Golden(t, "testdata/refusals.golden", got, *update)
}

// TestRefusedProgramLeavesNothing: on one machine, every program of the
// refusal table that parses — and one refused by the code generator in its
// second function, after the table is allocated — leaves the arenas as it
// found them, whether Compile refused it or accepted it and its unit was
// unloaded; and a compiler compiles one program.
func TestRefusedProgramLeavesNothing(t *testing.T) {
	mm := mem.New(1<<22, false)
	m := core.NewMachine(mips.New(), mips.NewCPU(mm), mm)
	base := m.ArenaStats()
	// try compiles src, which must fail with refusal (any outcome when
	// empty), and holds the arenas to their starting state.
	try := func(name, src, refusal string) {
		prog, err := Parse(src)
		if err != nil {
			return
		}
		c := NewCompiler(m)
		err = c.Compile(prog)
		switch {
		case err == nil && refusal != "":
			t.Errorf("%s: accepted", name)
		case err == nil:
			c.Unit().Unload()
		case !strings.Contains(err.Error(), refusal):
			t.Errorf("%s: refused with %v, want %q", name, err, refusal)
		}
		if got := m.ArenaStats(); got != base {
			t.Fatalf("%s (err %v): arenas %+v, want %+v", name, err, got, base)
		}
		if c.Compile(prog) == nil {
			t.Fatalf("%s: a second Compile on one Compiler succeeded", name)
		}
	}
	try("second-func-undefined-variable",
		"int one(int n) { return n + 1; }\nint two(int n) { return one(n) + missing; }\n", "undefined variable")
	for _, tc := range refusals {
		try(tc.name, tc.src, "")
	}
}

// answer parses and compiles src for mips and renders the outcome as one
// golden value.
func answer(src string) (out string) {
	defer func() {
		if r := recover(); r != nil {
			out = fmt.Sprintf("panic: %v", r)
		}
	}()
	prog, err := Parse(src)
	if err != nil {
		return "parse " + strconv.Quote(err.Error())
	}
	m := mem.New(1<<22, false)
	c := NewCompiler(core.NewMachine(mips.New(), mips.NewCPU(m), m))
	if err := c.Compile(prog); err != nil {
		return "compile " + strconv.Quote(err.Error())
	}
	var sb strings.Builder
	sb.WriteString("ok")
	for _, name := range funcNames(c) {
		fmt.Fprintf(&sb, " %s:%s", strconv.Quote(name), regtest.WordsHash(c.Funcs()[name], true)[:12])
	}
	return sb.String()
}
