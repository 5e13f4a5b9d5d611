package vasm

import (
	"flag"
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/mips"
	"repro/internal/regtest"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from this build's behaviour")

// genVasm prints one seeded program: register and immediate arithmetic,
// shifts, wide constants, unary ops, a stack slot, forward branches,
// doubles, division, and — by id — a .data table or a call to a second
// function.  The separators, comments and label placement vary with the
// seed so the tokeniser sees more than one spelling of the same line.
func genVasm(rng *rand.Rand, id int) string {
	const nregs = 5
	var sb strings.Builder
	sep := func() string { return []string{", ", ",", " , ", "\t", " ,\t"}[rng.Intn(5)] }
	w := func(mnemonic string, ops ...string) {
		sb.WriteString([]string{"    ", "\t", " "}[rng.Intn(3)] + mnemonic)
		for i, op := range ops {
			if i == 0 {
				sb.WriteString([]string{" ", "\t", "   "}[rng.Intn(3)])
			} else {
				sb.WriteString(sep())
			}
			sb.WriteString(op)
		}
		if rng.Intn(6) == 0 {
			sb.WriteString(" ; " + mnemonic + ", again")
		}
		sb.WriteString("\n")
	}
	reg := func() string { return fmt.Sprintf("r%d", rng.Intn(nregs)) }
	imm := func() string { return strconv.Itoa(1 + rng.Intn(120)) }
	pick := func(ss ...string) string { return ss[rng.Intn(len(ss))] }

	calls, table := id%4 == 3, id%4 == 2
	if table {
		fmt.Fprintf(&sb, ".data tab\n.word %d, %d, 0x%x\n.word %d\n\n", rng.Intn(1000), -rng.Intn(1000), rng.Intn(1<<20), rng.Intn(9))
	}
	if calls {
		fmt.Fprintf(&sb, ".func helper (%%i%%i) leaf\n    addi arg0, arg0, arg1\n    mulii arg0, arg0, %s\n    reti arg0\n.end\n\n", imm())
	}
	class, leaf := "temp", " leaf"
	if calls {
		class, leaf = "var", ""
	}
	fmt.Fprintf(&sb, "; generated program %d\n.func g%d (%%i%%i)%s\n", id, id, leaf)
	for i := 0; i < nregs; i++ {
		fmt.Fprintf(&sb, ".reg r%d %s i\n", i, class)
	}
	sb.WriteString(".reg d0 temp d\n.reg d1 temp d\n.reg p temp p\n.local slot i\n.local wide d\n")
	for i := 0; i < nregs; i++ {
		w("addii", fmt.Sprintf("r%d", i), fmt.Sprintf("arg%d", i%2), imm())
	}
	labels := 0
	for n := 12 + rng.Intn(12); n > 0; n-- {
		switch rng.Intn(12) {
		case 0:
			w(pick("add", "sub", "mul", "and", "or", "xor")+pick("i", "u", "l", "ul"), reg(), reg(), reg())
		case 1:
			w(pick("add", "sub", "mul", "and", "or", "xor")+pick("i", "u")+"i", reg(), reg(), imm())
		case 2:
			w(pick("lsh", "rsh")+pick("i", "u")+"i", reg(), reg(), strconv.Itoa(1+rng.Intn(15)))
		case 3:
			w("seti", reg(), pick("0x12345678", "-70000", "65536", "0x7fff", "-1", "0"))
		case 4:
			w(pick("movi", "negi", "comi", "noti"), reg(), reg())
		case 5:
			w("stii", reg(), "sp", "slot")
			w("ldii", reg(), "sp", "slot")
		case 6, 7:
			l := fmt.Sprintf("L%d", labels)
			labels++
			if rng.Intn(2) == 0 {
				w(pick("blt", "ble", "bgt", "bge", "beq", "bne")+"ii", reg(), imm(), l)
			} else {
				w(pick("blt", "ble", "bgt", "bge", "beq", "bne")+pick("i", "u"), reg(), reg(), l)
			}
			w("addii", reg(), reg(), imm())
			if rng.Intn(2) == 0 {
				sb.WriteString(l + ":\n")
			} else {
				sb.WriteString(l + ":")
				w("xori", reg(), reg(), reg())
			}
		case 8:
			w("cvi2d", "d0", reg())
			w("setd", "d1", pick("1.5", "-0.25", "1e3", "3"))
			w(pick("addd", "subd", "muld", "divd"), "d0", "d0", "d1")
			w("stdi", "d0", "sp", "wide")
			w("cvd2i", reg(), "d0")
		case 9:
			w(pick("div", "mod")+pick("i", "u"), reg(), reg(), reg())
		case 10:
			if table {
				w("setsym", "p", "tab")
				w("ldii", reg(), "p", strconv.Itoa(4*rng.Intn(4)))
			}
		case 11:
			if calls {
				w("startcall", "(%i%i)")
				w("setarg", "0", reg())
				w("setarg", "1", reg())
				w("call", "helper")
				w("retval", "i", reg())
			}
		}
	}
	w("reti", "r0")
	sb.WriteString(".end\n")
	return sb.String()
}

// goldenCorpus is every program the word-hash golden covers: the sources
// of vasm_test.go, then 64 generated ones.
func goldenCorpus() (names, srcs []string) {
	add := func(name, src string) { names, srcs = append(names, name), append(srcs, src) }
	add("fact", factSrc)
	add("call", callSrc)
	add("rec", recSrc)
	add("local", localSrc)
	add("double", doubleSrc)
	add("data", dataSrc)
	add("callsym", callsymSrc)
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 64; i++ {
		add(fmt.Sprintf("gen%02d", i), genVasm(rng, i))
	}
	return names, srcs
}

// TestGoldenWords holds every function the corpus assembles to, on every
// backend, to the words the assembler produced before its front end was
// rebuilt (testdata/words.golden, captured at afe4d60): the register
// requests, labels and instructions must reach core.Asm in the same order.
func TestGoldenWords(t *testing.T) {
	names, srcs := goldenCorpus()
	var got []string
	for _, tg := range regtest.Targets() {
		for i, src := range srcs {
			m := tg.NewMachine()
			if err := defineTriple(m); err != nil {
				t.Fatal(err)
			}
			prog, err := Assemble(m, src)
			if err != nil {
				t.Fatalf("%s/%s: %v\n%s", tg.Name, names[i], err, src)
			}
			for _, fname := range prog.Order {
				fn := prog.Funcs[fname]
				if err := regtest.CheckRows(m.Backend(), fn); err != nil {
					t.Error(err)
				}
				got = append(got, fmt.Sprintf("%s/%s/%s\t%s @%#x", tg.Name, names[i], fname, regtest.WordsHash(fn, false), fn.Addr()))
			}
		}
	}
	regtest.Golden(t, "testdata/words.golden", got, *update)
}

// refusals is malformed (and a little well-formed but oddly spelled) input:
// at least one case per error site of the assembler, sources with two
// errors in both orders, errors the three phases would report differently
// if they ran in another order, and the token boundaries — non-ASCII
// white space, bytes >= 0x80, commas and semicolons in odd places.
var refusals = []struct{ name, src string }{
	{"empty", ""},
	{"comment-only", "; nothing\n\n"},
	// scanFuncs
	{"func-no-name", ".func"},
	{"func-no-name-line3", "\n\n.func ; f\n"},
	{"func-redefined", ".func f () leaf\n retv\n.end\n.func f () leaf\n retv\n.end\n"},
	// layoutData
	{"data-no-name", ".data\n.word 1\n"},
	{"data-two-names", ".data a b\n.word 1\n"},
	{"data-bad-word", ".data a\n.word 1, 2, x3\n"},
	{"data-bad-word-second-line", ".data a\n.word 1\n\n.word 0x\n"},
	{"data-empty", ".data a\n.func f () leaf\n retv\n.end\n"},
	{"data-empty-at-eof", ".data a"},
	{"data-duplicate-symbol", ".data a\n.word 1\n.data a\n.word 2\n"},
	{"data-huge", ".data a\n.word " + strings.Repeat("1, ", 300000) + "1\n"},
	{"word-range", ".data a\n.word 0xffffffff, -1, 0x1ffffffff, 9223372036854775807\n.func f () leaf\n retv\n.end\n"},
	{"word-overflow", ".data a\n.word 9223372036854775808\n"},
	// assemble: structure
	{"nested-func", ".func f (%i) leaf\n.func g (%i)\n.end\n.end"},
	{"end-outside", ".end"},
	{"unbound-label", ".func f (%i) leaf\n jmp nowhere\n.end"},
	{"data-inside-func", ".func f () leaf\n.data a\n.word 1\n.end\n"},
	{"word-inside-func", ".func f () leaf\n.word 1\n.end\n"},
	{"word-stray", ".word 1\n"},
	{"reg-outside", ".reg a temp i"},
	{"reg-arity", ".func f () leaf\n.reg a temp\n.end"},
	{"reg-class", ".func f () leaf\n.reg a perm i\n.end"},
	{"reg-type", ".func f () leaf\n.reg a temp q\n.end"},
	{"reg-exhausted", ".func f () leaf\n" + strings.Repeat(".reg a temp i\n", 40) + ".end"},
	{"freg-exhausted", ".func f ()\n" + strings.Repeat(".reg a var d\n", 40) + ".end"},
	{"local-outside", ".local a i"},
	{"local-arity", ".func f () leaf\n.local a\n.end"},
	{"local-type", ".func f () leaf\n.local a 8\n retv\n.end\n"},
	{"insn-outside", "addi t0, t0, t0"},
	{"label-outside", "top:"},
	{"missing-end", ".func f (%i) leaf\n reti arg0"},
	{"func-no-sig", ".func f"},
	{"func-bad-sig", ".func f (%z) leaf\n.end"},
	{"func-sig-no-percent", ".func f (i) leaf\n.end"},
	{"func-subword-param", ".func f (%c) leaf\n.end"},
	{"func-not-leaf-word", ".func f (%i) notleaf\n startcall ()\n callsym x\n reti arg0\n.end"},
	// registers and immediates
	{"reg-unknown", ".func f (%i) leaf\n reti argX\n.end"},
	{"reg-arg-out-of-range", ".func f (%i) leaf\n reti arg1\n.end"},
	{"reg-arg-leading-zero", ".func f (%i) leaf\n reti arg00\n.end"},
	{"reg-arg-plus", ".func f (%i) leaf\n reti arg+0\n.end"},
	{"reg-hard-out-of-range", ".func f (%i) leaf\n movi t99, arg0\n reti arg0\n.end"},
	{"reg-hard-negative", ".func f (%i) leaf\n movi t-1, arg0\n reti arg0\n.end"},
	{"reg-hard-plus", ".func f (%i) leaf\n movi t+1, arg0\n reti t1\n.end"},
	{"reg-hard-leading-zero", ".func f (%i) leaf\n movi t01, arg0\n reti t1\n.end"},
	{"reg-hard-huge", ".func f (%i) leaf\n movi t99999999999999999999, arg0\n.end"},
	{"reg-hard-s-leaf", ".func f (%i) leaf\n movi s0, arg0\n reti s0\n.end"},
	{"reg-hard-fs99", ".func f (%d) leaf\n movd fs99, arg0\n retd arg0\n.end"},
	{"reg-hard-ft-empty", ".func f (%d) leaf\n movd ft, arg0\n.end"},
	{"reg-hard-underscore", ".func f (%i) leaf\n movi t1_0, arg0\n.end"},
	{"reg-sp", ".func f (%i) leaf\n movp t0, sp\n reti arg0\n.end"},
	{"reg-shadows-hard", ".func f (%i) leaf\n.reg t0 temp i\n.reg sp temp i\n.reg arg0 temp i\n seti t0, 1\n seti sp, 2\n seti arg0, 3\n addi t0, t0, sp\n addi t0, t0, arg0\n reti t0\n.end"},
	{"imm-bad", ".func f (%i) leaf\n addii arg0, arg0, ten\n.end"},
	{"imm-forms", ".func f (%i) leaf\n addii arg0, arg0, 0x10\n addii arg0, arg0, 0b11\n addii arg0, arg0, 0o7\n addii arg0, arg0, 1_0\n addii arg0, arg0, -0x1\n reti arg0\n.end"},
	{"imm-overflow", ".func f (%i) leaf\n seti arg0, 9223372036854775808\n.end"},
	// directive-like instructions
	{"jmp-arity", ".func f () leaf\n jmp\n.end"},
	{"jmp-two", ".func f () leaf\n jmp a, b\n.end"},
	{"startcall-arity", ".func f ()\n startcall\n.end"},
	{"startcall-bad-sig", ".func f ()\n startcall (%q)\n.end"},
	{"startcall-leaf", ".func f () leaf\n startcall ()\n.end"},
	{"setarg-arity", ".func f (%i)\n startcall (%i)\n setarg 0\n.end"},
	{"setarg-index", ".func f (%i)\n startcall (%i)\n setarg x, arg0\n.end"},
	{"setarg-range", ".func f (%i)\n startcall (%i)\n setarg 3, arg0\n.end"},
	{"setarg-reg", ".func f (%i)\n startcall (%i)\n setarg 0, nope\n.end"},
	{"setarg-no-call", ".func f (%i)\n setarg 0, arg0\n.end"},
	{"call-arity", ".func f ()\n call\n.end"},
	{"call-unknown", ".func f (%i) leaf\n call g\n.end"},
	{"call-leaf", ".func f (%i) leaf\n call f\n.end"},
	{"call-forward", ".func f (%i)\n startcall (%i)\n setarg 0, arg0\n call g\n.reg r temp i\n retval i, r\n reti r\n.end\n.func g (%i) leaf\n reti arg0\n.end"},
	{"setsym-arity", ".func f () leaf\n setsym t0\n.end"},
	{"setsym-reg", ".func f () leaf\n setsym nope, tab\n.end"},
	{"setsym-undefined", ".func f () leaf\n setsym t0, nowhere\n retv\n.end"},
	{"setsym-forward-data", ".func f () leaf\n setsym t0, tab\n ldii t0, t0, 0\n reti t0\n.end\n.data tab\n.word 7\n"},
	{"callsym-arity", ".func f ()\n callsym\n.end"},
	{"callsym-undefined", ".func f (%i)\n startcall (%i)\n setarg 0, arg0\n callsym missing\n retv\n.end\n"},
	{"callr-reg", ".func f ()\n callr nope\n.end"},
	{"callr-ok", ".func f (%p)\n startcall ()\n callr arg0\n retv\n.end"},
	{"jmpr-reg", ".func f () leaf\n jmpr nope\n.end"},
	{"jmpr-ok", ".func f (%p) leaf\n jmpr arg0\n.end"},
	{"jmpr-extra", ".func f (%p) leaf\n jmpr arg0, arg0\n.end"},
	{"retval-arity", ".func f ()\n retval i\n.end"},
	{"retval-type", ".func f ()\n retval q, t0\n.end"},
	{"retval-reg", ".func f ()\n retval i, nope\n.end"},
	{"ext-arity", ".func f (%d) leaf\n ext sqrt, d\n.end"},
	{"ext-type", ".func f (%d) leaf\n ext sqrt, q, arg0, arg0\n.end"},
	{"ext-rd", ".func f (%d) leaf\n ext sqrt, d, nope, arg0\n.end"},
	{"ext-rs", ".func f (%d) leaf\n ext sqrt, d, arg0, nope\n.end"},
	{"ext-unknown", ".func f (%d) leaf\n ext cbrt, d, arg0, arg0\n.end"},
	{"ext-bad-type", ".func f (%i) leaf\n ext sqrt, i, arg0, arg0\n.end"},
	{"ext-src-count", ".func f (%d) leaf\n ext sqrt, d, arg0, arg0, arg0\n.end"},
	{"nop-retv", ".func f () leaf\n nop\n nop extra operands are ignored\n retv\n.end"},
	// table instructions
	{"insn-unknown", ".func f (%i) leaf\n frob arg0\n.end"},
	{"insn-unknown-type", ".func f (%i) leaf\n addc arg0, arg0, arg0\n.end"},
	{"insn-float-imm", ".func f (%d) leaf\n adddi arg0, arg0, 1\n.end"},
	{"alu-arity", ".func f (%i) leaf\n addi arg0, arg0\n.end"},
	{"alu-rd", ".func f (%i) leaf\n addi x, arg0, arg0\n.end"},
	{"alu-rs1", ".func f (%i) leaf\n addi arg0, x, arg0\n.end"},
	{"alu-rs2", ".func f (%i) leaf\n addi arg0, arg0, x\n.end"},
	{"alu-bank", ".func f (%i%d) leaf\n addd arg0, arg0, arg1\n.end"},
	{"alui-arity", ".func f (%i) leaf\n addii arg0\n.end"},
	{"alui-rd", ".func f (%i) leaf\n addii x, arg0, 1\n.end"},
	{"alui-rs", ".func f (%i) leaf\n addii arg0, x, 1\n.end"},
	{"unary-arity", ".func f (%i) leaf\n movi arg0\n.end"},
	{"unary-rd", ".func f (%i) leaf\n movi x, arg0\n.end"},
	{"unary-rs", ".func f (%i) leaf\n movi arg0, x\n.end"},
	{"set-arity", ".func f (%i) leaf\n seti arg0\n.end"},
	{"set-rd", ".func f (%i) leaf\n seti x, 1\n.end"},
	{"set-bad-float", ".func f (%f) leaf\n setf arg0, one\n.end"},
	{"set-bad-double", ".func f (%d) leaf\n setd arg0, 1.5.2\n.end"},
	{"set-float-forms", ".func f (%d%f) leaf\n setd arg0, 1e400\n.end"},
	{"set-float-ok", ".func f (%d%f) leaf\n setd arg0, 0x1p-2\n setf arg1, inf\n setd arg0, -NaN\n setd arg0, 1_0.5\n retd arg0\n.end"},
	{"set-pointer", ".func f (%p) leaf\n setp arg0, 0x1000\n retp arg0\n.end"},
	{"ld-arity", ".func f (%p) leaf\n ldi arg0, arg0\n.end"},
	{"ld-r0", ".func f (%p) leaf\n ldi x, arg0, arg0\n.end"},
	{"ld-r1", ".func f (%p) leaf\n ldi t0, x, arg0\n.end"},
	{"ld-r2", ".func f (%p) leaf\n ldi t0, arg0, x\n.end"},
	{"st-ok", ".func f (%p%i) leaf\n sti arg1, arg0, arg1\n stci arg1, arg0, 3\n lduci t0, arg0, 3\n reti t0\n.end"},
	{"ldi-arity", ".func f (%p) leaf\n ldii t0, arg0\n.end"},
	{"ldi-r0", ".func f (%p) leaf\n ldii x, arg0, 0\n.end"},
	{"ldi-r1", ".func f (%p) leaf\n ldii t0, x, 0\n.end"},
	{"ldi-off", ".func f (%p) leaf\n ldii t0, arg0, zero\n.end"},
	{"local-off-not-sp", ".func f (%p) leaf\n.local slot i\n ldii t0, arg0, slot\n.end"},
	{"local-named-like-imm", ".func f (%i) leaf\n.local 8 i\n stii arg0, sp, 8\n ldii arg0, sp, 8\n reti arg0\n.end"},
	{"br-arity", ".func f (%i) leaf\n blti arg0, arg0\n.end"},
	{"br-rs1", ".func f (%i) leaf\n blti x, arg0, l\n.end"},
	{"br-rs2", ".func f (%i) leaf\n blti arg0, x, l\n.end"},
	{"bri-arity", ".func f (%i) leaf\n bltii arg0, 1\n.end"},
	{"bri-rs", ".func f (%i) leaf\n bltii x, 1, l\n.end"},
	{"bri-imm", ".func f (%i) leaf\n bltii arg0, x, l\n.end"},
	{"ret-arity", ".func f (%i) leaf\n reti\n.end"},
	{"ret-rs", ".func f (%i) leaf\n reti x\n.end"},
	{"cvt-arity", ".func f (%i) leaf\n cvi2d arg0\n.end"},
	{"cvt-rd", ".func f (%i) leaf\n cvi2d x, arg0\n.end"},
	{"cvt-rs", ".func f (%i) leaf\n cvi2d ft0, x\n.end"},
	{"cvt-bank", ".func f (%i) leaf\n cvi2d arg0, arg0\n.end"},
	{"cvt-same", ".func f (%i) leaf\n cvi2i arg0, arg0\n.end"},
	{"label-bound-twice", ".func f (%i) leaf\nl:\nl:\n reti arg0\n.end"},
	{"label-only-colon", ".func f (%i) leaf\n:\n jmp \n.end"},
	{"label-with-insn", ".func f (%i) leaf\ntop: subii arg0, arg0, 1\n bgtii arg0, 0, top\n reti arg0\n.end"},
	{"label-then-unknown", ".func f (%i) leaf\ntop: frob\n.end"},
	{"label-colon-colon", ".func f (%i) leaf\ntop:: reti arg0\n jmp top:\n.end"},
	{"label-reg-local-share-a-name", ".func f (%i) leaf\n.reg x temp i\n.local x i\n movi x, arg0\n stii x, sp, x\nx: ldii x, sp, x\n bleii x, 0, x\n reti x\n.end"},
	{"names-are-per-function", ".func f (%i) leaf\n.reg a temp i\n movi a, arg0\n reti a\n.end\n.func g (%i) leaf\n reti a\n.end"},
	{"locals-are-per-function", ".func f (%i) leaf\n.local s i\n stii arg0, sp, s\n reti arg0\n.end\n.func g (%i) leaf\n stii arg0, sp, s\n.end"},
	{"labels-are-per-function", ".func f (%i) leaf\nl: reti arg0\n.end\n.func g (%i) leaf\n jmp l\n.end"},
	{"emit-after-end-error", ".func f (%i) leaf\n addi arg0, arg0, ft0\n.end"},
	// which error a source with several reports
	{"two-errors-a", ".func f (%i) leaf\n frob arg0\n reti argX\n.end"},
	{"two-errors-b", ".func f (%i) leaf\n reti argX\n frob arg0\n.end"},
	{"bad-insn-then-duplicate-func", ".func f (%i) leaf\n frob arg0\n.end\n.func f (%i) leaf\n reti arg0\n.end"},
	{"bad-insn-then-bad-data", ".func f (%i) leaf\n frob arg0\n.end\n.data a\n.word x\n"},
	{"bad-data-then-duplicate-func", ".data a\n.word x\n.func f () leaf\n.end\n.func f () leaf\n.end"},
	{"bad-insn-then-missing-end", ".func f (%i) leaf\n frob arg0\n"},
	{"unknown-call-then-bad-reg", ".func f (%i)\n call g\n reti x\n.end"},
	{"first-func-ok-second-bad", ".func f (%i) leaf\n reti arg0\n.end\n.func g (%i) leaf\n reti arg1\n.end"},
	// token boundaries
	{"crlf", ".func f (%i) leaf\r\n reti arg0\r\n.end\r\n"},
	{"vt-ff", ".func f (%i) leaf\n\vreti\farg0\n.end"},
	{"commas-everywhere", ",.func,f,,(%i),leaf,\n,,reti,,,arg0,,\n.end,"},
	{"comma-inside-sig", ".func f (%i,%i) leaf\n reti arg0\n.end"},
	{"semicolon-in-operands", ".func f (%i) leaf\n addi arg0,;arg0, arg0\n.end"},
	{"semicolon-glued", ".func f (%i) leaf\n reti arg0;the result\n.end;done"},
	{"semicolon-first", ";.func f (%i) leaf\n reti arg0\n.end"},
	{"nbsp", ".func f (%i) leaf\n reti\u00a0arg0\n.end"},
	{"nel", ".func\u0085f (%i) leaf\n reti arg0\n.end"},
	{"em-space-line-sep", ".func f (%i) leaf\n\u2003reti\u2028arg0\u3000\n.end"},
	{"zero-width-space", ".func f (%i) leaf\n reti\u200barg0\n.end"},
	{"bom", "\ufeff.func f (%i) leaf\n reti arg0\n.end"},
	{"byte-a0", ".func f (%i) leaf\n reti\xa0arg0\n.end"},
	{"byte-85", ".func f (%i) leaf\n reti\x85arg0\n.end"},
	{"truncated-utf8-space", ".func f (%i) leaf\n reti\xc2"},
	{"high-bytes-in-names", ".func caf\xe9 (%i) leaf\n.reg \xff\xfe temp i\n.local \u00e9t\u00e9 i\n movi \xff\xfe, arg0\n stii \xff\xfe, sp, \u00e9t\u00e9\n\u00fc: reti \xff\xfe\n.end"},
	{"high-bytes-unknown-reg", ".func f (%i) leaf\n reti na\u00efve\n.end"},
	{"high-bytes-unknown-insn", ".func f (%i) leaf\n r\xe9ti arg0\n.end"},
	{"nul-byte", ".func f (%i) leaf\n reti\x00arg0\n.end"},
	{"no-trailing-newline-comment", ".func f (%i) leaf\n reti arg0\n.end ; bye"},
}

// TestGoldenRefusals holds Assemble's answer to each malformed source —
// the error text with its line number, or acceptance — to the parent's
// (testdata/refusals.golden, captured at afe4d60).
func TestGoldenRefusals(t *testing.T) {
	var got []string
	for _, tc := range refusals {
		m := mem.New(1<<22, false)
		machine := core.NewMachine(mips.New(), mips.NewCPU(m), m)
		got = append(got, tc.name+"\t"+answer(machine, tc.src))
	}
	regtest.Golden(t, "testdata/refusals.golden", got, *update)
}

// TestRefusedProgramLeavesNothing: on one machine, every program of the
// refusal table — and two that are refused only once data is laid out or a
// function installed — leaves the arenas as it found them, whether Assemble
// refused it or accepted it and its unit was unloaded.  Then the data
// program with its typo fixed assembles under the same name and runs.
func TestRefusedProgramLeavesNothing(t *testing.T) {
	mm := mem.New(1<<22, false)
	m := core.NewMachine(mips.New(), mips.NewCPU(mm), mm)
	base := m.ArenaStats()
	// try assembles src, which must fail with refusal (any outcome when
	// empty), and holds the arenas to their starting state.
	try := func(name, src, refusal string) {
		prog, err := Assemble(m, src)
		switch {
		case err == nil && refusal != "":
			t.Errorf("%s: accepted", name)
		case err == nil:
			prog.Unit.Unload()
		case !strings.Contains(err.Error(), refusal):
			t.Errorf("%s: refused with %v, want %q", name, err, refusal)
		}
		if got := m.ArenaStats(); got != base {
			t.Fatalf("%s (err %v): arenas %+v, want %+v", name, err, got, base)
		}
	}
	try("data-then-unknown-insn", ".data tab\n.word 5, 6, 7\n.func get () leaf\n frobnicate t0\n.end\n", "unknown instruction")
	try("second-func-undefined-symbol", ".func a (%i) leaf\n reti arg0\n.end\n.func b () leaf\n setsym t0, nowhere\n retv\n.end\n", "undefined symbol")
	for _, tc := range refusals {
		try(tc.name, tc.src, "")
	}
	prog, err := Assemble(m, ".data tab\n.word 5, 6, 7\n.func get () leaf\n setsym t0, tab\n ldii t0, t0, 4\n reti t0\n.end\n")
	if err != nil {
		t.Fatalf("the corrected program: %v", err)
	}
	if got, err := prog.Run("get"); err != nil || got.Int() != 6 {
		t.Fatalf("get() = %v, %v, want 6", got, err)
	}
}

// answer assembles src and renders the outcome as one golden value.
func answer(m *core.Machine, src string) (out string) {
	defer func() {
		if r := recover(); r != nil {
			out = fmt.Sprintf("panic: %v", r)
		}
	}()
	prog, err := Assemble(m, src)
	if err != nil {
		return strconv.Quote(err.Error())
	}
	var sb strings.Builder
	sb.WriteString("ok")
	for _, name := range prog.Order {
		fmt.Fprintf(&sb, " %s:%s", strconv.Quote(name), regtest.WordsHash(prog.Funcs[name], false)[:12])
	}
	return sb.String()
}
