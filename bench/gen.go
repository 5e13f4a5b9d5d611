package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"

	"repro/internal/jit"
)

// corpusHasher fingerprints a workload's generated inputs, so two runs can
// be shown to have measured the same programs (same seed, same hash) or
// different ones.
type corpusHasher struct{ h [32]byte }

func (c *corpusHasher) add(format string, args ...any) {
	c.h = sha256.Sum256(append(c.h[:], fmt.Sprintf(format, args...)...))
}

func (c *corpusHasher) sum() string { return hex.EncodeToString(c.h[:]) }

func newRNG(seed int64, stream string) *rand.Rand {
	// One independent stream per workload: adding a draw to one generator
	// must not change another workload's inputs.
	h := sha256.Sum256([]byte(fmt.Sprintf("%d/%s", seed, stream)))
	var s int64
	for _, b := range h[:8] {
		s = s<<8 | int64(b)
	}
	return rand.New(rand.NewSource(s))
}

// genRO fills the read-only words generated loads read.
func genRO(rng *rand.Rand) []int32 {
	ro := make([]int32, roWords)
	for i := range ro {
		ro[i] = int32(rng.Intn(1 << 20))
	}
	return ro
}

// ---- jit bytecode ----

const jitTemplates = 4

// genJitFunc builds one bytecode function as a literal.  The template
// fixes the shape (and so the compiled size); the seed picks constants.
func genJitFunc(rng *rand.Rand, id int) *jit.Func {
	k := func() int32 { return int32(smallImm(rng)) }
	name := fmt.Sprintf("jf%d", id)
	switch id % jitTemplates {
	case 0: // a*x*x - b*x + c
		return &jit.Func{Name: name, NArgs: 1, Consts: []int32{k(), k(), k()}, Code: []jit.Insn{
			{Op: jit.OpPushK, A: 0}, {Op: jit.OpLoadArg, A: 0}, {Op: jit.OpMul}, {Op: jit.OpLoadArg, A: 0}, {Op: jit.OpMul},
			{Op: jit.OpPushK, A: 1}, {Op: jit.OpLoadArg, A: 0}, {Op: jit.OpMul}, {Op: jit.OpSub},
			{Op: jit.OpPushK, A: 2}, {Op: jit.OpAdd},
			{Op: jit.OpRet},
		}}
	case 1: // sum of (i*i + k) for i in 1..x
		return &jit.Func{Name: name, NArgs: 1, NVars: 2, Consts: []int32{0, 1, k()}, Code: []jit.Insn{
			{Op: jit.OpPushK, A: 0}, {Op: jit.OpStoreVar, A: 0},
			{Op: jit.OpPushK, A: 1}, {Op: jit.OpStoreVar, A: 1},
			{Op: jit.OpLoadVar, A: 1}, {Op: jit.OpLoadArg, A: 0}, {Op: jit.OpLe}, {Op: jit.OpJz, A: 21}, // pc 4
			{Op: jit.OpLoadVar, A: 0}, {Op: jit.OpLoadVar, A: 1}, {Op: jit.OpLoadVar, A: 1}, {Op: jit.OpMul},
			{Op: jit.OpPushK, A: 2}, {Op: jit.OpAdd}, {Op: jit.OpAdd}, {Op: jit.OpStoreVar, A: 0},
			{Op: jit.OpLoadVar, A: 1}, {Op: jit.OpPushK, A: 1}, {Op: jit.OpAdd}, {Op: jit.OpStoreVar, A: 1},
			{Op: jit.OpJmp, A: 4},
			{Op: jit.OpLoadVar, A: 0}, {Op: jit.OpRet}, // pc 21
		}}
	case 2: // x < a ? x+b : x-c, through both comparison forms
		return &jit.Func{Name: name, NArgs: 1, Consts: []int32{k(), k(), k()}, Code: []jit.Insn{
			{Op: jit.OpLoadArg, A: 0}, {Op: jit.OpPushK, A: 0}, {Op: jit.OpLt}, {Op: jit.OpJz, A: 8},
			{Op: jit.OpLoadArg, A: 0}, {Op: jit.OpPushK, A: 1}, {Op: jit.OpAdd}, {Op: jit.OpRet},
			{Op: jit.OpLoadArg, A: 0}, {Op: jit.OpPushK, A: 2}, {Op: jit.OpSub}, {Op: jit.OpRet}, // pc 8
		}}
	default: // fib-style: two accumulators stepped x times, seeded start
		return &jit.Func{Name: name, NArgs: 1, NVars: 4, Consts: []int32{0, 1, k(), k()}, Code: []jit.Insn{
			{Op: jit.OpPushK, A: 2}, {Op: jit.OpStoreVar, A: 0},
			{Op: jit.OpPushK, A: 3}, {Op: jit.OpStoreVar, A: 1},
			{Op: jit.OpLoadArg, A: 0}, {Op: jit.OpStoreVar, A: 3},
			{Op: jit.OpLoadVar, A: 3}, {Op: jit.OpPushK, A: 0}, {Op: jit.OpGt}, {Op: jit.OpJz, A: 23}, // pc 6
			{Op: jit.OpLoadVar, A: 0}, {Op: jit.OpLoadVar, A: 1}, {Op: jit.OpAdd}, {Op: jit.OpStoreVar, A: 2},
			{Op: jit.OpLoadVar, A: 1}, {Op: jit.OpStoreVar, A: 0},
			{Op: jit.OpLoadVar, A: 2}, {Op: jit.OpStoreVar, A: 1},
			{Op: jit.OpLoadVar, A: 3}, {Op: jit.OpPushK, A: 1}, {Op: jit.OpSub}, {Op: jit.OpStoreVar, A: 3},
			{Op: jit.OpJmp, A: 6},
			{Op: jit.OpLoadVar, A: 0}, {Op: jit.OpRet}, // pc 23
		}}
	}
}

// genBiasedLoop is the tier probe's input: a 100-iteration loop whose
// inner branch goes one way for every x below the seeded pivot, so the
// edge profile is decisive and the superblock tier straightens the hot
// arm.  Returns 100*a for x < pivot, 100*b otherwise.
func genBiasedLoop(rng *rand.Rand) (f *jit.Func, pivot, a, b int32) {
	pivot = 40 + int32(rng.Intn(20))
	a, b = 1+int32(rng.Intn(9)), 11+int32(rng.Intn(9))
	return &jit.Func{Name: "biased", NArgs: 1, NVars: 2, Consts: []int32{0, 1, a, b, pivot, 100}, Code: []jit.Insn{
		{Op: jit.OpPushK, A: 0}, {Op: jit.OpStoreVar, A: 0},
		{Op: jit.OpPushK, A: 0}, {Op: jit.OpStoreVar, A: 1},
		{Op: jit.OpLoadVar, A: 1}, {Op: jit.OpPushK, A: 5}, {Op: jit.OpLt}, {Op: jit.OpJz, A: 26}, // pc 4
		{Op: jit.OpLoadArg, A: 0}, {Op: jit.OpPushK, A: 4}, {Op: jit.OpLt}, {Op: jit.OpJz, A: 17},
		{Op: jit.OpLoadVar, A: 0}, {Op: jit.OpPushK, A: 2}, {Op: jit.OpAdd}, {Op: jit.OpStoreVar, A: 0},
		{Op: jit.OpJmp, A: 21},
		{Op: jit.OpLoadVar, A: 0}, {Op: jit.OpPushK, A: 3}, {Op: jit.OpAdd}, {Op: jit.OpStoreVar, A: 0}, // pc 17
		{Op: jit.OpLoadVar, A: 1}, {Op: jit.OpPushK, A: 1}, {Op: jit.OpAdd}, {Op: jit.OpStoreVar, A: 1}, // pc 21
		{Op: jit.OpJmp, A: 4},
		{Op: jit.OpLoadVar, A: 0}, {Op: jit.OpRet}, // pc 26
	}}, pivot, a, b
}

// ---- tinyc sources ----

const tinycTemplates = 4

// tinycArg is the argument every generated main is called with.  It is
// far above every seeded constant, so comparisons against them go the same
// way for every seed and a template retires the same number of simulated
// instructions whatever its constants.  No template calls a helper
// function: a call materialises the dispatch table's heap address, which
// takes one instruction fewer when the address happens to be 64K-aligned,
// and the count would then depend on how many programs the arena has seen.
const tinycArg = 1000

// tinycProg is one generated tinyc program: a template and its three
// constants (each 1..97).  Every template is a dozen statements: enough
// front-end and install work that a never-seen source is dominated by
// compiling it, as real programs are, while the one call it is run for
// stays a microsecond or two.  Branches test loop counters, or values whose
// relation to the constants never changes (n is 1000), so the path does
// not depend on the seed.
type tinycProg struct{ t, a, b, c int }

func (p tinycProg) source() string {
	a, b, c := p.a, p.b, p.c
	switch p.t {
	case 0:
		return fmt.Sprintf("int main(int n) { int a = n * %[1]d + %[2]d; int b = a - %[3]d; int c = a + b * 2; int d = c - a + %[1]d; "+
			"int e = d * 3 - b; int f = e + c - %[2]d; int g = f * 2 + d; int h = g - e + %[3]d; return a + b + c + d + e + f + g + h; }", a, b, c)
	case 1:
		return fmt.Sprintf("int main(int n) { int s = %[2]d; int t = %[3]d; int i = 0; while (i < 16) { s = s + i * %[1]d + n; t = t + s - i; "+
			"if (i > 7) t = t - %[1]d; else t = t + %[2]d; i = i + 1; } return s - t; }", a, b, c)
	case 2:
		return fmt.Sprintf("int main(int n) { int a = n + %[1]d; int b = n - %[2]d; int c = a + b; if (a < %[2]d) a = a + %[3]d; else a = a - %[3]d; "+
			"if (b > %[3]d) b = b - %[1]d; else b = b + %[1]d; int d = a * b - c; if (d == %[1]d) d = d + 1; return a + b + c + d - n; }", a, b, c)
	default:
		return fmt.Sprintf("int main(int n) { int s = 0; int p = %[1]d; for (int i = 0; i < 8; i = i + 1) { if (i > 3) s = s + n * %[1]d; else s = s - %[2]d; "+
			"p = p + s - i * %[3]d; } int q = p - s; return s + p + q + %[3]d; }", a, b, c)
	}
}

// eval is main(n) worked out in Go with C's 32-bit int arithmetic: the
// closed form the cold workload's hundred thousand never-seen sources are
// checked against.  It is itself checked against the tinyc interpreter: at
// set-up on every warm source, and in the unit tests.
func (p tinycProg) eval(n int32) int32 {
	A, B, C := int32(p.a), int32(p.b), int32(p.c)
	switch p.t {
	case 0:
		a := n*A + B
		b := a - C
		c := a + b*2
		d := c - a + A
		e := d*3 - b
		f := e + c - B
		g := f*2 + d
		h := g - e + C
		return a + b + c + d + e + f + g + h
	case 1:
		s, t := B, C
		for i := int32(0); i < 16; i++ {
			s = s + i*A + n
			t = t + s - i
			if i > 7 {
				t -= A
			} else {
				t += B
			}
		}
		return s - t
	case 2:
		a, b := n+A, n-B
		c := a + b
		if a < B {
			a += C
		} else {
			a -= C
		}
		if b > C {
			b -= A
		} else {
			b += A
		}
		d := a*b - c
		if d == A {
			d++
		}
		return a + b + c + d - n
	default:
		s, q := int32(0), A
		for i := int32(0); i < 8; i++ {
			if i > 3 {
				s += n * A
			} else {
				s -= B
			}
			q = q + s - i*C
		}
		return s + q + (q - s) + C
	}
}

// tinycAt maps an index onto a distinct program: the template from its low
// digit, the three constants from the mixed-radix digits above it.
// Distinct indices below tinycTemplates*97*89*83 give distinct sources.
func tinycAt(idx int) tinycProg {
	d := idx / tinycTemplates
	return tinycProg{t: idx % tinycTemplates, a: 1 + d%97, b: 1 + (d/97)%89, c: 1 + (d/(97*89))%83}
}

func genTinyc(rng *rand.Rand, id int) tinycProg {
	return tinycProg{t: id % tinycTemplates, a: 1 + rng.Intn(97), b: 1 + rng.Intn(89), c: 1 + rng.Intn(83)}
}
