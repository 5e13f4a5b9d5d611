package jit

import (
	"flag"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/mem"
	"repro/internal/regtest"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from this build's behaviour")

// jgen builds one seeded bytecode function from structured statements, the
// way a compiler to this stack machine would: assignments of nested
// expressions, comparisons both fused into a branch and kept as values,
// if/else, loops, early returns (each followed by the unreachable jump a
// naive compiler leaves behind), and values held on the operand stack
// across a branch.
type jgen struct {
	rng    *rand.Rand
	f      *Func
	inLoop bool
}

// store pops into a seeded variable other than the last, the loop counter.
func (g *jgen) store() { g.emit(OpStoreVar, g.rng.Intn(g.f.NVars-1)) }

func (g *jgen) emit(op Op, a int) int {
	g.f.Code = append(g.f.Code, Insn{Op: op, A: a})
	return len(g.f.Code) - 1
}

func (g *jgen) konst(v int32) {
	for i, c := range g.f.Consts {
		if c == v {
			g.emit(OpPushK, i)
			return
		}
	}
	g.f.Consts = append(g.f.Consts, v)
	g.emit(OpPushK, len(g.f.Consts)-1)
}

var (
	jitArith = []Op{OpAdd, OpSub, OpMul, OpDiv, OpMod}
	jitCmp   = []Op{OpLt, OpLe, OpGt, OpGe, OpEq, OpNe}
)

func (g *jgen) expr(d int) {
	if d <= 0 || g.rng.Intn(3) == 0 {
		switch g.rng.Intn(3) {
		case 0:
			g.konst(int32(g.rng.Intn(200) - 100))
		case 1:
			g.emit(OpLoadArg, g.rng.Intn(g.f.NArgs))
		default:
			g.emit(OpLoadVar, g.rng.Intn(g.f.NVars))
		}
		return
	}
	switch g.rng.Intn(6) {
	case 0:
		g.expr(d - 1)
		g.emit(OpNeg, 0)
	case 1:
		// A comparison kept as a 0/1 value.
		g.expr(d - 1)
		g.expr(d - 1)
		g.emit(jitCmp[g.rng.Intn(len(jitCmp))], 0)
	default:
		g.expr(d - 1)
		op := jitArith[g.rng.Intn(len(jitArith))]
		switch {
		case op != OpDiv && op != OpMod:
			g.expr(d - 1)
		case g.rng.Intn(2) == 0:
			g.konst(int32(1 + g.rng.Intn(9)))
		default:
			// v*v+1 is never 0 or -1: the ports disagree on division by
			// zero, and the interpreter is the reference here.
			v := g.rng.Intn(g.f.NVars)
			g.emit(OpLoadVar, v)
			g.emit(OpLoadVar, v)
			g.emit(OpMul, 0)
			g.konst(1)
			g.emit(OpAdd, 0)
		}
		g.emit(op, 0)
	}
}

// cond pushes a condition and emits the jz that leaves when it is false,
// returning the jz's pc for patching.
func (g *jgen) cond() int {
	if g.rng.Intn(4) == 0 {
		g.expr(2) // any value: jz without a compare to fuse with
	} else {
		g.expr(1)
		g.expr(1)
		g.emit(jitCmp[g.rng.Intn(len(jitCmp))], 0)
	}
	return g.emit(OpJz, 0)
}

func (g *jgen) stmts(n, depth int) {
	for ; n > 0; n-- {
		k := g.rng.Intn(8)
		if depth <= 0 && k >= 4 || g.inLoop && k == 6 {
			k = g.rng.Intn(4)
		}
		switch k {
		case 0, 1, 2:
			g.expr(3)
			g.store()
		case 3:
			// A variable loaded, overwritten while its copy is still on the
			// stack, then consumed: the aliasing case.
			v := g.rng.Intn(g.f.NVars - 1)
			g.emit(OpLoadVar, v)
			g.expr(1)
			g.emit(OpStoreVar, v)
			g.emit(OpLoadVar, v)
			g.emit(OpAdd, 0)
			g.store()
		case 4, 5:
			jz := g.cond()
			g.stmts(1+g.rng.Intn(2), depth-1)
			if g.rng.Intn(3) == 0 {
				g.expr(2)
				g.emit(OpRet, 0)
			}
			if g.rng.Intn(2) == 0 {
				jmp := g.emit(OpJmp, 0)
				g.f.Code[jz].A = len(g.f.Code)
				g.stmts(1+g.rng.Intn(2), depth-1)
				g.f.Code[jmp].A = len(g.f.Code)
			} else {
				g.f.Code[jz].A = len(g.f.Code)
			}
		case 6:
			// A bounded loop on the last variable; loops do not nest.
			c := g.f.NVars - 1
			g.konst(int32(1 + g.rng.Intn(5)))
			g.emit(OpStoreVar, c)
			head := len(g.f.Code)
			g.emit(OpLoadVar, c)
			g.konst(0)
			g.emit(OpGt, 0)
			jz := g.emit(OpJz, 0)
			g.inLoop = true
			g.stmts(1+g.rng.Intn(2), depth-1)
			g.inLoop = false
			g.emit(OpLoadVar, c)
			g.konst(1)
			g.emit(OpSub, 0)
			g.emit(OpStoreVar, c)
			g.emit(OpJmp, head)
			g.f.Code[jz].A = len(g.f.Code)
		default:
			// A value held on the stack across a diamond: the join point is
			// entered at depth 1 from both arms.
			g.expr(1)
			jz := g.cond()
			g.expr(1)
			g.store()
			jmp := g.emit(OpJmp, 0)
			g.f.Code[jz].A = len(g.f.Code)
			g.expr(2)
			g.store()
			g.f.Code[jmp].A = len(g.f.Code)
			g.store()
		}
	}
}

func genJit(rng *rand.Rand, id int) *Func {
	g := &jgen{rng: rng, f: &Func{Name: fmt.Sprintf("gen%02d", id), NArgs: 1 + id%2, NVars: 2 + id%3}}
	for v := 0; v < g.f.NVars; v++ {
		g.emit(OpLoadArg, v%g.f.NArgs)
		g.emit(OpStoreVar, v)
	}
	g.stmts(3+rng.Intn(4), 2)
	g.expr(2)
	g.emit(OpRet, 0)
	return g.f
}

// goldenCorpus is every function the word-hash golden covers: the samples,
// then 64 generated ones.
func goldenCorpus() []*Func {
	fs := []*Func{FibIter(), SumSquares(), Gcd(), Synthetic(3), BiasedLoop(), Poly()}
	rng := rand.New(rand.NewSource(29))
	for i := 0; i < 64; i++ {
		fs = append(fs, genJit(rng, i))
	}
	return fs
}

// TestGoldenWords holds every function of the corpus, compiled for every
// backend, to the words the compiler produced before its scratch state was
// rebuilt (testdata/words.golden, captured at afe4d60); each generated
// function is also run against the interpreter.
func TestGoldenWords(t *testing.T) {
	var got []string
	for _, target := range []string{"mips", "sparc", "alpha"} {
		m, err := NewMachineTarget(target, mem.Uncosted)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range goldenCorpus() {
			fn, err := m.Compile(f)
			if err != nil {
				t.Fatalf("%s/%s: %v", target, f.Name, err)
			}
			if err := regtest.CheckRows(m.backend, fn); err != nil {
				t.Error(err)
			}
			got = append(got, fmt.Sprintf("%s/%s\t%s", target, f.Name, regtest.WordsHash(fn, true)))
			args := []int32{7, -3}[:f.NArgs]
			want, _, err := Interp(f, args...)
			if err != nil {
				t.Fatalf("%s: interp: %v", f.Name, err)
			}
			if res, _, err := m.Run(fn, args...); err != nil || res != want {
				t.Errorf("%s/%s%v = %d, %v; interpreter says %d", target, f.Name, args, res, err, want)
			}
			if err := regtest.CheckBody(m.machine, fn); err != nil { // Run installed it
				t.Error(err)
			}
		}
	}
	regtest.Golden(t, "testdata/words.golden", got, *update)
}
