package vasm

import (
	"strings"
	"testing"

	"repro/internal/alpha"
	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/mips"
	"repro/internal/regtest"
	"repro/internal/sparc"
)

func machines() map[string]*core.Machine {
	mm := mem.New(1<<24, false)
	sm := mem.New(1<<24, true)
	am := mem.New(1<<24, false)
	return map[string]*core.Machine{
		"mips":  core.NewMachine(mips.New(), mips.NewCPU(mm), mm),
		"sparc": core.NewMachine(sparc.New(), sparc.NewCPU(sm), sm),
		"alpha": core.NewMachine(alpha.New(), alpha.NewCPU(am), am),
	}
}

const factSrc = `
; iterative factorial
.func fact (%i) leaf
.reg acc temp i
    seti    acc, 1
loop:
    bleii   arg0, 1, done
    muli    acc, acc, arg0
    subii   arg0, arg0, 1
    jmp     loop
done:
    reti    acc
.end
`

// TestCorpusEmitsOnlyTableRows assembles every program of this file on
// every target and holds the encoders to the instruction tables: each
// emitted code word must be an instruction the simulator will run.
func TestCorpusEmitsOnlyTableRows(t *testing.T) {
	for _, src := range []string{factSrc, callSrc, recSrc, localSrc, dataSrc} {
		for name, m := range machines() {
			prog, err := Assemble(m, src)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			for _, fn := range prog.Funcs {
				if err := regtest.CheckRows(m.Backend(), fn); err != nil {
					t.Error(err)
				}
			}
		}
	}
}

func TestFactorialAllTargets(t *testing.T) {
	for name, m := range machines() {
		prog, err := Assemble(m, factSrc)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got, err := prog.Run("fact", core.I(6))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got.Int() != 720 {
			t.Errorf("%s: fact(6) = %d", name, got.Int())
		}
	}
}

const callSrc = `
.func square (%i) leaf
    muli   arg0, arg0, arg0
    reti   arg0
.end

; sum of squares 1..n, calling square (defined above) each iteration
.func sumsq (%i)
.reg acc var i
.reg n var i
    movi    n, arg0
    seti    acc, 0
loop:
    bleii   n, 0, done
    startcall (%i)
    setarg  0, n
    call    square
.reg tmp temp i
    retval  i, tmp
    addi    acc, acc, tmp
    subii   n, n, 1
    jmp     loop
done:
    reti    acc
.end
`

func TestCrossFunctionCalls(t *testing.T) {
	for name, m := range machines() {
		prog, err := Assemble(m, callSrc)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got, err := prog.Run("sumsq", core.I(5))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got.Int() != 55 {
			t.Errorf("%s: sumsq(5) = %d, want 55", name, got.Int())
		}
	}
}

const recSrc = `
; recursive fibonacci: forward reference to itself through the table
.func fib (%i)
.reg n var i
.reg a var i
    movi    n, arg0
    bltii   n, 2, base
    startcall (%i)
    subii   n, n, 1
    setarg  0, n
    call    fib
    retval  i, a
    startcall (%i)
    subii   n, n, 1
    setarg  0, n
    call    fib
.reg b temp i
    retval  i, b
    addi    a, a, b
    reti    a
base:
    reti    n
.end
`

func TestRecursion(t *testing.T) {
	m := machines()["mips"]
	prog, err := Assemble(m, recSrc)
	if err != nil {
		t.Fatal(err)
	}
	got, err := prog.Run("fib", core.I(12))
	if err != nil {
		t.Fatal(err)
	}
	if got.Int() != 144 {
		t.Errorf("fib(12) = %d, want 144", got.Int())
	}
}

const localSrc = `
.func spill (%i) leaf
.local slot i
.reg r temp i
    stii    arg0, sp, slot
    seti    arg0, 0
    ldii    r, sp, slot
    addii   r, r, 5
    reti    r
.end
`

const doubleSrc = `
.func half (%d) leaf
.reg two temp d
    setd   two, 2.0
    divd   arg0, arg0, two
    retd   arg0
.end

.func hyp (%d%d) leaf
    muld   arg0, arg0, arg0
    muld   arg1, arg1, arg1
    addd   arg0, arg0, arg1
    ext    sqrt, d, arg0, arg0
    retd   arg0
.end
`

func TestLocalsAndDoubles(t *testing.T) {
	m := machines()["mips"]
	prog, err := Assemble(m, localSrc+doubleSrc)
	if err != nil {
		t.Fatal(err)
	}
	got, err := prog.Run("spill", core.I(37))
	if err != nil {
		t.Fatal(err)
	}
	if got.Int() != 42 {
		t.Errorf("spill(37) = %d", got.Int())
	}
	got, err = prog.Run("half", core.D(9))
	if err != nil {
		t.Fatal(err)
	}
	if got.Float64() != 4.5 {
		t.Errorf("half(9) = %v", got.Float64())
	}
	got, err = prog.Run("hyp", core.D(3), core.D(4))
	if err != nil {
		t.Fatal(err)
	}
	if got.Float64() != 5 {
		t.Errorf("hyp(3,4) = %v", got.Float64())
	}
}

const dataSrc = `
.data squares
.word 0, 1, 4, 9, 16, 25, 36, 49

.func lookup (%i) leaf
.reg p temp p
.reg idx temp i
    setsym  p, squares
    lshii   idx, arg0, 2
    ldi     arg0, p, idx
    reti    arg0
.end
`

func TestDataSections(t *testing.T) {
	for name, m := range machines() {
		prog, err := Assemble(m, dataSrc)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for n := int32(0); n < 8; n++ {
			got, err := prog.Run("lookup", core.I(n))
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if got.Int() != int64(n*n) {
				t.Errorf("%s: lookup(%d) = %d", name, n, got.Int())
			}
		}
	}
}

func TestAssemblyErrors(t *testing.T) {
	m := machines()["mips"]
	for _, src := range []string{
		".func f (%i) leaf\n frob arg0\n.end",       // unknown instruction
		".func f (%i) leaf\n addi arg0, arg0\n.end", // wrong arity
		".func f (%i) leaf\n reti argX\n.end",       // unknown register
		".func f (%i) leaf\n jmp nowhere\n.end",     // unbound label
		".func f (%i) leaf\n reti arg0",             // missing .end
		"addi t0, t0, t0",                           // outside .func
		".func f (%i) leaf\n call g\n.end",          // unknown function
		".func f (%i) leaf\n.func g (%i)\n.end\n.end",
	} {
		if _, err := Assemble(m, src); err == nil {
			t.Errorf("assembled without error:\n%s", src)
		}
	}
}

const callsymSrc = `
.func t3 (%i)
.reg r temp i
    startcall (%i)
    setarg  0, arg0
    callsym triple
    retval  i, r
    reti    r
.end
`

// defineTriple registers the trap callsymSrc calls.
func defineTriple(m *core.Machine) error {
	conv := m.Backend().DefaultConv()
	return m.DefineTrap("triple", func(c core.CPU, _ *mem.Memory) {
		c.SetReg(conv.RetInt, 3*c.Reg(conv.IntArgs[0]))
	})
}

// TestRegisterJumpNeedsOperand: jmpr and callr with no operand are refused
// with a line-numbered error, as every other arity mistake is (they indexed
// their first operand unchecked, and panicked).
func TestRegisterJumpNeedsOperand(t *testing.T) {
	m := machines()["mips"]
	for src, want := range map[string]string{
		".func f (%i) leaf\n jmpr\n.end":       "vasm: line 2: jmpr needs a register",
		".func f (%i)\n\n callr ; r\n.end":     "vasm: line 3: callr needs a register",
		".func f (%i) leaf\nl: jmpr , ,\n.end": "vasm: line 2: jmpr needs a register",
	} {
		_, err := Assemble(m, src)
		if err == nil || err.Error() != want {
			t.Errorf("%q: error %v, want %s", src, err, want)
		}
	}
}

func TestCallSymTrap(t *testing.T) {
	m := machines()["mips"]
	if err := defineTriple(m); err != nil {
		t.Fatal(err)
	}
	prog, err := Assemble(m, callsymSrc)
	if err != nil {
		t.Fatal(err)
	}
	got, err := prog.Run("t3", core.I(14))
	if err != nil {
		t.Fatal(err)
	}
	if got.Int() != 42 {
		t.Fatalf("t3(14) = %d", got.Int())
	}
}

func TestCommentsAndFormatting(t *testing.T) {
	m := machines()["mips"]
	src := strings.ReplaceAll(factSrc, "loop:", "loop: ; top of loop")
	prog, err := Assemble(m, src)
	if err != nil {
		t.Fatal(err)
	}
	got, err := prog.Run("fact", core.I(3))
	if err != nil {
		t.Fatal(err)
	}
	if got.Int() != 6 {
		t.Errorf("fact(3) = %d", got.Int())
	}
}
