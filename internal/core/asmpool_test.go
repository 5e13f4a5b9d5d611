package core_test

import (
	"errors"
	"slices"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/jit"
	"repro/internal/regtest"
	"repro/internal/tinyc"
	"repro/internal/vasm"
)

// Programs of the three front ends with no calls between functions and no
// .data: what they compile to does not depend on what else the machine
// holds, so every compile can be held to a reference made on a machine of
// its own.
var (
	poolTinyc = []string{
		"int f(int n) { int s = 0; while (n > 0) { s = s + n % 7; n = n - 1; } return s; }",
		"double g(double x, int k) { double y = x; for (int i = 0; i < k; i = i + 1) { if (y > 100.0) break; y = y * 1.5 + i; } return y; }",
		"int h(int a, int b) { if (a > 0 && b > 0 || !a) return a / (b + 101); return -b; }",
	}
	poolVasm = []string{
		".func fact (%i) leaf\n.reg acc temp i\n seti acc, 1\nloop:\n bleii arg0, 1, done\n muli acc, acc, arg0\n subii arg0, arg0, 1\n jmp loop\ndone:\n reti acc\n.end\n",
		".func half (%d) leaf\n.reg two temp d\n.local slot d\n setd two, 2.0\n divd arg0, arg0, two\n stdi arg0, sp, slot\n lddi arg0, sp, slot\n retd arg0\n.end\n",
		".func mix (%i%i) leaf\n.reg r temp i\n divi r, arg0, arg1\n modi arg0, arg0, arg1\n xori r, r, arg0\n reti r\n.end\n",
	}
	poolJit = []*jit.Func{jit.FibIter(), jit.SumSquares(), jit.Gcd(), jit.Poly(), jit.BiasedLoop()}
)

// poolCompile runs one program of the corpus through its front end on m and
// takes it out again, returning the masked hash of each function.
func poolCompile(m *core.Machine, i int) ([]string, error) {
	var fns []*core.Func
	var unit *core.Unit // nil for the jit's loose function
	switch n := i % 3; n {
	case 0:
		prog, err := tinyc.Parse(poolTinyc[i/3%len(poolTinyc)])
		if err != nil {
			return nil, err
		}
		c := tinyc.NewCompiler(m)
		if err := c.Compile(prog); err != nil {
			return nil, err
		}
		unit = c.Unit()
		fns = unit.Funcs()
	case 1:
		prog, err := vasm.Assemble(m, poolVasm[i/3%len(poolVasm)])
		if err != nil {
			return nil, err
		}
		unit = prog.Unit
		fns = unit.Funcs()
	default:
		a := m.BorrowAsm()
		fn, err := jit.CompileInto(a, poolJit[i/3%len(poolJit)])
		if err != nil {
			return nil, err
		}
		m.ReturnAsm(a)
		if err := m.Install(fn); err != nil {
			return nil, err
		}
		fns = []*core.Func{fn}
	}
	var hashes []string
	for _, fn := range fns {
		hashes = append(hashes, fn.Name+" "+regtest.WordsHash(fn, true))
		if unit == nil {
			if err := m.Uninstall(fn); err != nil {
				return nil, err
			}
		}
	}
	if unit != nil {
		unit.Unload()
	}
	return hashes, nil
}

// TestRecycledAsmsLeakNothing: while eight goroutines compile the three
// front ends' programs through one machine, others borrow assemblers and
// leave each in the worst state a borrower can — an extension defined,
// recording armed, a sticky error mid-build, a panic between Begin and End
// — and hand them back.  Every compile must still produce the words a
// machine of its own produces, and every function then built on a borrowed
// assembler the words a fresh core.NewAsm builds, with no recording, and
// with the other borrower's extension unknown.  Run under -race.
func TestRecycledAsmsLeakNothing(t *testing.T) {
	const rounds = 60
	for _, tg := range regtest.Targets() {
		t.Run(tg.Name, func(t *testing.T) {
			want := make([][]string, 3*5)
			for i := range want {
				var err error
				if want[i], err = poolCompile(tg.NewMachine(), i); err != nil {
					t.Fatal(err)
				}
			}
			probeWant, err := emitMix(core.NewAsm(tg.Backend), 64)
			if err != nil {
				t.Fatal(err)
			}

			m := tg.NewMachine()
			var wg sync.WaitGroup
			spawn := func(n int, body func(worker, round int)) {
				for w := 0; w < n; w++ {
					wg.Add(1)
					go func(w int) {
						defer wg.Done()
						for r := 0; r < rounds; r++ {
							body(w, r)
						}
					}(w)
				}
			}
			spawn(8, func(w, r int) {
				i := (w + r) % len(want)
				got, err := poolCompile(m, i)
				if err != nil {
					t.Errorf("program %d: %v", i, err)
				} else if !slices.Equal(got, want[i]) {
					t.Errorf("program %d compiled to %v, on a machine of its own to %v", i, got, want[i])
				}
			})
			spawn(1, func(_, _ int) { // (a) defines an extension, uses it, hands the assembler back
				a := m.BorrowAsm()
				a.DefineExt(&core.ExtDef{Name: "poolext", NSrc: 1, Types: []core.Type{core.TypeI},
					Synth: func(a *core.Asm, t core.Type, rd core.Reg, rs []core.Reg) { a.Unary(core.OpMov, t, rd, rs[0]) }})
				args, err := a.Begin("%i", core.Leaf)
				if err != nil {
					t.Error(err)
					return
				}
				a.Ext("poolext", core.TypeI, args[0], args[0])
				a.Reti(args[0])
				if _, err := a.End(); err != nil {
					t.Error(err)
				}
				m.ReturnAsm(a)
			})
			spawn(1, func(_, _ int) { // (b) arms recording and leaves the recording on it
				a := m.BorrowAsm()
				a.Record(true)
				if _, err := emitMix(a, 16); err != nil {
					t.Error(err)
				}
				m.ReturnAsm(a)
			})
			spawn(1, func(_, r int) { // (c) fails mid-build; hands it back mid-build, or after End
				a := m.BorrowAsm()
				args, err := a.Begin("%i", core.Leaf)
				if err != nil {
					t.Error(err)
					return
				}
				a.ALU(core.OpAdd, core.TypeD, args[0], args[0], args[0]) // an integer register as a double
				if a.Err() == nil {
					t.Error("no sticky error")
				}
				if r%2 == 0 {
					if _, err := a.End(); err == nil {
						t.Error("End succeeded after a sticky error")
					}
				}
				m.ReturnAsm(a)
			})
			spawn(1, func(_, _ int) { // (d) panics between Begin and End
				a := m.BorrowAsm()
				defer func() {
					recover()
					m.ReturnAsm(a)
				}()
				if _, err := a.Begin("%i", core.Leaf); err != nil {
					t.Error(err)
				}
				panic("front end bug")
			})
			spawn(2, func(_, _ int) { // what the next borrower gets
				a := m.BorrowAsm()
				got, err := emitMix(a, 64)
				if err != nil {
					t.Errorf("build on a borrowed assembler: %v", err)
					return
				}
				if !slices.Equal(got.Words, probeWant.Words) || got.Name != probeWant.Name {
					t.Errorf("borrowed assembler built %q %x, a fresh one %q %x", got.Name, got.Words, probeWant.Name, probeWant.Words)
				}
				if rec := a.TakeRecording(); rec != nil {
					t.Errorf("borrowed assembler recorded %d events for a borrower that never armed it", len(rec.Events))
				}
				args, err := a.Begin("%i", core.Leaf)
				if err != nil {
					t.Error(err)
					return
				}
				a.Ext("poolext", core.TypeI, args[0], args[0])
				if _, err := a.End(); !errors.Is(err, core.ErrUnknownExt) {
					t.Errorf("another borrower's extension: error %v, want ErrUnknownExt", err)
				}
				// Ended with an error: ReturnAsm drops it, which is fine.
				m.ReturnAsm(a)
			})
			wg.Wait()
		})
	}
}

// TestReturnAsmKeepsOnlyTheReusable pins the hand-back rules one at a time.
func TestReturnAsmKeepsOnlyTheReusable(t *testing.T) {
	tg := regtest.Targets()[0]
	m := tg.NewMachine()
	reused := func(a *core.Asm) bool {
		m.ReturnAsm(a)
		b := m.BorrowAsm()
		return a == b
	}
	a := m.BorrowAsm()
	if _, err := emitMix(a, 8); err != nil {
		t.Fatal(err)
	}
	if !reused(a) {
		t.Error("an assembler handed back after a clean build was not handed out again")
	}
	// What the borrower set is gone when the same assembler comes back.
	a.SetName("mine")
	a.Record(true)
	a.DefineExt(&core.ExtDef{Name: "poolext", NSrc: 1, Types: []core.Type{core.TypeI}})
	if !reused(a) {
		t.Fatal("not handed out again")
	}
	fn, err := emitMix(a, 8)
	if err != nil || fn.Name != "" || a.TakeRecording() != nil {
		t.Errorf("after hand-back: built %q, %v, recording %v; want no name, no recording", fn.Name, err, a.TakeRecording() != nil)
	}
	args, _ := a.Begin("%i", core.Leaf)
	a.Ext("poolext", core.TypeI, args[0], args[0])
	if _, err := a.End(); !errors.Is(err, core.ErrUnknownExt) {
		t.Errorf("after hand-back: the previous borrower's extension gives %v, want ErrUnknownExt", err)
	}
	if reused(a) {
		t.Error("an assembler handed back with a sticky error was handed out again")
	}
	a = m.BorrowAsm()
	m.ReturnAsm(a)
	m.ReturnAsm(a) // twice
	if b, c := m.BorrowAsm(), m.BorrowAsm(); b == c {
		t.Error("an assembler returned twice reached two borrowers")
	}
	if a := m.BorrowAsm(); func() bool { _, _ = a.Begin("%i", core.Leaf); return reused(a) }() {
		t.Error("an assembler handed back mid-build was handed out again")
	}
	if reused(core.NewAsm(regtest.Targets()[1].Backend)) {
		t.Error("another backend's assembler was handed out")
	}
	if reused(core.NewAsmConv(m.Backend(), m.Backend().DefaultConv().Clone())) {
		t.Error("an assembler with a substituted calling convention was handed out")
	}
	for i := 0; i < 16; i++ { // more than the machine keeps: the rest are dropped, not an error
		m.ReturnAsm(core.NewAsm(m.Backend()))
	}
}
