package regtest

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/verify"
)

// buildCountdown assembles f(n) = n + (n-1) + … + 1 with a backward
// conditional branch — the shape the corruption tests pick apart.
func buildCountdown(t *testing.T, tg Target) *core.Func {
	t.Helper()
	a := core.NewAsm(tg.Backend)
	a.SetName("countdown")
	args, err := a.Begin("%i", core.Leaf)
	if err != nil {
		t.Fatal(err)
	}
	acc, err := a.GetReg(core.Temp)
	if err != nil {
		t.Fatal(err)
	}
	a.Seti(acc, 0)
	top := a.NewLabel()
	a.Bind(top)
	a.Addi(acc, acc, args[0])
	a.Subii(args[0], args[0], 1)
	a.Bgtii(args[0], 0, top)
	a.Reti(acc)
	fn, err := a.End()
	if err != nil {
		t.Fatal(err)
	}
	return fn
}

// TestVerifierRejectsCorruptedBranch flips the displacement sign bit of
// the loop branch in a good function: the pre-install verifier must
// reject the now out-of-range target, the failed install must roll back
// cleanly, and the restored function must install and run.
func TestVerifierRejectsCorruptedBranch(t *testing.T) {
	// Displacement sign-bit position per target ISA (imm16 / disp22 /
	// disp21) — flipping it keeps the opcode but throws the target far
	// out of the function.
	signBit := map[string]uint{"mips": 15, "sparc": 21, "alpha": 20}
	for _, tg := range Targets() {
		tg := tg
		t.Run(tg.Name, func(t *testing.T) {
			m := tg.NewMachine()
			fn := buildCountdown(t, tg)

			branch := -1
			for i, w := range fn.Words {
				in := tg.Backend.Classify(w, uint64(4*i))
				if in.Kind == verify.KindBranch && in.HasTarget {
					branch = i
					break
				}
			}
			if branch < 0 {
				t.Fatal("no conditional branch found to corrupt")
			}
			good := fn.Words[branch]
			fn.Words[branch] = good ^ 1<<signBit[tg.Name]

			err := m.Install(fn)
			if err == nil {
				t.Fatal("install accepted a corrupted branch")
			}
			if !errors.Is(err, verify.ErrBranchTarget) {
				t.Fatalf("err = %v, want ErrBranchTarget", err)
			}
			if m.Installed(fn) {
				t.Fatal("failed install left function marked installed")
			}

			// The rejected install must have rolled back completely:
			// restore the word and everything works.
			fn.Words[branch] = good
			if err := m.Install(fn); err != nil {
				t.Fatalf("reinstall after rollback: %v", err)
			}
			got, err := m.Call(fn, core.I(10))
			if err != nil {
				t.Fatal(err)
			}
			if got.Int() != 55 {
				t.Errorf("countdown(10) = %d, want 55", got.Int())
			}
		})
	}
}

// TestVerifierRejectsUnrunnableWord patches, over the nop of a
// three-instruction function, a word each target's simulator refuses to
// decode although its opcode group is a real one (MIPS div.w, a SPARC
// op3 and an Alpha INTM function nobody defined).  The verifier used to
// pass all three — they installed and failed only when called, with
// "unknown fp.w funct" / "unknown op3" / "unknown INTM funct".  Install
// must reject them as illegal, leave nothing resident, and accept the
// repaired function.
func TestVerifierRejectsUnrunnableWord(t *testing.T) {
	unrunnable := map[string]uint32{"mips": 0x469ca343, "sparc": 0x9acb0442, "alpha": 0x4d088f48}
	for _, tg := range Targets() {
		tg := tg
		t.Run(tg.Name, func(t *testing.T) {
			m := tg.NewMachine()
			a := core.NewAsm(tg.Backend)
			a.SetName("patched")
			args, err := a.Begin("%i", core.Leaf)
			if err != nil {
				t.Fatal(err)
			}
			a.Addii(args[0], args[0], 5)
			nop := a.Buf().Len()
			a.Nop()
			a.Reti(args[0])
			fn, err := a.End()
			if err != nil {
				t.Fatal(err)
			}
			good := fn.Words[nop]
			if s := tg.Backend.Disasm(good, 0); s != "nop" {
				t.Fatalf("word %d is %q, not the nop to patch", nop, s)
			}
			fn.Words[nop] = unrunnable[tg.Name]

			err = m.Install(fn)
			var ve *verify.Error
			if !errors.As(err, &ve) || !errors.Is(err, verify.ErrIllegalInsn) {
				t.Fatalf("Install = %v, want a *verify.Error wrapping ErrIllegalInsn", err)
			}
			if ve.Word != nop {
				t.Errorf("rejected word %d, want %d", ve.Word, nop)
			}
			if st := m.ArenaStats(); m.Installed(fn) || st.Funcs != 0 || st.CodeBytesResident != 0 {
				t.Fatalf("rejected install left code resident: installed=%v %+v", m.Installed(fn), st)
			}

			fn.Words[nop] = good
			if err := m.Install(fn); err != nil {
				t.Fatalf("install of the repaired function: %v", err)
			}
			got, err := m.Call(fn, core.I(37))
			if err != nil {
				t.Fatal(err)
			}
			if got.Int() != 42 {
				t.Errorf("patched(37) = %d, want 42", got.Int())
			}
		})
	}
}

// TestUnboundSymbolInstall installs a function calling a symbol nobody
// defined; the relocation step must fail with an error, not link
// garbage.
func TestUnboundSymbolInstall(t *testing.T) {
	for _, tg := range Targets() {
		tg := tg
		t.Run(tg.Name, func(t *testing.T) {
			m := tg.NewMachine()
			a := core.NewAsm(tg.Backend)
			a.SetName("dangling")
			if _, err := a.Begin("%i", core.NonLeaf); err != nil {
				t.Fatal(err)
			}
			a.StartCall("")
			a.CallSym("no-such-helper")
			a.RetVoid()
			fn, err := a.End()
			if err != nil {
				t.Fatal(err)
			}
			if err := m.Install(fn); err == nil {
				t.Fatal("install resolved a symbol that was never defined")
			}
			if m.Installed(fn) {
				t.Error("failed install left function marked installed")
			}
		})
	}
}

// TestCallDeadlineMidLoop runs an infinite loop under a context
// deadline and under a fuel budget; both sandboxes must cut it short
// with their typed error while the simulated CPU is mid-flight.
func TestCallDeadlineMidLoop(t *testing.T) {
	for _, tg := range Targets() {
		tg := tg
		t.Run(tg.Name, func(t *testing.T) {
			m := tg.NewMachine()
			a := core.NewAsm(tg.Backend)
			a.SetName("spin")
			args, err := a.Begin("%i", core.Leaf)
			if err != nil {
				t.Fatal(err)
			}
			top := a.NewLabel()
			a.Bind(top)
			a.Addii(args[0], args[0], 1)
			a.Jmp(top)
			a.Reti(args[0]) // unreachable
			fn, err := a.End()
			if err != nil {
				t.Fatal(err)
			}
			if err := m.Install(fn); err != nil {
				t.Fatal(err)
			}

			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
			defer cancel()
			start := time.Now()
			_, err = m.CallContext(ctx, fn, core.I(0))
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("err = %v, want DeadlineExceeded", err)
			}
			if el := time.Since(start); el > 5*time.Second {
				t.Errorf("cancellation took %v", el)
			}

			_, err = m.CallWith(context.Background(), core.CallOpts{Fuel: 5000}, fn, core.I(0))
			if !errors.Is(err, core.ErrFuelExhausted) {
				t.Fatalf("err = %v, want ErrFuelExhausted", err)
			}
		})
	}
}

// TestTrapPanicRecovery registers a runtime helper that panics; the
// sandbox must surface it as a *TrapPanicError naming the trap, and the
// machine must stay usable afterwards.
func TestTrapPanicRecovery(t *testing.T) {
	for _, tg := range Targets() {
		tg := tg
		t.Run(tg.Name, func(t *testing.T) {
			m := tg.NewMachine()
			if err := m.DefineTrap("boom", func(core.CPU, *mem.Memory) {
				panic("helper exploded")
			}); err != nil {
				t.Fatal(err)
			}

			a := core.NewAsm(tg.Backend)
			a.SetName("caller")
			if _, err := a.Begin("%i", core.NonLeaf); err != nil {
				t.Fatal(err)
			}
			a.StartCall("")
			a.CallSym("boom")
			a.RetVoid()
			fn, err := a.End()
			if err != nil {
				t.Fatal(err)
			}
			if err := m.Install(fn); err != nil {
				t.Fatal(err)
			}

			_, err = m.Call(fn, core.I(0))
			var tp *core.TrapPanicError
			if !errors.As(err, &tp) {
				t.Fatalf("err = %v, want *TrapPanicError", err)
			}
			if tp.Sym != "boom" || tp.Value != "helper exploded" {
				t.Errorf("trap panic contents: %+v", tp)
			}

			// The machine survives: a healthy function still runs.
			ok := buildCountdown(t, tg)
			if err := m.Install(ok); err != nil {
				t.Fatal(err)
			}
			got, err := m.Call(ok, core.I(4))
			if err != nil {
				t.Fatal(err)
			}
			if got.Int() != 10 {
				t.Errorf("countdown(4) = %d, want 10", got.Int())
			}
		})
	}
}
