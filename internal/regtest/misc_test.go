package regtest

import (
	"math"
	"testing"

	"repro/internal/core"
)

// TestSetfuncIndirectCalls materializes a generated function's entry
// address with Setfunc and calls through it (install-time resolution of
// RelocAddr entry references) on every target.
func TestSetfuncIndirectCalls(t *testing.T) {
	for _, tg := range Targets() {
		tg := tg
		t.Run(tg.Name, func(t *testing.T) {
			bk := tg.Backend
			a := core.NewAsm(bk)
			args, err := a.BeginTypes([]core.Type{core.TypeI}, core.Leaf)
			if err != nil {
				t.Fatal(err)
			}
			a.Addii(args[0], args[0], 1000)
			a.Reti(args[0])
			callee, err := a.End()
			if err != nil {
				t.Fatal(err)
			}

			a2 := core.NewAsm(bk)
			args, err = a2.BeginTypes([]core.Type{core.TypeI}, core.NonLeaf)
			if err != nil {
				t.Fatal(err)
			}
			ptr, err := a2.GetReg(core.Var)
			if err != nil {
				t.Fatal(err)
			}
			a2.Setfunc(ptr, callee)
			a2.StartCall("%i")
			a2.SetArg(0, args[0])
			a2.CallReg(ptr)
			res, err := a2.GetReg(core.Temp)
			if err != nil {
				t.Fatal(err)
			}
			a2.RetVal(core.TypeI, res)
			a2.Reti(res)
			caller, err := a2.End()
			if err != nil {
				t.Fatal(err)
			}
			got, err := tg.NewMachine().Call(caller, core.I(7))
			if err != nil {
				t.Fatal(err)
			}
			if got.Int() != 1007 {
				t.Fatalf("got %d, want 1007", got.Int())
			}
		})
	}
}

// TestJalIntraFunction exercises v_jal to a label: a local subroutine
// reached twice, returning through JmpReg(RA).  The subroutine must not
// touch RA-saving machinery itself (the caller frame holds it).
func TestJalIntraFunction(t *testing.T) {
	for _, tg := range Targets() {
		tg := tg
		t.Run(tg.Name, func(t *testing.T) {
			bk := tg.Backend
			conv := bk.DefaultConv()
			a := core.NewAsm(bk)
			args, err := a.BeginTypes([]core.Type{core.TypeI}, core.NonLeaf)
			if err != nil {
				t.Fatal(err)
			}
			n := args[0]
			ret, err := a.GetReg(core.Temp)
			if err != nil {
				t.Fatal(err)
			}
			sub := a.NewLabel()
			done := a.NewLabel()
			// Call the local subroutine twice: n = ((n*2)+1)*2+1.
			a.Jal(sub)
			a.Jal(sub)
			a.Jmp(done)
			a.Bind(sub) // subroutine: n = n*2 + 1; return via RA
			a.Addi(n, n, n)
			a.Addii(n, n, 1)
			// Return through the link register, honouring the target's
			// return-address offset (SPARC returns to RA+8).
			a.Addpi(ret, conv.RA, int64(bk.RetAddrOffset()))
			a.JmpReg(ret)
			a.Bind(done)
			a.Reti(n)
			fn, err := a.End()
			if err != nil {
				t.Fatal(err)
			}
			got, err := tg.NewMachine().Call(fn, core.I(5))
			if err != nil {
				t.Fatal(err)
			}
			if got.Int() != 23 {
				t.Fatalf("got %d, want 23", got.Int())
			}
		})
	}
}

// TestSetfSingles pushes float32 constants through the pool on every
// target.
func TestSetfSingles(t *testing.T) {
	for _, tg := range Targets() {
		tg := tg
		t.Run(tg.Name, func(t *testing.T) {
			m := tg.NewMachine()
			for _, val := range []float32{0, 1.5, -2.25, 3.4e38, 1e-38, float32(math.Inf(1))} {
				a := core.NewAsm(tg.Backend)
				if _, err := a.BeginTypes(nil, core.Leaf); err != nil {
					t.Fatal(err)
				}
				f, err := a.GetFReg(core.Temp)
				if err != nil {
					t.Fatal(err)
				}
				a.Setf(f, val)
				a.Retf(f)
				fn, err := a.End()
				if err != nil {
					t.Fatal(err)
				}
				got, err := m.Call(fn)
				if err != nil {
					t.Fatal(err)
				}
				if math.Float32bits(got.Float32()) != math.Float32bits(val) {
					t.Errorf("Setf(%v) returned %v", val, got.Float32())
				}
			}
		})
	}
}

// TestExtensionsAllTargets runs the portable extension layer — and the
// hardware-overridden sqrt — on every port.
func TestExtensionsAllTargets(t *testing.T) {
	for _, tg := range Targets() {
		tg := tg
		t.Run(tg.Name, func(t *testing.T) {
			m := tg.NewMachine()
			// bswap4 (portable synthesis).
			a := core.NewAsm(tg.Backend)
			args, err := a.BeginTypes([]core.Type{core.TypeU}, core.Leaf)
			if err != nil {
				t.Fatal(err)
			}
			a.Ext("bswap4", core.TypeU, args[0], args[0])
			a.Retu(args[0])
			fn, err := a.End()
			if err != nil {
				t.Fatal(err)
			}
			got, err := m.Call(fn, core.U(0x11223344))
			if err != nil {
				t.Fatal(err)
			}
			if got.Uint() != 0x44332211 {
				t.Errorf("bswap4 = %#x", got.Uint())
			}

			// sqrt (hardware, a row of each port's mapping).
			a2 := core.NewAsm(tg.Backend)
			argsd, err := a2.BeginTypes([]core.Type{core.TypeD}, core.Leaf)
			if err != nil {
				t.Fatal(err)
			}
			a2.Ext("sqrt", core.TypeD, argsd[0], argsd[0])
			a2.Retd(argsd[0])
			fn2, err := a2.End()
			if err != nil {
				t.Fatal(err)
			}
			got, err = m.Call(fn2, core.D(2.25))
			if err != nil {
				t.Fatal(err)
			}
			if got.Float64() != 1.5 {
				t.Errorf("sqrt(2.25) = %v", got.Float64())
			}

			// prefetch (portable nop) must at least be accepted.
			a3 := core.NewAsm(tg.Backend)
			argp, err := a3.BeginTypes([]core.Type{core.TypeP}, core.Leaf)
			if err != nil {
				t.Fatal(err)
			}
			a3.Ext("prefetch", core.TypeP, argp[0], argp[0])
			a3.Retp(argp[0])
			if _, err := a3.End(); err != nil {
				t.Errorf("prefetch: %v", err)
			}
		})
	}
}
