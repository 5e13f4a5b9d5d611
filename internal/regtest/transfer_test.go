package regtest

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
)

// transferWords pins, per port, the words of one function that emits every
// fixed-shape transfer and address — Jmp, JmpReg, Jal, JalReg, CallFunc,
// CallSym, Setfunc, SetSym, RetVoid, Nop and a division (Alpha's is a call
// to its runtime helper) — as End leaves them ("end") and as Install
// relocates them on a fresh machine ("installed": the callee at 0x1000,
// named "callee" too, the function after it, and "sym" at 0x12345678).
var transferWords = map[string]string{
	"mips/end":        "00000000 00000000 00000000 00000000 00000000 00000000 00000000 00000000 00000000 00000000 00000000 00000000 00000000 27bdffb0 afbf0000 afb00004 24100000 10000003 00000000 02000008 00000000 04110003 00000000 0200f809 00000000 0c000000 00000000 0c000000 00000000 3c100000 36100000 3c100000 36100000 0085001a 00002012 10000005 00000000 00000000 00801021 10000001 00000000 8fbf0000 8fb00004 03e00008 27bd0050",
	"mips/installed":  "00000000 00000000 00000000 00000000 00000000 00000000 00000000 00000000 00000000 00000000 00000000 00000000 00000000 27bdffb0 afbf0000 afb00004 24100000 10000003 00000000 02000008 00000000 04110003 00000000 0200f809 00000000 0c000410 00000000 0c000400 00000000 3c100000 36101040 3c101234 36105678 0085001a 00002012 10000005 00000000 00000000 00801021 10000001 00000000 8fbf0000 8fb00004 03e00008 27bd0050",
	"sparc/end":       "01000000 01000000 01000000 01000000 01000000 01000000 01000000 01000000 01000000 01000000 01000000 01000000 9c03bfb0 de23a000 e023a004 a0102000 10800004 01000000 81c42000 01000000 40000004 01000000 9fc42000 01000000 40000000 01000000 40000000 01000000 21000000 a0142000 21000000 a0142000 8f3a201f 8181c000 907a0009 10800005 01000000 01000000 10800002 01000000 de03a000 e003a004 81c3e008 9c03a050",
	"sparc/installed": "01000000 01000000 01000000 01000000 01000000 01000000 01000000 01000000 01000000 01000000 01000000 01000000 9c03bfb0 de23a000 e023a004 a0102000 10800004 01000000 81c42000 01000000 40000004 01000000 9fc42000 01000000 7fffffe3 01000000 7fffffd2 01000000 21000004 a014203c 21048d15 a0142278 8f3a201f 8181c000 907a0009 10800005 01000000 01000000 10800002 01000000 de03a000 e003a004 81c3e008 9c03a050",
	"alpha/end":       "47ff041f 47ff041f 47ff041f 47ff041f 47ff041f 47ff041f 47ff041f 47ff041f 47ff041f 47ff041f 47ff041f 47ff041f 47ff041f 47ff041f 23deff80 b75e0000 b53e0008 213f0000 c3e00001 6be90000 d3400001 6b494000 277f0000 237b0000 6b5b4000 277f0000 237b0000 6b5b4000 253f0000 21290000 253f0000 21290000 239fffd0 43dc041e b61e0000 b63e0008 b61e0010 b63e0018 b41e0020 b75e0028 a61e0000 a63e0008 277f0000 237b0000 6b5b4000 44000410 a75e0028 a63e0018 a41e0020 43c6141e c3e00003 47ff041f 46100400 c3e00000 a75e0000 a53e0008 23de0080 6bfa8000",
	"alpha/installed": "47ff041f 47ff041f 47ff041f 47ff041f 47ff041f 47ff041f 47ff041f 47ff041f 47ff041f 47ff041f 47ff041f 47ff041f 47ff041f 47ff041f 23deff80 b75e0000 b53e0008 213f0000 c3e00001 6be90000 d3400001 6b494000 277f0000 237b1044 6b5b4000 277f0000 237b1000 6b5b4000 253f0000 21291044 253f1234 21295678 239fffd0 43dc041e b61e0000 b63e0008 b61e0010 b63e0018 b41e0020 b75e0028 a61e0000 a63e0008 277f0000 237b0050 6b5b4000 44000410 a75e0028 a63e0018 a41e0020 43c6141e c3e00003 47ff041f 46100400 c3e00000 a75e0000 a53e0008 23de0080 6bfa8000",
}

// transferCase builds the function TestTransferWords pins, calling g.
func transferCase(a *core.Asm, g *core.Func) error {
	args, err := a.Begin("%i%i", core.NonLeaf)
	if err != nil {
		return err
	}
	r, err := a.GetReg(core.Var)
	if err != nil {
		return err
	}
	l, m := a.NewLabel(), a.NewLabel()
	a.Seti(r, 0)
	a.Jmp(l)
	a.JmpReg(r)
	a.Bind(l)
	a.Jal(m)
	a.JalReg(r)
	a.Bind(m)
	a.StartCall("")
	a.CallFunc(g)
	a.StartCall("")
	a.CallSym("callee")
	a.Setfunc(r, g)
	a.SetSym(r, "sym")
	a.ALU(core.OpDiv, core.TypeI, args[0], args[0], args[1])
	a.RetVoid()
	a.Nop()
	a.Reti(args[0])
	return nil
}

func wordsOf(fn *core.Func) string {
	var sb strings.Builder
	for i, w := range fn.Words {
		if i > 0 {
			sb.WriteByte(' ')
		}
		fmt.Fprintf(&sb, "%08x", w)
	}
	return sb.String()
}

// TestTransferWords holds every port's jumps, calls and address pairs, as
// emitted and as relocated, to the words the ports' own emitters and
// patchers produced before the words became declared data.
func TestTransferWords(t *testing.T) {
	for _, tg := range Targets() {
		t.Run(tg.Name, func(t *testing.T) {
			m := tg.NewMachine()
			a := core.NewAsm(tg.Backend)
			if _, err := a.Begin("", core.Leaf); err != nil {
				t.Fatal(err)
			}
			a.RetVoid()
			g, err := a.End()
			if err != nil {
				t.Fatal(err)
			}
			if err := transferCase(a, g); err != nil {
				t.Fatal(err)
			}
			fn, err := a.End()
			if err != nil {
				t.Fatal(err)
			}
			got := map[string]string{"end": wordsOf(fn)}
			if err := m.Install(g); err != nil {
				t.Fatal(err)
			}
			if err := m.DefineSym("callee", g.Addr()); err != nil {
				t.Fatal(err)
			}
			if err := m.DefineSym("sym", 0x12345678); err != nil {
				t.Fatal(err)
			}
			if err := m.Install(fn); err != nil {
				t.Fatal(err)
			}
			if g.Addr() != 0x1000 {
				t.Fatalf("callee at %#x, want 0x1000", g.Addr())
			}
			got["installed"] = wordsOf(fn)
			for _, stage := range []string{"end", "installed"} {
				key := tg.Name + "/" + stage
				if got[stage] != transferWords[key] {
					t.Errorf("%s:\n got %s\nwant %s", key, got[stage], transferWords[key])
				}
			}
		})
	}
}

// relocReach is, per port, the largest address SetSym's pair holds.
var relocReach = map[string]uint64{"mips": 0xffffffff, "sparc": 0xffffffff, "alpha": 0x7fff7fff}

// setSym builds a leaf that returns the address SetSym materializes for sym.
func setSym(tg Target, sym string) (*core.Func, error) {
	a := core.NewAsm(tg.Backend)
	if _, err := a.Begin("", core.Leaf); err != nil {
		return nil, err
	}
	r, err := a.GetReg(core.Temp)
	if err != nil {
		return nil, err
	}
	a.SetSym(r, sym)
	a.Ret(core.TypeP, r)
	return a.End()
}

// TestRelocRange holds relocation to what the declared fields can hold: an
// address at the edge of an address pair's reach comes back exactly, the
// next one up is ErrRelocRange at Install, never a truncated address, and
// so is a MIPS jal to a symbol outside the caller's 256 MB region.
func TestRelocRange(t *testing.T) {
	for _, tg := range Targets() {
		t.Run(tg.Name, func(t *testing.T) {
			m := tg.NewMachine()
			reach := relocReach[tg.Name]
			for _, addr := range []uint64{reach, reach + 1} {
				sym := fmt.Sprintf("at%x", addr)
				if err := m.DefineSym(sym, addr); err != nil {
					t.Fatal(err)
				}
				fn, err := setSym(tg, sym)
				if err != nil {
					t.Fatal(err)
				}
				err = m.Install(fn)
				if addr > reach {
					if !errors.Is(err, core.ErrRelocRange) {
						t.Errorf("SetSym %#x: Install = %v, want ErrRelocRange", addr, err)
					}
					continue
				}
				if err != nil {
					t.Fatalf("SetSym %#x: %v", addr, err)
				}
				if got, err := m.Call(fn); err != nil || got.Uint() != addr {
					t.Errorf("SetSym %#x: Call = %#x, %v", addr, got.Uint(), err)
				}
			}
			if tg.Name != "mips" {
				return
			}
			if err := m.DefineSym("far", 0x10000000); err != nil {
				t.Fatal(err)
			}
			a := core.NewAsm(tg.Backend)
			if _, err := a.Begin("", core.NonLeaf); err != nil {
				t.Fatal(err)
			}
			a.StartCall("")
			a.CallSym("far")
			a.RetVoid()
			fn, err := a.End()
			if err != nil {
				t.Fatal(err)
			}
			if err := m.Install(fn); !errors.Is(err, core.ErrRelocRange) {
				t.Errorf("CallSym outside the 256 MB region: Install = %v, want ErrRelocRange", err)
			}
		})
	}
}
