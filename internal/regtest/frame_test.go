package regtest

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
)

// frameCases build one function each whose activation record exercises one
// part of the §5.2 frame: locals alone, the return-address save, every
// callee-saved integer register, every callee-saved FP register, all of
// them at once, and a non-leaf that needs no frame (its returns become
// direct returns, the result move riding the delay slot).
var frameCases = []struct {
	name  string
	build func(a *core.Asm) error
}{
	{"locals", func(a *core.Asm) error {
		args, err := a.Begin("%i", core.Leaf)
		if err != nil {
			return err
		}
		a.StLocal(core.TypeI, args[0], a.Local(core.TypeL))
		a.Reti(args[0])
		return nil
	}},
	{"ra", func(a *core.Asm) error {
		args, err := a.Begin("%i", core.NonLeaf)
		if err != nil {
			return err
		}
		a.StartCall("")
		a.CallSym("callee")
		a.Reti(args[0])
		return nil
	}},
	{"gprs", func(a *core.Asm) error {
		args, err := a.Begin("%i", core.NonLeaf)
		if err != nil {
			return err
		}
		saveAll(a, args[0], false)
		a.Reti(args[0])
		return nil
	}},
	{"fprs", func(a *core.Asm) error {
		args, err := a.Begin("%i", core.NonLeaf)
		if err != nil {
			return err
		}
		saveAll(a, args[0], true)
		a.Reti(args[0])
		return nil
	}},
	{"all", func(a *core.Asm) error {
		args, err := a.Begin("%i", core.NonLeaf)
		if err != nil {
			return err
		}
		saveAll(a, args[0], false)
		saveAll(a, args[0], true)
		a.StLocal(core.TypeI, args[0], a.Local(core.TypeD))
		a.StartCall("")
		a.CallSym("callee")
		a.Reti(args[0])
		return nil
	}},
	{"direct", func(a *core.Asm) error {
		args, err := a.Begin("%i%i", core.NonLeaf)
		if err != nil {
			return err
		}
		a.Reti(args[1])
		return nil
	}},
}

// saveAll takes every callee-saved register of one bank (a non-leaf's Var
// requests are granted from them first) and writes each.
func saveAll(a *core.Asm, x core.Reg, fp bool) {
	conv := a.Conv()
	n := len(conv.CalleeSaved)
	if fp {
		n = len(conv.CalleeSavedFP)
	}
	for i := 0; i < n; i++ {
		if fp {
			f, _ := a.GetFReg(core.Var)
			a.ALU(core.OpAdd, core.TypeD, f, f, f)
		} else {
			r, _ := a.GetReg(core.Var)
			a.ALU(core.OpAdd, core.TypeI, r, x, x)
		}
	}
}

// frameWords pins, per port and case, Func.Entry and every word of the
// function: the reserved prologue region, the prologue written into its
// tail, the body, and the epilogue or the rewritten direct returns.
var frameWords = map[string]string{
	"mips/locals":  "entry 15: 00000000 00000000 00000000 00000000 00000000 00000000 00000000 00000000 00000000 00000000 00000000 00000000 00000000 00000000 00000000 27bdffa8 afa40050 00801021 10000001 00000000 03e00008 27bd0058",
	"mips/ra":      "entry 14: 00000000 00000000 00000000 00000000 00000000 00000000 00000000 00000000 00000000 00000000 00000000 00000000 00000000 00000000 27bdffb0 afbf0000 0c000000 00000000 00801021 10000001 00000000 8fbf0000 03e00008 27bd0050",
	"mips/gprs":    "entry 6: 00000000 00000000 00000000 00000000 00000000 00000000 27bdffb0 afb00004 afb10008 afb2000c afb30010 afb40014 afb50018 afb6001c afb70020 afbe0024 00848021 00848821 00849021 00849821 0084a021 0084a821 0084b021 0084b821 0084f021 00801021 10000001 00000000 8fb00004 8fb10008 8fb2000c 8fb30010 8fb40014 8fb50018 8fb6001c 8fb70020 8fbe0024 03e00008 27bd0050",
	"mips/fprs":    "entry 10: 00000000 00000000 00000000 00000000 00000000 00000000 00000000 00000000 00000000 00000000 27bdffb0 f7b40028 f7b60030 f7b80038 f7ba0040 f7bc0048 4634a500 4636b580 4638c600 463ad680 463ce700 00801021 10000001 00000000 d7b40028 d7b60030 d7b80038 d7ba0040 d7bc0048 03e00008 27bd0050",
	"mips/all":     "entry 0: 27bdffa8 afbf0000 afb00004 afb10008 afb2000c afb30010 afb40014 afb50018 afb6001c afb70020 afbe0024 f7b40028 f7b60030 f7b80038 f7ba0040 f7bc0048 00848021 00848821 00849021 00849821 0084a021 0084a821 0084b021 0084b821 0084f021 4634a500 4636b580 4638c600 463ad680 463ce700 afa40050 0c000000 00000000 00801021 10000001 00000000 8fbf0000 8fb00004 8fb10008 8fb2000c 8fb30010 8fb40014 8fb50018 8fb6001c 8fb70020 8fbe0024 d7b40028 d7b60030 d7b80038 d7ba0040 d7bc0048 03e00008 27bd0058",
	"mips/direct":  "entry 16: 00000000 00000000 00000000 00000000 00000000 00000000 00000000 00000000 00000000 00000000 00000000 00000000 00000000 00000000 00000000 00000000 03e00008 00a01021 00000000",
	"sparc/locals": "entry 14: 01000000 01000000 01000000 01000000 01000000 01000000 01000000 01000000 01000000 01000000 01000000 01000000 01000000 01000000 9c03bfa8 d023a050 10800002 01000000 81c3e008 9c03a058",
	"sparc/ra":     "entry 13: 01000000 01000000 01000000 01000000 01000000 01000000 01000000 01000000 01000000 01000000 01000000 01000000 01000000 9c03bfb0 de23a000 40000000 01000000 10800002 01000000 de03a000 81c3e008 9c03a050",
	"sparc/gprs":   "entry 6: 01000000 01000000 01000000 01000000 01000000 01000000 9c03bfb0 e023a004 e223a008 e423a00c e623a010 e823a014 ea23a018 ec23a01c ee23a020 a0020008 a2020008 a4020008 a6020008 a8020008 aa020008 ac020008 ae020008 10800002 01000000 e003a004 e203a008 e403a00c e603a010 e803a014 ea03a018 ec03a01c ee03a020 81c3e008 9c03a050",
	"sparc/fprs":   "entry 9: 01000000 01000000 01000000 01000000 01000000 01000000 01000000 01000000 01000000 9c03bfb0 e93ba028 ed3ba030 f13ba038 f53ba040 f93ba048 a9a50854 ada58856 b1a60858 b5a6885a b9a7085c 10800002 01000000 e91ba028 ed1ba030 f11ba038 f51ba040 f91ba048 81c3e008 9c03a050",
	"sparc/all":    "entry 0: 9c03bfa8 de23a000 e023a004 e223a008 e423a00c e623a010 e823a014 ea23a018 ec23a01c ee23a020 e93ba028 ed3ba030 f13ba038 f53ba040 f93ba048 a0020008 a2020008 a4020008 a6020008 a8020008 aa020008 ac020008 ae020008 a9a50854 ada58856 b1a60858 b5a6885a b9a7085c d023a050 40000000 01000000 10800002 01000000 de03a000 e003a004 e203a008 e403a00c e603a010 e803a014 ea03a018 ec03a01c ee03a020 e91ba028 ed1ba030 f11ba038 f51ba040 f91ba048 81c3e008 9c03a058",
	"sparc/direct": "entry 15: 01000000 01000000 01000000 01000000 01000000 01000000 01000000 01000000 01000000 01000000 01000000 01000000 01000000 01000000 01000000 81c3e008 90100009 01000000",
	"alpha/locals": "entry 16: 47ff041f 47ff041f 47ff041f 47ff041f 47ff041f 47ff041f 47ff041f 47ff041f 47ff041f 47ff041f 47ff041f 47ff041f 47ff041f 47ff041f 47ff041f 47ff041f 23deff70 b21e0080 46100400 c3e00000 23de0090 6bfa8000",
	"alpha/ra":     "entry 15: 47ff041f 47ff041f 47ff041f 47ff041f 47ff041f 47ff041f 47ff041f 47ff041f 47ff041f 47ff041f 47ff041f 47ff041f 47ff041f 47ff041f 47ff041f 23deff80 b75e0000 277f0000 237b0000 6b5b4000 46100400 c3e00000 a75e0000 23de0080 6bfa8000",
	"alpha/gprs":   "entry 9: 47ff041f 47ff041f 47ff041f 47ff041f 47ff041f 47ff041f 47ff041f 47ff041f 47ff041f 23deff80 b53e0008 b55e0010 b57e0018 b59e0020 b5be0028 b5de0030 b5fe0038 42100009 4210000a 4210000b 4210000c 4210000d 4210000e 4210000f 46100400 c3e00000 a53e0008 a55e0010 a57e0018 a59e0020 a5be0028 a5de0030 a5fe0038 23de0080 6bfa8000",
	"alpha/fprs":   "entry 8: 47ff041f 47ff041f 47ff041f 47ff041f 47ff041f 47ff041f 47ff041f 47ff041f 23deff80 9c5e0040 9c7e0048 9c9e0050 9cbe0058 9cde0060 9cfe0068 9d1e0070 9d3e0078 58421402 58631403 58841404 58a51405 58c61406 58e71407 59081408 59291409 46100400 c3e00000 8c5e0040 8c7e0048 8c9e0050 8cbe0058 8cde0060 8cfe0068 8d1e0070 8d3e0078 23de0080 6bfa8000",
	"alpha/all":    "entry 0: 23deff70 b75e0000 b53e0008 b55e0010 b57e0018 b59e0020 b5be0028 b5de0030 b5fe0038 9c5e0040 9c7e0048 9c9e0050 9cbe0058 9cde0060 9cfe0068 9d1e0070 9d3e0078 42100009 4210000a 4210000b 4210000c 4210000d 4210000e 4210000f 58421402 58631403 58841404 58a51405 58c61406 58e71407 59081408 59291409 b21e0080 277f0000 237b0000 6b5b4000 46100400 c3e00000 a75e0000 a53e0008 a55e0010 a57e0018 a59e0020 a5be0028 a5de0030 a5fe0038 8c5e0040 8c7e0048 8c9e0050 8cbe0058 8cde0060 8cfe0068 8d1e0070 8d3e0078 23de0090 6bfa8000",
	"alpha/direct": "entry 17: 47ff041f 47ff041f 47ff041f 47ff041f 47ff041f 47ff041f 47ff041f 47ff041f 47ff041f 47ff041f 47ff041f 47ff041f 47ff041f 47ff041f 47ff041f 47ff041f 47ff041f 46310400 6bfa8000",
}

// TestFrameWords holds the frame each port lays down to the words it laid
// down before the frame rules moved into core.
func TestFrameWords(t *testing.T) {
	for _, tg := range Targets() {
		t.Run(tg.Name, func(t *testing.T) {
			for _, c := range frameCases {
				a := core.NewAsm(tg.Backend)
				if err := c.build(a); err != nil {
					t.Fatal(err)
				}
				fn, err := a.End()
				if err != nil {
					t.Fatalf("%s: %v", c.name, err)
				}
				var sb strings.Builder
				fmt.Fprintf(&sb, "entry %d:", fn.Entry)
				for _, w := range fn.Words {
					fmt.Fprintf(&sb, " %08x", w)
				}
				key := tg.Name + "/" + c.name
				if got := sb.String(); got != frameWords[key] {
					t.Errorf("%s:\n got %s\nwant %s", key, got, frameWords[key])
				}
			}
		})
	}
}
