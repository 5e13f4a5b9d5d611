package superblock_test

import (
	"bytes"
	"testing"

	"repro/internal/alpha"
	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/mips"
	"repro/internal/regtest"
	"repro/internal/sparc"
	"repro/internal/superblock"
)

// fuzzMachines builds a small machine pair for one backend.  Fresh
// machines start with identical (zero) architectural state, so the two
// tiers stay bit-identical until the first trap.
func fuzzMachines(name string) (core.Backend, *core.Machine, *core.Machine) {
	switch name {
	case "sparc":
		m1, m2 := mem.New(1<<22, true), mem.New(1<<22, true)
		return sparc.New(), core.NewMachine(sparc.New(), sparc.NewCPU(m1), m1),
			core.NewMachine(sparc.New(), sparc.NewCPU(m2), m2)
	case "alpha":
		m1, m2 := mem.New(1<<22, false), mem.New(1<<22, false)
		return alpha.New(), core.NewMachine(alpha.New(), alpha.NewCPU(m1), m1),
			core.NewMachine(alpha.New(), alpha.NewCPU(m2), m2)
	default:
		m1, m2 := mem.New(1<<22, false), mem.New(1<<22, false)
		return mips.New(), core.NewMachine(mips.New(), mips.NewCPU(m1), m1),
			core.NewMachine(mips.New(), mips.NewCPU(m2), m2)
	}
}

var fuzzOps = []core.Op{core.OpAdd, core.OpSub, core.OpMul, core.OpAnd, core.OpOr, core.OpXor}
var fuzzBrOps = []core.Op{core.OpBeq, core.OpBne, core.OpBlt, core.OpBge, core.OpBgt, core.OpBle}

// buildFuzzLoop decodes the fuzz bytes into a counted loop whose body is
// a statement sequence over {sum, t1, t2}, loads and stores into a data
// buffer, and data-dependent branches to the loop tail or the exit.
func buildFuzzLoop(a *core.Asm, body []byte, dataAddr uint64) (*core.Func, error) {
	a.SetName("fuzzloop")
	args, err := a.BeginTypes([]core.Type{core.TypeI, core.TypeP}, core.Leaf)
	if err != nil {
		return nil, err
	}
	n, p := args[0], args[1]
	_ = dataAddr
	var sum, i, t1, t2 core.Reg
	for _, r := range []*core.Reg{&sum, &i} {
		if *r, err = a.GetReg(core.Var); err != nil {
			return nil, err
		}
	}
	for _, r := range []*core.Reg{&t1, &t2} {
		if *r, err = a.GetReg(core.Temp); err != nil {
			return nil, err
		}
	}
	a.SetI(core.TypeI, sum, 1)
	a.SetI(core.TypeI, t1, 2)
	a.SetI(core.TypeI, t2, 3)
	a.SetI(core.TypeI, i, 0)
	loop, cont, done := a.NewLabel(), a.NewLabel(), a.NewLabel()
	a.Bind(loop)
	a.Br(core.OpBge, core.TypeI, i, n, done)
	regs := []core.Reg{sum, t1, t2}
	for len(body) >= 3 {
		op, sel, imm := body[0], body[1], int64(int8(body[2]))
		body = body[3:]
		rd, rs := regs[sel%3], regs[(sel/3)%3]
		off := int64(op%16) * 4
		switch op % 6 {
		case 0:
			a.ALU(fuzzOps[sel%6], core.TypeI, rd, rd, rs)
		case 1:
			a.ALUI(fuzzOps[sel%6], core.TypeI, rd, rs, imm)
		case 2:
			a.LdI(core.TypeI, rd, p, off)
		case 3:
			a.StI(core.TypeI, rd, p, off)
		case 4:
			tgt := cont
			if sel&0x40 != 0 {
				tgt = done
			}
			a.BrI(fuzzBrOps[sel%6], core.TypeI, rd, imm, tgt)
		case 5:
			a.Unary(core.OpMov, core.TypeI, rd, rs)
		}
	}
	a.Bind(cont)
	a.ALUI(core.OpAdd, core.TypeI, i, i, 1)
	a.Jmp(loop)
	a.Bind(done)
	a.ALU(core.OpAdd, core.TypeI, sum, sum, t1)
	a.ALU(core.OpAdd, core.TypeI, sum, sum, t2)
	a.Ret(core.TypeI, sum)
	return a.End()
}

// FuzzSuperblockDifferential generates small branchy loops from the fuzz
// input, forms a superblock under an arbitrary synthetic branch profile,
// and requires tier-2 and tier-3 to agree on results, traps, registers,
// and data memory on all three backends.  Formation must preserve
// semantics under ANY bias input — the profile only steers which plan is
// chosen, never what it computes — so the fuzzer drives the bias source
// directly instead of training a profiler.
func FuzzSuperblockDifferential(f *testing.F) {
	f.Add([]byte{0, 3, 7, 4, 0x41, 250, 2, 9, 0, 3, 5, 16, 1, 2, 200})
	f.Add([]byte{5, 4, 0x02, 4, 0x45, 1, 0, 0, 0})
	f.Add([]byte{9, 2, 1, 3, 1, 8, 2, 4, 8})
	f.Add(bytes.Repeat([]byte{4, 0x43, 50}, 8))

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		seed := uint32(data[0]) | uint32(data[1])<<8
		body := data[2:]
		if len(body) > 30 {
			body = body[:30]
		}
		bias := func(site int) (uint64, uint64, bool) {
			h := (uint32(site)*2654435761 + seed) >> 4
			switch h % 4 {
			case 0:
				return 100, 0, true
			case 1:
				return 0, 100, true
			case 2:
				return 50, 50, true
			default:
				return 0, 0, false
			}
		}

		for _, tgt := range regtest.Targets() {
			bk, m2, m3 := fuzzMachines(tgt.Name)
			dataAddr, err := m2.Alloc(256)
			if err != nil {
				t.Fatal(err)
			}
			if a3, err := m3.Alloc(256); err != nil || a3 != dataAddr {
				t.Fatalf("data regions diverge: %#x vs %#x (%v)", dataAddr, a3, err)
			}
			a := core.NewAsm(bk)
			a.Record(true)
			fn2, err := buildFuzzLoop(a, body, dataAddr)
			if err != nil {
				return // sticky build error (e.g. too many statements): not a finding
			}
			rec := a.TakeRecording()
			if rec == nil {
				t.Fatalf("%s: no recording", tgt.Name)
			}
			plan, err := superblock.Form(rec, bias, superblock.Options{})
			if err != nil {
				t.Fatalf("%s: form: %v", tgt.Name, err)
			}
			fn3, _, err := plan.Compile(core.NewAsm(bk))
			if err != nil {
				t.Fatalf("%s: compile: %v", tgt.Name, err)
			}
			if err := m2.Install(fn2); err != nil {
				t.Fatal(err)
			}
			if err := m3.Install(fn3); err != nil {
				t.Fatal(err)
			}

			seedData := func(m *core.Machine) {
				buf := make([]byte, 256)
				for i := range buf {
					buf[i] = byte(i*5 + int(seed))
				}
				if err := m.Mem().WriteBytes(dataAddr, buf); err != nil {
					t.Fatal(err)
				}
			}
			ptr := bk.PtrBytes()
			pv := regtest.MakeValue(core.TypeP, dataAddr, ptr)
			for _, n := range []int32{0, 1, 3} {
				seedData(m2)
				seedData(m3)
				v2, err2 := m2.Call(fn2, core.I(n), pv)
				v3, err3 := m3.Call(fn3, core.I(n), pv)
				if (err2 == nil) != (err3 == nil) {
					t.Fatalf("%s n=%d: trap divergence: tier-2 %v, tier-3 %v", tgt.Name, n, err2, err3)
				}
				if err2 != nil {
					break // post-trap junk may diverge; stop this backend
				}
				if v2.Bits != v3.Bits {
					t.Fatalf("%s n=%d: result %#x vs %#x", tgt.Name, n, v2.Bits, v3.Bits)
				}
				b2, _ := m2.Mem().ReadBytes(dataAddr, 256)
				b3, _ := m3.Mem().ReadBytes(dataAddr, 256)
				if !bytes.Equal(b2, b3) {
					t.Fatalf("%s n=%d: data memory diverged", tgt.Name, n)
				}
				sc := bk.ScratchReg()
				for ri := 0; ri < 32; ri++ {
					r := core.GPR(ri)
					if r == sc {
						continue
					}
					if a, b := m2.CPU().Reg(r), m3.CPU().Reg(r); a != b {
						t.Fatalf("%s n=%d: register %s: %#x vs %#x", tgt.Name, n, r, a, b)
					}
				}
			}
		}
	})
}
