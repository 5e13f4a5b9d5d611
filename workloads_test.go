package repro

import (
	"testing"

	"repro/internal/core"
	"repro/internal/dcg"
	"repro/internal/mem"
	"repro/internal/mips"
)

// The code-generation-cost workload behind the paper's headline numbers
// (abstract, §5.1, §7) and BenchmarkCodegen*: the same instruction stream
// specified through VCODE with allocator-managed registers, through VCODE
// with hard-coded register names (§5.3), and through the DCG-style
// IR-building baseline.

// blocks is the standard workload size: each block specifies ten VCODE
// instructions mixing ALU, immediate, memory and branch forms — the mix a
// compiler front end or packet-filter generator produces.
const blocks = 100

// emitVCODE generates the workload through the per-instruction interface.
// hard selects hard-coded register names instead of the allocator.  It
// returns the generated function and the number of VCODE instructions.
func emitVCODE(a *core.Asm, hard bool) (*core.Func, int, error) {
	args, err := a.Begin("%p%i", core.Leaf)
	if err != nil {
		return nil, 0, err
	}
	base, n := args[0], args[1]
	var r1, r2 core.Reg
	if hard {
		r1, r2 = a.T(0), a.T(1)
	} else {
		if r1, err = a.GetReg(core.Temp); err != nil {
			return nil, 0, err
		}
		if r2, err = a.GetReg(core.Temp); err != nil {
			return nil, 0, err
		}
	}
	for i := 0; i < blocks; i++ {
		k := int64(i&15 + 1)
		a.Addii(r1, n, k)
		a.Lshii(r2, r1, 3)
		a.Xori(r1, r1, r2)
		a.Ldii(r2, base, k*4)
		a.Addi(r2, r2, r1)
		a.Stii(r2, base, k*4)
		a.Subii(r1, r1, 7)
		a.Andii(r2, r2, 0xff)
		l := a.NewLabel()
		a.Bltii(n, 1000, l)
		a.Bind(l)
		a.Ori(r1, r1, r2)
	}
	a.Reti(r1)
	insns := a.InsnCount()
	fn, err := a.End()
	return fn, insns, err
}

// emitDCG generates the equivalent instruction stream through the
// IR-building baseline: every block builds the same expressions as trees,
// which the DCG labeller and reducer then consume.
func emitDCG(g *dcg.Gen) (*core.Func, int, error) {
	args, err := g.Begin("%p%i", core.Leaf)
	if err != nil {
		return nil, 0, err
	}
	base, n := args[0], args[1]
	ty := core.TypeI
	count := 0
	for i := 0; i < blocks; i++ {
		k := int64(i&15 + 1)
		// t1 = ((n + k) ^ ((n + k) << 3)) - 7
		nk := g.Op(core.OpAdd, ty, g.Reg(ty, n), g.Imm(ty, k))
		sh := g.Op(core.OpLsh, ty, g.Op(core.OpAdd, ty, g.Reg(ty, n), g.Imm(ty, k)), g.Imm(ty, 3))
		t1 := g.Op(core.OpSub, ty, g.Op(core.OpXor, ty, nk, sh), g.Imm(ty, 7))
		// mem[base+k*4] = (mem[base+k*4] + t1) & 0xff
		sum := g.Op(core.OpAnd, ty,
			g.Op(core.OpAdd, ty, g.Load(ty, g.Reg(core.TypeP, base), k*4), t1),
			g.Imm(ty, 0xff))
		if err := g.Store(ty, g.Reg(core.TypeP, base), k*4, sum); err != nil {
			return nil, 0, err
		}
		l := g.NewLabel()
		if err := g.Branch(core.OpBlt, ty, g.Reg(ty, n), g.Imm(ty, 1000), l); err != nil {
			return nil, 0, err
		}
		g.Bind(l)
		count += 10
	}
	if err := g.Ret(ty, g.Reg(ty, n)); err != nil {
		return nil, 0, err
	}
	fn, err := g.End()
	return fn, count, err
}

// Go references for the two benchmark workloads, mirroring emitVCODE and
// emitDCG instruction for instruction, so the functions whose generation
// cost E1 measures are also verified to be *correct* code.

func refVCODE(m []uint32, n int32) int32 {
	var r1, r2 int32
	for i := 0; i < blocks; i++ {
		k := int32(i&15 + 1)
		r1 = n + k
		r2 = r1 << 3
		r1 = r1 ^ r2
		r2 = int32(m[k])
		r2 = r2 + r1
		m[k] = uint32(r2)
		r1 = r1 - 7
		r2 = r2 & 0xff
		r1 = r1 | r2
	}
	return r1
}

func refDCG(m []uint32, n int32) int32 {
	for i := 0; i < blocks; i++ {
		k := int32(i&15 + 1)
		nk := n + k
		sh := (n + k) << 3
		t1 := (nk ^ sh) - 7
		m[k] = uint32((int32(m[k]) + t1) & 0xff)
	}
	return n
}

func run(t *testing.T, machine *core.Machine, fn *core.Func, n int32) (int32, []uint32) {
	t.Helper()
	buf, err := machine.Alloc(256)
	if err != nil {
		t.Fatal(err)
	}
	init := make([]uint32, 64)
	for i := range init {
		init[i] = uint32(i * 3)
		if err := machine.Mem().Store(buf+uint64(4*i), 4, uint64(init[i])); err != nil {
			t.Fatal(err)
		}
	}
	got, err := machine.Call(fn, core.P(buf), core.I(n))
	if err != nil {
		t.Fatal(err)
	}
	out := make([]uint32, 64)
	for i := range out {
		v, err := machine.Mem().Load(buf+uint64(4*i), 4)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = uint32(v)
	}
	return int32(got.Int()), out
}

// TestWorkloadsCorrect verifies the three E1 workload emitters generate
// code that matches their Go references, so the cost comparison compares
// working code generation.
func TestWorkloadsCorrect(t *testing.T) {
	bk := mips.New()
	m := mem.New(1<<22, false)
	machine := core.NewMachine(bk, mips.NewCPU(m), m)

	check := func(name string, fn *core.Func, ref func([]uint32, int32) int32) {
		gotRet, gotMem := run(t, machine, fn, 77)
		wantMem := make([]uint32, 64)
		for i := range wantMem {
			wantMem[i] = uint32(i * 3)
		}
		wantRet := ref(wantMem, 77)
		if gotRet != wantRet {
			t.Errorf("%s: returned %d, reference %d", name, gotRet, wantRet)
		}
		for i := range wantMem {
			if gotMem[i] != wantMem[i] {
				t.Errorf("%s: mem[%d] = %d, reference %d", name, i, gotMem[i], wantMem[i])
				break
			}
		}
	}

	a := core.NewAsm(bk)
	vfn, vinsns, err := emitVCODE(a, false)
	if err != nil {
		t.Fatal(err)
	}
	check("vcode", vfn, refVCODE)

	a2 := core.NewAsm(bk)
	hfn, hinsns, err := emitVCODE(a2, true)
	if err != nil {
		t.Fatal(err)
	}
	check("vcode-hard", hfn, refVCODE)

	g := dcg.New(bk)
	dfn, dinsns, err := emitDCG(g)
	if err != nil {
		t.Fatal(err)
	}
	check("dcg", dfn, refDCG)

	// The per-instruction denominators must agree (within the final
	// return instruction).
	if vinsns != hinsns || vinsns-dinsns > 1 || dinsns-vinsns > 1 {
		t.Errorf("instruction counts diverge: vcode=%d hard=%d dcg=%d", vinsns, hinsns, dinsns)
	}
}
