package spec

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/mips"
)

const paperExample = `
; the paper's §5.4 example: add a square-root instruction on the MIPS
(sqrt (rd, rs) (f fsqrts) (d fsqrtd))
`

func TestParsePaperExample(t *testing.T) {
	defs, err := Parse(paperExample)
	if err != nil {
		t.Fatal(err)
	}
	if len(defs) != 1 {
		t.Fatalf("got %d defs", len(defs))
	}
	d := defs[0]
	if d.Name != "sqrt" || len(d.Params) != 2 || d.Params[1] != "rs" {
		t.Errorf("def parsed wrong: %+v", d)
	}
	if len(d.Clauses) != 2 {
		t.Fatalf("got %d clauses", len(d.Clauses))
	}
	if d.Clauses[0].Types[0] != core.TypeF || d.Clauses[0].MachInsn != "fsqrts" {
		t.Errorf("clause 0: %+v", d.Clauses[0])
	}
	if d.Clauses[1].Types[0] != core.TypeD || d.Clauses[1].MachInsn != "fsqrtd" {
		t.Errorf("clause 1: %+v", d.Clauses[1])
	}
}

func TestParseMultipleTypesAndImm(t *testing.T) {
	defs, err := Parse(`(clip (rd, rs1, rs2) (i u l ul clipw clipwi) (d clipd))`)
	if err != nil {
		t.Fatal(err)
	}
	c := defs[0].Clauses[0]
	if len(c.Types) != 4 || c.MachInsn != "clipw" || c.MachImm != "clipwi" {
		t.Errorf("clause: %+v", c)
	}
	all := defs[0].AllTypes()
	if len(all) != 5 {
		t.Errorf("AllTypes: %v", all)
	}
}

func TestParseErrors(t *testing.T) {
	for _, src := range []string{
		"(",
		")",
		"(sqrt)",
		"(sqrt rd (f fsqrts))",
		"((x) (rd) (f y))",
		"(sqrt (rs, rd) (f fsqrts))", // first param must be rd
		"(sqrt (rd, rs) ())",
		"(sqrt (rd, rs) (f))",
		"(sqrt (rd, rs) (q fsqrtq))", // unknown type
	} {
		if _, err := Parse(src); err == nil {
			t.Errorf("%q parsed without error", src)
		}
	}
}

func TestGenerateGo(t *testing.T) {
	defs, err := Parse(paperExample)
	if err != nil {
		t.Fatal(err)
	}
	src, err := GenerateGo("myext", defs)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"package myext",
		"func VSqrtf(a *core.Asm, rd, rs core.Reg)",
		"func VSqrtd(a *core.Asm, rd, rs core.Reg)",
		`a.Ext("sqrt", core.TypeF, rd, rs)`,
	} {
		if !strings.Contains(src, want) {
			t.Errorf("generated source missing %q:\n%s", want, src)
		}
	}
}

// TestApplyEndToEnd registers a spec-defined family and executes it: the
// hardware clause is honoured by the port's mapping (sqrt on MIPS), and a
// portable synthesis runs where provided.
func TestApplyEndToEnd(t *testing.T) {
	defs, err := Parse(`
(sqrt (rd, rs) (f fsqrts) (d fsqrtd))
(double2 (rd, rs) (i addpair))
`)
	if err != nil {
		t.Fatal(err)
	}
	bk := mips.New()
	m := mem.New(1<<22, false)
	machine := core.NewMachine(bk, mips.NewCPU(m), m)

	a := core.NewAsm(bk)
	Apply(a, defs, map[string]Synth{
		"double2": func(a *core.Asm, t core.Type, rd core.Reg, rs []core.Reg) {
			a.Addi(rd, rs[0], rs[0])
		},
	})

	args, err := a.Begin("%d%i", core.Leaf)
	if err != nil {
		t.Fatal(err)
	}
	// r = sqrt(arg0) — hardware; n = double2(arg1) — synthesized;
	// return (int)r + n.
	a.Ext("sqrt", core.TypeD, args[0], args[0])
	a.Ext("double2", core.TypeI, args[1], args[1])
	conv, err := a.GetReg(core.Temp)
	if err != nil {
		t.Fatal(err)
	}
	a.Cvd2i(conv, args[0])
	a.Addi(conv, conv, args[1])
	a.Reti(conv)
	fn, err := a.End()
	if err != nil {
		t.Fatal(err)
	}
	got, err := machine.Call(fn, core.D(144), core.I(5))
	if err != nil {
		t.Fatal(err)
	}
	if got.Int() != 12+10 {
		t.Fatalf("got %d, want 22", got.Int())
	}
}
