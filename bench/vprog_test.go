package main

import (
	"testing"

	"repro/internal/core"
	"repro/internal/vasm"
)

// Every generator's output must run to the reference result on all three
// backends, and its code size and simulated cost must not depend on the
// seed: the exact metrics are compared across runs with different seeds.
func TestGeneratedProgramsMatchReferenceAndSeedInvariantCounts(t *testing.T) {
	type counts struct {
		words  int
		cycles uint64
		insns  uint64
	}
	gens := map[string]func(seed int64) *vprog{
		"mix":  func(s int64) *vprog { return genEmitMix(newRNG(s, "emit")) },
		"leaf": func(s int64) *vprog { return genLeaf(newRNG(s, "leaf"), 0) },
		"loop": func(s int64) *vprog { return genLoop(newRNG(s, "loop"), 0) },
	}
	for gname, gen := range gens {
		first := map[string]counts{}
		for seed := int64(1); seed <= 4; seed++ {
			ro := genRO(newRNG(seed, "ro"))
			ts, err := newTargets(ro)
			if err != nil {
				t.Fatal(err)
			}
			p := gen(seed)
			for _, tg := range ts {
				fn, err := p.emit(tg.asm)
				if err != nil {
					t.Fatalf("%s/%s seed %d: %v", gname, tg.name, seed, err)
				}
				if fn.NumInsns != p.count() {
					t.Fatalf("%s/%s: NumInsns %d, vprog count %d", gname, tg.name, fn.NumInsns, p.count())
				}
				if err := tg.m.Install(fn); err != nil {
					t.Fatal(err)
				}
				_, st, err := tg.refCall(p, fn, ro, int32(seed*37))
				if err != nil {
					t.Fatal(err)
				}
				c := counts{words: len(fn.Words)}
				if gname != "mix" { // the mix's forward branches make its path data-dependent
					c.cycles, c.insns = st.Cycles, st.Insns
				}
				if seed == 1 {
					first[tg.name] = c
				} else if first[tg.name] != c {
					t.Errorf("%s/%s: seed %d counts %+v, seed 1 counts %+v", gname, tg.name, seed, c, first[tg.name])
				}
				if gname == "leaf" && st.Insns > 16 {
					t.Errorf("leaf on %s retires %d instructions, want <= 16", tg.name, st.Insns)
				}
				if gname == "loop" && st.Insns < 50000 {
					t.Errorf("loop on %s retires %d instructions, want >= 50000", tg.name, st.Insns)
				}
			}
		}
	}
}

func TestVasmSourceAssemblesToTheSameResult(t *testing.T) {
	ro := genRO(newRNG(3, "ro"))
	ts, err := newTargets(ro)
	if err != nil {
		t.Fatal(err)
	}
	p := genVasmProg(newRNG(3, "vasm"), 0)
	want, _, err := p.eval(ro, 77)
	if err != nil {
		t.Fatal(err)
	}
	for _, tg := range ts {
		prog, err := vasm.Assemble(tg.m, p.vasmSource())
		if err != nil {
			t.Fatalf("%s: %v\n%s", tg.name, err, p.vasmSource())
		}
		got, err := prog.Run(p.name, core.P(tg.base), core.I(77))
		if err != nil {
			t.Fatal(err)
		}
		if int32(got.Int()) != want {
			t.Errorf("%s: vasm result %d, reference %d", tg.name, got.Int(), want)
		}
	}
}
