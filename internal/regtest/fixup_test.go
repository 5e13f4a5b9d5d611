package regtest

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/exec"
)

// TestFixupFieldsAgree holds every transfer End and the loader patch to the
// field they patch it through, on every port: each site Br and BrI emit,
// for every legal op and type and immediates 0, 1, -1 and one past every
// port's compare range, decodes to a row whose target field is the port's
// declared branch letter's (Fixed.Branch), aimed at its label; Jmp's and
// Jal's sites decode to rows with the target fields of Fixed.Jump and
// Fixed.CallLabel; and an installed external call's sites to rows with the
// fields of Fixed.Call.  A port that declares the wrong branch letter fails
// here, before any branch runs.
func TestFixupFieldsAgree(t *testing.T) {
	types := []core.Type{core.TypeI, core.TypeU, core.TypeL, core.TypeUL, core.TypeP, core.TypeF, core.TypeD}
	for _, tg := range Targets() {
		t.Run(tg.Name, func(t *testing.T) {
			isa, fx := tg.Backend.ISA(), tg.Backend.Templates().Fixed()
			tgt := func(w uint32) *exec.Field { return isa.Lookup(w).Tgt }
			// check holds the word at site to a row whose target field
			// is want, aimed at word to.
			check := func(name string, fn *core.Func, site, to int, want *exec.Field) {
				t.Helper()
				w := fn.Words[site]
				switch r := isa.Lookup(w); {
				case r == nil:
					t.Errorf("%s: word %d (%#08x) has no row", name, site, w)
				case r.Tgt != want:
					t.Errorf("%s: word %d is %s, whose target field is not the one End patches through", name, site, r.Name)
				case r.Insn(w, 4*uint64(site)).Target != 4*uint64(to):
					t.Errorf("%s: word %d (%s) aims at %#x, its label is at %#x", name, site, r.Name, r.Insn(w, 4*uint64(site)).Target, 4*to)
				}
			}
			// branch builds a leaf that branches over nothing to its
			// return, and checks the site Br or BrI recorded.
			branch := func(name string, t0 core.Type, emit func(a *core.Asm, args []core.Reg, l core.Label)) bool {
				a := core.NewAsm(tg.Backend)
				a.Record(true)
				args, err := a.BeginTypes([]core.Type{t0, t0}, core.Leaf)
				if err != nil {
					return false
				}
				l := a.NewLabel()
				emit(a, args, l)
				to := a.Buf().Len()
				a.Bind(l)
				a.RetVoid()
				fn, err := a.End()
				if errors.Is(err, core.ErrBadType) {
					return false
				} else if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				for _, ev := range a.TakeRecording().Events {
					if ev.Kind == core.RecBr || ev.Kind == core.RecBrI {
						check(name, fn, ev.Site, to, isa.Field(fx.Branch))
					}
				}
				return true
			}
			n := 0
			for _, op := range BranchOps() {
				for _, ty := range types {
					if branch(CaseName(tg.Name, op, ty), ty, func(a *core.Asm, args []core.Reg, l core.Label) {
						a.Br(op, ty, args[0], args[1], l)
					}) {
						n++
					}
					for _, imm := range []int64{0, 1, -1, 100000} {
						name := fmt.Sprintf("%si %d", CaseName(tg.Name, op, ty), imm)
						if branch(name, ty, func(a *core.Asm, args []core.Reg, l core.Label) {
							a.BrI(op, ty, args[0], imm, l)
						}) {
							n++
						}
					}
				}
			}
			if n < 2*len(BranchOps()) {
				t.Fatalf("only %d branch cases were legal", n)
			}
			t.Logf("%d branch cases", n)

			a := core.NewAsm(tg.Backend)
			if _, err := a.Begin("", core.NonLeaf); err != nil {
				t.Fatal(err)
			}
			j, c := a.NewLabel(), a.NewLabel()
			jsite := a.Buf().Len()
			a.Jmp(j)
			jto := a.Buf().Len()
			a.Bind(j)
			csite := a.Buf().Len()
			a.Jal(c)
			cto := a.Buf().Len()
			a.Bind(c)
			a.StartCall("")
			a.CallFunc(buildAdd(t, tg, 1))
			a.RetVoid()
			fn, err := a.End()
			if err != nil {
				t.Fatal(err)
			}
			check("jmp", fn, jsite, jto, tgt(fx.Jump))
			check("jal", fn, csite, cto, tgt(fx.CallLabel))

			if err := tg.NewMachine().Install(fn); err != nil {
				t.Fatal(err)
			}
			sites, callee := fn.Relocs[0].Sites, fn.Relocs[0].Target.EntryAddr()
			if len(sites) == 1 {
				w, pc := fn.Words[sites[0]], fn.Addr()+4*uint64(sites[0])
				if r := isa.Lookup(w); r == nil || r.Tgt != tgt(fx.Call[0]) || r.Insn(w, pc).Target != callee {
					t.Errorf("call: word %d (%#08x) is not Fixed.Call aimed at %#x", sites[0], w, callee)
				}
				return
			}
			hi, lo := isa.Lookup(fn.Words[sites[0]]), isa.Lookup(fn.Words[sites[1]])
			if hi == nil || lo == nil || hi.Num != isa.Lookup(fx.Call[0]).Num || lo.Num != isa.Lookup(fx.Call[1]).Num {
				t.Fatalf("call: words %v are not Fixed.Call's address pair", sites)
			}
			got := hi.Num.Get(fn.Words[sites[0]])<<(fx.AddrShift-hi.Num.Scale) + lo.Num.Get(fn.Words[sites[1]])
			if uint64(got) != callee {
				t.Errorf("call: the address pair holds %#x, the callee is at %#x", got, callee)
			}
		})
	}
}
