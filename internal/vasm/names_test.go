package vasm

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
)

// TestMnemonicsAreMethods: vasm and the generated method layer name one
// instruction set.  Every typed mnemonic has the *core.Asm method of its
// title-cased name (addii, Addii), and every generated method — a name
// composed of an op and a type, or a conversion — has its mnemonic.  Setf,
// Setd and Retv are generated but not of the typed shape, and vasm's setf,
// setd and retv are theirs.
func TestMnemonicsAreMethods(t *testing.T) {
	title := func(s string) string { return strings.ToUpper(s[:1]) + s[1:] }
	methods := map[string]bool{}
	asm := reflect.TypeOf((*core.Asm)(nil))
	for i := 0; i < asm.NumMethod(); i++ {
		methods[asm.Method(i).Name] = true
	}
	for name, d := range insnTable {
		if d.kind <= kCvt && !methods[title(name)] {
			t.Errorf("mnemonic %s has no method %s", name, title(name))
		}
	}
	// Every name of the generated shapes, over all ops and types.
	shaped := map[string]bool{}
	for op := core.Op(0); op < core.NumOps; op++ {
		for ty := core.TypeV; ty < core.NumTypes; ty++ {
			shaped[title(op.String()+ty.Letter())] = true
			shaped[title(op.String()+ty.Letter()+"i")] = true
			for to := core.TypeV; to < core.NumTypes; to++ {
				shaped["Cv"+ty.Letter()+"2"+to.Letter()] = true
			}
		}
	}
	n := 0
	for m := range methods {
		if !shaped[m] {
			continue
		}
		n++
		if _, ok := insnTable[strings.ToLower(m)]; !ok {
			t.Errorf("method %s has no mnemonic %s", m, strings.ToLower(m))
		}
	}
	if n < 250 {
		t.Errorf("only %d generated methods found", n)
	}
}
