package regtest

import (
	"errors"
	"flag"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from this build's behaviour")

// wordsHex renders ws as space-separated hex words.
func wordsHex(ws []uint32) string {
	var sb strings.Builder
	for i, w := range ws {
		if i > 0 {
			sb.WriteByte(' ')
		}
		fmt.Fprintf(&sb, "%08x", w)
	}
	return sb.String()
}

// template is one (generic emitter, op, type) a port encodes in one word
// over [lo, hi], an immediate range around 0 (0 to 0 for ALU).
type template struct {
	door   string
	op     core.Op
	t      core.Type
	lo, hi int64
}

// emitDoor emits one instruction through the generic emitter door, r being
// rd (or the stored register), rs1 (or the base) and rs2.
func emitDoor(a *core.Asm, door string, op core.Op, t core.Type, r [3]core.Reg, imm int64) {
	switch door {
	case "ALU":
		a.ALU(op, t, r[0], r[1], r[2])
	case "ALUI":
		a.ALUI(op, t, r[0], r[1], imm)
	case "LdI":
		a.LdI(t, r[0], r[1], imm)
	case "StI":
		a.StI(t, r[0], r[1], imm)
	}
}

// regsFor is the registers of assignment n for an instruction of type t
// through door: the base of a load or store is an integer register.
func regsFor(door string, t core.Type, n [3]int) [3]core.Reg {
	var r [3]core.Reg
	for i := range r {
		if r[i] = core.GPR(n[i]); t.IsFloat() && !(i == 1 && door[0] != 'A') {
			r[i] = core.FPR(n[i])
		}
	}
	return r
}

// templatesOf finds tg's templates from outside, through the generic
// emitters alone: every accepted (emitter, op, type) that is one word at
// immediate 0, with the range around 0 it stays one word over.
func templatesOf(tg Target) []template {
	var out []template
	for _, door := range []string{"ALU", "ALUI", "LdI", "StI"} {
		ops := []core.Op{core.OpLd}
		if door == "StI" {
			ops[0] = core.OpSt
		} else if door[0] == 'A' {
			ops = ops[:0]
			for op := core.OpAdd; op <= core.OpRsh; op++ {
				ops = append(ops, op)
			}
		}
		for _, op := range ops {
			for ty := core.TypeV; ty <= core.TypeD; ty++ {
				a := core.NewAsm(tg.Backend)
				if _, err := a.Begin("", core.Leaf); err != nil {
					panic(err)
				}
				start, r := a.Buf().Len(), regsFor(door, ty, [3]int{5, 6, 7})
				one := func(imm int64) bool {
					emitDoor(a, door, op, ty, r, imm)
					ok := a.Err() == nil && a.Buf().Len() == start+1
					a.Buf().Truncate(start)
					return ok
				}
				if !one(0) {
					continue // refused, or more than a word
				}
				tp := template{door: door, op: op, t: ty}
				if door != "ALU" {
					tp.lo, tp.hi = rangeEnd(one, math.MinInt64), rangeEnd(one, math.MaxInt64)
				}
				out = append(out, tp)
			}
		}
	}
	return out
}

// rangeEnd is the last immediate from 0 towards end that one holds for,
// one's range being contiguous.
func rangeEnd(one func(int64) bool, end int64) int64 {
	if one(end) {
		return end
	}
	in, out := int64(0), end
	for (out-in)/2 != 0 {
		if mid := in + (out-in)/2; one(mid) {
			in = mid
		} else {
			out = mid
		}
	}
	return in
}

// TestTemplateWords pins what every port's instruction mapping yields, as
// the generic emitters emit it: each template's words at two register
// assignments and at the immediates lo, -1, 0, 1 and hi of its range (the
// ends of a masked template's range are the ends of int64), each of sqrt
// and abs at f and d, and the runtime helper each emulated (op, type)
// calls; then every Unary and Br at each legal type and every BrI at each
// of brImms, at the same two assignments; last, Ld and St with a register
// offset at each type.  testdata/template_words.golden was captured from
// the ports' hand-written encoders before each of these became declared
// data: the ALU, ALUI, LdI, StI and Ext lines before the mapping, the
// Unary, Br and BrI lines before the mapping took unary ops and branches,
// and the Ld and St lines (the file's tail) before core took the
// register-offset access from the ports.
func TestTemplateWords(t *testing.T) {
	assigns := [2][3]int{{5, 6, 7}, {17, 30, 2}}
	var got, more, indexed []string
	for _, tg := range Targets() {
		a := core.NewAsm(tg.Backend)
		if _, err := a.Begin("", core.Leaf); err != nil {
			t.Fatal(err)
		}
		start, out := a.Buf().Len(), &got
		emit := func(key string, f func()) {
			f()
			if err := a.Err(); err != nil {
				t.Fatalf("%s: %v", key, err)
			}
			*out = append(*out, key+"\t"+wordsHex(a.Buf().Words()[start:]))
			a.Buf().Truncate(start)
		}
		for _, tp := range templatesOf(tg) {
			for _, n := range assigns {
				key, r := fmt.Sprintf("%s %s %s%s %v", tg.Name, tp.door, tp.op, tp.t.Letter(), n), regsFor(tp.door, tp.t, n)
				if tp.door == "ALU" {
					emit(key, func() { emitDoor(a, tp.door, tp.op, tp.t, r, 0) })
					continue
				}
				imms := []int64{tp.lo, -1, 0, 1, tp.hi}
				for i, imm := range imms {
					if !slices.Contains(imms[:i], imm) { // lo is 0 or hi is 1
						emit(fmt.Sprintf("%s imm %d", key, imm), func() { emitDoor(a, tp.door, tp.op, tp.t, r, imm) })
					}
				}
			}
		}
		for _, name := range []string{"sqrt", "abs"} {
			for _, ty := range []core.Type{core.TypeF, core.TypeD} {
				for _, n := range assigns {
					emit(fmt.Sprintf("%s ext %s%s %v", tg.Name, name, ty.Letter(), n[:2]), func() {
						a.Ext(name, ty, core.FPR(n[0]), core.FPR(n[1]))
					})
				}
			}
		}
		got, out = append(got, emulatedPairs(t, tg)...), &more
		for _, n := range assigns {
			for op := core.OpCom; op <= core.OpNeg; op++ {
				for _, ty := range op.Types() {
					r := regsFor("ALU", ty, n)
					emit(fmt.Sprintf("%s Unary %s%s %v", tg.Name, op, ty.Letter(), n[:2]), func() { a.Unary(op, ty, r[0], r[1]) })
				}
			}
			for op := core.OpBlt; op <= core.OpBne; op++ {
				for _, ty := range op.Types() {
					r := regsFor("ALU", ty, n)
					emit(fmt.Sprintf("%s Br %s%s %v", tg.Name, op, ty.Letter(), n[:2]), func() { a.Br(op, ty, r[0], r[1], a.NewLabel()) })
					if ty.IsFloat() {
						continue
					}
					for _, imm := range brImms {
						emit(fmt.Sprintf("%s BrI %s%s %v imm %d", tg.Name, op, ty.Letter(), n[:1], imm), func() { a.BrI(op, ty, r[0], imm, a.NewLabel()) })
					}
				}
			}
		}
		out = &indexed
		for _, n := range assigns {
			for ty := core.TypeC; ty <= core.TypeD; ty++ {
				r := regsFor("Ld", ty, n)
				r[2] = core.GPR(n[2])
				emit(fmt.Sprintf("%s Ld %s %v", tg.Name, ty.Letter(), n), func() { a.Ld(ty, r[0], r[1], r[2]) })
				emit(fmt.Sprintf("%s St %s %v", tg.Name, ty.Letter(), n), func() { a.St(ty, r[0], r[1], r[2]) })
			}
		}
	}
	Golden(t, "testdata/template_words.golden", slices.Concat(got, more, indexed), *update)
}

// brImms is BrI's immediates TestTemplateWords pins: every immediate
// form's ends and one step past them on every port (mips slti, slti with
// imm+1, sltiu from 0; sparc simm13; alpha's literal), and values that no
// field or only 64 bits hold.  Unary ops and branches are pinned at every
// type core gives them.
var brImms = []int64{0, 1, -1, 255, 256, -4097, -4096, 4095, 4096, -32770, -32769, -32768,
	32766, 32767, 32768, 1 << 40, math.MinInt64, math.MaxInt64}

// emulatedPairs lists, for every (op, type) tg's ALU accepts and routes
// through a runtime helper, the helper its call is relocated to.
func emulatedPairs(t *testing.T, tg Target) []string {
	var out []string
	emul := core.EmulatedOpsOf(tg.Backend)
	for op := core.OpAdd; op <= core.OpRsh; op++ {
		for ty := core.TypeV; ty <= core.TypeD; ty++ {
			if !emul.Has(op, ty) {
				continue
			}
			a := core.NewAsm(tg.Backend)
			args, err := a.BeginTypes([]core.Type{core.TypeL, core.TypeL}, core.Leaf)
			if err != nil {
				t.Fatal(err)
			}
			if a.ALU(op, ty, args[0], args[0], args[1]); errors.Is(a.Err(), core.ErrBadType) {
				continue
			}
			a.RetVoid()
			fn, err := a.End()
			if err != nil {
				t.Fatalf("%s %s%s: %v", tg.Name, op, ty.Letter(), err)
			}
			var syms []string
			for _, r := range fn.Relocs {
				if r.Sym != "" {
					syms = append(syms, r.Sym)
				}
			}
			out = append(out, fmt.Sprintf("%s emulated %s%s\t%s", tg.Name, op, ty.Letter(), strings.Join(syms, " ")))
		}
	}
	return out
}

// TestExtRefusesWrongBank: an extension the port has in hardware takes its
// registers through the same bank test as every other door — an integer
// register or NoReg where the type wants a floating-point one is refused
// with ErrBadReg and emits nothing, as the synthesised ones already are
// through the emitters they expand to.
func TestExtRefusesWrongBank(t *testing.T) {
	for _, tg := range Targets() {
		cases := []struct {
			name   string
			rd, rs core.Reg
		}{
			{"sqrt", core.GPR(5), core.GPR(6)},
			{"sqrt", core.FPR(5), core.GPR(6)},
			{"sqrt", core.GPR(5), core.FPR(6)},
			{"sqrt", core.FPR(5), core.NoReg},
			{"min", core.FPR(5), core.FPR(6)},
		}
		for _, c := range cases {
			a := core.NewAsm(tg.Backend)
			if _, err := a.Begin("", core.Leaf); err != nil {
				t.Fatal(err)
			}
			start, n := a.Buf().Len(), a.InsnCount()
			if c.name == "min" {
				a.Ext(c.name, core.TypeI, c.rd, c.rs, c.rs)
			} else {
				a.Ext(c.name, core.TypeF, c.rd, c.rs)
			}
			if err := a.Err(); !errors.Is(err, core.ErrBadReg) {
				t.Errorf("%s: %s %v, %v: err %v, want ErrBadReg", tg.Name, c.name, c.rd, c.rs, err)
			}
			if c.name == "sqrt" && (a.Buf().Len() != start || a.InsnCount() != n) {
				t.Errorf("%s: refused sqrt %v, %v emitted %#x", tg.Name, c.rd, c.rs, a.Buf().Words()[start:])
			}
		}
	}
}

// TestRegistersPastTheBank: every port has 32 registers a bank, so every
// door that takes a register refuses one numbered 32 to 63 of either bank
// in any operand position, with ErrBadReg naming it, and emits nothing.
// Numbers past 31 used to pass the bank test and come out as another
// register's, or as a word of no row.
func TestRegistersPastTheBank(t *testing.T) {
	i, d, p := core.TypeI, core.TypeD, core.TypeP
	doors := []struct {
		name  string
		banks []core.Type // each operand's, in signature order
		call  func(a *core.Asm, r []core.Reg)
	}{
		{"ALU", []core.Type{i, i, i}, func(a *core.Asm, r []core.Reg) { a.ALU(core.OpAdd, i, r[0], r[1], r[2]) }},
		{"ALU/d", []core.Type{d, d, d}, func(a *core.Asm, r []core.Reg) { a.ALU(core.OpAdd, d, r[0], r[1], r[2]) }},
		{"ALUI", []core.Type{i, i}, func(a *core.Asm, r []core.Reg) { a.ALUI(core.OpAdd, i, r[0], r[1], 1) }},
		{"Unary", []core.Type{i, i}, func(a *core.Asm, r []core.Reg) { a.Unary(core.OpMov, i, r[0], r[1]) }},
		{"Unary/d", []core.Type{d, d}, func(a *core.Asm, r []core.Reg) { a.Unary(core.OpNeg, d, r[0], r[1]) }},
		{"SetI", []core.Type{i}, func(a *core.Asm, r []core.Reg) { a.SetI(i, r[0], 1) }},
		{"SetD", []core.Type{d}, func(a *core.Asm, r []core.Reg) { a.SetD(r[0], 1) }},
		{"Ld", []core.Type{i, p, p}, func(a *core.Asm, r []core.Reg) { a.Ld(i, r[0], r[1], r[2]) }},
		{"Ld/d", []core.Type{d, p, p}, func(a *core.Asm, r []core.Reg) { a.Ld(d, r[0], r[1], r[2]) }},
		{"LdI", []core.Type{i, p}, func(a *core.Asm, r []core.Reg) { a.LdI(i, r[0], r[1], 8) }},
		{"LdI/d", []core.Type{d, p}, func(a *core.Asm, r []core.Reg) { a.LdI(d, r[0], r[1], 8) }},
		{"St", []core.Type{i, p, p}, func(a *core.Asm, r []core.Reg) { a.St(i, r[0], r[1], r[2]) }},
		{"St/d", []core.Type{d, p, p}, func(a *core.Asm, r []core.Reg) { a.St(d, r[0], r[1], r[2]) }},
		{"StI", []core.Type{i, p}, func(a *core.Asm, r []core.Reg) { a.StI(i, r[0], r[1], 8) }},
		{"StI/d", []core.Type{d, p}, func(a *core.Asm, r []core.Reg) { a.StI(d, r[0], r[1], 8) }},
		{"Br", []core.Type{i, i}, func(a *core.Asm, r []core.Reg) { a.Br(core.OpBlt, i, r[0], r[1], a.NewLabel()) }},
		{"Br/d", []core.Type{d, d}, func(a *core.Asm, r []core.Reg) { a.Br(core.OpBlt, d, r[0], r[1], a.NewLabel()) }},
		{"BrI", []core.Type{i}, func(a *core.Asm, r []core.Reg) { a.BrI(core.OpBlt, i, r[0], 1, a.NewLabel()) }},
		{"Ret", []core.Type{i}, func(a *core.Asm, r []core.Reg) { a.Ret(i, r[0]) }},
		{"Ret/d", []core.Type{d}, func(a *core.Asm, r []core.Reg) { a.Ret(d, r[0]) }},
		{"Cvt", []core.Type{i, core.TypeL}, func(a *core.Asm, r []core.Reg) { a.Cvt(core.TypeL, i, r[0], r[1]) }},
		{"Cvt/i2d", []core.Type{d, i}, func(a *core.Asm, r []core.Reg) { a.Cvt(i, d, r[0], r[1]) }},
		{"Ext", []core.Type{d, d}, func(a *core.Asm, r []core.Reg) { a.Ext("sqrt", d, r[0], r[1]) }},
		{"JmpReg", []core.Type{p}, func(a *core.Asm, r []core.Reg) { a.JmpReg(r[0]) }},
		{"JalReg", []core.Type{p}, func(a *core.Asm, r []core.Reg) { a.JalReg(r[0]) }},
		{"SetArg", []core.Type{i}, func(a *core.Asm, r []core.Reg) { a.StartCall("%i"); a.SetArg(0, r[0]) }},
		{"CallReg", []core.Type{p}, func(a *core.Asm, r []core.Reg) { a.StartCall(""); a.CallReg(r[0]) }},
		{"RetVal", []core.Type{i}, func(a *core.Asm, r []core.Reg) { a.RetVal(i, r[0]) }},
		{"SetSym", []core.Type{p}, func(a *core.Asm, r []core.Reg) { a.SetSym(r[0], "x") }},
	}
	for _, tg := range Targets() {
		for _, dr := range doors {
			for pos := range dr.banks {
				for _, bad := range []core.Reg{core.GPR(32), core.GPR(63), core.FPR(32), core.FPR(63)} {
					r := make([]core.Reg, len(dr.banks))
					for k, bt := range dr.banks {
						if r[k] = core.GPR(9 + k); bt.IsFloat() {
							r[k] = core.FPR(4 + 2*k)
						}
					}
					r[pos] = bad
					a := core.NewAsm(tg.Backend)
					if _, err := a.Begin("", core.NonLeaf); err != nil {
						t.Fatal(err)
					}
					words := a.Buf().Len()
					dr.call(a, r)
					err, want := a.Err(), "vcode: invalid register operand: "+bad.String()
					if !errors.Is(err, core.ErrBadReg) || err.Error() != want {
						t.Errorf("%s %s %v: error %v, want %q", tg.Name, dr.name, r, err, want)
					} else if a.Buf().Len() != words {
						t.Errorf("%s %s %v: refused, yet emitted %#x", tg.Name, dr.name, r, a.Buf().Words()[words:])
					}
				}
			}
		}
	}
}
