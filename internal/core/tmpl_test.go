package core_test

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/regtest"
)

// emitBoth emits one instruction of a templated door twice — through the
// generic emitter of a (building an open function) and straight through the
// port's encoder into ref — and returns the words each appended.
func emitBoth(a *core.Asm, ref *core.Buf, door string, op core.Op, t core.Type, r [3]core.Reg, imm int64) (got, want []uint32, werr error) {
	bk, mark := a.Backend(), a.Buf().Len()
	ref.Reset()
	switch door {
	case "ALU":
		a.ALU(op, t, r[0], r[1], r[2])
		werr = bk.ALU(ref, op, t, r[0], r[1], r[2])
	case "ALUI":
		a.ALUI(op, t, r[0], r[1], imm)
		werr = bk.ALUImm(ref, op, t, r[0], r[1], imm)
	case "LdI":
		a.LdI(t, r[0], r[1], imm)
		werr = bk.Load(ref, t, r[0], r[1], imm)
	case "StI":
		a.StI(t, r[0], r[1], imm)
		werr = bk.Store(ref, t, r[0], r[1], imm)
	case "Unary":
		a.Unary(op, t, r[0], r[1])
		werr = bk.Unary(ref, op, t, r[0], r[1])
	case "Br":
		a.Br(op, t, r[0], r[1], a.NewLabel())
		_, werr = bk.Branch(ref, op, t, r[0], r[1])
	case "BrI":
		a.BrI(op, t, r[0], imm, a.NewLabel())
		_, werr = bk.BranchImm(ref, op, t, r[0], imm)
	}
	return a.Buf().Words()[mark:], ref.Words(), werr
}

// sweepImms is the immediates a template is held at: both ends of its range
// and a step either side of each, the values around zero, and 64 seeded
// ones, half inside the range and half anywhere in 64 bits.
func sweepImms(rng *rand.Rand, lo, hi int64) []int64 {
	imms := []int64{-1, 0, 1, lo, lo + 1, hi - 1, hi}
	if lo > math.MinInt64 {
		imms = append(imms, lo-1)
	}
	if hi < math.MaxInt64 {
		imms = append(imms, hi+1)
	}
	for i := 0; i < 32; i++ {
		in := int64(rng.Uint64())
		if span := hi - lo; span >= 0 && span < math.MaxInt64 {
			in = lo + rng.Int63n(span+1)
		}
		imms = append(imms, in, int64(rng.Uint64())>>uint(rng.Intn(64)))
	}
	return imms
}

// TestTemplatesAgreeWithEncoders: for every template of every port, what the
// generic emitter appends is what the port's encoder emits — for every
// register number of the right banks, at every immediate of sweepImms.
// Inside the range both emit the mapped words; one step outside it is the
// encoder's expansion, which is never as many words, so this is the check
// of every expansion's boundary.  Unary, Br and BrI are doors too: the
// mapped form, or the port's method past it.
func TestTemplatesAgreeWithEncoders(t *testing.T) {
	for _, tg := range regtest.Targets() {
		rng := rand.New(rand.NewSource(24))
		a, ref := core.NewAsm(tg.Backend), core.NewBuf(16)
		if _, err := a.Begin("", core.Leaf); err != nil {
			t.Fatal(err)
		}
		start, tps := a.Buf().Len(), tg.Backend.Templates().All()
		zero := map[[2]int]bool{} // BrI's (op, type)s with a zero form, which imm 0 takes first
		for _, tp := range tps {
			if tp.Door == "BrI" && tp.Lo == 0 && tp.Hi == 0 {
				zero[[2]int{int(tp.Op), int(tp.T)}] = true
			}
		}
		for _, tp := range tps {
			bank := func(ty core.Type, n int) core.Reg {
				if ty.IsFloat() {
					return core.FPR(n)
				}
				return core.GPR(n)
			}
			imms, regs := []int64{0}, 32*32*32 // ALU: three registers and no immediate
			switch tp.Door {
			case "Unary", "Br":
				regs = 32 * 32
			case "BrI":
				imms, regs = sweepImms(rng, tp.Lo, tp.Hi), 32
			case "ALUI", "LdI", "StI":
				imms, regs = sweepImms(rng, tp.Lo, tp.Hi), 32*32
			}
			t1 := tp.T // the bank of the second operand: an address for a memory door
			if tp.Door == "LdI" || tp.Door == "StI" {
				t1 = core.TypeP
			}
			bad := 0
			for _, imm := range imms {
				for n := 0; n < regs && bad < 4; n++ {
					r := [3]core.Reg{bank(tp.T, n%32), bank(t1, n/32%32), bank(tp.T, n/1024)}
					before := a.InsnCount()
					got, want, werr := emitBoth(a, ref, tp.Door, tp.Op, tp.T, r, imm)
					if werr != nil || a.Err() != nil || !slices.Equal(got, want) || a.InsnCount() != before+1 {
						bad++
						t.Errorf("%s %s %s%s %v imm %d: emitter %#x (%v, %d instructions), encoder %#x (%v)",
							tg.Name, tp.Door, tp.Op, tp.T.Letter(), r, imm, got, a.Err(), a.InsnCount()-before, want, werr)
					}
					ranked := tp.Door == "BrI" && imm == 0 && tp.Hi != 0 && zero[[2]int{int(tp.Op), int(tp.T)}]
					if inside := tp.Lo <= imm && imm <= tp.Hi; !ranked && inside != (len(want) == tp.Words) && bad < 4 {
						bad++
						t.Errorf("%s %s %s%s imm %d, range [%d, %d]: the encoder emits %d words, the template %d",
							tg.Name, tp.Door, tp.Op, tp.T.Letter(), imm, tp.Lo, tp.Hi, len(want), tp.Words)
					}
					a.Buf().Truncate(start)
				}
			}
		}
	}
}

// TestTemplatesExist pins every template of every port: the generic emitter
// it serves, its (op, type) and the immediates it holds for, one line per
// (port, emitter, range); a branch form is one template of its words.  It pins the fast path itself, not its size: a
// mapping rule or a field declaration that changes what is one word
// changes an entry here and not just a benchmark.
func TestTemplatesExist(t *testing.T) {
	const want = `
mips ALU [0, 0]: addi addu addl addul addp addf addd subi subu subl subul subp subf subd mulf muld divf divd andi andu andl andul ori oru orl orul xori xoru xorl xorul lshi lshu lshl lshul rshi rshu rshl rshul
mips ALUI [-32768, 32767]: addi addu addl addul addp
mips ALUI [-32767, 32768]: subi subu subl subul subp
mips ALUI [0, 65535]: andi andu andl andul ori oru orl orul xori xoru xorl xorul
mips ALUI [-9223372036854775808, 9223372036854775807]: lshi lshu lshl lshul rshi rshu rshl rshul
mips LdI [-32768, 32767]: ldc lduc lds ldus ldi ldu ldl ldul ldp ldf ldd
mips StI [-32768, 32767]: stc stuc sts stus sti stu stl stul stp stf std
mips Unary [0, 0]: comi noti movi negi comu notu movu coml notl movl negl comul notul movul movp movf negf movd negd
mips Br [0, 0]: blti blei bgti bgei beqi bnei bltu bleu bgtu bgeu bequ bneu bltl blel bgtl bgel beql bnel bltul bleul bgtul bgeul bequl bneul bltp blep bgtp bgep beqp bnep bltf blef bgtf bgef beqf bnef bltd bled bgtd bged beqd bned
mips BrI [-32768, 32767]: blti bgei bltl bgel
mips BrI [-32769, 32766]: blei bgti blel bgtl
mips BrI [0, 0]: beqi bnei bequ bneu beql bnel bequl bneul beqp bnep
mips BrI [0, 32767]: bltu bgeu bltul bgeul bltp bgep
sparc ALU [0, 0]: addi addu addl addul addp addf addd subi subu subl subul subp subf subd muli mulu mull mulul mulp mulf muld divf divd andi andu andl andul ori oru orl orul xori xoru xorl xorul lshi lshu lshl lshul rshi rshu rshl rshul
sparc ALUI [-4096, 4095]: addi addu addl addul addp subi subu subl subul subp andi andu andl andul ori oru orl orul xori xoru xorl xorul
sparc ALUI [-9223372036854775808, 9223372036854775807]: lshi lshu lshl lshul rshi rshu rshl rshul
sparc LdI [-4096, 4095]: ldc lduc lds ldus ldi ldu ldl ldul ldp ldf ldd
sparc StI [-4096, 4095]: stc stuc sts stus sti stu stl stul stp stf std
sparc Unary [0, 0]: comi movi negi comu movu coml movl negl comul movul movp movf negf
sparc Br [0, 0]: blti blei bgti bgei beqi bnei bltu bleu bgtu bgeu bequ bneu bltl blel bgtl bgel beql bnel bltul bleul bgtul bgeul bequl bneul bltp blep bgtp bgep beqp bnep bltf blef bgtf bgef beqf bnef bltd bled bgtd bged beqd bned
sparc BrI [-4096, 4095]: blti blei bgti bgei beqi bnei bltu bleu bgtu bgeu bequ bneu bltl blel bgtl bgel beql bnel bltul bleul bgtul bgeul bequl bneul bltp blep bgtp bgep beqp bnep
alpha ALU [0, 0]: addi addu addl addul addp addf addd subi subu subl subul subp subf subd muli mulu mull mulul mulp mulf muld divf divd andi andu andl andul ori oru orl orul xori xoru xorl xorul lshl lshul rshi rshl rshul
alpha ALUI [0, 255]: addi addu addl addul addp subi subu subl subul subp muli mulu mull mulul mulp andi andu andl andul ori oru orl orul xori xoru xorl xorul lshl lshul rshi rshl rshul
alpha LdI [-32768, 32767]: ldi ldu ldl ldul ldp ldf ldd
alpha StI [-32768, 32767]: sti stu stl stul stp stf std
alpha Unary [0, 0]: comi noti movi negi comu notu movu coml notl movl negl comul notul movul movp movf movd negd
alpha Br [0, 0]: blti blei bgti bgei beqi bnei bltu bleu bgtu bgeu bequ bneu bltl blel bgtl bgel beql bnel bltul bleul bgtul bgeul bequl bneul bltp blep bgtp bgep beqp bnep bltd bled bgtd bged beqd bned
alpha BrI [0, 0]: blti blei bgti bgei beqi bnei bequ bneu bltl blel bgtl bgel beql bnel bequl bneul beqp bnep
alpha BrI [0, 255]: blti blei bgti bgei beqi bnei bltu bleu bgtu bgeu bequ bneu bltl blel bgtl bgel beql bnel bltul bleul bgtul bgeul bequl bneul bltp blep bgtp bgep beqp bnep
`
	var got []string
	for _, tg := range regtest.Targets() {
		ts := tg.Backend.Templates()
		var keys []string
		groups := map[string][]string{}
		for _, tp := range ts.All() {
			k := fmt.Sprintf("%s %s [%d, %d]", tg.Name, tp.Door, tp.Lo, tp.Hi)
			if groups[k] == nil {
				keys = append(keys, k)
			}
			groups[k] = append(groups[k], fmt.Sprint(tp.Op)+tp.T.Letter())
		}
		doors := []string{"ALU", "ALUI", "LdI", "StI", "Unary", "Br", "BrI"}
		slices.SortStableFunc(keys, func(a, b string) int {
			return slices.Index(doors, strings.Fields(a)[1]) - slices.Index(doors, strings.Fields(b)[1])
		})
		for _, k := range keys {
			got = append(got, k+": "+strings.Join(groups[k], " "))
		}
		if again := tg.NewMachine().Backend().Templates(); again != ts {
			t.Errorf("%s: a second backend of the port derived templates of its own", tg.Name)
		}
	}
	if g, w := strings.Join(got, "\n")+"\n", strings.TrimPrefix(want, "\n"); g != w {
		t.Errorf("templates:\n%s\nwant:\n%s", g, w)
	}
}

// FuzzEmitAgainstEncoder turns bytes into a short sequence of calls on the
// templated doors, the unary and branch doors included — any op, type,
// registers and 64-bit immediate — and makes each on every port twice:
// through the generic emitter and straight through the port's encoder.  What the emitter accepts it must encode as the port
// does; what it refuses it must refuse before emitting anything.
func FuzzEmitAgainstEncoder(f *testing.F) {
	insn := func(door, op, ty byte, r0, r1, r2 int8, imm int64) []byte {
		b := []byte{door, op, ty, byte(r0), byte(r1), byte(r2)}
		for i := 0; i < 8; i++ {
			b = append(b, byte(imm>>(8*i)))
		}
		return b
	}
	f.Add(insn(0, byte(core.OpAdd), byte(core.TypeI), 8, 9, 10, 0))
	f.Add(insn(0, byte(core.OpMul), byte(core.TypeD), 64+4, 64+6, 64+8, 0))
	f.Add(append(insn(1, byte(core.OpSub), byte(core.TypeI), 8, 9, 0, 32768), insn(1, byte(core.OpSub), byte(core.TypeI), 8, 9, 0, -32768)...))
	f.Add(append(insn(1, byte(core.OpAnd), byte(core.TypeU), 3, 40, 0, 65535), insn(1, byte(core.OpRsh), byte(core.TypeU), 3, 4, 0, 1<<40+33)...))
	f.Add(append(insn(2, 0, byte(core.TypeUC), 2, 29, 0, 4095), insn(3, 0, byte(core.TypeD), 64+2, 30, 0, -4097)...))
	f.Add(append(insn(1, byte(core.OpAdd), byte(core.TypeL), 1, 2, 0, 255), insn(1, byte(core.OpDiv), byte(core.TypeI), 1, 2, 0, 256)...))
	f.Add(insn(0, byte(core.OpAdd), byte(core.TypeF), 8, -1, 64, 0))
	doors := [7]string{"ALU", "ALUI", "LdI", "StI", "Unary", "Br", "BrI"}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, tg := range regtest.Targets() {
			a, ref := core.NewAsm(tg.Backend), core.NewBuf(16)
			if _, err := a.Begin("", core.Leaf); err != nil {
				t.Fatal(err)
			}
			emul := core.EmulatedOpsOf(tg.Backend)
			for d := data; len(d) >= 14 && len(data)-len(d) < 16*14; d = d[14:] {
				door, op, ty := doors[d[0]%7], core.Op(d[1]), core.Type(d[2])
				r := [3]core.Reg{core.Reg(int8(d[3])), core.Reg(int8(d[4])), core.Reg(int8(d[5]))}
				var imm int64
				for i := 0; i < 8; i++ {
					imm |= int64(d[6+i]) << (8 * i)
				}
				if door[0] == 'A' && emul.Has(op, ty) {
					continue // a helper call, which no encoder emits
				}
				before := a.InsnCount()
				got, want, werr := emitBoth(a, ref, door, op, ty, r, imm)
				switch err := a.Err(); {
				case err == nil:
					if werr != nil || !slices.Equal(got, want) {
						t.Fatalf("%s %s %s%s %v imm %d: emitter %#x, encoder %#x (%v)",
							tg.Name, door, op, ty.Letter(), r, imm, got, want, werr)
					}
				case errors.Is(err, core.ErrBadType) || errors.Is(err, core.ErrBadReg):
					if len(got) != 0 || a.InsnCount() != before {
						t.Fatalf("%s %s %s%s %v: refused (%v) after emitting %#x", tg.Name, door, op, ty.Letter(), r, err, got)
					}
				default:
					if werr == nil || err.Error() != werr.Error() || !slices.Equal(got, want) {
						t.Fatalf("%s %s %s%s %v imm %d: emitter %#x (%v), encoder %#x (%v)",
							tg.Name, door, op, ty.Letter(), r, imm, got, err, want, werr)
					}
				}
				if a.Err() != nil {
					break // sticky: the rest of the sequence would emit nothing
				}
			}
		}
	})
}
