package core

import "math"

// This file implements VCODE's extension layers (paper §3.1, §5.4).
// Extensions are instruction families less general than the core — the
// paper's examples are conditional move and floating-point square root —
// defined either in terms of the core itself (so a retarget of the core
// brings them along for free) or overridden by a port that has direct
// hardware support, one row of its mapping (Mapping.Ext).  Because VCODE
// builds no intermediate representation, adding an instruction requires no
// semantic knowledge: an extension is just another emitter.

// ExtDef defines one extension instruction family: a name, the types it
// composes with, and a portable synthesis in terms of core instructions.
type ExtDef struct {
	Name string
	// NSrc is the number of source register operands.
	NSrc int
	// Types lists the operand types the family composes with.
	Types []Type
	// Synth emits the portable definition.  It runs only when the port's
	// mapping has no row for the instruction.
	Synth func(a *Asm, t Type, rd Reg, rs []Reg)
}

func (d *ExtDef) hasType(t Type) bool {
	for _, x := range d.Types {
		if x == t {
			return true
		}
	}
	return false
}

// DefineExt registers an extension instruction on this assembler,
// overriding any builtin of the same name.
func (a *Asm) DefineExt(d *ExtDef) {
	if a.exts == nil {
		a.exts = make(map[string]*ExtDef)
	}
	a.exts[d.Name] = d
}

// Ext emits the named extension instruction: the row the port's mapping
// gives it (hardware implementation), or else the registered or builtin
// portable definition, synthesized from core instructions.
func (a *Asm) Ext(name string, t Type, rd Reg, rs ...Reg) {
	if !a.ready() {
		return
	}
	d := a.lookupExt(name)
	if d == nil {
		a.failf("%w: %q", ErrUnknownExt, name)
		return
	}
	if !d.hasType(t) {
		a.failf("%w: %s%s", ErrBadType, name, t.Letter())
		return
	}
	if len(rs) != d.NSrc {
		a.failf("vcode: %s takes %d source registers, got %d", name, d.NSrc, len(rs))
		return
	}
	if hw := a.tmpl.extOf(name, t); hw != nil {
		// Hardware: one mapped word, its registers bank-tested as at
		// every other door, recorded as one opaque event.  Synth below
		// records nothing itself: its expansion goes through the public
		// emitters, which record instruction by instruction.
		if !a.checkRegs(t, rd) || !a.checkRegs(t, rs...) {
			return
		}
		a.insnCount++
		var src [2]Reg
		copy(src[:], rs)
		a.buf.Emit(hw.regs(rd, src[0], src[1]))
		if a.rec != nil {
			a.record(RecEvent{Kind: RecExt, Name: name, T: t, Rd: rd, Srcs: append([]Reg(nil), rs...)})
		}
		return
	}
	a.insnCount++
	if d.Synth == nil {
		a.failf("%w: %q has no portable definition on %s", ErrUnknownExt, name, a.backend.Name())
		return
	}
	d.Synth(a, t, rd, rs)
}

func (a *Asm) lookupExt(name string) *ExtDef {
	if d, ok := a.exts[name]; ok {
		return d
	}
	return builtinExts[name]
}

// builtinExts are the extension layers shipped with VCODE, all expressed
// in terms of the core so they are present on every target.
var builtinExts = map[string]*ExtDef{
	"cmovne": {
		// cmovne: rd = rs if cond != 0.
		Name: "cmovne", NSrc: 2,
		Types: []Type{TypeI, TypeU, TypeL, TypeUL, TypeP},
		Synth: func(a *Asm, t Type, rd Reg, rs []Reg) {
			src, cond := rs[0], rs[1]
			skip := a.NewLabel()
			condT := TypeL
			a.BrI(OpBeq, condT, cond, 0, skip)
			a.Unary(OpMov, t, rd, src)
			a.Bind(skip)
		},
	},
	"cmoveq": {
		// cmoveq: rd = rs if cond == 0.
		Name: "cmoveq", NSrc: 2,
		Types: []Type{TypeI, TypeU, TypeL, TypeUL, TypeP},
		Synth: func(a *Asm, t Type, rd Reg, rs []Reg) {
			src, cond := rs[0], rs[1]
			skip := a.NewLabel()
			a.BrI(OpBne, TypeL, cond, 0, skip)
			a.Unary(OpMov, t, rd, src)
			a.Bind(skip)
		},
	},
	"abs": {
		Name: "abs", NSrc: 1,
		Types: []Type{TypeI, TypeL, TypeF, TypeD},
		Synth: func(a *Asm, t Type, rd Reg, rs []Reg) {
			if t.IsFloat() {
				// rd = rs < 0 ? -rs : rs, via a branch.
				done := a.NewLabel()
				a.Unary(OpMov, t, rd, rs[0])
				fz := a.backend.ScratchFPR()
				if t == TypeF {
					a.SetF(fz, 0)
				} else {
					a.SetD(fz, 0)
				}
				a.Br(OpBge, t, rs[0], fz, done)
				a.Unary(OpNeg, t, rd, rd)
				a.Bind(done)
				return
			}
			// Branchless: m = rs >> (bits-1); rd = (rs ^ m) - m.
			tmp, err := a.GetReg(Temp)
			if err != nil {
				a.setErr(err)
				return
			}
			bits := int64(31)
			if t == TypeL {
				bits = int64(8*a.backend.PtrBytes() - 1)
			}
			a.ALUI(OpRsh, t, tmp, rs[0], bits)
			a.ALU(OpXor, t, rd, rs[0], tmp)
			a.ALU(OpSub, t, rd, rd, tmp)
			a.PutReg(tmp)
		},
	},
	"min": {
		Name: "min", NSrc: 2,
		Types: []Type{TypeI, TypeU, TypeL, TypeUL},
		Synth: minmax(OpBle),
	},
	"max": {
		Name: "max", NSrc: 2,
		Types: []Type{TypeI, TypeU, TypeL, TypeUL},
		Synth: minmax(OpBge),
	},
	"sqrt": {
		// sqrt has no portable core definition; every shipped port maps
		// it onto its hardware rows, mirroring the paper's MIPS
		// fsqrts/fsqrtd example spec.
		Name: "sqrt", NSrc: 1,
		Types: []Type{TypeF, TypeD},
	},
	"bswap2": {
		// bswap2: rd = the low 16 bits of rs byte-reversed.  Byte
		// swapping is one of the paper's examples of an operation with
		// no natural high-level idiom (§3.1); ASH uses it.
		Name: "bswap2", NSrc: 1,
		Types: []Type{TypeU, TypeUL},
		Synth: func(a *Asm, t Type, rd Reg, rs []Reg) {
			tmp, err := a.GetReg(Temp)
			if err != nil {
				a.setErr(err)
				return
			}
			a.ALUI(OpRsh, t, tmp, rs[0], 8)
			a.ALUI(OpAnd, t, tmp, tmp, 0xff)
			a.ALUI(OpAnd, t, rd, rs[0], 0xff)
			a.ALUI(OpLsh, t, rd, rd, 8)
			a.ALU(OpOr, t, rd, rd, tmp)
			a.PutReg(tmp)
		},
	},
	"bswap4": {
		// bswap4: rd = the low 32 bits of rs byte-reversed.
		Name: "bswap4", NSrc: 1,
		Types: []Type{TypeU, TypeUL},
		Synth: func(a *Asm, t Type, rd Reg, rs []Reg) {
			t1, err := a.GetReg(Temp)
			if err != nil {
				a.setErr(err)
				return
			}
			t2, err := a.GetReg(Temp)
			if err != nil {
				a.setErr(err)
				return
			}
			u := TypeU
			a.ALUI(OpRsh, u, t1, rs[0], 24)
			a.ALUI(OpAnd, u, t1, t1, 0xff)
			a.ALUI(OpRsh, u, t2, rs[0], 8)
			a.ALUI(OpAnd, u, t2, t2, 0xff00)
			a.ALU(OpOr, u, t1, t1, t2)
			a.ALUI(OpAnd, u, t2, rs[0], 0xff00)
			a.ALUI(OpLsh, u, t2, t2, 8)
			a.ALU(OpOr, u, t1, t1, t2)
			a.ALUI(OpLsh, u, t2, rs[0], 24)
			a.ALU(OpOr, u, t1, t1, t2)
			a.Unary(OpMov, t, rd, t1)
			a.PutReg(t1)
			a.PutReg(t2)
		},
	},
	"prefetch": {
		// prefetch: advisory; the portable definition is a nop, a
		// backend with a prefetch instruction overrides it.
		Name: "prefetch", NSrc: 1,
		Types: []Type{TypeP},
		Synth: func(a *Asm, t Type, rd Reg, rs []Reg) {
			a.buf.Emit(a.fx.Nop)
		},
	},
}

func minmax(keep Op) func(a *Asm, t Type, rd Reg, rs []Reg) {
	return func(a *Asm, t Type, rd Reg, rs []Reg) {
		// rd = min/max(rs0, rs1); rd may alias either source.
		done := a.NewLabel()
		other := a.NewLabel()
		a.Br(keep, t, rs[0], rs[1], other)
		a.Unary(OpMov, t, rd, rs[1])
		a.Jmp(done)
		a.Bind(other)
		a.Unary(OpMov, t, rd, rs[0])
		a.Bind(done)
	}
}

// BuiltinExtNames lists the shipped extension families (for documentation
// and tests).
func BuiltinExtNames() []string {
	names := make([]string, 0, len(builtinExts))
	for n := range builtinExts {
		names = append(names, n)
	}
	return names
}

// f32raw and f64bits are tiny helpers shared by the assembler.
func f32raw(f float32) uint32  { return math.Float32bits(f) }
func f64bits(f float64) uint64 { return math.Float64bits(f) }
