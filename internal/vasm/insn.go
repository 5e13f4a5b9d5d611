package vasm

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/core"
)

type insnKind uint8

const (
	kALU insnKind = iota
	kALUI
	kUnary
	kSet
	kLd
	kLdI
	kSt
	kStI
	kBr
	kBrI
	kRet
	kCvt
	// The instructions that are not an (operation, type) pair.
	kNop
	kRetV
	kJmp
	kJmpR
	kStartCall
	kSetArg
	kCall
	kSetSym
	kCallSym
	kCallR
	kRetVal
	kExt
)

type insnDef struct {
	kind     insnKind
	op       core.Op
	t        core.Type
	from, to core.Type
}

// insnTable maps every mnemonic — the paper's instruction names (addii,
// bltuli, cvi2d, …), built by composition exactly like the generated method
// layer, and the handful of untyped ones — onto the emitter that takes it.
var insnTable = buildInsns()

func buildInsns() map[string]insnDef {
	m := map[string]insnDef{
		"nop": {kind: kNop}, "retv": {kind: kRetV}, "jmp": {kind: kJmp}, "jmpr": {kind: kJmpR},
		"startcall": {kind: kStartCall}, "setarg": {kind: kSetArg}, "call": {kind: kCall},
		"setsym": {kind: kSetSym}, "callsym": {kind: kCallSym}, "callr": {kind: kCallR},
		"retval": {kind: kRetVal}, "ext": {kind: kExt},
	}
	word := []core.Type{core.TypeI, core.TypeU, core.TypeL, core.TypeUL}
	all := append(word[:4:4], core.TypeP, core.TypeF, core.TypeD)
	memT := append([]core.Type{core.TypeC, core.TypeUC, core.TypeS, core.TypeUS}, all...)

	addFam := func(base string, op core.Op, ts []core.Type, imm bool) {
		for _, t := range ts {
			m[base+t.Letter()] = insnDef{kind: kALU, op: op, t: t}
			if imm && !t.IsFloat() {
				m[base+t.Letter()+"i"] = insnDef{kind: kALUI, op: op, t: t}
			}
		}
	}
	addFam("add", core.OpAdd, all, true)
	addFam("sub", core.OpSub, all, true)
	addFam("mul", core.OpMul, all, true)
	addFam("div", core.OpDiv, all, true)
	addFam("mod", core.OpMod, append(word[:4:4], core.TypeP), true)
	addFam("and", core.OpAnd, word, true)
	addFam("or", core.OpOr, word, true)
	addFam("xor", core.OpXor, word, true)
	addFam("lsh", core.OpLsh, word, true)
	addFam("rsh", core.OpRsh, word, true)

	for _, u := range []struct {
		base string
		op   core.Op
		ts   []core.Type
	}{
		{"com", core.OpCom, word},
		{"not", core.OpNot, word},
		{"mov", core.OpMov, all},
		{"neg", core.OpNeg, []core.Type{core.TypeI, core.TypeL, core.TypeF, core.TypeD}},
	} {
		for _, t := range u.ts {
			m[u.base+t.Letter()] = insnDef{kind: kUnary, op: u.op, t: t}
		}
	}
	for _, t := range all {
		m["set"+t.Letter()] = insnDef{kind: kSet, t: t}
		m["ret"+t.Letter()] = insnDef{kind: kRet, t: t}
	}
	for _, t := range memT {
		m["ld"+t.Letter()] = insnDef{kind: kLd, t: t}
		m["ld"+t.Letter()+"i"] = insnDef{kind: kLdI, t: t}
		m["st"+t.Letter()] = insnDef{kind: kSt, t: t}
		m["st"+t.Letter()+"i"] = insnDef{kind: kStI, t: t}
	}
	for _, b := range []struct {
		base string
		op   core.Op
	}{
		{"blt", core.OpBlt}, {"ble", core.OpBle}, {"bgt", core.OpBgt},
		{"bge", core.OpBge}, {"beq", core.OpBeq}, {"bne", core.OpBne},
	} {
		for _, t := range all {
			m[b.base+t.Letter()] = insnDef{kind: kBr, op: b.op, t: t}
			if !t.IsFloat() {
				m[b.base+t.Letter()+"i"] = insnDef{kind: kBrI, op: b.op, t: t}
			}
		}
	}
	for _, from := range all {
		for _, to := range all {
			if from != to {
				m["cv"+from.Letter()+"2"+to.Letter()] = insnDef{kind: kCvt, from: from, to: to}
			}
		}
	}
	return m
}

// operands is how many operands each typed instruction takes (the untyped
// ones check their own).
var operands = [kExt + 1]int{kALU: 3, kALUI: 3, kUnary: 2, kSet: 2, kLd: 3, kLdI: 3, kSt: 3, kStI: 3, kBr: 3, kBrI: 3, kRet: 1, kCvt: 2}

// regs resolves the first len(out) operands as registers.
func (p *parser) regs(ops []tok, out []core.Reg) error {
	for i := range out {
		r, err := p.reg(ops[i])
		if err != nil {
			return err
		}
		out[i] = r
	}
	return nil
}

func (p *parser) insn(f []tok) error {
	name, ops := p.text(f[0]), f[1:]
	a := p.a
	d, ok := insnTable[name]
	if !ok {
		return p.errf("unknown instruction %q", name)
	}
	var r [3]core.Reg

	// The untyped instructions first; each reports the assembler's refusal
	// as it stands.
	switch d.kind {
	case kNop:
		a.Nop()
		return a.Err()
	case kRetV:
		a.RetVoid()
		return a.Err()
	case kJmp:
		if len(ops) != 1 {
			return p.errf("jmp needs a label")
		}
		a.Jmp(p.label(p.text(ops[0])))
		return a.Err()
	case kJmpR, kCallR:
		if len(ops) == 0 {
			return p.errf("%s needs a register", name)
		}
		rs, err := p.reg(ops[0])
		if err != nil {
			return err
		}
		if d.kind == kJmpR {
			a.JmpReg(rs)
		} else {
			a.CallReg(rs)
		}
		return a.Err()
	case kStartCall:
		if len(ops) != 1 {
			return p.errf("startcall needs a signature")
		}
		a.StartCall(strings.Trim(p.text(ops[0]), "()"))
		return a.Err()
	case kSetArg:
		if len(ops) != 2 {
			return p.errf("setarg needs: index, reg")
		}
		n, err := strconv.Atoi(p.text(ops[0]))
		if err != nil {
			return p.errf("bad argument index %q", p.text(ops[0]))
		}
		rs, err := p.reg(ops[1])
		if err != nil {
			return err
		}
		a.SetArg(n, rs)
		return a.Err()
	case kCall:
		if len(ops) != 1 {
			return p.errf("call needs a function name")
		}
		slot, ok := p.slot(p.text(ops[0]))
		if !ok {
			return p.errf("call to unknown function %q", p.text(ops[0]))
		}
		ptrReg, err := a.GetReg(core.Temp)
		if err != nil {
			return p.errf("%v", err)
		}
		addr := p.table + uint64(slot*p.backend.PtrBytes())
		a.Setp(ptrReg, int64(addr))
		a.Ldpi(ptrReg, ptrReg, 0)
		a.CallReg(ptrReg)
		a.PutReg(ptrReg)
		return a.Err()
	case kSetSym:
		if len(ops) != 2 {
			return p.errf("setsym needs: reg, symbol")
		}
		rd, err := p.reg(ops[0])
		if err != nil {
			return err
		}
		a.SetSym(rd, p.text(ops[1]))
		return a.Err()
	case kCallSym:
		if len(ops) != 1 {
			return p.errf("callsym needs a symbol")
		}
		a.CallSym(p.text(ops[0]))
		return a.Err()
	case kRetVal:
		if len(ops) != 2 {
			return p.errf("retval needs: type, reg")
		}
		t, err := core.ParseType(p.text(ops[0]))
		if err != nil {
			return p.errf("%v", err)
		}
		rd, err := p.reg(ops[1])
		if err != nil {
			return err
		}
		a.RetVal(t, rd)
		return a.Err()
	case kExt:
		if len(ops) < 3 {
			return p.errf("ext needs: name, type, rd [, rs...]")
		}
		t, err := core.ParseType(p.text(ops[1]))
		if err != nil {
			return p.errf("%v", err)
		}
		rd, err := p.reg(ops[2])
		if err != nil {
			return err
		}
		rs := make([]core.Reg, len(ops)-3)
		if err := p.regs(ops[3:], rs); err != nil {
			return err
		}
		a.Ext(p.text(ops[0]), t, rd, rs...)
		return a.Err()
	}

	if n := operands[d.kind]; len(ops) != n {
		return p.errf("%s takes %d operands, got %d", name, n, len(ops))
	}
	switch d.kind {
	case kALU:
		if err := p.regs(ops, r[:3]); err != nil {
			return err
		}
		a.ALU(d.op, d.t, r[0], r[1], r[2])
	case kALUI:
		if err := p.regs(ops, r[:2]); err != nil {
			return err
		}
		imm, err := p.imm(ops[2])
		if err != nil {
			return err
		}
		a.ALUI(d.op, d.t, r[0], r[1], imm)
	case kUnary:
		if err := p.regs(ops, r[:2]); err != nil {
			return err
		}
		a.Unary(d.op, d.t, r[0], r[1])
	case kSet:
		if err := p.regs(ops, r[:1]); err != nil {
			return err
		}
		switch d.t {
		case core.TypeF:
			v, err := strconv.ParseFloat(p.text(ops[1]), 32)
			if err != nil {
				return p.errf("bad float %q", p.text(ops[1]))
			}
			a.SetF(r[0], float32(v))
		case core.TypeD:
			v, err := strconv.ParseFloat(p.text(ops[1]), 64)
			if err != nil {
				return p.errf("bad double %q", p.text(ops[1]))
			}
			a.SetD(r[0], v)
		default:
			imm, err := p.imm(ops[1])
			if err != nil {
				return err
			}
			a.SetI(d.t, r[0], imm)
		}
	case kLd, kSt:
		if err := p.regs(ops, r[:3]); err != nil {
			return err
		}
		if d.kind == kLd {
			a.Ld(d.t, r[0], r[1], r[2])
		} else {
			a.St(d.t, r[0], r[1], r[2])
		}
	case kLdI, kStI:
		if err := p.regs(ops, r[:2]); err != nil {
			return err
		}
		// The offset may be a named local.
		var off int64
		if sym := p.syms[p.text(ops[2])]; sym.has&symLocal != 0 {
			off = sym.local
			if p.text(ops[1]) != "sp" {
				return p.errf("local %q must be addressed off sp", p.text(ops[2]))
			}
		} else {
			var err error
			if off, err = p.imm(ops[2]); err != nil {
				return err
			}
		}
		if d.kind == kLdI {
			a.LdI(d.t, r[0], r[1], off)
		} else {
			a.StI(d.t, r[0], r[1], off)
		}
	case kBr:
		if err := p.regs(ops, r[:2]); err != nil {
			return err
		}
		a.Br(d.op, d.t, r[0], r[1], p.label(p.text(ops[2])))
	case kBrI:
		if err := p.regs(ops, r[:1]); err != nil {
			return err
		}
		imm, err := p.imm(ops[1])
		if err != nil {
			return err
		}
		a.BrI(d.op, d.t, r[0], imm, p.label(p.text(ops[2])))
	case kRet:
		if err := p.regs(ops, r[:1]); err != nil {
			return err
		}
		a.Ret(d.t, r[0])
	case kCvt:
		if err := p.regs(ops, r[:2]); err != nil {
			return err
		}
		a.Cvt(d.from, d.to, r[0], r[1])
	default:
		return p.errf("unhandled instruction kind for %q", name)
	}
	if err := a.Err(); err != nil {
		return fmt.Errorf("vasm: line %d: %s: %w", p.line, name, err)
	}
	return nil
}
