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
// bltuli, cvi2d, …), composed from core's Table 2 and conversion matrix as
// the generated method layer is, and the handful of untyped ones — onto
// the emitter that takes it.
var insnTable = buildInsns()

func buildInsns() map[string]insnDef {
	m := map[string]insnDef{
		"nop": {kind: kNop}, "retv": {kind: kRetV}, "jmp": {kind: kJmp}, "jmpr": {kind: kJmpR},
		"startcall": {kind: kStartCall}, "setarg": {kind: kSetArg}, "call": {kind: kCall},
		"setsym": {kind: kSetSym}, "callsym": {kind: kCallSym}, "callr": {kind: kCallR},
		"retval": {kind: kRetVal}, "ext": {kind: kExt},
	}
	for op := core.Op(0); op < core.NumOps; op++ {
		for _, t := range op.Types() {
			name, imm := op.String()+t.Letter(), op.String()+t.Letter()+"i"
			switch {
			case op.IsBinary():
				m[name] = insnDef{kind: kALU, op: op, t: t}
				if !t.IsFloat() {
					m[imm] = insnDef{kind: kALUI, op: op, t: t}
				}
			case op.IsBranch():
				m[name] = insnDef{kind: kBr, op: op, t: t}
				if !t.IsFloat() {
					m[imm] = insnDef{kind: kBrI, op: op, t: t}
				}
			case op == core.OpLd:
				m[name], m[imm] = insnDef{kind: kLd, t: t}, insnDef{kind: kLdI, t: t}
			case op == core.OpSt:
				m[name], m[imm] = insnDef{kind: kSt, t: t}, insnDef{kind: kStI, t: t}
			case op == core.OpSet:
				m[name] = insnDef{kind: kSet, t: t}
			case op == core.OpRet:
				m[name] = insnDef{kind: kRet, t: t}
			default:
				m[name] = insnDef{kind: kUnary, op: op, t: t}
			}
		}
	}
	for from := core.TypeV; from < core.NumTypes; from++ {
		for _, to := range from.ConvertsTo() {
			m["cv"+from.Letter()+"2"+to.Letter()] = insnDef{kind: kCvt, from: from, to: to}
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
