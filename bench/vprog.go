package main

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/core"
)

// vprog is the benchmark's own description of a VCODE function: a list of
// portable instructions over allocator registers, with signature
// (%p base, %i n).  One description drives four things that must agree —
// the core.Asm emitter, the raw backend emitter, the vasm source printer
// and eval, the independent Go reference every generated function's
// result is checked against.
//
// Loads read only the read-only half of the buffer at base (words
// 0..roWords-1, filled at set-up) and stores write only the scratch half,
// so a function's result depends on its arguments alone however often it
// has been called.
type vprog struct {
	name    string
	nregs   int
	nlabels int
	insns   []vinsn
}

type vkind uint8

const (
	vALU   vkind = iota // r[rd] = r[rs1] op r[rs2]
	vALUI               // r[rd] = r[rs1] op imm
	vSet                // r[rd] = imm
	vLd                 // r[rd] = ro[imm]            (word index)
	vSt                 // scratch[imm] = r[rs1]      (word index)
	vBrI                // if r[rs1] op imm goto label
	vLabel              // bind label
	vRet                // return r[rs1]
)

// regArgN names the incoming integer argument n as a source register.
const regArgN = -1

type vinsn struct {
	kind         vkind
	op           core.Op
	rd, rs1, rs2 int
	imm          int64
	label        int
}

const (
	roWords      = 16
	scratchWords = 16
	bufBytes     = 4 * (roWords + scratchWords)
)

// count returns the number of VCODE instructions (label binds are not
// instructions).
func (p *vprog) count() int {
	n := 0
	for _, in := range p.insns {
		if in.kind != vLabel {
			n++
		}
	}
	return n
}

// eval is the reference semantics: 32-bit two's-complement registers, the
// read-only words ro, stores discarded.  It returns the result and the
// number of instructions executed.
func (p *vprog) eval(ro []int32, n int32) (int32, int, error) {
	r := make([]int32, p.nregs)
	get := func(i int) int32 {
		if i == regArgN {
			return n
		}
		return r[i]
	}
	at := make([]int, p.nlabels)
	for i, in := range p.insns {
		if in.kind == vLabel {
			at[in.label] = i
		}
	}
	steps := 0
	for pc := 0; pc < len(p.insns); pc++ {
		in := p.insns[pc]
		if in.kind != vLabel {
			steps++
		}
		if steps > 1<<26 {
			return 0, steps, fmt.Errorf("%s: runaway", p.name)
		}
		switch in.kind {
		case vALU:
			r[in.rd] = alu32(in.op, get(in.rs1), get(in.rs2))
		case vALUI:
			r[in.rd] = alu32(in.op, get(in.rs1), int32(in.imm))
		case vSet:
			r[in.rd] = int32(in.imm)
		case vLd:
			r[in.rd] = ro[in.imm]
		case vSt:
			if in.imm < 0 || in.imm >= scratchWords {
				return 0, steps, fmt.Errorf("%s: store outside scratch", p.name)
			}
		case vBrI:
			if cmp32(in.op, get(in.rs1), int32(in.imm)) {
				pc = at[in.label]
			}
		case vRet:
			return get(in.rs1), steps, nil
		}
	}
	return 0, steps, fmt.Errorf("%s: fell off the end", p.name)
}

func alu32(op core.Op, a, b int32) int32 {
	switch op {
	case core.OpAdd:
		return a + b
	case core.OpSub:
		return a - b
	case core.OpAnd:
		return a & b
	case core.OpOr:
		return a | b
	case core.OpXor:
		return a ^ b
	case core.OpLsh:
		return int32(uint32(a) << (uint32(b) & 31))
	case core.OpRsh:
		return a >> (uint32(b) & 31)
	}
	panic("vprog: op " + op.String())
}

func cmp32(op core.Op, a, b int32) bool {
	switch op {
	case core.OpBlt:
		return a < b
	case core.OpBle:
		return a <= b
	case core.OpBgt:
		return a > b
	case core.OpBge:
		return a >= b
	case core.OpBeq:
		return a == b
	case core.OpBne:
		return a != b
	}
	panic("vprog: branch " + op.String())
}

// asmParts is the emission of one vprog split at the layer boundaries the
// traced pass puts spans on.
type asmParts struct {
	a      *core.Asm
	p      *vprog
	base   core.Reg
	n      core.Reg
	regs   []core.Reg
	labels []core.Label
}

func (e *asmParts) begin() error {
	e.a.SetName(e.p.name)
	args, err := e.a.Begin("%p%i", core.Leaf)
	if err != nil {
		return err
	}
	e.base, e.n = args[0], args[1]
	return nil
}

func (e *asmParts) getRegs() error {
	e.regs = e.regs[:0]
	for i := 0; i < e.p.nregs; i++ {
		r, err := e.a.GetReg(core.Temp)
		if err != nil {
			return err
		}
		e.regs = append(e.regs, r)
	}
	return nil
}

func (e *asmParts) reg(i int) core.Reg {
	if i == regArgN {
		return e.n
	}
	return e.regs[i]
}

func (e *asmParts) body() {
	a := e.a
	e.labels = e.labels[:0]
	for i := 0; i < e.p.nlabels; i++ {
		e.labels = append(e.labels, a.NewLabel())
	}
	for _, in := range e.p.insns {
		switch in.kind {
		case vALU:
			a.ALU(in.op, core.TypeI, e.regs[in.rd], e.reg(in.rs1), e.reg(in.rs2))
		case vALUI:
			a.ALUI(in.op, core.TypeI, e.regs[in.rd], e.reg(in.rs1), in.imm)
		case vSet:
			a.SetI(core.TypeI, e.regs[in.rd], in.imm)
		case vLd:
			a.LdI(core.TypeI, e.regs[in.rd], e.base, 4*in.imm)
		case vSt:
			a.StI(core.TypeI, e.reg(in.rs1), e.base, 4*(roWords+in.imm))
		case vBrI:
			a.BrI(in.op, core.TypeI, e.reg(in.rs1), in.imm, e.labels[in.label])
		case vLabel:
			a.Bind(e.labels[in.label])
		case vRet:
			a.Ret(core.TypeI, e.reg(in.rs1))
		}
	}
}

// emit generates p through the portable per-instruction interface.
func (p *vprog) emit(a *core.Asm) (*core.Func, error) {
	e := asmParts{a: a, p: p}
	if err := e.begin(); err != nil {
		return nil, err
	}
	if err := e.getRegs(); err != nil {
		return nil, err
	}
	e.body()
	return a.End()
}

// emitRaw drives the backend's encoders straight into a code buffer with
// hard register numbers: no Asm state, no type or register checks, no
// label table, no prologue.  It is the floor under emit — what is left of
// the per-instruction cost once core's bookkeeping is taken away — and
// returns the words emitted.
func (p *vprog) emitRaw(bk core.Backend, buf *core.Buf, regs []core.Reg, base, n core.Reg) (int, error) {
	buf.Reset()
	reg := func(i int) core.Reg {
		if i == regArgN {
			return n
		}
		return regs[i]
	}
	var err error
	for _, in := range p.insns {
		switch in.kind {
		case vALU:
			err = bk.ALU(buf, in.op, core.TypeI, regs[in.rd], reg(in.rs1), reg(in.rs2))
		case vALUI:
			err = bk.ALUImm(buf, in.op, core.TypeI, regs[in.rd], reg(in.rs1), in.imm)
		case vSet:
			err = bk.SetImm(buf, core.TypeI, regs[in.rd], in.imm)
		case vLd:
			err = bk.Load(buf, core.TypeI, regs[in.rd], base, 4*in.imm)
		case vSt:
			err = bk.Store(buf, core.TypeI, reg(in.rs1), base, 4*(roWords+in.imm))
		case vBrI:
			_, err = bk.BranchImm(buf, in.op, core.TypeI, reg(in.rs1), in.imm)
		case vRet:
			err = bk.Unary(buf, core.OpMov, core.TypeI, regs[0], reg(in.rs1))
		}
		if err != nil {
			return 0, err
		}
	}
	return buf.Len(), nil
}

// vasmSource prints p in vasm syntax: the same function as a text the vasm
// front end assembles.
func (p *vprog) vasmSource() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, ".func %s (%%p%%i) leaf\n", p.name)
	for i := 0; i < p.nregs; i++ {
		fmt.Fprintf(&sb, ".reg r%d temp i\n", i)
	}
	reg := func(i int) string {
		if i == regArgN {
			return "arg1"
		}
		return fmt.Sprintf("r%d", i)
	}
	for _, in := range p.insns {
		switch in.kind {
		case vALU:
			fmt.Fprintf(&sb, "    %si %s, %s, %s\n", in.op, reg(in.rd), reg(in.rs1), reg(in.rs2))
		case vALUI:
			fmt.Fprintf(&sb, "    %sii %s, %s, %d\n", in.op, reg(in.rd), reg(in.rs1), in.imm)
		case vSet:
			fmt.Fprintf(&sb, "    seti %s, %d\n", reg(in.rd), in.imm)
		case vLd:
			fmt.Fprintf(&sb, "    ldii %s, arg0, %d\n", reg(in.rd), 4*in.imm)
		case vSt:
			fmt.Fprintf(&sb, "    stii %s, arg0, %d\n", reg(in.rs1), 4*(roWords+in.imm))
		case vBrI:
			fmt.Fprintf(&sb, "    %sii %s, %d, L%d\n", in.op, reg(in.rs1), in.imm, in.label)
		case vLabel:
			fmt.Fprintf(&sb, "L%d:\n", in.label)
		case vRet:
			fmt.Fprintf(&sb, "    reti %s\n", reg(in.rs1))
		}
	}
	sb.WriteString(".end\n")
	return sb.String()
}

// ---- seeded generators ----
//
// Every generator draws a fixed multiset of instruction forms and lets the
// seed choose their order, registers and constants.  Constants stay in
// ranges every backend encodes in one word (ALU immediates 1..120, shift
// counts 1..15), so code size and simulated cycle counts are properties of
// the generator's shape, identical for every seed, while the words
// themselves — and every result — differ.

const vprogRegs = 6

func smallImm(rng *rand.Rand) int64 { return 1 + rng.Int63n(120) }

// seedRegs emits the instructions that give every register a value derived
// from n, so no later instruction reads an unset register.
func seedRegs(rng *rand.Rand, nregs int) []vinsn {
	out := make([]vinsn, 0, nregs)
	for r := 0; r < nregs; r++ {
		out = append(out, vinsn{kind: vALUI, op: core.OpAdd, rd: r, rs1: regArgN, imm: smallImm(rng)})
	}
	return out
}

// form is one slot of a mix before the seed fills in its operands: the
// instruction kind and operation are fixed (they decide how many machine
// words and cycles a backend spends), the seed picks the rest.  A vBrI
// form expands to a forward branch over one add, then the label.
type form struct {
	kind vkind
	op   core.Op
}

// forms spreads n slots of one kind evenly over ops.
func forms(kind vkind, n int, ops ...core.Op) []form {
	out := make([]form, n)
	for i := range out {
		out[i] = form{kind: kind}
		if len(ops) > 0 {
			out[i].op = ops[i%len(ops)]
		}
	}
	return out
}

var (
	aluOps   = []core.Op{core.OpAdd, core.OpSub, core.OpAnd, core.OpOr, core.OpXor}
	shiftOps = []core.Op{core.OpLsh, core.OpRsh}
	brOps    = []core.Op{core.OpBlt, core.OpBle, core.OpBgt, core.OpBge, core.OpBeq, core.OpBne}
)

// fill draws the operands of one form.  Sources and destinations come from
// registers 0..nregs-1.
func (f form) fill(rng *rand.Rand, nregs int, nlabels *int) []vinsn {
	rd, rs1, rs2 := rng.Intn(nregs), rng.Intn(nregs), rng.Intn(nregs)
	switch f.kind {
	case vALU:
		return []vinsn{{kind: vALU, op: f.op, rd: rd, rs1: rs1, rs2: rs2}}
	case vALUI:
		imm := smallImm(rng)
		if f.op == core.OpLsh || f.op == core.OpRsh {
			imm = 1 + rng.Int63n(15)
		}
		return []vinsn{{kind: vALUI, op: f.op, rd: rd, rs1: rs1, imm: imm}}
	case vLd:
		return []vinsn{{kind: vLd, rd: rd, imm: rng.Int63n(roWords)}}
	case vSt:
		return []vinsn{{kind: vSt, rs1: rs1, imm: rng.Int63n(scratchWords)}}
	case vBrI:
		l := *nlabels
		*nlabels++
		return []vinsn{
			{kind: vBrI, op: f.op, rs1: rs1, imm: smallImm(rng), label: l},
			{kind: vALUI, op: core.OpAdd, rd: rd, rs1: rd, imm: smallImm(rng)},
			{kind: vLabel, label: l},
		}
	}
	panic("vprog: form")
}

// appendMix shuffles the forms and appends their filled-in instructions.
func (p *vprog) appendMix(rng *rand.Rand, nregs int, groups ...[]form) {
	var fs []form
	for _, g := range groups {
		fs = append(fs, g...)
	}
	rng.Shuffle(len(fs), func(i, j int) { fs[i], fs[j] = fs[j], fs[i] })
	for _, f := range fs {
		p.insns = append(p.insns, f.fill(rng, nregs, &p.nlabels)...)
	}
}

// foldResult appends instructions that fold every register into r0 and
// return it, so the result depends on the whole function.
func foldResult(p *vprog) {
	for r := 1; r < p.nregs; r++ {
		p.insns = append(p.insns, vinsn{kind: vALU, op: core.OpXor, rd: 0, rs1: 0, rs2: r})
	}
	p.insns = append(p.insns, vinsn{kind: vRet, rs1: 0})
}

// genEmitMix is the emit workload's input: exactly emitMixInsns VCODE
// instructions — ALU, immediate, shift, load, store and branch+label forms
// over six allocator registers.
const emitMixInsns = 1000

func genEmitMix(rng *rand.Rand) *vprog {
	p := &vprog{name: "mix1000", nregs: vprogRegs}
	p.insns = seedRegs(rng, p.nregs)
	// 6 seeding + 988 mix + 6 fold-and-return = 1000; a branch form is two
	// instructions (the branch and the add it skips).
	p.appendMix(rng, p.nregs,
		forms(vALU, 300, aluOps...), forms(vALUI, 188, aluOps...), forms(vALUI, 100, shiftOps...),
		forms(vLd, 120), forms(vSt, 120), forms(vBrI, 80, brOps...))
	foldResult(p)
	if p.count() != emitMixInsns {
		panic(fmt.Sprintf("genEmitMix: %d instructions", p.count()))
	}
	return p
}

// genLeaf is a call_hot function: straight-line, short enough that the
// per-call fixed cost dominates (12 VCODE instructions; at most 16
// simulated ones with the return sequence).
func genLeaf(rng *rand.Rand, id int) *vprog {
	p := &vprog{name: fmt.Sprintf("leaf%d", id), nregs: 3}
	p.insns = seedRegs(rng, p.nregs)
	p.appendMix(rng, p.nregs, forms(vALU, 3, aluOps...), forms(vALUI, 2, aluOps...), forms(vALUI, 1, core.OpRsh))
	foldResult(p)
	return p
}

// loopTrips is chosen so one loop_long call retires at least 50k simulated
// instructions on every backend (the body is 10 VCODE instructions).
const loopTrips = 5200

// genLoop is a loop_long function: a counted loop whose body mixes ALU,
// immediate, shift and load forms, so per-instruction dispatch dominates
// the call.  The load leads the body and its consumer closes it, with the
// shuffled forms (which never touch the loaded register) in between, so no
// ordering puts a use in the load's delay slot.
func genLoop(rng *rand.Rand, id int) *vprog {
	p := &vprog{name: fmt.Sprintf("loop%d", id), nregs: vprogRegs, nlabels: 1}
	p.insns = seedRegs(rng, p.nregs)
	cnt, ld := p.nregs-1, p.nregs-2 // loop counter and loaded value: the mix uses registers below them
	p.insns = append(p.insns,
		vinsn{kind: vSet, rd: cnt, imm: loopTrips},
		vinsn{kind: vLabel, label: 0},
		vinsn{kind: vLd, rd: ld, imm: rng.Int63n(roWords)})
	p.appendMix(rng, ld, forms(vALU, 3, aluOps...), forms(vALUI, 2, aluOps...), forms(vALUI, 1, core.OpRsh))
	p.insns = append(p.insns,
		vinsn{kind: vALU, op: core.OpAdd, rd: 0, rs1: 0, rs2: ld},
		vinsn{kind: vALUI, op: core.OpSub, rd: cnt, rs1: cnt, imm: 1},
		vinsn{kind: vBrI, op: core.OpBgt, rs1: cnt, imm: 0, label: 0})
	foldResult(p)
	return p
}

// genVasmProg is one vasm corpus entry: a short function with forward
// branches, loads and stores.
func genVasmProg(rng *rand.Rand, id int) *vprog {
	p := &vprog{name: fmt.Sprintf("vp%d", id), nregs: 4}
	p.insns = seedRegs(rng, p.nregs)
	p.appendMix(rng, p.nregs,
		forms(vALU, 6, aluOps...), forms(vALUI, 4, aluOps...), forms(vALUI, 2, shiftOps...),
		forms(vLd, 2), forms(vSt, 2), forms(vBrI, 2, core.OpBlt, core.OpBne))
	foldResult(p)
	return p
}
