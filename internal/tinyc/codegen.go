package tinyc

import (
	"fmt"

	"repro/internal/core"
)

// Compiler compiles one tiny-C program through VCODE onto one simulated
// machine.  Functions call each other through a function-pointer table in
// data memory, so mutual recursion needs no compile ordering; the table
// is filled as the functions are installed.
type Compiler struct {
	machine *core.Machine
	backend core.Backend

	funcs map[string]*core.Func
	unit  *core.Unit // nil until Compile
	table uint64
}

// NewCompiler returns a compiler bound to a machine.
func NewCompiler(m *core.Machine) *Compiler {
	return &Compiler{machine: m, backend: m.Backend(), funcs: make(map[string]*core.Func)}
}

// Funcs returns the compiled functions by name.
func (c *Compiler) Funcs() map[string]*core.Func { return c.funcs }

// Unit returns the owner of what Compile placed on the machine — the
// functions, in the order the source declares them, and their table;
// Unload returns it.  Nil before Compile.
func (c *Compiler) Unit() *core.Unit { return c.unit }

// Compile compiles a whole program and installs it, in declaration order.
// When it fails nothing of the program stays on the machine.  A compiler
// compiles one program.
func (c *Compiler) Compile(prog *Program) (err error) {
	if c.unit != nil {
		return fmt.Errorf("tinyc: Compile called twice on one Compiler")
	}
	for i := range prog.funcs {
		fd := &prog.funcs[i]
		if prog.funcOf[fd.name] != int32(i) {
			return fmt.Errorf("line %d: function %q redefined", fd.line, prog.names[fd.name])
		}
	}
	c.unit = c.machine.NewUnit()
	defer func() {
		if err != nil {
			c.unit.Unload()
		}
	}()
	if c.table, err = c.unit.Table(len(prog.funcs)); err != nil {
		return err
	}

	// Every function is built on one borrowed assembler, handed back only
	// when all of them compiled: after an error it may be mid-build.
	g := fnGen{c: c, a: c.machine.BorrowAsm(), prog: prog,
		vars: make([]scopeVar, 0, len(prog.names)), cur: make([]int32, len(prog.names))}
	for i := range g.cur {
		g.cur[i] = -1
	}
	for i := range prog.funcs {
		fd := &prog.funcs[i]
		name := prog.names[fd.name]
		fn, err := g.compileFunc(fd)
		if err != nil {
			return fmt.Errorf("function %s: %w", name, err)
		}
		c.funcs[name] = fn
	}
	c.machine.ReturnAsm(g.a)
	for i := range prog.funcs {
		if err := c.unit.Install(c.funcs[prog.names[prog.funcs[i].name]]); err != nil {
			return err
		}
	}
	return nil
}

// Run calls a compiled function.
func (c *Compiler) Run(name string, args ...core.Value) (core.Value, error) {
	fn, ok := c.funcs[name]
	if !ok {
		return core.Value{}, fmt.Errorf("tinyc: no function %q", name)
	}
	return c.machine.Call(fn, args...)
}

// --- per-function generation ---

type varInfo struct {
	t     CType
	reg   core.Reg
	local int64
	inReg bool
}

// scopeVar is one variable in scope.  prev is what its name meant before
// the declaration (an index into fnGen.vars, or -1), restored when the
// variable's block ends.
type scopeVar struct {
	varInfo
	name nameID
	prev int32
}

// loopLabels are the targets of break and continue inside one loop.
type loopLabels struct{ brk, cont core.Label }

// fnGen is the state of one Compile, reused from function to function.
type fnGen struct {
	c    *Compiler
	a    *core.Asm
	prog *Program
	fd   *funcDecl

	// vars is the scope stack: every variable in scope, innermost block
	// last; the current block's start at scope.  cur maps each identifier
	// to its innermost variable (an index into vars), or -1.
	vars  []scopeVar
	scope int
	cur   []int32

	loops   []loopLabels
	sig     []core.Type // a signature on its way to BeginTypes or StartCallTypes
	argRegs []core.Reg  // the evaluated arguments of every call under construction
}

func (g *fnGen) node(id nodeID) *node { return &g.prog.nodes[id] }

func (g *fnGen) compileFunc(fd *funcDecl) (*core.Func, error) {
	a, params := g.a, g.prog.paramsOf(fd)
	g.fd = fd
	a.SetName(g.prog.names[fd.name])
	g.sig = g.sig[:0]
	for _, p := range params {
		g.sig = append(g.sig, p.typ.VType())
	}
	// Functions that make no calls are declared leaf, buying the leaf
	// optimizations (no RA save, caller-saved registers satisfy
	// persistent requests).
	leaf := !g.node(fd.body).hasCall
	args, err := a.BeginTypes(g.sig, leaf)
	if err != nil {
		return nil, err
	}
	outer := g.push()
	// Move parameters out of the argument registers into persistent
	// homes (argument registers die across calls).
	for i, p := range params {
		v, err := g.declare(p.name, p.typ, fd.line)
		if err != nil {
			return nil, err
		}
		g.storeVar(v, args[i])
	}
	if err := g.block(fd.body); err != nil {
		return nil, err
	}
	g.pop(outer)
	// Fall off the end: return zero.
	z, err := g.temp(fd.ret, false)
	if err != nil {
		return nil, err
	}
	if fd.ret == CDouble {
		a.Setd(z, 0)
	} else {
		a.Seti(z, 0)
	}
	a.Ret(fd.ret.VType(), z)
	return a.End()
}

// push opens a block scope and returns the enclosing one's start, for pop.
func (g *fnGen) push() (outer int) {
	outer, g.scope = g.scope, len(g.vars)
	return outer
}

// pop closes the current block scope: its variables' names mean again what
// they meant before it.
func (g *fnGen) pop(outer int) {
	for i := len(g.vars) - 1; i >= g.scope; i-- {
		g.cur[g.vars[i].name] = g.vars[i].prev
	}
	g.vars, g.scope = g.vars[:g.scope], outer
}

func (g *fnGen) lookup(name nameID) (varInfo, bool) {
	if i := g.cur[name]; i >= 0 {
		return g.vars[i].varInfo, true
	}
	return varInfo{}, false
}

// declare allocates a home for a variable: a persistent register when one
// is available, otherwise a stack local — exactly the division of labor
// the paper describes for VCODE's limited-scope allocator.
func (g *fnGen) declare(name nameID, t CType, line int32) (varInfo, error) {
	if int(g.cur[name]) >= g.scope {
		return varInfo{}, fmt.Errorf("line %d: %q redeclared", line, g.prog.names[name])
	}
	v := varInfo{t: t}
	var reg core.Reg
	var err error
	if t == CDouble {
		reg, err = g.a.GetFReg(core.Var)
	} else {
		reg, err = g.a.GetReg(core.Var)
	}
	if err == nil {
		v.reg, v.inReg = reg, true
	} else if err == core.ErrRegExhausted {
		v.local = g.a.Local(t.VType())
	} else {
		return varInfo{}, err
	}
	g.vars = append(g.vars, scopeVar{varInfo: v, name: name, prev: g.cur[name]})
	g.cur[name] = int32(len(g.vars) - 1)
	return v, nil
}

func (g *fnGen) storeVar(v varInfo, src core.Reg) {
	if v.inReg {
		g.a.Unary(core.OpMov, v.t.VType(), v.reg, src)
		return
	}
	g.a.StLocal(v.t.VType(), src, v.local)
}

func (g *fnGen) loadVar(v varInfo, dst core.Reg) {
	if v.inReg {
		g.a.Unary(core.OpMov, v.t.VType(), dst, v.reg)
		return
	}
	g.a.LdLocal(v.t.VType(), dst, v.local)
}

// temp allocates an expression register.  wantVar requests a register
// that survives calls (used when a sibling subexpression contains one).
func (g *fnGen) temp(t CType, wantVar bool) (core.Reg, error) {
	class := core.Temp
	if wantVar {
		class = core.Var
	}
	if t == CDouble {
		return g.a.GetFReg(class)
	}
	return g.a.GetReg(class)
}

func (g *fnGen) free(r core.Reg) { g.a.PutReg(r) }

// --- statements ---

func (g *fnGen) block(id nodeID) error {
	outer := g.push()
	for s := nodeID(g.node(id).b); s != noNode; s = g.node(s).next {
		if err := g.stmt(s); err != nil {
			return err
		}
	}
	g.pop(outer)
	return nil
}

func (g *fnGen) stmt(id nodeID) error {
	a, st := g.a, g.node(id)
	switch st.kind {
	case nBlock:
		return g.block(id)
	case nDecl:
		v, err := g.declare(st.a, st.typ, st.line)
		if err != nil {
			return err
		}
		if init := nodeID(st.b); init != noNode {
			r, t, err := g.expr(init, false)
			if err != nil {
				return err
			}
			r, err = g.convert(r, t, st.typ)
			if err != nil {
				return err
			}
			g.storeVar(v, r)
			g.free(r)
		}
		return nil
	case nAssign:
		v, ok := g.lookup(st.a)
		if !ok {
			return fmt.Errorf("line %d: undefined variable %q", st.line, g.prog.names[st.a])
		}
		r, t, err := g.expr(nodeID(st.b), false)
		if err != nil {
			return err
		}
		r, err = g.convert(r, t, v.t)
		if err != nil {
			return err
		}
		g.storeVar(v, r)
		g.free(r)
		return nil
	case nReturn:
		r, t, err := g.expr(nodeID(st.a), false)
		if err != nil {
			return err
		}
		r, err = g.convert(r, t, g.fd.ret)
		if err != nil {
			return err
		}
		a.Ret(g.fd.ret.VType(), r)
		g.free(r)
		return nil
	case nIf:
		elseL := a.NewLabel()
		if err := g.condBranchFalse(nodeID(st.a), elseL); err != nil {
			return err
		}
		if err := g.stmt(nodeID(st.b)); err != nil {
			return err
		}
		if els := nodeID(st.c); els != noNode {
			doneL := a.NewLabel()
			a.Jmp(doneL)
			a.Bind(elseL)
			if err := g.stmt(els); err != nil {
				return err
			}
			a.Bind(doneL)
			return nil
		}
		a.Bind(elseL)
		return nil
	case nWhile:
		top, done := a.NewLabel(), a.NewLabel()
		cont, post := top, nodeID(st.c)
		if post != noNode {
			cont = a.NewLabel()
		}
		a.Bind(top)
		if err := g.condBranchFalse(nodeID(st.a), done); err != nil {
			return err
		}
		g.loops = append(g.loops, loopLabels{brk: done, cont: cont})
		err := g.stmt(nodeID(st.b))
		g.loops = g.loops[:len(g.loops)-1]
		if err != nil {
			return err
		}
		if post != noNode {
			a.Bind(cont)
			if err := g.stmt(post); err != nil {
				return err
			}
		}
		a.Jmp(top)
		a.Bind(done)
		return nil
	case nBreak:
		if len(g.loops) == 0 {
			return fmt.Errorf("line %d: break outside loop", st.line)
		}
		a.Jmp(g.loops[len(g.loops)-1].brk)
		return nil
	case nContinue:
		if len(g.loops) == 0 {
			return fmt.Errorf("line %d: continue outside loop", st.line)
		}
		a.Jmp(g.loops[len(g.loops)-1].cont)
		return nil
	case nExprStmt:
		r, _, err := g.expr(nodeID(st.a), false)
		if err != nil {
			return err
		}
		g.free(r)
		return nil
	}
	return fmt.Errorf("tinyc: unknown statement kind %d", st.kind)
}

// condBranchFalse evaluates cond and branches to l when it is false.
func (g *fnGen) condBranchFalse(cond nodeID, l core.Label) error {
	r, t, err := g.expr(cond, false)
	if err != nil {
		return err
	}
	if t == CDouble {
		fz := g.c.backend.ScratchFPR()
		g.a.Setd(fz, 0)
		g.a.Br(core.OpBeq, core.TypeD, r, fz, l)
	} else {
		g.a.BrI(core.OpBeq, core.TypeI, r, 0, l)
	}
	g.free(r)
	return g.a.Err()
}

// --- expressions ---

// The VCODE operation of each arithmetic operator and the branch of each
// comparison; opNone for every other symbol.
const opNone = core.Op(0xff)

var arithOps, cmpOps = func() (arith, cmp [numSyms]core.Op) {
	for i := range arith {
		arith[i], cmp[i] = opNone, opNone
	}
	arith[pAdd], arith[pSub], arith[pMul], arith[pDiv], arith[pMod] =
		core.OpAdd, core.OpSub, core.OpMul, core.OpDiv, core.OpMod
	cmp[pLt], cmp[pLe], cmp[pGt], cmp[pGe], cmp[pEq], cmp[pNe] =
		core.OpBlt, core.OpBle, core.OpBgt, core.OpBge, core.OpBeq, core.OpBne
	return arith, cmp
}()

// expr compiles e into a freshly allocated register owned by the caller.
// wantVar forces a call-surviving register class for the result.
func (g *fnGen) expr(id nodeID, wantVar bool) (core.Reg, CType, error) {
	a, ex := g.a, g.node(id)
	switch ex.kind {
	case nIntLit:
		r, err := g.temp(CInt, wantVar)
		if err != nil {
			return core.NoReg, 0, err
		}
		a.Seti(r, ex.intVal())
		return r, CInt, a.Err()
	case nFloatLit:
		r, err := g.temp(CDouble, wantVar)
		if err != nil {
			return core.NoReg, 0, err
		}
		a.Setd(r, ex.floatVal())
		return r, CDouble, a.Err()
	case nVarRef:
		v, ok := g.lookup(ex.a)
		if !ok {
			return core.NoReg, 0, fmt.Errorf("line %d: undefined variable %q", ex.line, g.prog.names[ex.a])
		}
		r, err := g.temp(v.t, wantVar)
		if err != nil {
			return core.NoReg, 0, err
		}
		g.loadVar(v, r)
		return r, v.t, a.Err()
	case nUn:
		r, t, err := g.expr(nodeID(ex.a), wantVar)
		if err != nil {
			return core.NoReg, 0, err
		}
		if ex.op == pSub {
			a.Unary(core.OpNeg, t.VType(), r, r)
			return r, t, a.Err()
		}
		if t == CDouble {
			// (d == 0.0) as an int.
			ri, err := g.temp(CInt, wantVar)
			if err != nil {
				return core.NoReg, 0, err
			}
			fz := g.c.backend.ScratchFPR()
			a.Setd(fz, 0)
			yes := a.NewLabel()
			a.Seti(ri, 1)
			a.Br(core.OpBeq, core.TypeD, r, fz, yes)
			a.Seti(ri, 0)
			a.Bind(yes)
			g.free(r)
			return ri, CInt, a.Err()
		}
		a.Unary(core.OpNot, core.TypeI, r, r)
		return r, CInt, a.Err()
	case nCast:
		r, t, err := g.expr(nodeID(ex.a), wantVar)
		if err != nil {
			return core.NoReg, 0, err
		}
		r, err = g.convert(r, t, ex.typ)
		return r, ex.typ, err
	case nBin:
		return g.binExpr(ex, wantVar)
	case nCall:
		return g.call(ex, wantVar)
	}
	return core.NoReg, 0, fmt.Errorf("tinyc: unknown expression kind %d", ex.kind)
}

func (g *fnGen) binExpr(ex *node, wantVar bool) (core.Reg, CType, error) {
	a := g.a
	if ex.op == pAndAnd || ex.op == pOrOr {
		return g.shortCircuit(ex, wantVar)
	}
	// The left value must survive evaluation of the right; if the right
	// contains a call, hold it in a persistent register.
	l, lt, err := g.expr(nodeID(ex.a), wantVar || g.node(nodeID(ex.b)).hasCall)
	if err != nil {
		return core.NoReg, 0, err
	}
	r, rt, err := g.expr(nodeID(ex.b), false)
	if err != nil {
		return core.NoReg, 0, err
	}
	// Usual arithmetic conversions.
	ct := CInt
	if lt == CDouble || rt == CDouble {
		ct = CDouble
		if l, err = g.convert(l, lt, CDouble); err != nil {
			return core.NoReg, 0, err
		}
		if r, err = g.convert(r, rt, CDouble); err != nil {
			return core.NoReg, 0, err
		}
	}
	vt := ct.VType()

	if op := arithOps[ex.op]; op != opNone {
		if ct == CDouble && ex.op == pMod {
			return core.NoReg, 0, fmt.Errorf("line %d: %% needs integer operands", ex.line)
		}
		a.ALU(op, vt, l, l, r)
		g.free(r)
		return l, ct, a.Err()
	}
	if op := cmpOps[ex.op]; op != opNone {
		res, err := g.temp(CInt, wantVar)
		if err != nil {
			return core.NoReg, 0, err
		}
		yes := a.NewLabel()
		a.Seti(res, 1)
		a.Br(op, vt, l, r, yes)
		a.Seti(res, 0)
		a.Bind(yes)
		g.free(l)
		g.free(r)
		return res, CInt, a.Err()
	}
	return core.NoReg, 0, fmt.Errorf("line %d: unknown operator %d", ex.line, ex.op)
}

func (g *fnGen) shortCircuit(ex *node, wantVar bool) (core.Reg, CType, error) {
	a := g.a
	res, err := g.temp(CInt, wantVar || g.node(nodeID(ex.b)).hasCall)
	if err != nil {
		return core.NoReg, 0, err
	}
	out := a.NewLabel()
	// The short-circuit value is loaded first; if the left operand
	// decides, we jump straight out with it.
	shortVal := int64(0) // && shorts to 0 when the left is false
	brOnShort := core.OpBeq
	if ex.op == pOrOr {
		shortVal = 1 // || shorts to 1 when the left is true
		brOnShort = core.OpBne
	}
	l, lt, err := g.expr(nodeID(ex.a), false)
	if err != nil {
		return core.NoReg, 0, err
	}
	if l, err = g.truthy(l, lt); err != nil {
		return core.NoReg, 0, err
	}
	a.Seti(res, shortVal)
	a.BrI(brOnShort, core.TypeI, l, 0, out)
	g.free(l)
	// Otherwise the result is the truthiness of the right operand.
	r, rt, err := g.expr(nodeID(ex.b), false)
	if err != nil {
		return core.NoReg, 0, err
	}
	if r, err = g.truthy(r, rt); err != nil {
		return core.NoReg, 0, err
	}
	a.Seti(res, 1)
	a.BrI(core.OpBne, core.TypeI, r, 0, out)
	a.Seti(res, 0)
	a.Bind(out)
	g.free(r)
	return res, CInt, a.Err()
}

// truthy normalizes a value to 0/1 in an int register.
func (g *fnGen) truthy(r core.Reg, t CType) (core.Reg, error) {
	a := g.a
	if t != CDouble {
		return r, nil
	}
	ri, err := g.temp(CInt, false)
	if err != nil {
		return core.NoReg, err
	}
	fz := g.c.backend.ScratchFPR()
	a.Setd(fz, 0)
	yes := a.NewLabel()
	a.Seti(ri, 1)
	a.Br(core.OpBne, core.TypeD, r, fz, yes)
	a.Seti(ri, 0)
	a.Bind(yes)
	g.free(r)
	return ri, a.Err()
}

func (g *fnGen) call(ex *node, wantVar bool) (core.Reg, CType, error) {
	a, name := g.a, g.prog.names[ex.a]
	callee := g.prog.funcOf[ex.a]
	if callee < 0 {
		return core.NoReg, 0, fmt.Errorf("line %d: call to undefined function %q", ex.line, name)
	}
	fd := &g.prog.funcs[callee]
	params := g.prog.paramsOf(fd)
	// If any argument itself contains a call, every earlier argument
	// value must survive it.
	nargs, anyCall := 0, false
	for arg := nodeID(ex.b); arg != noNode; arg = g.node(arg).next {
		nargs++
		anyCall = anyCall || g.node(arg).hasCall
	}
	if nargs != len(params) {
		return core.NoReg, 0, fmt.Errorf("line %d: %s takes %d args, got %d", ex.line, name, len(params), nargs)
	}
	// The argument registers go on a stack shared with the calls among the
	// arguments, which push above base and are gone again by now.
	base := len(g.argRegs)
	for i, arg := 0, nodeID(ex.b); arg != noNode; i, arg = i+1, g.node(arg).next {
		r, t, err := g.expr(arg, anyCall)
		if err != nil {
			return core.NoReg, 0, err
		}
		if r, err = g.convert(r, t, params[i].typ); err != nil {
			return core.NoReg, 0, err
		}
		g.argRegs = append(g.argRegs, r)
	}
	// Load the callee's entry from the function table (the table slot
	// address is a link-time constant of this compilation).
	ptr, err := g.a.GetReg(core.Temp)
	if err != nil {
		return core.NoReg, 0, err
	}
	slotAddr := g.c.table + uint64(int(callee)*g.c.backend.PtrBytes())
	a.Setp(ptr, int64(slotAddr))
	a.Ldpi(ptr, ptr, 0)
	g.sig = g.sig[:0]
	for _, p := range params {
		g.sig = append(g.sig, p.typ.VType())
	}
	a.StartCallTypes(g.sig)
	for i, r := range g.argRegs[base:] {
		a.SetArg(i, r)
	}
	a.CallReg(ptr)
	g.free(ptr)
	for _, r := range g.argRegs[base:] {
		g.free(r)
	}
	g.argRegs = g.argRegs[:base]
	res, err := g.temp(fd.ret, wantVar)
	if err != nil {
		return core.NoReg, 0, err
	}
	a.RetVal(fd.ret.VType(), res)
	return res, fd.ret, a.Err()
}

// convert moves a value between tiny-C types, re-homing it in a register
// of the right bank.
func (g *fnGen) convert(r core.Reg, from, to CType) (core.Reg, error) {
	if from == to {
		return r, nil
	}
	nr, err := g.temp(to, false)
	if err != nil {
		return core.NoReg, err
	}
	if to == CDouble {
		g.a.Cvi2d(nr, r)
	} else {
		g.a.Cvd2i(nr, r)
	}
	g.free(r)
	return nr, g.a.Err()
}
