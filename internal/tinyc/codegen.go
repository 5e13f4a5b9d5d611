package tinyc

import (
	"fmt"

	"repro/internal/core"
)

// Compiler compiles tiny-C programs through VCODE onto one simulated
// machine.  Functions call each other through a function-pointer table in
// data memory, so mutual recursion needs no compile ordering; the table
// is patched once every function is installed.
type Compiler struct {
	machine *core.Machine
	backend core.Backend

	sigs  map[string]*FuncDecl
	funcs map[string]*core.Func
	slots map[string]int
	table uint64
}

// NewCompiler returns a compiler bound to a machine.
func NewCompiler(m *core.Machine) *Compiler {
	return &Compiler{
		machine: m,
		backend: m.Backend(),
		sigs:    make(map[string]*FuncDecl),
		funcs:   make(map[string]*core.Func),
		slots:   make(map[string]int),
	}
}

// Funcs returns the compiled functions by name.
func (c *Compiler) Funcs() map[string]*core.Func { return c.funcs }

// Table returns the compiled program's function-pointer table as the
// (address, size) Machine.Alloc handed out.  An owner that uninstalls the
// program's functions returns the table with Machine.Free.
func (c *Compiler) Table() (addr uint64, size int) {
	return c.table, c.backend.PtrBytes() * len(c.slots)
}

// Compile compiles a whole program and installs it.  When it fails the
// function-pointer table goes back to the machine's heap.
func (c *Compiler) Compile(prog *Program) (err error) {
	for _, fd := range prog.Funcs {
		if _, dup := c.sigs[fd.Name]; dup {
			return fmt.Errorf("line %d: function %q redefined", fd.Line, fd.Name)
		}
		c.sigs[fd.Name] = fd
		c.slots[fd.Name] = len(c.slots)
	}
	ptr := c.backend.PtrBytes()
	table, err := c.machine.Alloc(ptr * len(c.slots))
	if err != nil {
		return err
	}
	c.table = table
	defer func() {
		if err != nil {
			_ = c.machine.Free(c.Table()) // the block Alloc just returned
		}
	}()

	for _, fd := range prog.Funcs {
		fn, err := c.compileFunc(fd)
		if err != nil {
			return fmt.Errorf("function %s: %w", fd.Name, err)
		}
		c.funcs[fd.Name] = fn
	}
	for _, fn := range c.funcs {
		if err := c.machine.Install(fn); err != nil {
			return err
		}
	}
	for name, slot := range c.slots {
		addr := c.table + uint64(slot*ptr)
		if err := c.machine.Mem().Store(addr, ptr, c.funcs[name].EntryAddr()); err != nil {
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

// CompileAndRun is the one-shot convenience used by examples.
func (c *Compiler) CompileAndRun(src, entry string, args ...core.Value) (core.Value, error) {
	prog, err := Parse(src)
	if err != nil {
		return core.Value{}, err
	}
	if err := c.Compile(prog); err != nil {
		return core.Value{}, err
	}
	return c.Run(entry, args...)
}

// --- per-function generation ---

type varInfo struct {
	t     CType
	reg   core.Reg
	local int64
	inReg bool
}

type fnGen struct {
	c      *Compiler
	a      *core.Asm
	fd     *FuncDecl
	scopes []map[string]varInfo
	breaks []core.Label
	conts  []core.Label
}

func (c *Compiler) compileFunc(fd *FuncDecl) (*core.Func, error) {
	a := core.NewAsm(c.backend)
	a.SetName(fd.Name)
	sig := ""
	for _, p := range fd.Params {
		sig += "%" + p.Type.VType().Letter()
	}
	// Functions that make no calls are declared leaf, buying the leaf
	// optimizations (no RA save, caller-saved registers satisfy
	// persistent requests).
	leaf := !hasCallStmt(fd.Body)
	args, err := a.Begin(sig, leaf)
	if err != nil {
		return nil, err
	}
	g := &fnGen{c: c, a: a, fd: fd}
	g.push()
	// Move parameters out of the argument registers into persistent
	// homes (argument registers die across calls).
	for i, p := range fd.Params {
		v, err := g.declare(p.Name, p.Type, fd.Line)
		if err != nil {
			return nil, err
		}
		g.storeVar(v, args[i])
	}
	if err := g.block(fd.Body); err != nil {
		return nil, err
	}
	// Fall off the end: return zero.
	z, err := g.temp(fd.Ret, false)
	if err != nil {
		return nil, err
	}
	if fd.Ret == CDouble {
		a.Setd(z, 0)
	} else {
		a.Seti(z, 0)
	}
	a.Ret(fd.Ret.VType(), z)
	return a.End()
}

func (g *fnGen) push() { g.scopes = append(g.scopes, map[string]varInfo{}) }
func (g *fnGen) pop()  { g.scopes = g.scopes[:len(g.scopes)-1] }

func (g *fnGen) lookup(name string) (varInfo, bool) {
	for i := len(g.scopes) - 1; i >= 0; i-- {
		if v, ok := g.scopes[i][name]; ok {
			return v, true
		}
	}
	return varInfo{}, false
}

// declare allocates a home for a variable: a persistent register when one
// is available, otherwise a stack local — exactly the division of labor
// the paper describes for VCODE's limited-scope allocator.
func (g *fnGen) declare(name string, t CType, line int) (varInfo, error) {
	scope := g.scopes[len(g.scopes)-1]
	if _, dup := scope[name]; dup {
		return varInfo{}, fmt.Errorf("line %d: %q redeclared", line, name)
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
	scope[name] = v
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

func (g *fnGen) block(b *Block) error {
	g.push()
	defer g.pop()
	for _, s := range b.Stmts {
		if err := g.stmt(s); err != nil {
			return err
		}
	}
	return nil
}

func (g *fnGen) stmt(s Stmt) error {
	a := g.a
	switch st := s.(type) {
	case *Block:
		return g.block(st)
	case *DeclStmt:
		v, err := g.declare(st.Name, st.Type, st.Line)
		if err != nil {
			return err
		}
		if st.Init != nil {
			r, t, err := g.expr(st.Init, false)
			if err != nil {
				return err
			}
			r, err = g.convert(r, t, st.Type)
			if err != nil {
				return err
			}
			g.storeVar(v, r)
			g.free(r)
		}
		return nil
	case *AssignStmt:
		v, ok := g.lookup(st.Name)
		if !ok {
			return fmt.Errorf("line %d: undefined variable %q", st.Line, st.Name)
		}
		r, t, err := g.expr(st.Val, false)
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
	case *ReturnStmt:
		r, t, err := g.expr(st.Val, false)
		if err != nil {
			return err
		}
		r, err = g.convert(r, t, g.fd.Ret)
		if err != nil {
			return err
		}
		a.Ret(g.fd.Ret.VType(), r)
		g.free(r)
		return nil
	case *IfStmt:
		elseL := a.NewLabel()
		if err := g.condBranchFalse(st.Cond, elseL); err != nil {
			return err
		}
		if err := g.stmt(st.Then); err != nil {
			return err
		}
		if st.Else != nil {
			doneL := a.NewLabel()
			a.Jmp(doneL)
			a.Bind(elseL)
			if err := g.stmt(st.Else); err != nil {
				return err
			}
			a.Bind(doneL)
			return nil
		}
		a.Bind(elseL)
		return nil
	case *WhileStmt:
		top, done := a.NewLabel(), a.NewLabel()
		cont := top
		if st.Post != nil {
			cont = a.NewLabel()
		}
		a.Bind(top)
		if err := g.condBranchFalse(st.Cond, done); err != nil {
			return err
		}
		g.breaks = append(g.breaks, done)
		g.conts = append(g.conts, cont)
		err := g.stmt(st.Body)
		g.breaks = g.breaks[:len(g.breaks)-1]
		g.conts = g.conts[:len(g.conts)-1]
		if err != nil {
			return err
		}
		if st.Post != nil {
			a.Bind(cont)
			if err := g.stmt(st.Post); err != nil {
				return err
			}
		}
		a.Jmp(top)
		a.Bind(done)
		return nil
	case *BreakStmt:
		if len(g.breaks) == 0 {
			return fmt.Errorf("line %d: break outside loop", st.Line)
		}
		a.Jmp(g.breaks[len(g.breaks)-1])
		return nil
	case *ContinueStmt:
		if len(g.conts) == 0 {
			return fmt.Errorf("line %d: continue outside loop", st.Line)
		}
		a.Jmp(g.conts[len(g.conts)-1])
		return nil
	case *ExprStmt:
		r, _, err := g.expr(st.X, false)
		if err != nil {
			return err
		}
		g.free(r)
		return nil
	}
	return fmt.Errorf("tinyc: unknown statement %T", s)
}

// condBranchFalse evaluates cond and branches to l when it is false.
func (g *fnGen) condBranchFalse(cond Expr, l core.Label) error {
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

var intOps = map[string]core.Op{
	"+": core.OpAdd, "-": core.OpSub, "*": core.OpMul, "/": core.OpDiv, "%": core.OpMod,
}

var cmpOps = map[string]core.Op{
	"<": core.OpBlt, "<=": core.OpBle, ">": core.OpBgt, ">=": core.OpBge,
	"==": core.OpBeq, "!=": core.OpBne,
}

// expr compiles e into a freshly allocated register owned by the caller.
// wantVar forces a call-surviving register class for the result.
func (g *fnGen) expr(e Expr, wantVar bool) (core.Reg, CType, error) {
	a := g.a
	switch ex := e.(type) {
	case *IntLit:
		r, err := g.temp(CInt, wantVar)
		if err != nil {
			return core.NoReg, 0, err
		}
		a.Seti(r, ex.V)
		return r, CInt, a.Err()
	case *FloatLit:
		r, err := g.temp(CDouble, wantVar)
		if err != nil {
			return core.NoReg, 0, err
		}
		a.Setd(r, ex.V)
		return r, CDouble, a.Err()
	case *VarRef:
		v, ok := g.lookup(ex.Name)
		if !ok {
			return core.NoReg, 0, fmt.Errorf("line %d: undefined variable %q", ex.Line, ex.Name)
		}
		r, err := g.temp(v.t, wantVar)
		if err != nil {
			return core.NoReg, 0, err
		}
		g.loadVar(v, r)
		return r, v.t, a.Err()
	case *UnExpr:
		r, t, err := g.expr(ex.X, wantVar)
		if err != nil {
			return core.NoReg, 0, err
		}
		switch ex.Op {
		case "-":
			vt := core.TypeI
			if t == CDouble {
				vt = core.TypeD
			}
			a.Unary(core.OpNeg, vt, r, r)
			return r, t, a.Err()
		case "!":
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
		}
		return core.NoReg, 0, fmt.Errorf("tinyc: unknown unary %q", ex.Op)
	case *CastExpr:
		r, t, err := g.expr(ex.X, wantVar)
		if err != nil {
			return core.NoReg, 0, err
		}
		r, err = g.convert(r, t, ex.To)
		return r, ex.To, err
	case *BinExpr:
		return g.binExpr(ex, wantVar)
	case *CallExpr:
		return g.call(ex, wantVar)
	}
	return core.NoReg, 0, fmt.Errorf("tinyc: unknown expression %T", e)
}

func (g *fnGen) binExpr(ex *BinExpr, wantVar bool) (core.Reg, CType, error) {
	a := g.a
	if ex.Op == "&&" || ex.Op == "||" {
		return g.shortCircuit(ex, wantVar)
	}
	// The left value must survive evaluation of the right; if the right
	// contains a call, hold it in a persistent register.
	l, lt, err := g.expr(ex.L, wantVar || hasCall(ex.R))
	if err != nil {
		return core.NoReg, 0, err
	}
	r, rt, err := g.expr(ex.R, false)
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

	if op, ok := intOps[ex.Op]; ok {
		if ct == CDouble && (ex.Op == "%") {
			return core.NoReg, 0, fmt.Errorf("line %d: %% needs integer operands", ex.Line)
		}
		a.ALU(op, vt, l, l, r)
		g.free(r)
		return l, ct, a.Err()
	}
	if op, ok := cmpOps[ex.Op]; ok {
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
	return core.NoReg, 0, fmt.Errorf("line %d: unknown operator %q", ex.Line, ex.Op)
}

func (g *fnGen) shortCircuit(ex *BinExpr, wantVar bool) (core.Reg, CType, error) {
	a := g.a
	res, err := g.temp(CInt, wantVar || hasCall(ex.R))
	if err != nil {
		return core.NoReg, 0, err
	}
	out := a.NewLabel()
	// The short-circuit value is loaded first; if the left operand
	// decides, we jump straight out with it.
	shortVal := int64(0) // && shorts to 0 when the left is false
	brOnShort := core.OpBeq
	if ex.Op == "||" {
		shortVal = 1 // || shorts to 1 when the left is true
		brOnShort = core.OpBne
	}
	l, lt, err := g.expr(ex.L, false)
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
	r, rt, err := g.expr(ex.R, false)
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

func (g *fnGen) call(ex *CallExpr, wantVar bool) (core.Reg, CType, error) {
	a := g.a
	fd, ok := g.c.sigs[ex.Name]
	if !ok {
		return core.NoReg, 0, fmt.Errorf("line %d: call to undefined function %q", ex.Line, ex.Name)
	}
	if len(ex.Args) != len(fd.Params) {
		return core.NoReg, 0, fmt.Errorf("line %d: %s takes %d args, got %d",
			ex.Line, ex.Name, len(fd.Params), len(ex.Args))
	}
	// If any argument itself contains a call, every earlier argument
	// value must survive it.
	anyCall := false
	for _, arg := range ex.Args {
		if hasCall(arg) {
			anyCall = true
		}
	}
	sig := ""
	regs := make([]core.Reg, len(ex.Args))
	for i, arg := range ex.Args {
		pt := fd.Params[i].Type
		sig += "%" + pt.VType().Letter()
		r, t, err := g.expr(arg, anyCall)
		if err != nil {
			return core.NoReg, 0, err
		}
		if r, err = g.convert(r, t, pt); err != nil {
			return core.NoReg, 0, err
		}
		regs[i] = r
	}
	// Load the callee's entry from the function table (the table slot
	// address is a link-time constant of this compilation).
	ptr, err := g.a.GetReg(core.Temp)
	if err != nil {
		return core.NoReg, 0, err
	}
	slotAddr := g.c.table + uint64(g.c.slots[ex.Name]*g.c.backend.PtrBytes())
	a.Setp(ptr, int64(slotAddr))
	a.Ldpi(ptr, ptr, 0)
	a.StartCall(sig)
	for i, r := range regs {
		a.SetArg(i, r)
	}
	a.CallReg(ptr)
	g.free(ptr)
	for _, r := range regs {
		g.free(r)
	}
	res, err := g.temp(fd.Ret, wantVar)
	if err != nil {
		return core.NoReg, 0, err
	}
	a.RetVal(fd.Ret.VType(), res)
	return res, fd.Ret, a.Err()
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

// --- call analysis ---

func hasCall(e Expr) bool {
	switch ex := e.(type) {
	case *CallExpr:
		return true
	case *BinExpr:
		return hasCall(ex.L) || hasCall(ex.R)
	case *UnExpr:
		return hasCall(ex.X)
	case *CastExpr:
		return hasCall(ex.X)
	}
	return false
}

func hasCallStmt(s Stmt) bool {
	switch st := s.(type) {
	case *Block:
		for _, x := range st.Stmts {
			if hasCallStmt(x) {
				return true
			}
		}
	case *DeclStmt:
		return st.Init != nil && hasCall(st.Init)
	case *AssignStmt:
		return hasCall(st.Val)
	case *ReturnStmt:
		return hasCall(st.Val)
	case *IfStmt:
		return hasCall(st.Cond) || hasCallStmt(st.Then) || (st.Else != nil && hasCallStmt(st.Else))
	case *WhileStmt:
		return hasCall(st.Cond) || hasCallStmt(st.Body) ||
			(st.Post != nil && hasCallStmt(st.Post))
	case *ExprStmt:
		return hasCall(st.X)
	}
	return false
}
