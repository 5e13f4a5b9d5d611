package tinyc

import "fmt"

// Interp is a reference AST interpreter for tiny-C.  It exists for
// differential testing: the compiled code running on a simulated target
// must agree with direct interpretation — and it is the layer of
// interpretation that dynamic code generation strips (§1).
type Interp struct {
	prog  *Program
	steps int
}

// NewInterp builds an interpreter over a parsed program.
func NewInterp(prog *Program) *Interp { return &Interp{prog: prog} }

// CVal is an interpreter value.
type CVal struct {
	T CType
	I int32
	D float64
}

// IntV wraps an int value.
func IntV(v int32) CVal { return CVal{T: CInt, I: v} }

// DblV wraps a double value.
func DblV(v float64) CVal { return CVal{T: CDouble, D: v} }

func (v CVal) toI() int32 {
	if v.T == CDouble {
		return int32(v.D)
	}
	return v.I
}

func (v CVal) toD() float64 {
	if v.T == CDouble {
		return v.D
	}
	return float64(v.I)
}

func (v CVal) truthy() bool {
	if v.T == CDouble {
		return v.D != 0
	}
	return v.I != 0
}

type interpFrame struct {
	vars []map[nameID]*CVal
}

func (f *interpFrame) lookup(name nameID) (*CVal, bool) {
	for i := len(f.vars) - 1; i >= 0; i-- {
		if v, ok := f.vars[i][name]; ok {
			return v, true
		}
	}
	return nil, false
}

type ctlFlow uint8

const (
	flowNormal ctlFlow = iota
	flowReturn
	flowBreak
	flowContinue
)

// Call interprets a function.
func (in *Interp) Call(name string, args ...CVal) (CVal, error) {
	for i := range in.prog.funcs {
		if fd := &in.prog.funcs[i]; in.prog.names[fd.name] == name {
			return in.call(fd, args)
		}
	}
	return CVal{}, fmt.Errorf("interp: no function %q", name)
}

func (in *Interp) call(fd *funcDecl, args []CVal) (CVal, error) {
	params := in.prog.paramsOf(fd)
	if len(args) != len(params) {
		return CVal{}, fmt.Errorf("interp: %s takes %d args, got %d", in.prog.names[fd.name], len(params), len(args))
	}
	in.steps++
	if in.steps > 1<<22 {
		return CVal{}, fmt.Errorf("interp: step budget exceeded")
	}
	fr := &interpFrame{vars: []map[nameID]*CVal{{}}}
	for i, p := range params {
		v := convertVal(args[i], p.typ)
		fr.vars[0][p.name] = &v
	}
	rv, flow, err := in.stmt(fr, fd.body)
	if err != nil {
		return CVal{}, err
	}
	if flow != flowReturn {
		rv = convertVal(IntV(0), fd.ret)
	}
	return convertVal(rv, fd.ret), nil
}

func convertVal(v CVal, to CType) CVal {
	if v.T == to {
		return v
	}
	if to == CDouble {
		return DblV(v.toD())
	}
	return IntV(v.toI())
}

func (in *Interp) stmt(fr *interpFrame, id nodeID) (CVal, ctlFlow, error) {
	st := &in.prog.nodes[id]
	switch st.kind {
	case nBlock:
		fr.vars = append(fr.vars, map[nameID]*CVal{})
		defer func() { fr.vars = fr.vars[:len(fr.vars)-1] }()
		for x := nodeID(st.b); x != noNode; x = in.prog.nodes[x].next {
			v, flow, err := in.stmt(fr, x)
			if err != nil || flow != flowNormal {
				return v, flow, err
			}
		}
		return CVal{}, flowNormal, nil
	case nDecl:
		v := convertVal(IntV(0), st.typ)
		if init := nodeID(st.b); init != noNode {
			iv, err := in.expr(fr, init)
			if err != nil {
				return CVal{}, flowNormal, err
			}
			v = convertVal(iv, st.typ)
		}
		fr.vars[len(fr.vars)-1][st.a] = &v
		return CVal{}, flowNormal, nil
	case nAssign:
		slot, ok := fr.lookup(st.a)
		if !ok {
			return CVal{}, flowNormal, fmt.Errorf("interp: undefined %q", in.prog.names[st.a])
		}
		v, err := in.expr(fr, nodeID(st.b))
		if err != nil {
			return CVal{}, flowNormal, err
		}
		*slot = convertVal(v, slot.T)
		return CVal{}, flowNormal, nil
	case nReturn:
		v, err := in.expr(fr, nodeID(st.a))
		return v, flowReturn, err
	case nIf:
		c, err := in.expr(fr, nodeID(st.a))
		if err != nil {
			return CVal{}, flowNormal, err
		}
		if c.truthy() {
			return in.stmt(fr, nodeID(st.b))
		}
		if els := nodeID(st.c); els != noNode {
			return in.stmt(fr, els)
		}
		return CVal{}, flowNormal, nil
	case nWhile:
		for {
			c, err := in.expr(fr, nodeID(st.a))
			if err != nil {
				return CVal{}, flowNormal, err
			}
			if !c.truthy() {
				return CVal{}, flowNormal, nil
			}
			in.steps++
			if in.steps > 1<<22 {
				return CVal{}, flowNormal, fmt.Errorf("interp: step budget exceeded")
			}
			v, flow, err := in.stmt(fr, nodeID(st.b))
			if err != nil {
				return CVal{}, flowNormal, err
			}
			switch flow {
			case flowReturn:
				return v, flowReturn, nil
			case flowBreak:
				return CVal{}, flowNormal, nil
			}
			// Normal completion and continue both run the post clause.
			if post := nodeID(st.c); post != noNode {
				if _, _, err := in.stmt(fr, post); err != nil {
					return CVal{}, flowNormal, err
				}
			}
		}
	case nBreak:
		return CVal{}, flowBreak, nil
	case nContinue:
		return CVal{}, flowContinue, nil
	case nExprStmt:
		_, err := in.expr(fr, nodeID(st.a))
		return CVal{}, flowNormal, err
	}
	return CVal{}, flowNormal, fmt.Errorf("interp: unknown statement kind %d", st.kind)
}

func (in *Interp) expr(fr *interpFrame, id nodeID) (CVal, error) {
	ex := &in.prog.nodes[id]
	switch ex.kind {
	case nIntLit:
		return IntV(int32(ex.intVal())), nil
	case nFloatLit:
		return DblV(ex.floatVal()), nil
	case nVarRef:
		v, ok := fr.lookup(ex.a)
		if !ok {
			return CVal{}, fmt.Errorf("interp: undefined %q", in.prog.names[ex.a])
		}
		return *v, nil
	case nUn:
		v, err := in.expr(fr, nodeID(ex.a))
		if err != nil {
			return CVal{}, err
		}
		if ex.op == pSub {
			if v.T == CDouble {
				return DblV(-v.D), nil
			}
			return IntV(-v.I), nil
		}
		return boolV(!v.truthy()), nil
	case nCast:
		v, err := in.expr(fr, nodeID(ex.a))
		if err != nil {
			return CVal{}, err
		}
		return convertVal(v, ex.typ), nil
	case nCall:
		var args []CVal
		for arg := nodeID(ex.b); arg != noNode; arg = in.prog.nodes[arg].next {
			v, err := in.expr(fr, arg)
			if err != nil {
				return CVal{}, err
			}
			args = append(args, v)
		}
		callee := in.prog.funcOf[ex.a]
		if callee < 0 {
			return CVal{}, fmt.Errorf("interp: no function %q", in.prog.names[ex.a])
		}
		return in.call(&in.prog.funcs[callee], args)
	case nBin:
		l, err := in.expr(fr, nodeID(ex.a))
		if err != nil {
			return CVal{}, err
		}
		if ex.op == pAndAnd || ex.op == pOrOr {
			if ex.op == pAndAnd && !l.truthy() {
				return IntV(0), nil
			}
			if ex.op == pOrOr && l.truthy() {
				return IntV(1), nil
			}
			r, err := in.expr(fr, nodeID(ex.b))
			if err != nil {
				return CVal{}, err
			}
			return boolV(r.truthy()), nil
		}
		r, err := in.expr(fr, nodeID(ex.b))
		if err != nil {
			return CVal{}, err
		}
		if l.T == CDouble || r.T == CDouble {
			a, b := l.toD(), r.toD()
			switch ex.op {
			case pAdd:
				return DblV(a + b), nil
			case pSub:
				return DblV(a - b), nil
			case pMul:
				return DblV(a * b), nil
			case pDiv:
				return DblV(a / b), nil
			case pLt:
				return boolV(a < b), nil
			case pLe:
				return boolV(a <= b), nil
			case pGt:
				return boolV(a > b), nil
			case pGe:
				return boolV(a >= b), nil
			case pEq:
				return boolV(a == b), nil
			case pNe:
				return boolV(a != b), nil
			}
			return CVal{}, fmt.Errorf("interp: double op %d", ex.op)
		}
		a, b := l.I, r.I
		switch ex.op {
		case pAdd:
			return IntV(a + b), nil
		case pSub:
			return IntV(a - b), nil
		case pMul:
			return IntV(a * b), nil
		case pDiv:
			if b == 0 {
				return IntV(0), nil // matches the machine helpers
			}
			if a == -2147483648 && b == -1 {
				return IntV(a), nil
			}
			return IntV(a / b), nil
		case pMod:
			if b == 0 {
				return IntV(0), nil
			}
			if a == -2147483648 && b == -1 {
				return IntV(0), nil
			}
			return IntV(a % b), nil
		case pLt:
			return boolV(a < b), nil
		case pLe:
			return boolV(a <= b), nil
		case pGt:
			return boolV(a > b), nil
		case pGe:
			return boolV(a >= b), nil
		case pEq:
			return boolV(a == b), nil
		case pNe:
			return boolV(a != b), nil
		}
		return CVal{}, fmt.Errorf("interp: int op %d", ex.op)
	}
	return CVal{}, fmt.Errorf("interp: unknown expression kind %d", ex.kind)
}

func boolV(b bool) CVal {
	if b {
		return IntV(1)
	}
	return IntV(0)
}
