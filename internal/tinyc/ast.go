package tinyc

import (
	"math"

	"repro/internal/core"
)

// CType is a tiny-C type.
type CType uint8

const (
	// CInt is a 32-bit signed integer.
	CInt CType = iota
	// CDouble is a double-precision float.
	CDouble
)

func (t CType) String() string {
	if t == CDouble {
		return "double"
	}
	return "int"
}

// VType maps a tiny-C type to its VCODE type.
func (t CType) VType() core.Type {
	if t == CDouble {
		return core.TypeD
	}
	return core.TypeI
}

// Program is a parsed translation unit.  It is immutable once Parse returns
// it, so one Program may be compiled for several machines and interpreted
// at the same time.
//
// The tree is flat: every statement and expression is a node in one slice,
// naming its operands by index, and every identifier is a small integer
// (its index in names) resolved once, when it was parsed.
type Program struct {
	nodes  []node
	funcs  []funcDecl
	params []param
	names  []string // identifier -> spelling
	// funcOf maps an identifier to the function it names, as an index into
	// funcs — the first, if the program defines it twice — or -1.
	funcOf []int32
}

// funcDecl is one function definition.
type funcDecl struct {
	name       nameID
	ret        CType
	firstParam int32 // params[firstParam:firstParam+nParams]
	nParams    int32
	body       nodeID // an nBlock
	line       int32
}

func (p *Program) paramsOf(fd *funcDecl) []param {
	return p.params[fd.firstParam : fd.firstParam+fd.nParams]
}

// param is a formal parameter.
type param struct {
	name nameID
	typ  CType
}

// nameID is an identifier: an index into Program.names.
type nameID = int32

// nodeID is a node: an index into Program.nodes.
type nodeID int32

// noNode stands where a node has no such operand (an if without else, a
// declaration without initializer, the end of a list).
const noNode nodeID = -1

type nodeKind uint8

// The operands a, b and c of each kind of node:
const (
	// Expressions.
	nIntLit   nodeKind = iota // a, b: the low and high halves of the value
	nFloatLit                 // a, b: the low and high halves of the bits
	nVarRef                   // a: the variable's name
	nBin                      // op; a, b: the left and right operands
	nUn                       // op (pSub or pNot); a: the operand
	nCast                     // typ; a: the operand
	nCall                     // a: the callee's name; b: the first argument, the others follow by next
	// Statements.
	nBlock    // b: the first statement, the others follow by next
	nDecl     // typ; a: the variable's name; b: the initializer or noNode
	nAssign   // a: the variable's name; b: the value
	nReturn   // a: the value
	nIf       // a: the condition; b: then; c: else or noNode
	nWhile    // a: the condition; b: the body; c: the post statement (a desugared for's; continue's target) or noNode
	nBreak    //
	nContinue //
	nExprStmt // a: the expression, evaluated for effect (a call, usually)
)

// node is one statement or expression.  hasCall says that it, or something
// below it, calls a function: the code generator keeps a value across such
// a subtree in a register that survives calls, and a function whose body
// has none is a leaf.
type node struct {
	a, b, c int32
	next    nodeID // the next statement of the block, or argument of the call, this node is in
	line    int32
	kind    nodeKind
	op      sym
	typ     CType
	hasCall bool
}

func (n *node) intVal() int64 { return int64(uint64(uint32(n.a)) | uint64(uint32(n.b))<<32) }

func (n *node) floatVal() float64 { return math.Float64frombits(uint64(n.intVal())) }
