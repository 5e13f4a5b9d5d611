package core

import "fmt"

// Op is a VCODE base operation (paper Table 2).  An instruction is an Op
// composed with a Type; opTypes declares which.
type Op uint8

const (
	// Binary operations (rd, rs1, rs2).
	OpAdd Op = iota
	OpSub
	OpMul
	OpDiv
	OpMod
	OpAnd
	OpOr
	OpXor
	OpLsh
	OpRsh // sign bit propagated for signed types

	// Unary operations (rd, rs).
	OpCom // bit complement
	OpNot // logical not
	OpMov // copy
	OpNeg // negation
	OpSet // load constant

	// Memory operations (rd/rs, base, offset).
	OpLd
	OpSt

	// Control.
	OpRet // return (optionally with value)
	OpJmp // unconditional jump
	OpJal // jump and link

	// Branches (rs1, rs2, label).
	OpBlt
	OpBle
	OpBgt
	OpBge
	OpBeq
	OpBne

	OpNop

	numOps
)

// NumOps and NumTypes bound the instruction set, for the packages that
// walk its tables.
const (
	NumOps   = numOps
	NumTypes = numTypes
)

var opNames = [numOps]string{
	"add", "sub", "mul", "div", "mod", "and", "or", "xor", "lsh", "rsh",
	"com", "not", "mov", "neg", "set",
	"ld", "st",
	"ret", "jmp", "jal",
	"blt", "ble", "bgt", "bge", "beq", "bne",
	"nop",
}

func (o Op) String() string {
	if o >= numOps {
		return fmt.Sprintf("Op(%d)", uint8(o))
	}
	return opNames[o]
}

// IsBinary reports whether o is a binary operation (rd, rs1, rs2).
func (o Op) IsBinary() bool { return o <= OpRsh }

// IsBranch reports whether o is a conditional branch.
func (o Op) IsBranch() bool { return o >= OpBlt && o <= OpBne }

// IsCommutative reports whether o is commutative in its two source
// operands.
func (o Op) IsCommutative() bool {
	switch o {
	case OpAdd, OpMul, OpAnd, OpOr, OpXor, OpBeq, OpBne:
		return true
	}
	return false
}

// InvertBranch returns the branch that is taken exactly when o is not.
func (o Op) InvertBranch() Op {
	switch o {
	case OpBlt:
		return OpBge
	case OpBle:
		return OpBgt
	case OpBgt:
		return OpBle
	case OpBge:
		return OpBlt
	case OpBeq:
		return OpBne
	case OpBne:
		return OpBeq
	}
	return o
}

// SwapBranch returns the branch equivalent to o with its operands swapped
// (a < b  ==  b > a).
func (o Op) SwapBranch() Op {
	switch o {
	case OpBlt:
		return OpBgt
	case OpBle:
		return OpBge
	case OpBgt:
		return OpBlt
	case OpBge:
		return OpBle
	}
	return o // beq, bne symmetric
}

// typeSet is a set of Types: bit 1<<t stands for type t.
type typeSet uint16

var _ [16 - numTypes]struct{} // every Type has a bit

// has reports whether t is in s; a t no Type names is in no set.
func (s typeSet) has(t Type) bool { return s&(1<<t) != 0 }

// Table 1's classes, and the type sets Table 2 composes ops with; Type's
// IsSigned, IsInteger, IsSubWord and IsFloat read the classes.
const (
	subWordTypes typeSet = 1<<TypeC | 1<<TypeUC | 1<<TypeS | 1<<TypeUS
	signedTypes  typeSet = 1<<TypeC | 1<<TypeS | 1<<TypeI | 1<<TypeL
	wordTypes    typeSet = 1<<TypeI | 1<<TypeU | 1<<TypeL | 1<<TypeUL
	intTypes             = wordTypes | 1<<TypeP
	nativeTypes  typeSet = 1<<TypeL | 1<<TypeUL | 1<<TypeP
	integerTypes         = intTypes | subWordTypes
	floatTypes   typeSet = 1<<TypeF | 1<<TypeD
	regTypes             = intTypes | floatTypes
	memTypes             = regTypes | subWordTypes
)

// opTypes is Table 2, declared once: the types each op composes with.  A
// binary op or a branch also has an immediate form at each integer type it
// takes.  legal, the generated method layer, vasm's mnemonics and
// INSTRUCTIONS.md are all read from here.
var opTypes = [numOps]typeSet{
	OpAdd: regTypes, OpSub: regTypes, OpMul: regTypes, OpDiv: regTypes, OpMod: intTypes,
	OpAnd: wordTypes, OpOr: wordTypes, OpXor: wordTypes, OpLsh: wordTypes, OpRsh: wordTypes,
	OpCom: wordTypes, OpNot: wordTypes, OpMov: regTypes, OpNeg: 1<<TypeI | 1<<TypeL | floatTypes,
	OpSet: regTypes, OpLd: memTypes, OpSt: memTypes, OpRet: regTypes,
	OpBlt: regTypes, OpBle: regTypes, OpBgt: regTypes, OpBge: regTypes, OpBeq: regTypes, OpBne: regTypes,
}

// cvtTypes is the conversion matrix (v_cv<from>2<to>): cvtTypes[from]
// holds the types from converts to.  A register type converts to every
// other, except a float to an unsigned one.
var cvtTypes = [numTypes]typeSet{
	TypeI:  regTypes &^ (1 << TypeI),
	TypeU:  regTypes &^ (1 << TypeU),
	TypeL:  regTypes &^ (1 << TypeL),
	TypeUL: regTypes &^ (1 << TypeUL),
	TypeP:  regTypes &^ (1 << TypeP),
	TypeF:  1<<TypeI | 1<<TypeL | 1<<TypeD,
	TypeD:  1<<TypeI | 1<<TypeL | 1<<TypeF,
}

// Types returns the types o composes with, in Table 1's order.
func (o Op) Types() []Type {
	if o >= numOps {
		return nil
	}
	return opTypes[o].types()
}

// ConvertsTo returns the types t converts to, in Table 1's order.
func (t Type) ConvertsTo() []Type { return legal.cvt[t].types() }

func (s typeSet) types() []Type {
	var out []Type
	for t := TypeV; t < numTypes; t++ {
		if s.has(t) {
			out = append(out, t)
		}
	}
	return out
}

// legal holds, for each generic emitter of Asm, the operand types it
// accepts — per op where the emitter takes one, over Op's (and for Cvt,
// Type's) whole range so that an op outside the instruction set reads as
// the empty set.  Every set is derived from opTypes and cvtTypes (before
// any package-level mapping is built from it), and an emitter pays one
// load and one bit test per instruction.
var legal = legalSets()

func legalSets() (sets struct {
	alu, alui, unary, br, bri [1 << 8]typeSet
	mem, seti, ret            typeSet
	cvt                       [1 << 8]typeSet
}) {
	for op, ts := range opTypes {
		switch op := Op(op); {
		case op.IsBinary():
			sets.alu[op], sets.alui[op] = ts, ts&^floatTypes
		case op.IsBranch():
			sets.br[op], sets.bri[op] = ts, ts&^floatTypes
		case op >= OpCom && op <= OpNeg:
			sets.unary[op] = ts
		}
	}
	copy(sets.cvt[:], cvtTypes[:])
	sets.mem, sets.seti, sets.ret = opTypes[OpLd], opTypes[OpSet]&^floatTypes, opTypes[OpRet]
	return sets
}
