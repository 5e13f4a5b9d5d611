package core

import "fmt"

// Op is a VCODE base operation (paper Table 2).  An instruction is an Op
// composed with a Type.
type Op uint8

const (
	// Binary operations (rd, rs1, rs2): types i u l ul p f d unless noted.
	OpAdd Op = iota
	OpSub
	OpMul
	OpDiv // i u l ul p
	OpMod // i u l ul p
	OpAnd // i u l ul
	OpOr  // i u l ul
	OpXor // i u l ul
	OpLsh // i u l ul
	OpRsh // i u l ul; sign bit propagated for signed types

	// Unary operations (rd, rs).
	OpCom // bit complement: i u l ul
	OpNot // logical not: i u l ul
	OpMov // copy: i u l ul p f d
	OpNeg // negation: i l f d
	OpSet // load constant: i u l ul p f d

	// Memory operations (rd/rs, base, offset): all data types.
	OpLd
	OpSt

	// Control.
	OpRet // return (optionally with value)
	OpJmp // unconditional jump
	OpJal // jump and link

	// Branches (rs1, rs2, label): i u l ul p f d.
	OpBlt
	OpBle
	OpBgt
	OpBge
	OpBeq
	OpBne

	OpNop

	numOps
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

// aluTypeOK reports whether t is a legal operand type for binary op o.
func aluTypeOK(o Op, t Type) bool {
	switch o {
	case OpAdd, OpSub, OpMul:
		switch t {
		case TypeI, TypeU, TypeL, TypeUL, TypeP, TypeF, TypeD:
			return true
		}
	case OpDiv:
		switch t {
		case TypeI, TypeU, TypeL, TypeUL, TypeP, TypeF, TypeD:
			return true
		}
	case OpMod:
		switch t {
		case TypeI, TypeU, TypeL, TypeUL, TypeP:
			return true
		}
	case OpAnd, OpOr, OpXor, OpLsh, OpRsh:
		switch t {
		case TypeI, TypeU, TypeL, TypeUL:
			return true
		}
	}
	return false
}

// unaryTypeOK reports whether t is a legal operand type for unary op o.
func unaryTypeOK(o Op, t Type) bool {
	switch o {
	case OpCom, OpNot:
		switch t {
		case TypeI, TypeU, TypeL, TypeUL:
			return true
		}
	case OpMov, OpSet:
		switch t {
		case TypeI, TypeU, TypeL, TypeUL, TypeP, TypeF, TypeD:
			return true
		}
	case OpNeg:
		switch t {
		case TypeI, TypeL, TypeF, TypeD:
			return true
		}
	}
	return false
}

// branchTypeOK reports whether t is a legal operand type for branch op o.
func branchTypeOK(o Op, t Type) bool {
	if !o.IsBranch() {
		return false
	}
	switch t {
	case TypeI, TypeU, TypeL, TypeUL, TypeP, TypeF, TypeD:
		return true
	}
	return false
}

// memTypeOK reports whether t is a legal type for a load or store.
func memTypeOK(t Type) bool {
	switch t {
	case TypeC, TypeUC, TypeS, TypeUS, TypeI, TypeU, TypeL, TypeUL, TypeP, TypeF, TypeD:
		return true
	}
	return false
}

// typeSet is a set of Types: bit 1<<t stands for type t.
type typeSet uint16

var _ [16 - numTypes]struct{} // every Type has a bit

// has reports whether t is in s; a t no Type names is in no set.
func (s typeSet) has(t Type) bool { return s&(1<<t) != 0 }

// legal holds, for each generic emitter of Asm, the operand types it
// accepts — per op where the emitter takes one, over Op's whole range so
// that an op outside the instruction set reads as the empty set.  The
// predicates above stay the definition; every set is derived from them
// (before any package-level mapping is built from it), and an emitter pays
// one load and one bit test per instruction.
var legal = legalSets()

func legalSets() (sets struct {
	alu, alui, unary, br, bri [1 << 8]typeSet
	mem, seti, ret            typeSet
}) {
	for t := TypeV; t < numTypes; t++ {
		bit := typeSet(1) << t
		for op := Op(0); op < numOps; op++ {
			if aluTypeOK(op, t) {
				sets.alu[op] |= bit
				if !t.IsFloat() {
					sets.alui[op] |= bit
				}
			}
			if unaryTypeOK(op, t) && op != OpSet {
				sets.unary[op] |= bit
			}
			if branchTypeOK(op, t) {
				sets.br[op] |= bit
				if !t.IsFloat() {
					sets.bri[op] |= bit
				}
			}
		}
		if memTypeOK(t) {
			sets.mem |= bit
		}
		if unaryTypeOK(OpSet, t) && !t.IsFloat() {
			sets.seti |= bit
		}
		if unaryTypeOK(OpMov, t) {
			sets.ret |= bit
		}
	}
	return sets
}
