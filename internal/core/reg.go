package core

import "fmt"

// Reg names a physical machine register in the target's own numbering.
// Values 0..31 are general-purpose (integer) registers; fprBase..fprBase+31
// are floating-point registers: every port has 32 of each.  VCODE registers are client-managed: they
// are handed out by the Asm register allocator (GetReg/PutReg), named
// architecture-independently (T, S, FT, FS), or referenced directly by
// clients that know the target.
type Reg int16

const fprBase = 64

// NoReg is the invalid register value.
const NoReg Reg = -1

// GPR returns the integer register numbered n in the target's numbering.
func GPR(n int) Reg { return Reg(n) }

// FPR returns the floating-point register numbered n.
func FPR(n int) Reg { return Reg(fprBase + n) }

// IsFP reports whether r is a floating-point register.
func (r Reg) IsFP() bool { return r >= fprBase }

// Num returns the register's number within its bank.
func (r Reg) Num() int {
	if r.IsFP() {
		return int(r - fprBase)
	}
	return int(r)
}

// Valid reports whether r names a register at all: 0..31 of either bank.
func (r Reg) Valid() bool { return r >= 0 && r&^fprBase < 32 }

// bankOK is checkRegs for the accepted case, at a fixed arity and without a
// loop: given the bitwise OR and AND of an instruction's register operands
// it reports whether every one of them is valid and in the bank type t
// uses.  (An invalid operand — negative, or numbered 32 or more in its
// bank — leaves a bit at or above 32 set in the OR beside the FP bit; an
// integer operand among FP ones clears the FP bit of the AND.)
func bankOK(t Type, or, and Reg) bool {
	if t.IsFloat() {
		return uint16(or) < fprBase+32 && and&fprBase != 0
	}
	return gprOK(or)
}

// gprOK is bankOK for an integer or pointer type.
func gprOK(or Reg) bool { return uint16(or) < 32 }

// String names r by its bank and number, also past the bank's 32
// registers, so that a refusal names what it refused.
func (r Reg) String() string {
	switch {
	case r < 0 || r >= 2*fprBase:
		return "r?"
	case r.IsFP():
		return fmt.Sprintf("f%d", r.Num())
	default:
		return fmt.Sprintf("r%d", r.Num())
	}
}

// RegClass is the VCODE register classification used by the allocator.
type RegClass uint8

const (
	// Temp registers are not preserved across procedure calls
	// (caller-saved).
	Temp RegClass = iota
	// Var registers are persistent across procedure calls
	// (callee-saved).
	Var
	// Unavail marks a register the allocator must never hand out (used
	// with Asm.SetRegClass to retarget conventions on the fly, e.g. in
	// interrupt handlers).
	Unavail
)

func (c RegClass) String() string {
	switch c {
	case Temp:
		return "temp"
	case Var:
		return "var"
	case Unavail:
		return "unavail"
	}
	return fmt.Sprintf("RegClass(%d)", uint8(c))
}
