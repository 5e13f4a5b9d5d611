package core

import "fmt"

// Type is a VCODE operand type (paper Table 1).  Types are named for their
// mappings to ANSI C types.  Most non-memory operations do not take the
// sub-word types (C, UC, S, US) as operands; memory operations take all of
// them.
type Type uint8

const (
	// TypeV is void; it appears only in signatures.
	TypeV Type = iota
	// TypeC is signed char (8-bit).
	TypeC
	// TypeUC is unsigned char (8-bit).
	TypeUC
	// TypeS is signed short (16-bit).
	TypeS
	// TypeUS is unsigned short (16-bit).
	TypeUS
	// TypeI is int (32-bit).
	TypeI
	// TypeU is unsigned int (32-bit).
	TypeU
	// TypeL is long (the target's native word: 32-bit on MIPS/SPARC,
	// 64-bit on Alpha).
	TypeL
	// TypeUL is unsigned long.
	TypeUL
	// TypeP is void* (pointer-sized, unsigned).
	TypeP
	// TypeF is float (single precision).
	TypeF
	// TypeD is double (double precision).
	TypeD

	numTypes
)

var typeLetters = [numTypes]string{"v", "c", "uc", "s", "us", "i", "u", "l", "ul", "p", "f", "d"}

var typeCNames = [numTypes]string{
	"void", "signed char", "unsigned char", "signed short", "unsigned short",
	"int", "unsigned", "long", "unsigned long", "void *", "float", "double",
}

// Letter returns the single/double letter VCODE name of the type ("i",
// "ul", ...), as used to build instruction names like v_addii.
func (t Type) Letter() string {
	if t >= numTypes {
		return fmt.Sprintf("Type(%d)", uint8(t))
	}
	return typeLetters[t]
}

// CName returns the ANSI C type the VCODE type maps to.
func (t Type) CName() string {
	if t >= numTypes {
		return fmt.Sprintf("Type(%d)", uint8(t))
	}
	return typeCNames[t]
}

func (t Type) String() string { return t.Letter() }

// IsFloat reports whether t is a floating-point type.
func (t Type) IsFloat() bool { return t == TypeF || t == TypeD }

// IsSigned reports whether t is a signed integer type.
func (t Type) IsSigned() bool {
	switch t {
	case TypeC, TypeS, TypeI, TypeL:
		return true
	}
	return false
}

// IsInteger reports whether t is an integer (or pointer) type.
func (t Type) IsInteger() bool {
	switch t {
	case TypeC, TypeUC, TypeS, TypeUS, TypeI, TypeU, TypeL, TypeUL, TypeP:
		return true
	}
	return false
}

// IsSubWord reports whether t is smaller than a machine word (these types
// are valid only for memory operations and conversions).
func (t Type) IsSubWord() bool {
	switch t {
	case TypeC, TypeUC, TypeS, TypeUS:
		return true
	}
	return false
}

// Size returns the size in bytes of a value of type t on a target whose
// native word (long/pointer) is ptrBytes wide.
func (t Type) Size(ptrBytes int) int {
	switch t {
	case TypeV:
		return 0
	case TypeC, TypeUC:
		return 1
	case TypeS, TypeUS:
		return 2
	case TypeI, TypeU, TypeF:
		return 4
	case TypeL, TypeUL, TypeP:
		return ptrBytes
	case TypeD:
		return 8
	}
	return 0
}

// ParseType parses a single VCODE type letter ("i", "ul", ...).
func ParseType(s string) (Type, error) {
	for t := TypeV; t < numTypes; t++ {
		if typeLetters[t] == s {
			return t, nil
		}
	}
	return TypeV, fmt.Errorf("vcode: unknown type %q", s)
}

// ParseSig parses a v_lambda-style signature string such as "%i%p%d" into
// the list of parameter types.  An empty string or "%v" denotes no
// parameters.
func ParseSig(sig string) ([]Type, error) { return appendSig(nil, sig) }

// appendSig is ParseSig appending to out, for callers that keep the slice.
func appendSig(out []Type, sig string) ([]Type, error) {
	for i := 0; i < len(sig); {
		if sig[i] != '%' {
			return nil, fmt.Errorf("vcode: bad signature %q: expected %%", sig)
		}
		i++
		j := i
		for j < len(sig) && sig[j] != '%' {
			j++
		}
		t, err := ParseType(sig[i:j])
		if err != nil {
			return nil, fmt.Errorf("vcode: bad signature %q: %v", sig, err)
		}
		if t != TypeV {
			out = append(out, t)
		}
		i = j
	}
	return out, nil
}
