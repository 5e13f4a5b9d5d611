package core

import (
	"reflect"
	"sync"
)

// EmulatedOps is the set of (op, type) pairs a port routes through runtime
// helpers (Backend.EmulatedOp), as a table the per-instruction path reads
// with one load where it used to make an interface call that two of the
// three ports answer "no" to every time.
type EmulatedOps struct {
	types [1 << 8]typeSet // by Op, over its whole range
}

// Has reports whether the port emulates op at type t.
func (e *EmulatedOps) Has(op Op, t Type) bool { return e.types[op].has(t) }

var emulatedOps sync.Map // reflect.Type of a Backend -> *EmulatedOps

// EmulatedOpsOf returns b's emulated-operation set.  Which operations a
// machine lacks is a property of the port, so the set is built once per
// Backend type and shared: front ends that create an assembler per compile
// pay a map lookup in NewAsm, not numOps x numTypes EmulatedOp calls.
func EmulatedOpsOf(b Backend) *EmulatedOps {
	port := reflect.TypeOf(b)
	if e, ok := emulatedOps.Load(port); ok {
		return e.(*EmulatedOps)
	}
	e := new(EmulatedOps)
	for op := Op(0); op < numOps; op++ {
		for t := TypeV; t < numTypes; t++ {
			if _, ok := b.EmulatedOp(op, t); ok {
				e.types[op] |= 1 << t
			}
		}
	}
	actual, _ := emulatedOps.LoadOrStore(port, e)
	return actual.(*EmulatedOps)
}
