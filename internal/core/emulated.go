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

// port is what the core has worked out about one Backend type from the
// port's own methods, once, for every assembler of that port to share.
type port struct {
	emul EmulatedOps
	tmpl Templates
}

var ports sync.Map // reflect.Type of a Backend -> *port

// portOf returns b's port, building it on the first call per Backend type:
// front ends that create an assembler per compile pay a map lookup in
// NewAsm, not a sweep of the port's methods over (op, type).
func portOf(b Backend) *port {
	key := reflect.TypeOf(b)
	if p, ok := ports.Load(key); ok {
		return p.(*port)
	}
	p := new(port)
	p.tmpl.derive(b)
	for op := Op(0); op < numOps; op++ {
		for t := TypeV; t < numTypes; t++ {
			if _, ok := b.EmulatedOp(op, t); ok {
				p.emul.types[op] |= 1 << t
			}
		}
	}
	actual, _ := ports.LoadOrStore(key, p)
	return actual.(*port)
}

// EmulatedOpsOf returns b's emulated-operation set.  Which operations a
// machine lacks is a property of the port, so the set is built once per
// Backend type and shared.
func EmulatedOpsOf(b Backend) *EmulatedOps { return &portOf(b).emul }
