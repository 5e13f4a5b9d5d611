package core

import (
	"fmt"

	"repro/internal/exec"
	"repro/internal/trace"
)

// RelocKind classifies a relocation left in a Func for the loader.
type RelocKind uint8

const (
	// RelocCall marks a call whose absolute target is resolved at
	// install time.
	RelocCall RelocKind = iota
	// RelocAddr marks an absolute-address materialization (constant
	// pool references, Setfunc).
	RelocAddr
)

// Reloc is one unresolved reference in a generated function.  v_end links
// everything it can; what remains is resolved when a Machine installs the
// function at its final address.
type Reloc struct {
	Kind RelocKind
	// Sites are the word indices the loader patches.
	Sites []int
	// Target, when non-nil, is the referenced function (possibly the
	// function itself, for constant-pool references).  Otherwise Sym
	// names a machine symbol (runtime helper, client-registered entry).
	Target *Func
	Sym    string
	// Addend is a byte offset added to the target address.
	Addend int64
}

// Func is a dynamically generated function: the finished machine code plus
// the loader metadata v_end could not resolve in place.
type Func struct {
	// Name is a client-chosen label used in diagnostics.
	Name string
	// BackendName records which target the code was generated for.
	BackendName string
	// Words is the emitted machine code, including the reserved
	// prologue region and the trailing constant pool.
	Words []uint32
	// Entry is the word index of the first executed instruction (the
	// prologue is written into the tail of its reserved region, so the
	// entry point is usually a few words past index 0).
	Entry int
	// Relocs are the loader's work list.
	Relocs []Reloc
	// Params and Result describe the signature for Machine.Call.
	Params []Type
	Result Type
	// StackArgBytes is the incoming stack-argument area the function
	// expects beyond its register arguments.
	StackArgBytes int64
	// FrameBytes is the final activation record size.
	FrameBytes int64
	// NumInsns counts the VCODE (source-level) instructions the client
	// specified; Words may be longer (synthesized sequences) and
	// includes padding.
	NumInsns int
	// PoolStart is the word index where the trailing constant pool
	// begins; it equals len(Words) when the function has no pool.  The
	// pre-install verifier decodes only [Entry, PoolStart).
	PoolStart int

	addr uint64
	// unit is the program that placed the function last, nil until one
	// does; the function is resident while that unit is not unloaded.
	unit *Unit
	// sum fingerprints Words as of the last completed install, so a
	// re-Install of a function whose code was mutated afterwards can be
	// rejected instead of silently running the stale copy.
	sum uint64
	// flow is the lifecycle span ID shared by every trace span this
	// function generates (see internal/trace); 0 until tracing assigns
	// one.
	flow uint64
	// plan is what a call needs of the function while it is resident.
	plan callPlan
}

// callPlan is everything about calling a resident function that cannot
// change until it leaves, compiled when the machine places it and dropped
// when it leaves: the entry PC; whether every argument goes to an integer
// register (direct), and then how to write argument i (store[i]); how to
// read the result, an integer (ret) or a float (fpRet); and home, the
// machine f is resident on (Func.home).  nargs is len(Params) as
// planned.
type callPlan struct {
	entry  uint64
	nargs  int
	direct bool
	store  [callBufArgs]argStore
	ret    argStore
	fpRet  bool
	home   *Machine

	// body and idx remember where the threaded engine enters the function,
	// believed only while gen equals the machine's bodyGen (no body came
	// or went since the plan looked).
	body *exec.Body
	idx  int
	gen  uint64
}

// planCall records f's call plan under m's convention.  Caller holds mu
// and has set f.addr.
func (m *Machine) planCall(f *Func) {
	p := &f.plan
	*p = callPlan{entry: f.EntryAddr(), nargs: len(f.Params), home: m,
		ret: m.retLoad(f.Result), fpRet: f.Result.IsFloat()}
	var buf [callBufArgs]argLoc
	locs, _ := m.conv.layoutArgs(f.Params, buf[:0])
	p.direct = len(locs) <= callBufArgs
	for i, loc := range locs {
		if p.direct = p.direct && loc.reg != NoReg && !loc.t.IsFloat(); !p.direct {
			break
		}
		p.store[i] = m.argStore(loc)
	}
}

// TraceFlow returns the function's lifecycle span ID, or 0 if tracing
// never touched it.
func (f *Func) TraceFlow() uint64 { return f.flow }

// lifecycleFlow returns the lifecycle span ID, assigning one on first
// use.  Callers must serialize (the Machine invokes it under its mutex;
// the Asm owns the Func exclusively until End returns).
func (f *Func) lifecycleFlow() uint64 {
	if f.flow == 0 {
		f.flow = trace.NextFlow()
	}
	return f.flow
}

// home returns the machine f is resident on (its plan's, set by install and
// dropped on leaving), or nil, also for a nil f.  Caller holds its mu.
func (f *Func) home() *Machine {
	if f == nil {
		return nil
	}
	return f.plan.home
}

// Unit returns the program that placed the function last; nil if none has.
func (f *Func) Unit() *Unit { return f.unit }

// Installed is Machine.Installed on the machine of the function's unit.
func (f *Func) Installed() bool { return f.home() != nil }

// Addr returns the base byte address of word 0 after installation.
func (f *Func) Addr() uint64 { return f.addr }

// EntryAddr returns the callable entry address after installation.
func (f *Func) EntryAddr() uint64 { return f.addr + 4*uint64(f.Entry) }

// SizeBytes returns the total code+pool size in bytes.
func (f *Func) SizeBytes() int { return 4 * len(f.Words) }

func (f *Func) String() string {
	return fmt.Sprintf("func %s[%s]: %d words, entry +%d, %d relocs",
		f.Name, f.BackendName, len(f.Words), f.Entry, len(f.Relocs))
}
