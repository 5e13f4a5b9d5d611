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

	addr      uint64
	installed bool
	// owner is the Machine the function is currently installed on;
	// codeSize is the 16-aligned code-region reservation it holds there.
	owner    *Machine
	codeSize uint64
	// unit is the program Unit.Install made the function a member of, for
	// good; nil for a loose function.
	unit *Unit
	// sum fingerprints Words as of the last completed install, so a
	// re-Install of a function whose code was mutated afterwards can be
	// rejected instead of silently running the stale copy.  sumValid is
	// false while an install is in flight (self-referential relocations
	// re-enter Install before the final words exist).
	sum      uint64
	sumValid bool
	// flow is the lifecycle span ID shared by every trace span this
	// function generates (see internal/trace); 0 until tracing assigns
	// one.
	flow uint64
	// plan is what a call needs of the function while it is resident;
	// valid exactly while installed is set.
	plan callPlan
}

// callPlan is everything about calling a resident function that cannot
// change until it is uninstalled: where each argument goes under the
// owner's convention and the entry PC.  The machine fills it when it marks
// the function installed and drops it wherever it clears installed, so a
// warm call lays nothing out and asks the backend nothing.
type callPlan struct {
	entry      uint64
	stackBytes uint64
	// nargs is len(Params) as laid out.  Up to callBufArgs locations live
	// inline, so planning them allocates nothing; longer signatures spill.
	nargs  int
	inline [callBufArgs]argLoc
	spill  []argLoc

	// body and idx remember where the threaded engine enters the function.
	// Bodies come and go behind the plan's back (Release drops them while
	// the function still claims installed; attachBody can replace one at a
	// reused address), so they are believed only while gen equals the
	// machine's bodyGen.
	body *exec.Body
	idx  int
	gen  uint64
}

// locs returns the planned argument locations, one per parameter.
func (p *callPlan) locs() []argLoc {
	if p.nargs <= callBufArgs {
		return p.inline[:p.nargs]
	}
	return p.spill
}

// planCall records f's call plan under conv.  Caller holds the owner's mu
// and has set f.addr.
func (f *Func) planCall(conv *CallConv) {
	p := &f.plan
	*p = callPlan{entry: f.EntryAddr(), nargs: len(f.Params)}
	locs, stackBytes := conv.layoutArgs(f.Params, p.inline[:0])
	if len(locs) > callBufArgs {
		p.spill = locs
	}
	p.stackBytes = uint64(stackBytes)
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

// unplace forgets where f was (or was about to be) resident: Uninstall
// and a rejected install both end here, so the call plan can never outlive
// installed.
func (f *Func) unplace() {
	f.addr = 0
	f.installed = false
	f.owner = nil
	f.codeSize = 0
	f.sumValid = false
	f.plan = callPlan{}
}

// Unit returns the program the function is a member of; nil if loose.
func (f *Func) Unit() *Unit { return f.unit }

// Installed reports whether a Machine has placed the function in memory.
func (f *Func) Installed() bool { return f.installed }

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
