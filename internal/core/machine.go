package core

import (
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/exec"
	"repro/internal/mem"
	"repro/internal/trace"
	"repro/internal/verify"
)

// CPU is the execution substrate for one target: a cycle-counted simulator
// that runs the binary code VCODE emits.  Register access uses the same
// Reg naming as the assembler (GPR/FPR).
type CPU interface {
	// PC returns the current program counter.
	PC() uint64
	// SetPC jumps the simulator (clearing any pending delay slot).
	SetPC(pc uint64)
	// Reg reads an integer register's raw 64-bit contents.
	Reg(r Reg) uint64
	// SetReg writes an integer register.
	SetReg(r Reg, v uint64)
	// FReg reads a floating-point register: IEEE-754 single bits
	// (double=false, low 32 bits) or double bits (double=true).  The
	// width matters on targets that pair FP registers (SPARC).
	FReg(r Reg, double bool) uint64
	// SetFReg writes a floating-point register.
	SetFReg(r Reg, v uint64, double bool)
	// Step executes one instruction (including any delay slot
	// bookkeeping) and returns an error on a fault.
	Step() error
	// Cycles returns the cycle count including memory stalls.
	Cycles() uint64
	// Insns returns the retired instruction count.
	Insns() uint64
	// ResetStats zeroes both counters.
	ResetStats()
	// SetSampler installs fn to fire with the pre-execution pc every
	// stride retired instructions, SetEdgeProbe fn to fire with (branch
	// pc, taken) every stride conditional-branch resolutions; nil fn or
	// zero stride removes the hook (exec.Probes).  A hook runs inside Step,
	// so it must not call back into the Machine's locked API (the
	// lock-free FuncSpans/SymbolizePC/InCodeRegion are safe).
	SetSampler(fn func(pc uint64), stride uint64)
	SetEdgeProbe(fn func(pc uint64, taken bool), stride uint64)
}

// SetSampler installs (or, with a nil fn, removes) a PC-sampling hook on
// the machine's simulator; it never fails.
func (m *Machine) SetSampler(fn func(pc uint64), stride uint64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.cpu.SetSampler(fn, stride)
	return nil
}

// SetEdgeProbe installs (or, with a nil fn, removes) a branch edge probe
// on the machine's simulator; it never fails.
func (m *Machine) SetEdgeProbe(fn func(pc uint64, taken bool), stride uint64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.cpu.SetEdgeProbe(fn, stride)
	return nil
}

// TrapHandler implements a runtime helper in the host: it reads arguments
// from the CPU per the emulation convention and writes only the result
// register.
type TrapHandler func(c CPU, m *mem.Memory)

// Machine binds a backend, its CPU simulator and a simulated memory into a
// loader and call harness for generated functions.  It plays the role of
// the linking half of v_end plus the surrounding process: code placement,
// relocation, runtime helper symbols and the call trampoline.
//
// A Machine is safe for concurrent use: installs, uninstalls, allocations
// and calls are serialized by an internal lock (there is one simulated CPU,
// so calls cannot overlap in any case).
type Machine struct {
	mu      sync.Mutex
	backend Backend
	cpu     CPU
	mem     *mem.Memory

	syms map[string]uint64

	// regions is what occupies memory below codeNext, sorted by address
	// (region.go).  codeNext is the top entry's end: the bump pointer.
	// codeNextPub mirrors it for lock-free readers (InCodeRegion, called
	// from sampling hooks inside the simulator step loop).  spans is the
	// immutable copy FuncSpans publishes, nil after a change until the
	// next FuncSpans rebuilds it under spanMu.  Lock order: mu, then
	// spanMu.
	regions     []region
	codeBase    uint64
	codeNext    uint64
	codeNextPub atomic.Uint64
	spanMu      sync.Mutex
	spans       atomic.Pointer[[]FuncSpan]

	heapNext uint64
	heapEnd  uint64
	// heapFree holds the blocks unloaded units returned, by their 16-rounded
	// size; Alloc reuses one of the exact size before it bumps heapNext.
	// heapFreeBytes is their sum.
	heapFree      map[uint64][]uint64
	heapFreeBytes uint64

	stackTop uint64
	haltAddr uint64
	trapNext uint64
	trapEnd  uint64

	// What every call needs of the backend, read once at construction: the
	// default convention, the pointer width, the displacement a return adds
	// to the link register, and the link-register value that returns to
	// haltAddr.
	conv     *CallConv
	ptrBytes int
	retOff   uint64
	haltLink uint64
	// fx is the backend's fixed-shape words, which Install relocates.
	fx *fixed

	// MaxSteps bounds a single Call (guards against runaway generated
	// code in tests).
	MaxSteps uint64

	// verifyOff disables the pre-install code verifier (SetVerify).
	verifyOff bool

	// tcpu is the simulator's threaded engine, or nil if the CPU only
	// implements Step; engine selects which one Call uses (engine.go).
	// lastBody is a single-entry cache of bodyAt.  bodyGen counts the
	// bodies that came and went (from 1, so a zero callPlan never
	// matches): a body a call plan remembered is current while its stamp
	// equals it.  All under mu.
	tcpu     ThreadedCPU
	engine   Engine
	lastBody *exec.Body
	bodyGen  uint64

	// dctx is the running call's context when its CallOpts carry a
	// Deadline (deadlineCtx), kept here so a call allocates none.  Under mu.
	dctx deadlineCtx

	trace io.Writer

	// idleAsms[:nIdleAsms] are the assemblers BorrowAsm hands out again
	// (asmpool.go), under asmMu — a leaf lock, so a front end never waits
	// for a running call to borrow one.
	asmMu     sync.Mutex
	idleAsms  [maxIdleAsms]*Asm
	nIdleAsms int

	// shadow[i] predecodes the word at codeBase+4i, a body being the slice
	// its function's span covers; it grows to twice the span's end when a
	// span reaches past it.  rows is install's: each word's row.  Under mu.
	shadow []exec.Instr
	rows   []*exec.Row
}

// FuncSpan maps one installed code region — or a trap vector — to a
// symbolic name: the install-time address map behind SymbolizePC and the
// PC-sampling profiler.
type FuncSpan struct {
	// Start and End bound the region as [Start, End).
	Start, End uint64
	// Name is the installed function's name, or the trap symbol.
	Name string
}

// Memory layout of a Machine (all regions within the simulated memory):
//
//	0x0000_0040 .. 0x0000_0fff   trap vectors (halt, runtime helpers)
//	0x0000_1000 ..               installed code, growing up
//	memsize/2   ..               heap (Machine.Alloc), growing up
//	memsize     ..               stack, growing down
const (
	trapBase = 0x40
	codeBase = 0x1000
)

// NewMachine builds a machine around a backend, a CPU simulator for that
// backend's ISA, and a memory.  The standard runtime helpers (integer
// division/remainder emulation) are pre-registered.
func NewMachine(b Backend, cpu CPU, m *mem.Memory) *Machine {
	mc := &Machine{
		backend:  b,
		cpu:      cpu,
		mem:      m,
		syms:     make(map[string]uint64),
		regions:  []region{{start: trapBase, end: trapBase + 16, name: "<halt>"}},
		codeBase: codeBase,
		codeNext: codeBase,
		heapNext: m.Size() / 2,
		heapEnd:  m.Size() - 1<<20,
		stackTop: m.Size() - 64, // a little headroom above SP
		trapNext: trapBase + 16,
		trapEnd:  codeBase,
		MaxSteps: 1 << 28,
		haltAddr: trapBase,
		bodyGen:  1,
		conv:     b.DefaultConv(),
		ptrBytes: b.PtrBytes(),
		retOff:   uint64(b.RetAddrOffset()),
		fx:       &b.Templates().fx,
	}
	mc.haltLink = mc.haltAddr - mc.retOff
	m.SetStoreFloor(mc.heapNext) // trap vectors and code are read-only to generated code
	if t, ok := cpu.(ThreadedCPU); ok {
		mc.tcpu = t
		mc.engine = EngineThreaded
	}
	mc.codeNextPub.Store(mc.codeNext)
	registerDivHelpers(mc)
	return mc
}

// Backend returns the machine's target port.
func (m *Machine) Backend() Backend { return m.backend }

// CPU returns the simulator (for cycle/instruction statistics).
func (m *Machine) CPU() CPU { return m.cpu }

// Mem returns the simulated memory.
func (m *Machine) Mem() *mem.Memory { return m.mem }

// DefineTrap registers a runtime helper under a symbol name, callable from
// generated code via CallSym.  The handler must follow the emulation
// convention: read arguments from the argument registers, write only the
// return register (the paper's emulation routines preserve all
// caller-saved registers, which lets VCODE call them even from leaves).
func (m *Machine) DefineTrap(sym string, h TrapHandler) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, dup := m.syms[sym]; dup {
		return fmt.Errorf("machine: symbol %q already defined", sym)
	}
	if m.trapNext+16 > m.trapEnd {
		return fmt.Errorf("machine: trap table full")
	}
	addr := m.trapNext
	m.trapNext += 16
	m.syms[sym] = addr
	m.insert(region{start: addr, end: addr + 16, name: sym, trap: h})
	return nil
}

// InCodeRegion reports whether pc falls inside the machine's code arena
// (at or above the code base and below the allocation high-water mark).
// Lock-free; safe from a sampling hook.  A PC that is in the region but
// fails SymbolizePC points at code that was installed and since evicted.
func (m *Machine) InCodeRegion(pc uint64) bool {
	return pc >= m.codeBase && pc < m.codeNextPub.Load()
}

// SymbolizePC resolves a program counter to the name of the installed
// function (or trap vector) containing it.  Like FuncSpans it never takes
// mu; safe from a sampling hook.
func (m *Machine) SymbolizePC(pc uint64) (string, bool) {
	spans := m.FuncSpans()
	i := sort.Search(len(spans), func(i int) bool { return spans[i].Start > pc })
	if i > 0 && pc < spans[i-1].End {
		return spans[i-1].Name, true
	}
	return "", false
}

// DefineSym binds a machine-wide symbol to an arbitrary address (e.g. a
// data table the generated code should reference); see Unit.DefineSym.
func (m *Machine) DefineSym(sym string, addr uint64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, dup := m.syms[sym]; dup {
		return fmt.Errorf("machine: symbol %q already defined", sym)
	}
	m.syms[sym] = addr
	return nil
}

// Mark captures the machine's code and heap allocation state so that
// everything placed above it or allocated afterwards can be reclaimed in one
// Release — the arena discipline behind the paper's observation that a
// dynamic function's storage "is easily reclaimed when the function is
// deallocated" (§5.2).
type Mark struct {
	code, heap uint64
}

// Mark returns the current allocation watermark.
func (m *Machine) Mark() Mark {
	m.mu.Lock()
	defer m.mu.Unlock()
	return Mark{code: m.codeNext, heap: m.heapNext}
}

// Release reclaims all code and heap space allocated since mk was taken.
// It unloads, as Uninstall does, the unit of every function whose code
// reaches above the mark, one placed across it included, so those units'
// members answer ErrUnloaded.  Units wholly below the mark (in holes an
// Uninstall left) stay resident.
func (m *Machine) Release(mk Mark) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for mk.code >= m.codeBase && m.codeNext > mk.code {
		m.regions[len(m.regions)-1].fn.unit.unload()
	}
	if mk.heap <= m.heapNext && mk.heap >= m.mem.Size()/2 {
		m.heapNext = mk.heap
		// Freed blocks above the mark are subsumed by the bump pointer.
		for size, addrs := range m.heapFree {
			kept := slices.DeleteFunc(addrs, func(a uint64) bool { return a >= mk.heap })
			m.heapFreeBytes -= size * uint64(len(addrs)-len(kept))
			m.heapFree[size] = kept
		}
	}
}

// heapBlock is the heap a request of n bytes occupies: blocks start
// 16-aligned, so each owns a whole number of 16-byte units.
func heapBlock(n int) uint64 { return (uint64(n) + 15) &^ 15 }

// Alloc reserves n bytes of heap, aligned to at least 16 bytes, and
// returns the simulated address; a program's blocks come from Unit.Alloc.
func (m *Machine) Alloc(n int) (uint64, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	size := heapBlock(n)
	if addrs := m.heapFree[size]; len(addrs) > 0 {
		addr := addrs[len(addrs)-1]
		m.heapFree[size] = addrs[:len(addrs)-1]
		m.heapFreeBytes -= size
		return addr, nil
	}
	addr := (m.heapNext + 15) &^ 15
	if n < 0 || addr+size > m.heapEnd {
		return 0, fmt.Errorf("machine: heap exhausted (%d bytes requested)", n)
	}
	m.heapNext = addr + size
	return addr, nil
}

// free returns a block obtained from Alloc(n) to the heap: a later Alloc
// of the same 16-rounded size reuses it.  This is the per-block
// counterpart of Release, and Unit.Unload its one caller: a unit frees each
// block it owns once, when nothing of the program is resident.  A block a
// Release already took is refused.  Caller holds mu.
func (m *Machine) free(addr uint64, n int) error {
	size := heapBlock(n)
	if n < 0 || addr%16 != 0 || addr < m.mem.Size()/2 || addr+size > m.heapNext {
		return fmt.Errorf("machine: free of %d bytes at %#x: not an allocated heap block", n, addr)
	}
	if size == 0 {
		return nil
	}
	if m.heapFree == nil {
		m.heapFree = make(map[uint64][]uint64)
	}
	m.heapFree[size] = append(m.heapFree[size], addr)
	m.heapFreeBytes += size
	return nil
}

// DrainCounter returns the 32-bit word at addr and leaves zero there, under
// the machine's lock: how a client reads a counter its generated code bumps
// while other goroutines' calls are running.
func (m *Machine) DrainCounter(addr uint64) (uint64, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	n, err := m.mem.Load(addr, 4)
	if err == nil {
		err = m.mem.Store(addr, 4, 0)
	}
	return n, err
}

// sumWords fingerprints machine code for install's mutation-after-install
// guard: four interleaved FNV-1a lanes, folded at the end, break the serial
// xor-multiply dependency chain.
func sumWords(words []uint32) uint64 {
	const offset, prime = 14695981039346656037, 1099511628211
	h0 := uint64(offset)
	h1 := uint64(offset) ^ 0x9e3779b97f4a7c15
	h2 := uint64(offset) ^ 0xc2b2ae3d27d4eb4f
	h3 := uint64(offset) ^ 0x165667b19e3779f9
	i := 0
	for ; i+4 <= len(words); i += 4 {
		h0 = (h0 ^ uint64(words[i])) * prime
		h1 = (h1 ^ uint64(words[i+1])) * prime
		h2 = (h2 ^ uint64(words[i+2])) * prime
		h3 = (h3 ^ uint64(words[i+3])) * prime
	}
	for ; i < len(words); i++ {
		h0 = (h0 ^ uint64(words[i])) * prime
	}
	return ((h0*prime^h1)*prime^h2)*prime ^ h3
}

// Install places f, resident nowhere, as a new unit of one (with the
// functions it references that are resident nowhere either).  Installing
// a resident, unmodified function is a no-op; if its code was mutated
// since, or it is resident on a different Machine, Install reports an
// error instead of silently running stale code.
func (m *Machine) Install(f *Func) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.installLocked(f)
}

// installLocked is Install for a caller that holds mu.
func (m *Machine) installLocked(f *Func) error {
	switch h := f.home(); {
	case h == nil:
		u := &Unit{m: m}
		err := u.add(f)
		if err != nil {
			u.unload()
		}
		return err
	case h != m:
		return fmt.Errorf("machine: %s is installed on a different machine", f.Name)
	case sumWords(f.Words) != f.sum:
		return fmt.Errorf("machine: %s was mutated after install; Uninstall it first", f.Name)
	}
	return nil
}

// Installed reports whether f is resident on this machine.
func (m *Machine) Installed(f *Func) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return f.home() == m
}

// Uninstall unloads f's unit (f alone, if Install placed it): out-of-order
// reclamation beside the paper's stack-style Mark/Release (§5.2).  The
// caller must ensure nothing resident still jumps into the unit; a member
// of a unit already unloaded is a no-op.  f may be installed again (here
// or on another machine), but a call no longer places it.
func (m *Machine) Uninstall(f *Func) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	switch {
	case f == nil:
		return fmt.Errorf("machine: uninstall of nil function")
	case f.unit == nil || f.unit.m != m:
		return fmt.Errorf("machine: uninstall %s: not installed on this machine", f.Name)
	}
	f.unit.unload()
	return nil
}

// ArenaStats is a point-in-time view of one machine's memory arenas —
// the per-shard residency snapshot a multi-arena server reports and
// sizes admission against.
type ArenaStats struct {
	// CodeBytesResident is installed code occupying the code region
	// (allocated span minus freed holes); CodeBytesHighWater is the
	// bump-pointer high-water mark including holes.
	CodeBytesResident, CodeBytesHighWater uint64
	// FreeRegions counts the holes between resident functions below the
	// high-water mark (fragmentation signal).
	FreeRegions int
	// HeapBytesUsed is the heap held by live allocations (dispatch
	// tables, data sections): the bump pointer's extent minus the blocks
	// of unloaded units.
	HeapBytesUsed uint64
	// Funcs is the number of installed code spans (trap vectors excluded).
	Funcs int
}

// ArenaStats captures the machine's current arena occupancy.
func (m *Machine) ArenaStats() ArenaStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	st := ArenaStats{
		CodeBytesHighWater: m.codeNext - m.codeBase,
		HeapBytesUsed:      m.heapNext - m.mem.Size()/2 - m.heapFreeBytes,
	}
	prev := m.codeBase
	for _, r := range m.regions[m.find(m.codeBase):] {
		if r.start > prev {
			st.FreeRegions++
		}
		st.CodeBytesResident += r.end - r.start
		st.Funcs++
		prev = r.end
	}
	return st
}

// install places f, whose unit Unit.add has just set, and is the one
// thing that writes a function into the code region.  Caller holds mu.
func (m *Machine) install(f *Func) error {
	if f.BackendName != m.backend.Name() {
		return fmt.Errorf("machine: %s code installed on %s machine", f.BackendName, m.backend.Name())
	}
	if len(f.Words) == 0 {
		return fmt.Errorf("machine: %s has no code", f.Name)
	}
	var start time.Time
	if trace.Recording() {
		start = time.Now()
	}
	size := (uint64(4*len(f.Words)) + 15) &^ 15
	addr, err := m.place(f, size)
	if err != nil {
		return err
	}
	f.addr = addr
	f.planCall(m.conv)
	resolved, err := m.resolveRelocs(f)
	if err == nil {
		err = m.linkAndVerify(f, resolved)
	}
	if err != nil {
		// Roll back so a rejected function neither leaks code space nor
		// claims to be installed (a later retry — e.g. after the missing
		// symbol is defined — starts clean).
		m.remove(f)
		return err
	}
	f.sum = sumWords(f.Words)
	name := f.Name
	if name == "" {
		name = fmt.Sprintf("func@%#x", addr)
	}
	var body *exec.Body
	if m.tcpu != nil {
		// f.Words were patched in place by linkAndVerify, so they match
		// the installed image exactly, and m.rows holds their rows.
		lo := int(f.addr-m.codeBase) / 4
		hi := lo + len(f.Words)
		if hi > len(m.shadow) { // the old array stays with the bodies in it
			m.shadow = make([]exec.Instr, 2*hi)
		}
		body = &exec.Body{Base: f.addr, Code: m.shadow[lo:hi:hi]}
		m.tcpu.Decode(body, f.Words, m.rows)
	}
	m.complete(f, name, body)
	if !start.IsZero() {
		// Nested installs (referenced functions) are timed individually;
		// the parent's duration includes its children.
		trace.Record(trace.KindInstall, f.BackendName, f.Name, f.lifecycleFlow(),
			start, time.Since(start), trace.Attrs{Bytes: int64(size)})
	}
	return nil
}

// resolvedReloc is one relocation with its target address pinned.
type resolvedReloc struct {
	sites  []int
	target uint64
}

// resolveRelocs pins every relocation of f to an absolute target address.
// A referenced function resident nowhere joins f's unit first, so a
// missing symbol or a callee that does not install is found before any of
// f's words is patched.  Caller holds mu.
func (m *Machine) resolveRelocs(f *Func) ([]resolvedReloc, error) {
	if len(f.Relocs) == 0 {
		return nil, nil
	}
	out := make([]resolvedReloc, 0, len(f.Relocs))
	for _, r := range f.Relocs {
		var target uint64
		switch {
		case r.Target != nil:
			if r.Target.home() != m { // ErrOwned if it is another machine's
				if err := f.unit.add(r.Target); err != nil {
					return nil, err
				}
			}
			base := r.Target.addr
			switch {
			case r.Kind == RelocCall:
				target = base + 4*uint64(r.Target.Entry)
			case r.Addend == relocEntry:
				target = base + 4*uint64(r.Target.Entry)
			default:
				target = base + uint64(r.Addend)
			}
		default:
			// A program's own names first, then the machine-wide ones.
			a, ok := m.syms[r.Sym]
			if f.unit != nil {
				if ua, own := f.unit.syms[r.Sym]; own {
					a, ok = ua, true
				}
			}
			if !ok {
				return nil, fmt.Errorf("machine: undefined symbol %q in %s", r.Sym, f.Name)
			}
			target = a + uint64(r.Addend)
		}
		out = append(out, resolvedReloc{sites: r.Sites, target: target})
	}
	return out, nil
}

// linkAndVerify patches f's words with the resolved relocation targets,
// looks each word's row up once into m.rows, runs the pre-install verifier
// on those rows, and writes the finished words into f's place in target
// byte order.  Caller holds mu.
func (m *Machine) linkAndVerify(f *Func, resolved []resolvedReloc) error {
	for _, r := range resolved {
		if !m.fx.link(f.Words, r.sites, f.addr, r.target) {
			return fmt.Errorf("machine: relocating %s: %w: %#x at word %d", f.Name, ErrRelocRange, r.target, r.sites[0])
		}
	}
	isa, rows := m.backend.ISA(), m.rows[:0]
	for _, w := range f.Words {
		rows = append(rows, isa.Lookup(w))
	}
	m.rows = rows

	if !m.verifyOff {
		if err := m.verifyFunc(f); err != nil {
			return err
		}
	}

	image, err := m.mem.Bytes(f.addr, 4*len(f.Words))
	if err != nil {
		return err
	}
	if m.backend.BigEndian() {
		for i, w := range f.Words {
			binary.BigEndian.PutUint32(image[4*i:], w)
		}
	} else {
		for i, w := range f.Words {
			binary.LittleEndian.PutUint32(image[4*i:], w)
		}
	}
	return nil
}

// SetVerify enables or disables the pre-install code verifier.  It is on
// by default; benchmarks that install in a hot loop may turn it off.
func (m *Machine) SetVerify(on bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.verifyOff = !on
}

// verifyFunc runs the static verifier over f's relocated image, whose rows
// are m.rows.  Caller holds mu.
func (m *Machine) verifyFunc(f *Func) error {
	var start time.Time
	if trace.Recording() {
		start = time.Now()
	}
	var prs []verify.PoolRef
	for _, r := range f.Relocs {
		if r.Kind == RelocAddr && r.Target == f && r.Addend != relocEntry {
			prs = append(prs, verify.PoolRef{Sites: r.Sites, Offset: r.Addend, Size: 8})
		}
	}
	ps := f.PoolStart
	if ps < f.Entry || ps > len(f.Words) {
		ps = len(f.Words)
	}
	err := verify.Verify(m.backend, &verify.Code{
		Name:      f.Name,
		Words:     f.Words,
		Base:      f.addr,
		Entry:     f.Entry,
		PoolStart: ps,
		PoolRefs:  prs,
		Rows:      m.rows,
	}, verify.Options{ExternTarget: m.validCallTarget})
	if !start.IsZero() {
		verdict := "ok"
		if err != nil {
			verdict = "reject"
		}
		trace.Record(trace.KindVerify, f.BackendName, f.Name, f.lifecycleFlow(),
			start, time.Since(start), trace.Attrs{N: int64(len(f.Words)), Verdict: verdict, Err: errText(err)})
	}
	return err
}

// errText renders an error for a span attribute, bounded so one failure
// cannot bloat the ring.
func errText(err error) string {
	if err == nil {
		return ""
	}
	s := err.Error()
	if len(s) > 120 {
		s = s[:120]
	}
	return s
}

// validCallTarget reports whether an out-of-function call target is an
// address the machine can account for: the halt vector, a registered trap,
// or somewhere in the installed-code region.
func (m *Machine) validCallTarget(addr uint64) bool {
	return m.vector(addr) != nil || addr >= m.codeBase && addr < m.codeNext && addr%4 == 0
}

// CallOpts tunes the sandbox around one call.
type CallOpts struct {
	// Fuel bounds the number of simulated steps (instructions plus trap
	// dispatches) this call may consume; 0 means no per-call budget (the
	// machine-wide MaxSteps backstop still applies).  Exhaustion returns
	// an error wrapping ErrFuelExhausted.
	Fuel uint64
	// PollStride is how many steps run between context checks; 0 means
	// the default (1024).  Smaller strides bound cancellation latency
	// more tightly at a small dispatch cost.
	PollStride uint64
	// Deadline, when non-zero, ends the call as a context deadline would:
	// the run loop reads the clock at the polls it makes of ctx (step 0
	// and every PollStride steps), so a call that waited past Deadline for
	// the machine fails before its first instruction, with an error
	// wrapping context.DeadlineExceeded.  It spares a caller the timer a
	// context.WithTimeout arms, and a call without one pays nothing.
	Deadline time.Time
}

// Call installs f as Install would if no unit has placed it yet (one that
// left is ErrUnloaded), marshals args per the backend's default calling
// convention, runs the simulator until the function returns, and returns
// the typed result.
func (m *Machine) Call(f *Func, args ...Value) (Value, error) {
	return m.CallWith(context.Background(), CallOpts{}, f, args...)
}

// CallContext is Call with cancellation: the run loop polls ctx on a
// stride and returns ctx.Err() (wrapped) once the deadline passes or the
// context is canceled.
func (m *Machine) CallContext(ctx context.Context, f *Func, args ...Value) (Value, error) {
	return m.CallWith(ctx, CallOpts{}, f, args...)
}

// CallWith is the fully sandboxed call: context cancellation, a per-call
// fuel budget, trap-handler panic recovery, and a last-resort recover
// around the simulator itself.  Every failure surfaces as a typed error;
// the call never panics and never outlives ctx by more than one poll
// stride of simulated steps.
func (m *Machine) CallWith(ctx context.Context, opts CallOpts, f *Func, args ...Value) (Value, error) {
	v, _, err := m.CallWithStats(ctx, opts, f, args...)
	return v, err
}

// CallStats describes one completed (or failed) call's cost in simulated
// terms: the simulator's cycle and retired-instruction deltas for this call
// alone, and the fuel it consumed.  Because the machine serializes calls
// internally, the deltas are exact per-call attributions — no stat reset
// (and no reset race) is needed.  Host time is not here: a caller that
// wants it reads the clock around the call, which then also covers the
// wait for the machine.
type CallStats struct {
	Cycles, Insns uint64
	// Fuel is the step budget the call consumed (0 when unlimited or the
	// engine did not meter it) — the per-call cost a quota-billing layer
	// or a flight recorder attributes to the request.
	Fuel uint64
}

// CallWithStats is CallWith returning per-call simulator statistics
// alongside the result.
func (m *Machine) CallWithStats(ctx context.Context, opts CallOpts, f *Func, args ...Value) (Value, CallStats, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if ctx == nil {
		ctx = context.Background()
	}
	// The recorders own the clock: with both gates off a call reads none.
	var start time.Time
	if trace.Recording() {
		start = time.Now()
	}
	cycles0, insns0 := m.cpu.Cycles(), m.cpu.Insns()
	timed := !opts.Deadline.IsZero()
	if timed {
		m.dctx = deadlineCtx{Context: ctx, deadline: opts.Deadline}
		ctx = &m.dctx
	}
	v, fuelUsed, err := m.callLocked(ctx, opts.Fuel, opts.PollStride, f, args)
	if timed {
		m.dctx = deadlineCtx{}
	}
	st := CallStats{
		Cycles: m.cpu.Cycles() - cycles0,
		Insns:  m.cpu.Insns() - insns0,
		Fuel:   fuelUsed,
	}
	if !start.IsZero() {
		m.recordCall(f, start, st, err)
	}
	return v, st, err
}

// recordCall records one finished call, timed from start.  f may be nil
// (the call failed on that), so the event is then named by the machine
// alone.  Caller holds mu.
func (m *Machine) recordCall(f *Func, start time.Time, st CallStats, err error) {
	backend, name, flow := m.backend.Name(), "", uint64(0)
	if f != nil {
		backend, name = f.BackendName, f.Name
	}
	if f.home() == m { // f's machine alone assigns its flow, under its lock
		flow = f.lifecycleFlow()
	}
	trace.Record(trace.KindCall, backend, name, flow,
		start, time.Since(start), trace.Attrs{N: int64(st.Insns), Fuel: st.Fuel, Err: errText(err)})
}

// callLocked is the hot body of a call: placement of a function never
// placed, argument marshaling from the function's call plan, the simulator
// run, and result extraction.  With ≤ callBufArgs arguments nothing on the
// path allocates, for a resident function nothing is laid out, and the
// backend is asked nothing.  The second result is the simulated steps
// consumed (fuel).  fuel and stride are the call's CallOpts.Fuel and
// PollStride; its Deadline is on ctx.  Caller holds mu.
func (m *Machine) callLocked(ctx context.Context, fuel, stride uint64, f *Func, args []Value) (Value, uint64, error) {
	if f.home() != m {
		if err := m.placeForCall(f); err != nil {
			return Value{}, 0, err
		}
	}
	if len(args) != len(f.Params) {
		return Value{}, 0, fmt.Errorf("machine: %s takes %d args, got %d", f.Name, len(f.Params), len(args))
	}
	for i, a := range args {
		if a.T != f.Params[i] {
			return Value{}, 0, fmt.Errorf("machine: %s arg %d: have %s, want %s", f.Name, i, a.T, f.Params[i])
		}
	}
	plan := &f.plan
	if plan.nargs != len(args) {
		// Params was resized behind the resident function's back; lay the
		// signature the arguments just matched out afresh.
		f.planCall(m.conv)
	}
	conv := m.conv
	sp := m.stackTop - plan.stackBytes
	if a := uint64(conv.StackAlign); a > 0 {
		sp &^= a - 1
	}
	for i, loc := range plan.locs() {
		if loc.reg != NoReg {
			if loc.t.IsFloat() {
				m.cpu.SetFReg(loc.reg, args[i].Bits, loc.t == TypeD)
			} else {
				m.cpu.SetReg(loc.reg, regBits(args[i], m.ptrBytes))
			}
			continue
		}
		if err := m.mem.Store(sp+uint64(loc.stackOff), loc.t.Size(m.ptrBytes), args[i].Bits); err != nil {
			return Value{}, 0, err
		}
	}

	m.cpu.SetReg(conv.SP, sp)
	m.cpu.SetReg(conv.RA, m.haltLink)
	m.cpu.SetPC(plan.entry)
	steps, err := m.run(ctx, fuel, stride, plan)
	if err != nil {
		return Value{}, steps, fmt.Errorf("machine: running %s: %w", f.Name, err)
	}

	return m.result(f.Result), steps, nil
}

// placeForCall is callLocked's slow path, out of line to keep the warm path
// lean (which never re-hashes the words: Install checks the fingerprint): a
// function no unit has placed is installed, one that left never is again.
func (m *Machine) placeForCall(f *Func) error {
	if f != nil && f.unit != nil && f.unit.unloaded {
		return fmt.Errorf("machine: %s: %w", f.Name, ErrUnloaded)
	}
	return m.installLocked(f)
}

// callBufArgs is how many arguments the call path can marshal without
// heap allocation; calls with more still work, spilling to the heap.
const callBufArgs = 8

// SetTrace enables (or, with nil, disables) single-step execution
// tracing: every executed instruction is disassembled to w.  This is the
// debugging facility the paper lists as VCODE's most critical missing
// piece (§6.2: "debugging dynamically generated code currently requires
// stepping through it at the level of host-specific machine code") — the
// disassembler is generated alongside the encoders, so client-added
// instructions appear automatically.
func (m *Machine) SetTrace(w io.Writer) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.trace = w
}

// run steps the simulator from the PC callLocked set until the function
// returns to haltAddr; plan is the called function's, for its entry body.
func (m *Machine) run(ctx context.Context, fuel, stride uint64, plan *callPlan) (steps uint64, err error) {
	// Last line of defense: the simulators are panic-proofed and fuzzed,
	// but if one does panic the call must still return an error rather
	// than unwind the caller (who may be a cache or a server loop).
	defer func() {
		if r := recover(); r != nil {
			err = &PanicError{PC: m.cpu.PC(), Value: r}
		}
	}()
	budget := m.MaxSteps
	if fuel > 0 && fuel < budget {
		budget = fuel
	}
	if stride == 0 {
		stride = 1024
	}
	cancelable := ctx.Done() != nil
	// Engine, threaded CPU and trace writer are fixed while mu is held.
	threaded := m.engine == EngineThreaded && m.tcpu != nil && m.trace == nil
	for {
		pc := m.cpu.PC()
		if pc == m.haltAddr {
			return steps, nil
		}
		if cancelable && steps%stride == 0 {
			if err := ctx.Err(); err != nil {
				return steps, fmt.Errorf("after %d steps: %w", steps, err)
			}
		}
		// A trap dispatch consumes a step too, so a trap that returns to
		// itself burns fuel instead of spinning forever.
		steps++
		if steps > budget {
			return steps, fmt.Errorf("%w: %d steps (runaway generated code?)", ErrFuelExhausted, budget)
		}
		// Threaded fast path: dispatch through the predecoded body when
		// one covers pc.  It runs before the trap lookup because bodies
		// and trap vectors are disjoint entries of one table — an
		// in-body pc is never a trap.  The budget check above
		// already admitted this instruction, so the body may retire up
		// to budget-steps+1 more before the loop must regain control;
		// with a cancelable context the slice is clamped to the poll
		// stride so cancellation latency stays bounded exactly as on the
		// Step path.  A pending delay slot (materialized by a previous
		// fuel-bounded exit), a fault-injection hook (which intercepts
		// per-instruction fetches the threaded engine does not perform),
		// and single-step tracing all force Step.  Every call's first
		// dispatch is at the function's entry (recursion comes back to it
		// too): the plan remembers that body, so it needs no search.
		if threaded && !m.tcpu.PendingDelay() && !m.mem.HasFaultHook() {
			var b *exec.Body
			var idx int
			if pc == plan.entry {
				b, idx = m.entryBody(plan)
			} else if b = m.bodyAt(pc); b != nil {
				idx = b.IndexOf(pc)
			}
			if b != nil {
				allow := budget - steps + 1
				if cancelable && allow > stride {
					allow = stride
				}
				n, rerr := m.tcpu.Run(b, idx, allow)
				if n > 0 {
					steps += n - 1
				}
				if rerr != nil {
					return steps, rerr
				}
				continue
			}
		}
		if v := m.vector(pc); v != nil && v.trap != nil {
			if m.trace != nil {
				fmt.Fprintf(m.trace, "%08x: <trap %s>\n", pc, v.name)
			}
			if err := m.safeTrap(pc, v); err != nil {
				return steps, err
			}
			m.cpu.SetPC(m.cpu.Reg(m.conv.RA) + m.retOff)
			continue
		}
		if m.trace != nil {
			// Tracing needs per-instruction visibility: stay on Step.
			if w, err := m.mem.FetchWord(pc); err == nil {
				fmt.Fprintf(m.trace, "%08x: %08x  %s\n", pc, w, m.backend.Disasm(w, pc))
			}
		}
		if err := m.cpu.Step(); err != nil {
			return steps, err
		}
	}
}

// deadlineCtx is a call's context with its CallOpts.Deadline on it, for
// the polls run makes of ctx anyway: Err reports
// context.DeadlineExceeded once the clock reaches the deadline.  No timer
// backs it, so Done never closes: it lives for one call inside the
// machine, where run reads only Done (to know it must poll) and Err.
type deadlineCtx struct {
	context.Context
	deadline time.Time
}

var neverDone = make(chan struct{})

// Done is non-nil, so run polls, and is not the parent's: asking a
// request's context for its Done channel makes one.
func (c *deadlineCtx) Done() <-chan struct{} { return neverDone }

func (c *deadlineCtx) Err() error {
	if err := c.Context.Err(); err != nil {
		return err
	}
	if time.Until(c.deadline) <= 0 {
		return context.DeadlineExceeded
	}
	return nil
}

// safeTrap runs trap vector v's handler with panic isolation: a faulty
// runtime helper becomes a *TrapPanicError instead of unwinding the
// process.
func (m *Machine) safeTrap(pc uint64, v *region) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &TrapPanicError{Sym: v.name, PC: pc, Value: r}
		}
	}()
	v.trap(m.cpu, m.mem)
	return nil
}

func (m *Machine) result(t Type) Value {
	conv := m.conv
	switch t {
	case TypeV:
		return Value{T: TypeV}
	case TypeF:
		return Value{T: TypeF, Bits: m.cpu.FReg(conv.RetFP, false) & 0xffffffff}
	case TypeD:
		return Value{T: TypeD, Bits: m.cpu.FReg(conv.RetFP, true)}
	case TypeI:
		return Value{T: t, Bits: uint64(int64(int32(m.cpu.Reg(conv.RetInt))))}
	case TypeU:
		return Value{T: t, Bits: uint64(uint32(m.cpu.Reg(conv.RetInt)))}
	default:
		bits := m.cpu.Reg(conv.RetInt)
		if m.ptrBytes == 4 {
			switch t {
			case TypeL:
				bits = uint64(int64(int32(bits)))
			case TypeUL, TypeP:
				bits = uint64(uint32(bits))
			}
		}
		return Value{T: t, Bits: bits}
	}
}

// regBits canonicalizes an argument value for the target's register width.
func regBits(v Value, ptrBytes int) uint64 {
	switch v.T {
	case TypeI:
		return uint64(int64(int32(v.Bits)))
	case TypeU:
		if ptrBytes == 8 {
			// 32-bit values are held sign-extended (canonical form).
			return uint64(int64(int32(v.Bits)))
		}
		return uint64(uint32(v.Bits))
	case TypeF:
		return v.Bits & 0xffffffff
	default:
		return v.Bits
	}
}

// registerDivHelpers installs the integer division/remainder emulation
// helpers used by targets without hardware divide (paper §5.2: "on
// machines that do not provide division in hardware, the VCODE integer
// division instructions require subroutine calls").
func registerDivHelpers(m *Machine) {
	conv := m.conv
	a0, a1, v0 := conv.IntArgs[0], conv.IntArgs[1], conv.RetInt
	type sem struct {
		sym string
		f   func(x, y uint64) uint64
	}
	div := func(signed bool, bits int, mod bool) func(x, y uint64) uint64 {
		return func(x, y uint64) uint64 {
			if signed {
				sx, sy := int64(x), int64(y)
				if bits == 32 {
					sx, sy = int64(int32(x)), int64(int32(y))
				}
				if sy == 0 {
					return 0
				}
				var r int64
				if mod {
					r = sx % sy
				} else {
					r = sx / sy
				}
				if bits == 32 {
					r = int64(int32(r))
				}
				return uint64(r)
			}
			ux, uy := x, y
			if bits == 32 {
				ux, uy = uint64(uint32(x)), uint64(uint32(y))
			}
			if uy == 0 {
				return 0
			}
			var r uint64
			if mod {
				r = ux % uy
			} else {
				r = ux / uy
			}
			if bits == 32 {
				r = uint64(int64(int32(r)))
			}
			return r
		}
	}
	helpers := []sem{
		{"__div_i", div(true, 32, false)},
		{"__div_u", div(false, 32, false)},
		{"__div_l", div(true, 64, false)},
		{"__div_ul", div(false, 64, false)},
		{"__mod_i", div(true, 32, true)},
		{"__mod_u", div(false, 32, true)},
		{"__mod_l", div(true, 64, true)},
		{"__mod_ul", div(false, 64, true)},
	}
	for _, h := range helpers {
		f := h.f
		// Ignoring the error is safe: the table is empty at this point.
		_ = m.DefineTrap(h.sym, func(c CPU, _ *mem.Memory) {
			c.SetReg(v0, f(c.Reg(a0), c.Reg(a1)))
		})
	}
}
