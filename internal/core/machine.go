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

	// The threaded engine, whose loop is exec's (exec.Port.Run, which
	// drives the simulator as an exec.Machine).  Decode unpacks words
	// (linked, as installed at b.Base) into b.Code from rows[i], the row
	// of words[i] (nil rows: it looks them up); pure.  Predecode is its
	// thin form, a fresh body.
	exec.Machine
	Decode(b *exec.Body, words []uint32, rows []*exec.Row)
	Predecode(words []uint32, base uint64) *exec.Body
	// PendingDelay reports a delay-slot branch in flight, which only Step
	// completes.
	PendingDelay() bool
	// Threaded returns the port exec's run loop executes the simulator
	// with, its exec.State and its integer register file, which the call
	// body reads and writes in place: a register holds what SetReg leaves.
	Threaded() (*exec.Port, *exec.State, *[32]uint64)
}

// SetSampler installs fn to fire with the pre-execution pc every stride
// retired instructions, SetEdgeProbe fn to fire with (branch pc, taken)
// every stride conditional-branch resolutions, on the machine's simulator
// (exec.Probes); a nil fn or zero stride removes the hook, and neither
// fails.  A hook runs inside the simulator, so it must not call back into
// the Machine's locked API (the lock-free FuncSpans/SymbolizePC/
// InCodeRegion are safe).
func (m *Machine) SetSampler(fn func(pc uint64), stride uint64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.st.SetSampler(fn, stride)
	return nil
}

// SetEdgeProbe is SetSampler's counterpart for the branch edge probe.
func (m *Machine) SetEdgeProbe(fn func(pc uint64, taken bool), stride uint64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.st.SetEdgeProbe(fn, stride)
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

	// st and regs are cpu's (CPU.Threaded): the call body's arguments, SP, RA,
	// PC, counters and result, in place; sp and ra number the
	// convention's SP and RA.
	st     *exec.State
	regs   *[32]uint64
	sp, ra uint8
	port   *exec.Port   // exec's run loop for cpu ...
	mach   exec.Machine // ... as it drives it

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

	stackTop uint64 // aligned to the convention's StackAlign
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

	// engine selects the engine Call uses (engine.go), and threaded is
	// whether a call dispatches through the threaded engine: the engine is
	// threaded and no trace writer is set.  lastBody is a single-entry
	// cache of bodyFor.  bodyGen counts the bodies that came and went (from
	// 1, so a zero callPlan never matches): a body a call plan remembered
	// is current while its stamp equals it.  All under mu.
	engine   Engine
	threaded bool
	lastBody *exec.Body
	bodyGen  uint64

	// call is the running call's frame.  Under mu.
	call callFrame

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
		engine:   EngineThreaded,
		threaded: true,
		conv:     b.DefaultConv(),
		ptrBytes: b.PtrBytes(),
		retOff:   uint64(b.RetAddrOffset()),
		fx:       &b.Templates().fx,
	}
	mc.haltLink = mc.haltAddr - mc.retOff
	mc.port, mc.st, mc.regs = cpu.Threaded()
	mc.mach = cpu
	mc.sp, mc.ra = uint8(mc.conv.SP.Num()), uint8(mc.conv.RA.Num())
	if a := uint64(mc.conv.StackAlign); a > 0 {
		mc.stackTop &^= a - 1
	}
	m.SetStoreFloor(mc.heapNext) // trap vectors and code are read-only to generated code
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
	m.planCall(f)
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
	// f.Words were patched in place by linkAndVerify, so they match the
	// installed image exactly, and m.rows holds their rows.
	lo := int(f.addr-m.codeBase) / 4
	hi := lo + len(f.Words)
	if hi > len(m.shadow) { // the old array stays with the bodies in it
		m.shadow = make([]exec.Instr, 2*hi)
	}
	body := &exec.Body{Base: f.addr, Code: m.shadow[lo:hi:hi]}
	m.cpu.Decode(body, f.Words, m.rows)
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
// alongside the result.  It is the one call body: a warm call writes its
// integer arguments (one store each, as install planned), SP, RA and PC
// into the simulator's state in place, runs the entry body the plan
// remembers and reads the counters and the result in place.  The rest —
// placement, stack and FP arguments, polling, traps, Step and the trace
// writer — is out of line, in resume.
func (m *Machine) CallWithStats(ctx context.Context, opts CallOpts, f *Func, args ...Value) (v Value, st CallStats, err error) {
	// Whether ctx can end the call is asked first, while nothing else is
	// live across the interface call.
	polls := ctx != nil && ctx.Done() != nil || !opts.Deadline.IsZero()
	m.mu.Lock()
	defer func() {
		// The simulators are fuzzed, but a panic must still come back an
		// error, not unwind the caller with the machine locked.
		if r := recover(); r != nil {
			err = m.runErr(f, &PanicError{PC: m.st.Pc, Value: r})
			st = m.call.panicked(m.st)
			m.end(f, st, err)
		}
		m.mu.Unlock()
	}()
	s, c := m.st, &m.call
	c.cycles0, c.insns0, c.steps = s.BaseCycles+s.Mem.PenaltyCycles(), s.Retired, 0
	// The recorders own the clock: with both gates off a call reads none.
	if trace.Recording() {
		c.start, c.timed = time.Now(), true
	}
	stop := m.MaxSteps
	if opts.Fuel > 0 && opts.Fuel < stop {
		stop = opts.Fuel
	}
	if c.budget = stop; polls {
		c.ctx, c.deadline, c.stride, stop = ctx, opts.Deadline, opts.PollStride, 0
		if c.stride == 0 {
			c.stride = 1024
		}
	}
	// A resident function whose plan is direct takes one store an
	// argument and, where no poll is due and nothing forces Step, runs
	// from the entry's body, remembered, for up to the budget.
	pend := true
	if f.home() == m {
		if p := &f.plan; p.direct && p.nargs == len(args) && len(f.Params) == len(args) {
			var mismatch Type
			regs, store := m.regs, p.store[:len(args)]
			for i := range store {
				a, d := &args[i], &store[i]
				mismatch |= a.T ^ d.t
				regs[d.num&31] = d.canon(a.Bits)
			}
			regs[m.sp&31], regs[m.ra&31] = m.stackTop, m.haltLink
			s.Pc, s.InDelay, s.LastLoad = p.entry, false, -1
			pend = mismatch != 0
		}
	}
	if !pend && stop == 0 { // a poll is due at step 0, or the budget is spent
		stop, err = m.checkpoint(f)
	}
	switch {
	case err != nil:
	case pend || f.plan.gen != m.bodyGen || !m.threaded || m.mem.HasFaultHook():
		err = m.resume(f, args, pend, stop)
	default:
		if c.steps, err = m.port.Run(m.mach, s, f.plan.body, f.plan.idx, stop); err != nil {
			err = m.runErr(f, err)
		} else if s.Pc != m.haltAddr {
			err = m.resume(f, args, false, stop)
		}
	}
	if err == nil {
		if p := &f.plan; p.fpRet { // SPARC pairs its FP bank: FReg reads the result
			v = Value{T: f.Result, Bits: m.cpu.FReg(m.conv.RetFP, f.Result == TypeD)}
		} else {
			v = Value{T: f.Result, Bits: p.ret.canon(m.regs[p.ret.num&31])}
		}
	}
	if st = c.stats(s); c.stride != 0 || c.timed {
		m.end(f, st, err)
	}
	return v, st, err
}

// stats is the running call's CallStats, from s.
func (c *callFrame) stats(s *exec.State) CallStats {
	return CallStats{Cycles: s.BaseCycles + s.Mem.PenaltyCycles() - c.cycles0, Insns: s.Retired - c.insns0, Fuel: c.steps}
}

// panicked is the call's CallStats where a panic ended it, the body it ran
// counted as Run flushed it before the sampler fired: from the call's
// start (the entry body, no step counted yet) or from where resume began
// the body, its first step counted.
func (c *callFrame) panicked(s *exec.State) CallStats {
	if c.steps == 0 {
		c.steps = s.Retired - c.insns0
	} else {
		c.steps += s.Retired - c.began - 1
	}
	return c.stats(s)
}

// end ends a polling or timed call of f, which err ended with st: it lets
// go of the context and records a timed call.  Caller holds mu.
func (m *Machine) end(f *Func, st CallStats, err error) {
	c := &m.call
	if c.stride, c.ctx = 0, nil; c.timed {
		m.recordCall(f, c.start, st, err)
		c.timed = false
	}
}

// resume is the call body out of line, from where the call stands:
// placement (which never re-hashes the words: Install checks the
// fingerprint) and the argument path where the plan's stores declined
// (pend), then, from s.Pc, the body that covers pc may retire up to
// stop-steps+1, so polls land on the stride's multiples as on Step, until
// f returns.  An in-body pc is never a trap.  A pending delay slot, a
// fault hook (which sees only Step's fetches) and the trace writer force
// Step.  Caller holds mu.
func (m *Machine) resume(f *Func, args []Value, pend bool, stop uint64) (err error) {
	s, c := m.st, &m.call
	if pend {
		switch { // a function no unit has placed is installed, one that left never is again
		case f.home() == m:
		case f != nil && f.unit != nil && f.unit.unloaded:
			return fmt.Errorf("machine: %s: %w", f.Name, ErrUnloaded)
		default:
			err = m.installLocked(f)
		}
		if err == nil {
			err = m.marshal(f, args)
		}
		if err != nil {
			return err
		}
		s.Pc, s.InDelay, s.LastLoad = f.plan.entry, false, -1
	}
	p := &f.plan
	for pc := s.Pc; pc != m.haltAddr; pc = s.Pc {
		if c.steps == stop { // a poll is due, or the budget is spent
			if stop, err = m.checkpoint(f); err != nil {
				return err
			}
		}
		// A trap dispatch consumes a step too, so a trap that returns to
		// itself burns fuel instead of spinning forever.
		c.steps, c.began = c.steps+1, s.Retired
		b, idx := (*exec.Body)(nil), 0
		if m.threaded && !s.InDelay && !m.mem.HasFaultHook() {
			if pc == p.entry && p.gen == m.bodyGen {
				b, idx = p.body, p.idx
			} else {
				b, idx = m.bodyFor(p, pc)
			}
		}
		if b == nil {
			if err = m.step(pc); err != nil {
				return m.runErr(f, err)
			}
			continue
		}
		n, err := m.port.Run(m.mach, s, b, idx, stop-c.steps+1)
		if c.steps += n - 1; err != nil {
			return m.runErr(f, err)
		}
	}
	return nil
}

// callFrame is the running call's own state, kept in the machine under
// mu, where the call body's stops out of line read it: the clock and
// counters at its start, the steps it has taken, the retired count where
// resume began the body it runs (began), its budget, and, if it polls,
// every stride steps, its context (which may be nil) and deadline.  timed
// is whether the call is recorded, from start.
type callFrame struct {
	timed                  bool
	start                  time.Time
	cycles0, insns0, steps uint64
	began                  uint64
	budget, stride         uint64
	ctx                    context.Context
	deadline               time.Time
}

// checkpoint is the call body's stop at its step count, out of line: it
// polls ctx and the deadline where a poll is due (step 0 and every
// stride), fails a call whose budget is spent, and returns the next stop.
// A call that does not poll stops only there, at its budget.
func (m *Machine) checkpoint(f *Func) (next uint64, err error) {
	c := &m.call
	if c.stride != 0 && c.steps%c.stride == 0 {
		if c.ctx != nil {
			err = c.ctx.Err()
		}
		if err == nil && !c.deadline.IsZero() && time.Until(c.deadline) <= 0 {
			err = context.DeadlineExceeded
		}
		if err != nil {
			return 0, m.runErr(f, fmt.Errorf("after %d steps: %w", c.steps, err))
		}
	}
	if c.steps == c.budget {
		return 0, m.runErr(f, fmt.Errorf("%w: %d steps (runaway generated code?)", ErrFuelExhausted, c.budget))
	}
	return min(c.budget, c.steps-c.steps%c.stride+c.stride), nil
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

// runErr is a failure of f's run, in the words every call reports it in.
func (m *Machine) runErr(f *Func, err error) error {
	name := ""
	if f != nil {
		name = f.Name
	}
	return fmt.Errorf("machine: running %s: %w", name, err)
}

// marshal is the call body's argument path out of line, where the plan's
// stores decline: it checks the arguments' count and types, plans f afresh if
// Params was resized behind the resident function's back, lays the
// arguments out, and writes stack arguments to memory, FP ones through
// SetFReg (SPARC pairs its FP bank), integer ones, SP and RA as the
// plan's stores do.  With ≤ callBufArgs arguments it allocates nothing.  Caller holds
// mu.
func (m *Machine) marshal(f *Func, args []Value) error {
	if len(args) != len(f.Params) {
		return fmt.Errorf("machine: %s takes %d args, got %d", f.Name, len(f.Params), len(args))
	}
	for i, a := range args {
		if a.T != f.Params[i] {
			return fmt.Errorf("machine: %s arg %d: have %s, want %s", f.Name, i, a.T, f.Params[i])
		}
	}
	if f.plan.nargs != len(args) {
		m.planCall(f)
	}
	var buf [callBufArgs]argLoc
	locs, stackBytes := m.conv.layoutArgs(f.Params, buf[:0])
	sp := m.stackTop - uint64(stackBytes) // layoutArgs aligned stackBytes
	for i, loc := range locs {
		switch {
		case loc.reg == NoReg:
			if err := m.mem.Store(sp+uint64(loc.stackOff), loc.t.Size(m.ptrBytes), args[i].Bits); err != nil {
				return err
			}
		case loc.t.IsFloat():
			m.cpu.SetFReg(loc.reg, args[i].Bits, loc.t == TypeD)
		default:
			d := m.argStore(loc)
			m.regs[d.num&31] = d.canon(args[i].Bits)
		}
	}
	m.regs[m.sp&31], m.regs[m.ra&31] = sp, m.haltLink
	return nil
}

// argStore is how the call body writes an integer register argument of
// type t: the register's number, and the register's canonical form of the
// value, what SetReg would leave there: sign-extended from its low 32 bits
// (a 32-bit type on a 64-bit port: sx is 32, else 0), then masked to the
// register's width (the low 32 bits on a 32-bit port).
type argStore struct {
	num, sx uint8
	t       Type
	mask    uint64
}

// argStore compiles the store of the integer register argument at loc.
func (m *Machine) argStore(loc argLoc) argStore {
	d := argStore{num: uint8(loc.reg.Num()), t: loc.t, mask: ^uint64(0) >> (64 - 8*m.ptrBytes)}
	if m.ptrBytes == 8 && (loc.t == TypeI || loc.t == TypeU) {
		d.sx = 32
	}
	return d
}

// retLoad compiles the read of an integer result of type t, as an argStore
// of the result register: a 32-bit signed type is sign-extended from the
// register's low word, an unsigned one zero-extended, and void reads 0.
func (m *Machine) retLoad(t Type) argStore {
	d := argStore{num: uint8(m.conv.RetInt.Num()), mask: ^uint64(0)}
	switch {
	case t == TypeV:
		d.mask = 0
	case t == TypeI || t == TypeL && m.ptrBytes == 4:
		d.sx = 32
	case t == TypeU || m.ptrBytes == 4:
		d.mask = 0xffffffff
	}
	return d
}

// canon is bits in the register's canonical form, without a branch.
func (d argStore) canon(bits uint64) uint64 {
	return uint64(int64(bits<<(d.sx&63))>>(d.sx&63)) & d.mask
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
	m.threaded = m.engine == EngineThreaded && w == nil
}

// step is the call body's dispatch out of line: the trap vector at pc, or
// one Step, each written to the trace writer if one is set.
func (m *Machine) step(pc uint64) error {
	if v := m.vector(pc); v != nil && v.trap != nil {
		if m.trace != nil {
			fmt.Fprintf(m.trace, "%08x: <trap %s>\n", pc, v.name)
		}
		err := m.safeTrap(pc, v)
		if err == nil {
			m.cpu.SetPC(m.cpu.Reg(m.conv.RA) + m.retOff)
		}
		return err
	}
	if m.trace != nil {
		// Tracing needs per-instruction visibility: stay on Step.
		if w, err := m.mem.FetchWord(pc); err == nil {
			fmt.Fprintf(m.trace, "%08x: %08x  %s\n", pc, w, m.backend.Disasm(w, pc))
		}
	}
	return m.cpu.Step()
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
