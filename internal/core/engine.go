// Execution-engine selection and the predecoded-body registry behind the
// direct-threaded engine (internal/exec).  At install time each verified
// function is predecoded once into a flat array of unpacked-operand
// instruction structs; the call loop then executes that array — runs of
// plain instructions in one switch loop, transfers through the backend's
// handler table — instead of fetching and re-decoding a word per step.
// The fetch/switch Step loop remains available (EngineSwitch) and is the
// verification oracle: internal/exec/diff requires bit-identical
// architectural state from both engines on every regtest program.
package core

import (
	"fmt"
	"sort"

	"repro/internal/exec"
)

// ThreadedCPU is implemented by simulators that provide a predecoded
// direct-threaded execution engine alongside Step.
type ThreadedCPU interface {
	CPU
	// Predecode unpacks words (already linked, as installed at base) into
	// a threaded body.  It must be a pure function of its arguments.
	Predecode(words []uint32, base uint64) *exec.Body
	// RunBody executes up to allow instructions starting at body index
	// idx, returning how many retired.  On return the CPU's PC is
	// architecturally consistent: the next instruction to execute, or the
	// faulting instruction when err is non-nil.
	RunBody(b *exec.Body, idx int, allow uint64) (uint64, error)
	// PendingDelay reports whether a delay-slot branch is in flight
	// (materialized inDelay state); the threaded engine cannot resume
	// mid-delay-pair, so the run loop must fall back to Step until the
	// pair completes.
	PendingDelay() bool
}

// Engine selects how Machine.Call executes installed code.
type Engine int

const (
	// EngineSwitch is the per-instruction fetch/decode/dispatch Step
	// loop — the original engine and the verification oracle.
	EngineSwitch Engine = iota
	// EngineThreaded dispatches through per-function predecoded bodies
	// (the default when the backend's CPU implements ThreadedCPU).
	EngineThreaded
)

func (e Engine) String() string {
	if e == EngineThreaded {
		return "threaded"
	}
	return "switch"
}

// SetEngine selects the execution engine for subsequent calls.  Asking
// for the threaded engine on a CPU without one reports an error.
func (m *Machine) SetEngine(e Engine) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if e == EngineThreaded && m.tcpu == nil {
		return fmt.Errorf("machine: %s CPU has no threaded engine", m.backend.Name())
	}
	m.engine = e
	return nil
}

// Engine returns the currently selected execution engine.
func (m *Machine) Engine() Engine {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.engine
}

// PredecodedBodies reports how many predecoded function bodies are
// currently attached — an introspection hook for eviction and
// stale-predecode tests.
func (m *Machine) PredecodedBodies() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.bodies)
}

// attachBody registers a freshly predecoded body.  Any stale body
// overlapping the same address range is dropped first, so a re-install
// at a reused arena address can never execute the old function's
// predecoded instructions.  (No body holds a trap word: the trap vectors
// all lie below codeBase.)  Caller holds mu.
func (m *Machine) attachBody(b *exec.Body) {
	if b == nil || len(b.Code) == 0 {
		return
	}
	m.dropBodies(b.Base, b.End()-b.Base)
	i := sort.Search(len(m.bodies), func(i int) bool { return m.bodies[i].Base >= b.Base })
	m.bodies = append(m.bodies, nil)
	copy(m.bodies[i+1:], m.bodies[i:])
	m.bodies[i] = b
	m.bodyGen++
}

// dropBodies removes every body intersecting [addr, addr+size) —
// called from Uninstall and Release in the same critical section that
// returns the code region, so the body disappears atomically with the
// bytes it was decoded from.  Caller holds mu.
func (m *Machine) dropBodies(addr, size uint64) {
	n := len(m.bodies)
	if n == 0 {
		return
	}
	end := addr + size
	// The slice is sorted by Base and bodies never overlap each other
	// (attachBody drops intersections first), so the bodies hit by
	// [addr, end) form one contiguous run.  Binary-search its start —
	// a linear filter here made every install O(resident bodies).
	lo, hi := 0, n // first body with End() > addr
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if m.bodies[mid].End() <= addr {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	first := lo
	last := first
	for last < n && m.bodies[last].Base < end {
		if m.lastBody == m.bodies[last] {
			m.lastBody = nil
		}
		last++
	}
	if first == last {
		return
	}
	m.bodyGen++
	copy(m.bodies[first:], m.bodies[last:])
	kept := n - (last - first)
	// Nil the tail so dropped bodies are not pinned by the backing array.
	for i := kept; i < n; i++ {
		m.bodies[i] = nil
	}
	m.bodies = m.bodies[:kept]
}

// entryBody is bodyAt(p.entry) and the index of the entry in that body,
// without the search while no body has been attached or dropped since the
// plan last looked: a rotation of warm callers always misses lastBody, and
// its entry is where every call of a function starts.  Caller holds mu.
func (m *Machine) entryBody(p *callPlan) (*exec.Body, int) {
	if p.gen != m.bodyGen {
		p.body, p.idx = m.bodyAt(p.entry), 0
		if p.body != nil {
			p.idx = p.body.IndexOf(p.entry)
		}
		p.gen = m.bodyGen
	}
	return p.body, p.idx
}

// bodyAt finds the attached body containing pc (word-aligned), or nil.
// The single-entry lastBody cache makes the common call pattern — many
// dispatches into the same hot function — a pointer compare instead of
// a binary search.  Caller holds mu (the run loop does).
func (m *Machine) bodyAt(pc uint64) *exec.Body {
	if b := m.lastBody; b != nil && b.Contains(pc) {
		return b
	}
	// Manual binary search (largest Base <= pc): sort.Search's
	// per-probe closure call is measurable when the caller rotates
	// across many warm functions and lastBody always misses.
	lo, hi := 0, len(m.bodies)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if m.bodies[mid].Base > pc {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	if lo == 0 {
		return nil
	}
	b := m.bodies[lo-1]
	if !b.Contains(pc) {
		return nil
	}
	m.lastBody = b
	return b
}
