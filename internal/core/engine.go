// Execution-engine selection.  At install time each verified function is
// predecoded once into a flat array of unpacked-operand instruction
// structs (internal/exec), kept in its entry of the code-region table
// (region.go); the call loop then executes that array — runs of
// plain instructions in one switch loop, transfers through the backend's
// handler table — instead of fetching and re-decoding a word per step.
// The fetch/switch Step loop remains available (EngineSwitch) and is the
// verification oracle: internal/exec/diff requires bit-identical
// architectural state from both engines on every regtest program.
package core

import (
	"fmt"

	"repro/internal/exec"
)

// ThreadedCPU is implemented by simulators that provide a predecoded
// direct-threaded execution engine alongside Step.  The dispatch loop is
// exec's, written once (exec.Port.Run): a port gives it the switch its
// plain instructions execute in, the conditions of its pc-relative
// branches and the handlers of its other transfers, and Run binds them to
// the CPU.
type ThreadedCPU interface {
	CPU
	// Decode unpacks words (linked, as installed at b.Base) into b.Code,
	// every slot in full, from rows[i], the row of words[i] (nil rows: it
	// looks them up).  Pure; Predecode is its thin form, a fresh body.
	Decode(b *exec.Body, words []uint32, rows []*exec.Row)
	Predecode(words []uint32, base uint64) *exec.Body
	// Run executes up to allow instructions starting at body index idx,
	// returning how many retired.  On return the CPU's PC is
	// architecturally consistent: the next instruction to execute, or the
	// faulting instruction when err is non-nil.
	Run(b *exec.Body, idx int, allow uint64) (uint64, error)
	// PendingDelay reports whether a delay-slot branch is in flight
	// (exec.State.InDelay); Run cannot resume mid-delay-pair, so the run
	// loop must fall back to Step until the pair completes.
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

// Body returns f's resident predecoded body, nil if it has none here; once
// f leaves, the next function placed in its span reuses the body's slots.
func (m *Machine) Body(f *Func) *exec.Body {
	m.mu.Lock()
	defer m.mu.Unlock()
	if f.home() != m {
		return nil
	}
	return m.regions[m.find(f.addr)].body
}

// PredecodedBodies reports how many predecoded function bodies are
// currently attached — an introspection hook for eviction and
// stale-predecode tests.
func (m *Machine) PredecodedBodies() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := 0
	for _, r := range m.regions {
		if r.body != nil {
			n++
		}
	}
	return n
}
