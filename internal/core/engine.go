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

import "repro/internal/exec"

// ThreadedCPU is CPU: every simulator has the threaded engine, and the
// name stays for code that asserts it.
type ThreadedCPU = CPU

// Engine selects how Machine.Call executes installed code.
type Engine int

const (
	// EngineSwitch is the per-instruction fetch/decode/dispatch Step
	// loop — the original engine and the verification oracle.
	EngineSwitch Engine = iota
	// EngineThreaded dispatches through per-function predecoded bodies
	// (the default).
	EngineThreaded
)

func (e Engine) String() string {
	if e == EngineThreaded {
		return "threaded"
	}
	return "switch"
}

// SetEngine selects the execution engine for subsequent calls.  Every CPU
// has both, so it never fails.
func (m *Machine) SetEngine(e Engine) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.engine = e
	m.threaded = e == EngineThreaded && m.trace == nil
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
