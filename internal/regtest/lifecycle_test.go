package regtest

import (
	"bytes"
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/jit"
	"repro/internal/mem"
	"repro/internal/trace"
)

// lifecycle is the complete generate-install-execute-evict span chain
// one function must leave in the flight recorder.
var lifecycle = []trace.Kind{
	trace.KindCompile, trace.KindRegalloc, trace.KindEmit,
	trace.KindVerify, trace.KindInstall, trace.KindCall, trace.KindEvict,
}

// TestLifecycleTraceAllTargets drives compile → run → evict on each port
// with span tracing on and asserts that a single flow ID ties the whole
// chain together — the property the Chrome-trace export renders as one
// Perfetto lane per function.
func TestLifecycleTraceAllTargets(t *testing.T) {
	trace.SetEnabled(true)
	defer func() { trace.SetEnabled(false); trace.Reset() }()

	for _, target := range []string{"mips", "sparc", "alpha"} {
		trace.Reset()
		m, err := jit.NewMachineTarget(target, mem.Uncosted)
		if err != nil {
			t.Fatal(err)
		}
		fn, err := m.Compile(jit.FibIter())
		if err != nil {
			t.Fatalf("%s: %v", target, err)
		}
		for i := 0; i < 3; i++ {
			if got, _, err := m.Run(fn, 10); err != nil || got != 55 {
				t.Fatalf("%s: fib(10) = %d, %v", target, got, err)
			}
		}
		if err := m.Core().Uninstall(fn); err != nil {
			t.Fatalf("%s: %v", target, err)
		}

		flow := fn.TraceFlow()
		if flow == 0 {
			t.Fatalf("%s: function has no trace flow after traced lifecycle", target)
		}
		kinds := map[trace.Kind]int{}
		for _, s := range trace.Spans() {
			if s.Flow != flow {
				continue
			}
			kinds[s.Kind]++
			if s.Backend != target {
				t.Errorf("%s: span %v carries backend %q", target, s.Kind, s.Backend)
			}
			if s.Name != "fib" {
				t.Errorf("%s: span %v carries name %q, want fib", target, s.Kind, s.Name)
			}
		}
		for _, k := range lifecycle {
			if kinds[k] == 0 {
				t.Errorf("%s: lifecycle flow %d missing %v span (have %v)", target, flow, k, kinds)
			}
		}
		if kinds[trace.KindCall] != 3 {
			t.Errorf("%s: call spans = %d, want 3", target, kinds[trace.KindCall])
		}

		// The exported Chrome trace must parse and keep the chain on one
		// tid (Perfetto lane).
		var buf bytes.Buffer
		if err := trace.WriteChromeTrace(&buf); err != nil {
			t.Fatal(err)
		}
		var doc struct {
			TraceEvents []struct {
				Ph   string  `json:"ph"`
				Name string  `json:"name"`
				Tid  uint64  `json:"tid"`
				Dur  float64 `json:"dur"`
			} `json:"traceEvents"`
		}
		if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
			t.Fatalf("%s: chrome trace does not parse: %v", target, err)
		}
		onLane := map[string]bool{}
		for _, ev := range doc.TraceEvents {
			if ev.Ph == "X" && ev.Tid == flow {
				onLane[ev.Name] = true
			}
		}
		for _, k := range lifecycle {
			if !onLane[k.String()] {
				t.Errorf("%s: chrome trace lane %d missing %q event", target, flow, k)
			}
		}
	}
}

// TestEvictedCallKeepsTrace pins the uninstall-vs-stats interaction: a
// call that fails because the function was evicted still records a call
// span carrying the error, so traces never show a silent gap.
func TestEvictedCallKeepsTrace(t *testing.T) {
	trace.SetEnabled(true)
	defer func() { trace.SetEnabled(false); trace.Reset() }()
	trace.Reset()

	m, err := jit.NewMachineTarget("mips", mem.Uncosted)
	if err != nil {
		t.Fatal(err)
	}
	fn, err := m.Compile(jit.SumSquares())
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := m.Run(fn, 5); err != nil {
		t.Fatal(err)
	}
	if err := m.Core().Uninstall(fn); err != nil {
		t.Fatal(err)
	}
	// An evicted function is never placed again: the call fails.
	if _, _, err := m.Run(fn, 5); !errors.Is(err, core.ErrUnloaded) {
		t.Fatalf("call after eviction: %v, want ErrUnloaded", err)
	}
	var evictSeen, failedCall bool
	for _, s := range trace.Spans() {
		if s.Flow == fn.TraceFlow() && s.Kind == trace.KindEvict {
			evictSeen = true
			if s.Attrs.Bytes == 0 {
				t.Error("evict span carries no reclaimed-bytes attribute")
			}
		}
		failedCall = failedCall || s.Kind == trace.KindCall && strings.Contains(s.Attrs.Err, core.ErrUnloaded.Error())
	}
	if !evictSeen || !failedCall {
		t.Fatalf("evict span %v, failed call span %v; want both", evictSeen, failedCall)
	}
}
