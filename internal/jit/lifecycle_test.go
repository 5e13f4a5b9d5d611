package jit

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/codecache"
	"repro/internal/codecache/cachetest"
	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// TestLifecycleTraceAndTelemetry sends 64 functions through a 16-entry
// code cache with span tracing and telemetry on, and checks what the
// observability surface promises of such a run: some function's whole
// compile → regalloc → emit → verify → install → call → evict lifecycle
// is in the span ring under one flow, the Chrome trace export parses and
// shows it as one lane, and the default registry carries the emit, call
// and cache instruments.
func TestLifecycleTraceAndTelemetry(t *testing.T) {
	traceWas, telemetryWas := trace.Enabled(), telemetry.Enabled()
	trace.Reset()
	trace.SetEnabled(true)
	telemetry.SetEnabled(true)
	t.Cleanup(func() {
		trace.SetEnabled(traceWas)
		telemetry.SetEnabled(telemetryWas)
		trace.Reset()
	})

	const keys, capacity = 64, 16
	m, err := NewMachineTarget("mips", mem.Uncosted)
	if err != nil {
		t.Fatal(err)
	}
	base := m.Core().ArenaStats()
	cache := codecache.New(codecache.Config{Machine: m.Core(), MaxEntries: capacity, Name: "lifecycle"})
	for i := 0; i < keys; i++ {
		f := Synthetic(int32(i))
		for pass := 0; pass < 2; pass++ { // a miss, then a hit
			fn, err := cache.GetOrCompile(f.CacheKey(), func() (*core.Func, error) { return m.Compile(f) })
			if err != nil {
				t.Fatal(err)
			}
			// Synthetic(k)(10) is the sum of i*i for i in 1..10, plus 10k.
			if got, _, err := m.Run(fn, 10); err != nil || got != int32(385+10*i) {
				t.Fatalf("key %d: got %d, %v", i, got, err)
			}
		}
	}
	if s := cache.Snapshot(); s.Evictions != keys-capacity {
		t.Fatalf("evictions = %d, want %d", s.Evictions, keys-capacity)
	}
	cachetest.Ledger(t, cache, m.Core(), base)

	lifecycle := []trace.Kind{
		trace.KindCompile, trace.KindRegalloc, trace.KindEmit,
		trace.KindVerify, trace.KindInstall, trace.KindCall, trace.KindEvict,
	}
	// lanes maps an ID (a flow, a Chrome-trace tid) to the span names seen
	// under it.
	type lanes map[uint64]map[string]bool
	add := func(l lanes, id uint64, name string) {
		if l[id] == nil {
			l[id] = make(map[string]bool)
		}
		l[id][name] = true
	}
	anyComplete := func(l lanes) bool {
	next:
		for _, have := range l {
			for _, k := range lifecycle {
				if !have[k.String()] {
					continue next
				}
			}
			return true
		}
		return false
	}

	flows := make(lanes)
	for _, s := range trace.Spans() {
		if s.Flow != 0 {
			add(flows, s.Flow, s.Kind.String())
		}
	}
	if !anyComplete(flows) {
		t.Errorf("no flow of %d in the span ring carries the full lifecycle %v", len(flows), lifecycle)
	}

	var buf bytes.Buffer
	if err := trace.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var parsed struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
			Tid  uint64 `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &parsed); err != nil {
		t.Fatalf("Chrome trace JSON does not parse: %v", err)
	}
	chrome := make(lanes)
	for _, ev := range parsed.TraceEvents {
		if ev.Ph == "X" {
			add(chrome, ev.Tid, ev.Name)
		}
	}
	if !anyComplete(chrome) {
		t.Errorf("no lane of %d in the Chrome trace carries the full lifecycle", len(chrome))
	}

	for _, name := range []string{"codegen.mips.emit_ns", "machine.mips.call_ns"} {
		if telemetry.Default.Histogram(name, nil).Count() == 0 {
			t.Errorf("default registry: histogram %s is empty", name)
		}
	}
	if hits, _ := telemetry.Default.Snapshot()["codecache.lifecycle.hits"].(float64); hits == 0 {
		t.Errorf("default registry: codecache.lifecycle.hits = %v, want > 0", hits)
	}
}
