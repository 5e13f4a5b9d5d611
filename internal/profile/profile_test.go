package profile_test

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/jit"
	"repro/internal/mem"
	"repro/internal/profile"
	"repro/internal/telemetry"
)

// hotColdMachine builds a mips JIT target with a profiler attached and
// runs a skewed workload: syn1 gets ~95% of the calls, syn2 the rest.
func hotColdMachine(t *testing.T, stride uint64) (*jit.Machine, *profile.Profiler) {
	t.Helper()
	m, err := jit.NewMachineTarget("mips", mem.Uncosted)
	if err != nil {
		t.Fatal(err)
	}
	p := profile.New(stride)
	if err := p.Attach(m.Core()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Detach(m.Core()) })

	hot, err := m.Compile(jit.Synthetic(1))
	if err != nil {
		t.Fatal(err)
	}
	cold, err := m.Compile(jit.Synthetic(2))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		if _, _, err := m.Run(hot, 100); err != nil {
			t.Fatal(err)
		}
		if i%20 == 0 {
			if _, _, err := m.Run(cold, 100); err != nil {
				t.Fatal(err)
			}
		}
	}
	return m, p
}

// TestSymbolization is the acceptance bar from the issue: on a workload
// of installed functions, at least 90% of samples must attribute to a
// named function (not "[unknown]").
func TestSymbolization(t *testing.T) {
	_, p := hotColdMachine(t, 8)
	rep := p.Snapshot(10)
	if rep.TotalSamples < 100 {
		t.Fatalf("too few samples to judge attribution: %d", rep.TotalSamples)
	}
	var named uint64
	for _, f := range rep.Funcs {
		if f.Name != "" && !strings.HasPrefix(f.Name, "[unknown") {
			named += f.Count
		}
	}
	if pct := 100 * float64(named) / float64(rep.TotalSamples); pct < 90 {
		t.Errorf("only %.1f%% of %d samples symbolized, want >= 90%%\nfuncs: %+v",
			pct, rep.TotalSamples, rep.Funcs)
	}
	// The skewed workload must surface the hot function on top.
	if len(rep.Funcs) == 0 || rep.Funcs[0].Name != "syn1" {
		t.Errorf("hottest function = %+v, want syn1 on top", rep.Funcs)
	}
}

func TestReportOffsetsAndRender(t *testing.T) {
	_, p := hotColdMachine(t, 16)
	rep := p.Snapshot(5)
	if len(rep.TopPCs) == 0 {
		t.Fatal("no flat rows")
	}
	if len(rep.TopPCs) > 5 {
		t.Errorf("topPCs = %d rows, want <= 5", len(rep.TopPCs))
	}
	out := rep.String()
	for _, want := range []string{"samples", "cumulative", "syn1"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered report missing %q:\n%s", want, out)
		}
	}
}

func TestHotCountsLinked(t *testing.T) {
	m, err := jit.NewMachineTarget("mips", mem.Uncosted)
	if err != nil {
		t.Fatal(err)
	}
	ad := jit.NewAdaptive(m, 3)
	p := profile.New(8)
	if err := p.Attach(m.Core()); err != nil {
		t.Fatal(err)
	}
	defer p.Detach(m.Core())
	p.SetHotCounts(ad.Hot())

	f := jit.Synthetic(7)
	for i := 0; i < 10; i++ {
		if _, _, err := ad.Call(f, 50); err != nil {
			t.Fatal(err)
		}
	}
	rep := p.Snapshot(5)
	for _, fs := range rep.Funcs {
		if fs.Name == "syn7" {
			if fs.Calls != 10 {
				t.Errorf("syn7 calls = %d, want 10 (from shared HotCounts)", fs.Calls)
			}
			return
		}
	}
	t.Fatalf("syn7 not in report: %+v", rep.Funcs)
}

func TestHotCounts(t *testing.T) {
	h := profile.NewHotCounts()
	for i := 0; i < 5; i++ {
		h.Inc("k1", "f1")
	}
	h.Inc("k2", "f2")
	if got := h.Get("k1"); got != 5 {
		t.Errorf("Get(k1) = %d, want 5", got)
	}
	if got := h.GetByName("f1"); got != 5 {
		t.Errorf("GetByName(f1) = %d, want 5", got)
	}
	if got := h.Get("k2"); got != 1 {
		t.Errorf("Get(k2) = %d, want 1", got)
	}
}

func TestResetAndTelemetry(t *testing.T) {
	_, p := hotColdMachine(t, 8)
	if p.TotalSamples() == 0 {
		t.Fatal("no samples before reset")
	}
	reg := telemetry.NewRegistry()
	p.RegisterTelemetry(reg, "t")
	text := reg.TextString()
	for _, want := range []string{"profile_t_samples", "profile_t_stride 8"} {
		if !strings.Contains(text, want) {
			t.Errorf("telemetry export missing %q:\n%s", want, text)
		}
	}
	p.Reset()
	if got := p.TotalSamples(); got != 0 {
		t.Errorf("samples after Reset = %d, want 0", got)
	}
}

// targets are the three backends the end-to-end tests run on.
var targets = []string{"mips", "sparc", "alpha"}

// edgeMachine builds a JIT target with an edge profiler attached and runs
// a loop-heavy workload so conditional branches resolve many times.
func edgeMachine(t *testing.T, target string, stride uint64) (*jit.Machine, *profile.EdgeProfiler) {
	t.Helper()
	m, err := jit.NewMachineTarget(target, mem.Uncosted)
	if err != nil {
		t.Fatal(err)
	}
	e := profile.NewEdgeProfiler(stride)
	if err := e.Attach(m.Core()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Detach(m.Core()) })
	fn, err := m.Compile(jit.Synthetic(1))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if _, _, err := m.Run(fn, 200); err != nil {
			t.Fatal(err)
		}
	}
	return m, e
}

// TestEdgeProfileEndToEnd drives the full path: simulator edge probe →
// symbolized taken/not-taken counts → bias report.
func TestEdgeProfileEndToEnd(t *testing.T) {
	for _, target := range targets {
		t.Run(target, func(t *testing.T) { edgeProfileEndToEnd(t, target) })
	}
}

func edgeProfileEndToEnd(t *testing.T, target string) {
	_, e := edgeMachine(t, target, 3)
	rep := e.Snapshot(-1)
	if rep.TotalEvents < 100 {
		t.Fatalf("too few edge events: %d", rep.TotalEvents)
	}
	var sum uint64
	for _, s := range rep.Edges {
		sum += s.Taken + s.NotTaken
		if s.Bias < 0 || s.Bias > 1 {
			t.Errorf("bias out of range: %+v", s)
		}
	}
	// Consistency: every undropped event lands in exactly one bucket.
	if sum != rep.TotalEvents-rep.DroppedPCs {
		t.Errorf("edge counts sum to %d, want %d (total %d - dropped %d)",
			sum, rep.TotalEvents-rep.DroppedPCs, rep.TotalEvents, rep.DroppedPCs)
	}
	if len(rep.Edges) == 0 || rep.Edges[0].Name != "syn1" {
		t.Errorf("hottest edge = %+v, want syn1", rep.Edges)
	}
	// The loop's back-to-top conditional is strongly biased one way.
	var skewed bool
	for _, s := range rep.Edges {
		if s.Taken+s.NotTaken >= 20 && (s.Bias > 0.9 || s.Bias < 0.1) {
			skewed = true
		}
	}
	if !skewed {
		t.Errorf("no strongly biased loop branch in report:\n%s", rep)
	}
	out := rep.String()
	for _, want := range []string{"edge profile", "bias", "syn1"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered edge report missing %q:\n%s", want, out)
		}
	}
}

// TestEdgeDetachStops verifies the edge probe is actually removed.
func TestEdgeDetachStops(t *testing.T) {
	m, e := edgeMachine(t, "mips", 3)
	e.Detach(m.Core())
	before := e.TotalEvents()
	fn, err := m.Compile(jit.Synthetic(4))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := m.Run(fn, 100); err != nil {
		t.Fatal(err)
	}
	if got := e.TotalEvents(); got != before {
		t.Errorf("edge events grew after Detach: %d -> %d", before, got)
	}
	reg := telemetry.NewRegistry()
	e.RegisterTelemetry(reg, "t")
	if !strings.Contains(reg.TextString(), "edges_t_events") {
		t.Error("edge telemetry export missing edges_t_events")
	}
	e.Reset()
	if e.TotalEvents() != 0 {
		t.Error("events survived Reset")
	}
}

// TestAnnotate renders annotated disassembly with sample counts and
// branch-bias comments, and reports uninstalled functions instead of
// silently skipping them.
func TestAnnotate(t *testing.T) {
	for _, target := range targets {
		t.Run(target, func(t *testing.T) { annotate(t, target) })
	}
}

func annotate(t *testing.T, target string) {
	m, err := jit.NewMachineTarget(target, mem.Uncosted)
	if err != nil {
		t.Fatal(err)
	}
	p := profile.New(4)
	e := profile.NewEdgeProfiler(2)
	if err := p.Attach(m.Core()); err != nil {
		t.Fatal(err)
	}
	if err := e.Attach(m.Core()); err != nil {
		t.Fatal(err)
	}
	defer p.Detach(m.Core())
	defer e.Detach(m.Core())

	fn, err := m.Compile(jit.Synthetic(1))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		if _, _, err := m.Run(fn, 100); err != nil {
			t.Fatal(err)
		}
	}
	gone, err := m.Compile(jit.Synthetic(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := m.Run(gone, 10); err != nil {
		t.Fatal(err)
	}
	if err := m.Core().Uninstall(gone); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	profile.Annotate(&buf, m.Core().Backend(), []*core.Func{fn, gone}, p, e)
	out := buf.String()
	for _, want := range []string{"syn1 [" + target + "]", "; taken", "samples", "syn2 [" + target + "]: not installed"} {
		if !strings.Contains(out, want) {
			t.Errorf("annotated disassembly missing %q:\n%s", want, out)
		}
	}
}

// TestDetachStopsSampling verifies the sampler hook is actually removed.
func TestDetachStopsSampling(t *testing.T) {
	m, p := hotColdMachine(t, 8)
	p.Detach(m.Core())
	before := p.TotalSamples()
	fn, err := m.Compile(jit.Synthetic(3))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := m.Run(fn, 100); err != nil {
		t.Fatal(err)
	}
	if got := p.TotalSamples(); got != before {
		t.Errorf("samples grew after Detach: %d -> %d", before, got)
	}
}
