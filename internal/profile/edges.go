package profile

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/core"
	"repro/internal/telemetry"
)

// DefaultEdgeStride is the branch-event sampling period.  It is prime so
// that strictly periodic sampling does not alias against loops containing
// a small, even number of conditional branches (with an even stride a
// two-branch loop body would always sample the same branch).
const DefaultEdgeStride = 13

// EdgeProfiler accumulates basic-block edge profiles: taken/not-taken
// counts per conditional-branch PC, fed by the simulators' countdown-
// gated edge probes (exec.Probes), in the same table as the
// PC-sampling Profiler.  Safe for concurrent use; may be attached to
// several machines.
type EdgeProfiler struct{ table }

// NewEdgeProfiler returns an edge profiler recording every stride
// conditional-branch resolutions (0 selects DefaultEdgeStride).
// Distinct-branch tracking is bounded (65536 PCs); overflow events are
// counted but not attributed.  A linked HotCounts (SetHotCounts) is fed
// stride — the estimated true branch-resolution count an event stands
// for — under "edge:" and the containing function's name; jit.Adaptive
// reads it to promote functions whose blocks are hot even when their call
// counts are not (one call spinning a million-iteration loop).
func NewEdgeProfiler(stride uint64) *EdgeProfiler {
	if stride == 0 {
		stride = DefaultEdgeStride
	}
	return &EdgeProfiler{newTable(stride, "edge:")}
}

// Attach hooks the profiler onto m's simulator.  It fails if the CPU does
// not support edge probing.  The per-machine symbolizer is captured here,
// at attach time.
func (e *EdgeProfiler) Attach(m *core.Machine) error {
	resolve, inCode := m.SymbolizePC, m.InCodeRegion
	return e.attach(m, m.SetEdgeProbe(func(pc uint64, taken bool) { e.record(resolve, inCode, pc, taken) }, e.stride))
}

// Detach removes the profiler's probe from m.
func (e *EdgeProfiler) Detach(m *core.Machine) {
	_ = m.SetEdgeProbe(nil, 0)
	e.detach(m)
}

// record is the edge probe.
func (e *EdgeProfiler) record(resolve func(uint64) (string, bool), inCode func(uint64) bool, pc uint64, taken bool) {
	if hot, key, name := e.add(resolve, inCode, pc, taken); hot != nil {
		hot.Add(key, name, int64(e.stride))
	}
}

// TotalEvents returns the number of probe firings recorded so far (each
// stands for stride branch resolutions).
func (e *EdgeProfiler) TotalEvents() uint64 { return e.events() }

// EdgeAt returns the recorded taken/not-taken counts for a branch PC.
func (e *EdgeProfiler) EdgeAt(pc uint64) (taken, notTaken uint64, ok bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if r, found := e.rows[pc]; found {
		return r.taken, r.n - r.taken, true
	}
	return 0, 0, false
}

// ResetSpan discards accumulated counts for branch PCs in [start, end).
// De-optimization uses it when a superblock's bias assumption flips: the
// demoted function retrains from fresh counts instead of blending the
// stale pre-flip history into the next formation decision.
func (e *EdgeProfiler) ResetSpan(start, end uint64) {
	e.mu.Lock()
	for pc := range e.rows {
		if pc >= start && pc < end {
			delete(e.rows, pc)
		}
	}
	e.mu.Unlock()
}

// EdgeSample is one branch-bias row.  Bias is the taken fraction in
// [0,1] of the recorded events for this branch.
type EdgeSample struct {
	PC       uint64  `json:"pc"`
	Name     string  `json:"name"`
	Offset   uint64  `json:"offset"` // byte offset within the function, when known
	Taken    uint64  `json:"taken"`
	NotTaken uint64  `json:"not_taken"`
	Bias     float64 `json:"bias"`
}

// EdgeReport is a symbolized snapshot of the edge profile.
type EdgeReport struct {
	Stride      uint64       `json:"stride"`
	TotalEvents uint64       `json:"total_events"`
	DroppedPCs  uint64       `json:"dropped_pcs"`
	Edges       []EdgeSample `json:"edges"` // sorted by event count desc
}

// Snapshot builds an EdgeReport listing at most topEdges rows (0 = 32;
// negative = all).
func (e *EdgeProfiler) Snapshot(topEdges int) EdgeReport {
	if topEdges == 0 {
		topEdges = 32
	}
	v := e.view()
	if topEdges > 0 {
		v.rows = v.rows[:min(topEdges, len(v.rows))]
	}
	rep := EdgeReport{Stride: e.stride, TotalEvents: v.total, DroppedPCs: v.dropped, Edges: make([]EdgeSample, 0, len(v.rows))}
	for _, s := range v.rows {
		rep.Edges = append(rep.Edges, EdgeSample{PC: s.pc, Name: s.name, Offset: s.offset,
			Taken: s.taken, NotTaken: s.n - s.taken, Bias: float64(s.taken) / float64(s.n)})
	}
	return rep
}

// Render writes the branch-bias report, hottest edges first.
func (r EdgeReport) Render(w io.Writer) {
	fmt.Fprintf(w, "edge profile: %d events, 1 per %d branch resolutions (%d PCs dropped)\n",
		r.TotalEvents, r.Stride, r.DroppedPCs)
	fmt.Fprintf(w, "  bias%%     taken  not-taken          pc  branch\n")
	for _, s := range r.Edges {
		fmt.Fprintf(w, "  %5.1f %9d  %9d  %#010x  %s+%#x\n",
			100*s.Bias, s.Taken, s.NotTaken, s.PC, s.Name, s.Offset)
	}
}

func (r EdgeReport) String() string {
	var b strings.Builder
	r.Render(&b)
	return b.String()
}

// RegisterTelemetry exports the edge profiler's aggregate state through a
// telemetry registry.
func (e *EdgeProfiler) RegisterTelemetry(reg *telemetry.Registry, name string) {
	e.register(reg, "edges."+name+".", "events", "distinct_branches")
}
