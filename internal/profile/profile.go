// Package profile is a PC-sampling profiler for dynamically generated
// code: it hooks the target simulators (via core.SamplingCPU) on a
// configurable retired-instruction stride, symbolizes each sample against
// the install-time address map core.Machine maintains, and renders flat
// (per-PC) and cumulative (per-function) reports.  It answers the question
// the Valgrind line of work poses for generated binary code — where do the
// cycles actually go? — which the adaptive JIT and later perf PRs need
// before they can act.
package profile

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/telemetry"
)

// DefaultStride is the sampling period in retired instructions.  At
// typical generated-code block sizes it keeps sampling overhead around a
// percent while still attributing hot loops within a few hundred calls.
const DefaultStride = 64

// Profiler accumulates PC samples in a table (see table for its
// symbolization and reuse rules).  A profiler may be attached to several
// machines; each attachment carries its own symbolizer.  Safe for
// concurrent use.
type Profiler struct{ table }

// New returns a profiler sampling every stride retired instructions
// (0 selects DefaultStride).  Distinct-PC tracking is bounded (65536
// addresses); overflow samples are counted but not attributed.
func New(stride uint64) *Profiler {
	if stride == 0 {
		stride = DefaultStride
	}
	return &Profiler{newTable(stride, "")}
}

// Attach hooks the profiler onto m's simulator.  It fails if the CPU does
// not support sampling.  Attach may be called for several machines; the
// per-machine symbolizer is captured here, at attach time.
func (p *Profiler) Attach(m *core.Machine) error {
	resolve, inCode := m.SymbolizePC, m.InCodeRegion
	return p.attach(m, m.SetSampler(func(pc uint64) { p.add(resolve, inCode, pc, false) }, p.stride))
}

// Detach removes the profiler's hook from m.
func (p *Profiler) Detach(m *core.Machine) {
	_ = m.SetSampler(nil, 0)
	p.detach(m)
}

// PCCounts snapshots the raw per-PC sample counts (the annotated-
// disassembly renderer joins them against function word addresses).
func (p *Profiler) PCCounts() map[uint64]uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make(map[uint64]uint64, len(p.rows))
	for pc, r := range p.rows {
		out[pc] = r.n
	}
	return out
}

// TotalSamples returns the number of samples recorded so far.
func (p *Profiler) TotalSamples() uint64 { return p.events() }

// PCSample is one flat-report row: samples attributed to a single
// program counter.
type PCSample struct {
	PC     uint64 `json:"pc"`
	Name   string `json:"name"`
	Count  uint64 `json:"count"`
	Pct    float64
	Offset uint64 `json:"offset"` // byte offset of PC within its function, when known
}

// FuncSample is one cumulative-report row: all samples landing anywhere
// in one function.
type FuncSample struct {
	Name  string  `json:"name"`
	Count uint64  `json:"count"`
	Pct   float64 `json:"pct"`
	Calls int64   `json:"calls,omitempty"` // from HotCounts, when linked
}

// Report is a symbolized snapshot of the profile.
type Report struct {
	TotalSamples uint64       `json:"total_samples"`
	DroppedPCs   uint64       `json:"dropped_pcs"`
	Stride       uint64       `json:"stride"`
	Funcs        []FuncSample `json:"funcs"` // cumulative, sorted by count desc
	TopPCs       []PCSample   `json:"top_pcs"`
}

// Snapshot builds a Report, listing at most topPCs flat rows (0 = 20).
func (p *Profiler) Snapshot(topPCs int) Report {
	if topPCs <= 0 {
		topPCs = 20
	}
	v := p.view()
	rep := Report{TotalSamples: v.total, DroppedPCs: v.dropped, Stride: p.stride, TopPCs: []PCSample{}}
	for name, n := range v.byFunc {
		fs := FuncSample{Name: name, Count: n, Pct: pct(n, v.total)}
		if v.hot != nil {
			fs.Calls = v.hot.GetByName(name)
		}
		rep.Funcs = append(rep.Funcs, fs)
	}
	sort.Slice(rep.Funcs, func(i, j int) bool {
		if rep.Funcs[i].Count != rep.Funcs[j].Count {
			return rep.Funcs[i].Count > rep.Funcs[j].Count
		}
		return rep.Funcs[i].Name < rep.Funcs[j].Name
	})
	for _, s := range v.rows[:min(topPCs, len(v.rows))] {
		rep.TopPCs = append(rep.TopPCs, PCSample{PC: s.pc, Name: s.name, Count: s.n, Pct: pct(s.n, v.total), Offset: s.offset})
	}
	return rep
}

// Render writes the report: a cumulative (per-function) section, then a
// flat (hottest-PC) section.
func (r Report) Render(w io.Writer) {
	fmt.Fprintf(w, "profile: %d samples, 1 per %d instructions (%d PCs dropped)\n",
		r.TotalSamples, r.Stride, r.DroppedPCs)
	fmt.Fprintf(w, "cumulative (per function):\n")
	for _, f := range r.Funcs {
		calls := ""
		if f.Calls > 0 {
			calls = fmt.Sprintf("  (%d calls)", f.Calls)
		}
		fmt.Fprintf(w, "  %6.2f%% %10d  %s%s\n", f.Pct, f.Count, f.Name, calls)
	}
	fmt.Fprintf(w, "flat (hottest PCs):\n")
	for _, s := range r.TopPCs {
		fmt.Fprintf(w, "  %6.2f%% %10d  %#08x  %s+%#x\n", s.Pct, s.Count, s.PC, s.Name, s.Offset)
	}
}

func (r Report) String() string {
	var b strings.Builder
	r.Render(&b)
	return b.String()
}

// RegisterTelemetry exports the profiler's aggregate state through a
// telemetry registry.
func (p *Profiler) RegisterTelemetry(reg *telemetry.Registry, name string) {
	p.register(reg, "profile."+name+".", "samples", "distinct_pcs")
}
