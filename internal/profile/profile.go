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
	"sync"

	"repro/internal/core"
	"repro/internal/telemetry"
)

// DefaultStride is the sampling period in retired instructions.  At
// typical generated-code block sizes it keeps sampling overhead around a
// percent while still attributing hot loops within a few hundred calls.
const DefaultStride = 64

// Profiler accumulates PC samples.  Samples are symbolized eagerly (the
// machine's address map is lock-free), so functions evicted between
// sampling and reporting keep their attribution.  A profiler may be
// attached to several machines; each attachment carries its own
// symbolizer.  Safe for concurrent use.
type Profiler struct {
	stride uint64
	maxPCs int

	mu       sync.Mutex
	samples  map[uint64]*pcBucket
	total    uint64
	dropped  uint64
	machines []*core.Machine
	hot      *HotCounts
}

type pcBucket struct {
	name  string
	count uint64
}

// New returns a profiler sampling every stride retired instructions
// (0 selects DefaultStride).  Distinct-PC tracking is bounded (65536
// addresses); overflow samples are counted but not attributed.
func New(stride uint64) *Profiler {
	if stride == 0 {
		stride = DefaultStride
	}
	return &Profiler{
		stride:  stride,
		maxPCs:  1 << 16,
		samples: make(map[uint64]*pcBucket),
	}
}

// Stride returns the sampling period in retired instructions.
func (p *Profiler) Stride() uint64 { return p.stride }

// SetHotCounts links an invocation-count table (e.g. the adaptive JIT's)
// so reports can show calls alongside samples.
func (p *Profiler) SetHotCounts(h *HotCounts) {
	p.mu.Lock()
	p.hot = h
	p.mu.Unlock()
}

// Attach hooks the profiler onto m's simulator.  It fails if the CPU does
// not support sampling.  Attach may be called for several machines; the
// per-machine symbolizer is captured here, at attach time.
func (p *Profiler) Attach(m *core.Machine) error {
	resolve, inCode := m.SymbolizePC, m.InCodeRegion
	if err := m.SetSampler(func(pc uint64) { p.record(resolve, inCode, pc) }, p.stride); err != nil {
		return err
	}
	p.mu.Lock()
	p.machines = append(p.machines, m)
	p.mu.Unlock()
	return nil
}

// Detach removes the profiler's hook from m.
func (p *Profiler) Detach(m *core.Machine) {
	_ = m.SetSampler(nil, 0)
	p.mu.Lock()
	for i, mm := range p.machines {
		if mm == m {
			p.machines = append(p.machines[:i], p.machines[i+1:]...)
			break
		}
	}
	p.mu.Unlock()
}

// record is the sampling hook: it runs inside the simulator's step loop,
// so it symbolizes through the machine's lock-free address map and then
// takes only the profiler's own lock.  Samples that no longer resolve —
// the containing function was just evicted — keep their previous
// attribution if the PC was seen before, and otherwise count under
// "[evicted]" (PC inside the code arena) or "[unknown]"; they are never
// silently dropped.
func (p *Profiler) record(resolve func(uint64) (string, bool), inCode func(uint64) bool, pc uint64) {
	name, ok := resolve(pc)
	p.mu.Lock()
	p.total++
	if b, seen := p.samples[pc]; seen {
		b.count++
		if ok {
			b.name = name // re-resolve: the address may have been reused
		}
	} else if len(p.samples) < p.maxPCs {
		if !ok {
			name = "[unknown]"
			if inCode != nil && inCode(pc) {
				name = "[evicted]"
			}
		}
		p.samples[pc] = &pcBucket{name: name, count: 1}
	} else {
		p.dropped++
	}
	p.mu.Unlock()
}

// PCCounts snapshots the raw per-PC sample counts (the annotated-
// disassembly renderer joins them against function word addresses).
func (p *Profiler) PCCounts() map[uint64]uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make(map[uint64]uint64, len(p.samples))
	for pc, b := range p.samples {
		out[pc] = b.count
	}
	return out
}

// TotalSamples returns the number of samples recorded so far.
func (p *Profiler) TotalSamples() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.total
}

// Reset discards all accumulated samples.
func (p *Profiler) Reset() {
	p.mu.Lock()
	p.samples = make(map[uint64]*pcBucket)
	p.total, p.dropped = 0, 0
	p.mu.Unlock()
}

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
	p.mu.Lock()
	pcs := make([]PCSample, 0, len(p.samples))
	byFunc := make(map[string]uint64)
	for pc, b := range p.samples {
		pcs = append(pcs, PCSample{PC: pc, Name: b.name, Count: b.count})
		byFunc[b.name] += b.count
	}
	rep := Report{TotalSamples: p.total, DroppedPCs: p.dropped, Stride: p.stride}
	hot := p.hot
	machines := append([]*core.Machine(nil), p.machines...)
	p.mu.Unlock()

	// Function base addresses (for PC offsets) from the live address maps.
	base := make(map[string]uint64)
	for _, m := range machines {
		for _, s := range m.FuncSpans() {
			if _, ok := base[s.Name]; !ok {
				base[s.Name] = s.Start
			}
		}
	}

	total := float64(rep.TotalSamples)
	for name, n := range byFunc {
		fs := FuncSample{Name: name, Count: n}
		if total > 0 {
			fs.Pct = 100 * float64(n) / total
		}
		if hot != nil {
			fs.Calls = hot.GetByName(name)
		}
		rep.Funcs = append(rep.Funcs, fs)
	}
	sort.Slice(rep.Funcs, func(i, j int) bool {
		if rep.Funcs[i].Count != rep.Funcs[j].Count {
			return rep.Funcs[i].Count > rep.Funcs[j].Count
		}
		return rep.Funcs[i].Name < rep.Funcs[j].Name
	})

	sort.Slice(pcs, func(i, j int) bool {
		if pcs[i].Count != pcs[j].Count {
			return pcs[i].Count > pcs[j].Count
		}
		return pcs[i].PC < pcs[j].PC
	})
	if len(pcs) > topPCs {
		pcs = pcs[:topPCs]
	}
	for i := range pcs {
		if total > 0 {
			pcs[i].Pct = 100 * float64(pcs[i].Count) / total
		}
		if b, ok := base[pcs[i].Name]; ok && pcs[i].PC >= b {
			pcs[i].Offset = pcs[i].PC - b
		}
	}
	rep.TopPCs = pcs
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
	prefix := "profile." + name + "."
	reg.GaugeFunc(prefix+"samples", func() float64 { return float64(p.TotalSamples()) })
	reg.GaugeFunc(prefix+"stride", func() float64 { return float64(p.stride) })
	reg.GaugeFunc(prefix+"distinct_pcs", func() float64 {
		p.mu.Lock()
		defer p.mu.Unlock()
		return float64(len(p.samples))
	})
}
