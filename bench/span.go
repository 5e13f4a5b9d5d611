package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// Layers name the modules a span's time is charged to.  They follow the
// repository's packages, not the workloads: internal/core (Asm, Machine),
// the three backend encoders, the front ends (jit, tinyc, vasm), the
// install path (verify + predecode inside Machine.Install), the execution
// engines, internal/server, and the HTTP stack between client and handler.
// "bench" is the harness's own glue (argument set-up, result checks).
const (
	layerBench   = "bench"
	layerCore    = "core"
	layerBackend = "backend"
	layerFront   = "frontend"
	layerInstall = "install"
	layerExec    = "exec"
	layerServer  = "server"
	layerHTTP    = "http"
)

var allLayers = []string{layerBench, layerCore, layerBackend, layerFront, layerInstall, layerExec, layerServer, layerHTTP}

// span is one benchmark-owned interval around a call into a layer's public
// functions.  Times are nanoseconds since the tracer's base.
type span struct {
	name, layer string
	start, end  int64
	parent      int32 // index in the same slice buffer, -1 for a root
	tid         int32 // display lane: inherited from the parent
	op          uint64
}

// spanID names a span for end(): the buffer generation guards against a
// late end() from a handler goroutine landing in the next slice's buffer.
type spanID struct {
	gen uint32
	idx int32
}

var noSpan = spanID{idx: -1}

// spanAgg accumulates one span name's totals over a slice.
type spanAgg struct {
	layer       string
	count       int
	total, self int64
}

// tracer records spans in memory.  A nil *tracer is the untraced pass:
// begin and end are then a single nil check.
type tracer struct {
	mu    sync.Mutex
	base  time.Time
	gen   uint32
	spans []span
	// kept holds the spans retained for trace.json: the first keepMax of
	// the pass, so the file stays openable while every span still feeds
	// the per-slice aggregates.
	kept    []span
	keepMax int
}

func newTracer(keepMax int) *tracer {
	return &tracer{base: time.Now(), spans: make([]span, 0, 1<<16), keepMax: keepMax}
}

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

// begin opens a span.  parent is noSpan for a root, whose display lane is
// tid; children inherit their parent's lane.
func (t *tracer) begin(name, layer string, parent spanID, tid int, op uint64) spanID {
	if t == nil {
		return noSpan
	}
	t.mu.Lock()
	p := int32(-1)
	lane := int32(tid)
	if parent.idx >= 0 && parent.gen == t.gen && int(parent.idx) < len(t.spans) {
		p = parent.idx
		lane = t.spans[p].tid
	}
	id := spanID{gen: t.gen, idx: int32(len(t.spans))}
	t.spans = append(t.spans, span{name: name, layer: layer, start: t.now(), parent: p, tid: lane, op: op})
	t.mu.Unlock()
	return id
}

func (t *tracer) end(id spanID) {
	if t == nil || id.idx < 0 {
		return
	}
	t.mu.Lock()
	if id.gen == t.gen && int(id.idx) < len(t.spans) {
		t.spans[id.idx].end = t.now()
	}
	t.mu.Unlock()
}

// record adds a finished span whose interval was measured elsewhere (the
// server's own wall_ns for the call it ran), placed to end where its
// parent ends.
func (t *tracer) record(name, layer string, parent spanID, dur int64, op uint64) {
	if t == nil || parent.idx < 0 {
		return
	}
	t.mu.Lock()
	if parent.gen == t.gen && int(parent.idx) < len(t.spans) {
		p := t.spans[parent.idx]
		end := p.end
		if end == 0 {
			end = t.now()
		}
		start := end - dur
		if start < p.start {
			start = p.start
		}
		t.spans = append(t.spans, span{name: name, layer: layer, start: start, end: end, parent: parent.idx, tid: p.tid, op: op})
	}
	t.mu.Unlock()
}

// endSlice closes the current buffer: it computes every span's self time,
// folds the spans into per-name aggregates, retains a bounded prefix for
// trace.json, and starts a fresh generation.
func (t *tracer) endSlice() map[string]*spanAgg {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	now := t.now()
	for i := range t.spans {
		if t.spans[i].end == 0 {
			t.spans[i].end = now
		}
	}
	self := selfTimes(t.spans)
	agg := make(map[string]*spanAgg)
	for i, s := range t.spans {
		a := agg[s.name]
		if a == nil {
			a = &spanAgg{layer: s.layer}
			agg[s.name] = a
		}
		a.count++
		a.total += s.end - s.start
		a.self += self[i]
	}
	if room := t.keepMax - len(t.kept); room > 0 {
		n := len(t.spans)
		if n > room {
			n = room
		}
		// Parents precede their children in the buffer, so a retained
		// prefix keeps every retained span's parent; re-base the index.
		base := int32(len(t.kept))
		for _, s := range t.spans[:n] {
			if s.parent >= 0 {
				s.parent += base
			}
			t.kept = append(t.kept, s)
		}
	}
	t.spans = t.spans[:0]
	t.gen++
	return agg
}

// selfTimes returns, per span, its duration minus the part of its interval
// that its child spans cover.  Children may nest, overlap each other
// (concurrent children of one parent) or stick out past the parent; the
// covered part is the union of the children's intervals clipped to the
// parent's.
func selfTimes(spans []span) []int64 {
	// Child lists in one flat array (offsets by parent), so a slice of a
	// hundred thousand call spans costs two passes and no map.
	off := make([]int32, len(spans)+1)
	for _, s := range spans {
		if s.parent >= 0 {
			off[s.parent+1]++
		}
	}
	for i := 1; i < len(off); i++ {
		off[i] += off[i-1]
	}
	kidsFlat := make([]int32, off[len(spans)])
	fill := append([]int32(nil), off[:len(spans)]...)
	for i, s := range spans {
		if s.parent >= 0 {
			kidsFlat[fill[s.parent]] = int32(i)
			fill[s.parent]++
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		kids := kidsFlat[off[i]:off[i+1]]
		if len(kids) > 1 {
			byStart := func(a, b int) bool { return spans[kids[a]].start < spans[kids[b]].start }
			if !sort.SliceIsSorted(kids, byStart) {
				sort.Slice(kids, byStart)
			}
		}
		var covered int64
		edge := s.start
		for _, k := range kids {
			cs, ce := spans[k].start, spans[k].end
			if cs < edge {
				cs = edge
			}
			if ce > s.end {
				ce = s.end
			}
			if ce > cs {
				covered += ce - cs
				edge = ce
			}
		}
		self[i] = s.end - s.start - covered
	}
	return self
}

// layerShares folds per-name aggregates into each layer's share of the
// blocking time: the layer's summed self time over the summed duration of
// the root spans (whose self time is the harness's own glue).
func layerShares(aggs []map[string]*spanAgg) map[string]float64 {
	byLayer := make(map[string]int64)
	var all int64
	for _, agg := range aggs {
		for _, a := range agg {
			byLayer[a.layer] += a.self
			all += a.self
		}
	}
	out := make(map[string]float64)
	if all == 0 {
		return out
	}
	for l, v := range byLayer {
		out[l] = float64(v) / float64(all)
	}
	return out
}

// chromeEvent is one Chrome trace-event ("X" = complete event).
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// traceFile collects the retained spans of every traced pass; one process
// (pid) per workload.
type traceFile struct {
	events []chromeEvent
}

func (f *traceFile) add(pid int, workload string, t *tracer) {
	if t == nil {
		return
	}
	f.events = append(f.events, chromeEvent{Name: "process_name", Ph: "M", Pid: pid, Args: map[string]any{"name": workload}})
	for i, s := range t.kept {
		f.events = append(f.events, chromeEvent{
			Name: s.name, Cat: s.layer, Ph: "X",
			Ts: float64(s.start) / 1e3, Dur: float64(s.end-s.start) / 1e3,
			Pid: pid, Tid: int(s.tid),
			Args: map[string]any{"op": s.op, "parent": s.parent, "id": i},
		})
	}
}

func (f *traceFile) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(map[string]any{"traceEvents": f.events, "displayTimeUnit": "ns"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
