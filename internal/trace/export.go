package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"time"

	"repro/internal/telemetry"
)

// chromeEvent is one Chrome trace-event record.  Complete events
// (ph "X") carry a start and duration in microseconds; metadata events
// (ph "M") name processes and threads.  Perfetto and chrome://tracing
// both load this shape.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  uint64         `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// WriteChromeTrace exports the current span ring as Chrome trace-event
// JSON.  Each lifecycle flow becomes one named track (tid = flow), so a
// generated function's compile → … → evict chain reads as a single lane
// in Perfetto.
func WriteChromeTrace(w io.Writer) error {
	spans := Spans()
	evs := make([]chromeEvent, 0, len(spans)+16)
	evs = append(evs, chromeEvent{
		Name: "process_name", Ph: "M", Pid: 1,
		Args: map[string]any{"name": "vcode codegen"},
	})
	// Name each flow's track after its function; the first span carrying
	// a non-empty name wins (all spans of a flow describe one function).
	flowName := map[uint64]string{}
	for _, s := range spans {
		if s.Flow != 0 && s.Name != "" {
			if _, ok := flowName[s.Flow]; !ok {
				flowName[s.Flow] = s.Name + " [" + s.Backend + "]"
			}
		}
	}
	flows := make([]uint64, 0, len(flowName))
	for f := range flowName {
		flows = append(flows, f)
	}
	sort.Slice(flows, func(i, j int) bool { return flows[i] < flows[j] })
	for _, f := range flows {
		evs = append(evs, chromeEvent{
			Name: "thread_name", Ph: "M", Pid: 1, Tid: f,
			Args: map[string]any{"name": flowName[f]},
		})
	}
	for _, s := range spans {
		args := map[string]any{"func": s.Name, "seq": s.Seq}
		if s.Attrs.Bytes != 0 {
			args["bytes"] = s.Attrs.Bytes
		}
		if s.Attrs.N != 0 {
			args["n"] = s.Attrs.N
		}
		if s.Attrs.Fuel != 0 {
			args["fuel"] = s.Attrs.Fuel
		}
		if s.Attrs.Verdict != "" {
			args["verdict"] = s.Attrs.Verdict
		}
		if s.Attrs.Err != "" {
			args["err"] = s.Attrs.Err
		}
		if s.ReqID != "" {
			args["request_id"] = s.ReqID
		}
		dur := float64(s.Dur) / 1e3
		if dur <= 0 {
			// Zero-width slices render invisibly; give instantaneous
			// spans a sliver so every lifecycle phase stays clickable.
			dur = 0.001
		}
		evs = append(evs, chromeEvent{
			Name: s.Kind.String(),
			Cat:  s.Backend,
			Ph:   "X",
			Ts:   float64(s.Start) / 1e3,
			Dur:  dur,
			Pid:  1,
			Tid:  s.Flow,
			Args: args,
		})
	}
	enc := json.NewEncoder(w)
	return enc.Encode(chromeTrace{TraceEvents: evs, DisplayTimeUnit: "ms"})
}

// flowLine aggregates one lifecycle for the text timeline.
type flowLine struct {
	flow     uint64
	backend  string
	name     string
	start    int64
	count    [numKinds]int
	total    [numKinds]int64 // ns
	bytes    int64
	insns    int64
	verdicts []string
}

// WriteTimeline renders the ring as a compact text timeline: one line per
// lifecycle flow, phases in order with durations and attributes, calls
// aggregated, a request's outcome on its entry function's line.  When reg
// is non-nil a header of per-phase histogram summaries (the *_ns
// instruments) precedes the flows.
func WriteTimeline(w io.Writer, reg *telemetry.Registry) {
	spans := Spans()
	fmt.Fprintf(w, "trace: %d record(s) retained (ring capacity %d)\n", len(spans), ringCap)
	if reg != nil {
		var hdr []string
		reg.EachHistogram(func(name string, h *telemetry.Histogram) {
			if !strings.HasSuffix(name, "_ns") {
				return
			}
			s := h.Summary()
			if s.Count == 0 {
				return
			}
			hdr = append(hdr, fmt.Sprintf("  %-28s n=%-8d p50=%-10v p99=%-10v max=%v",
				name, s.Count, fmtNS(int64(s.P50)), fmtNS(int64(s.P99)), fmtNS(int64(s.Max))))
		})
		if len(hdr) > 0 {
			fmt.Fprintln(w, "phase summaries:")
			for _, l := range hdr {
				fmt.Fprintln(w, l)
			}
		}
	}
	byFlow := map[uint64]*flowLine{}
	order := []uint64{}
	for _, s := range spans {
		if s.Flow == 0 && s.ReqID != "" {
			continue // a request stage before its function is known: no lifecycle to join
		}
		fl, ok := byFlow[s.Flow]
		if !ok {
			fl = &flowLine{flow: s.Flow, backend: s.Backend, name: s.Name, start: s.Start}
			byFlow[s.Flow] = fl
			order = append(order, s.Flow)
		}
		fl.count[s.Kind]++
		fl.total[s.Kind] += s.Dur
		if s.Kind == KindInstall || s.Kind == KindEmit {
			fl.bytes = max(fl.bytes, s.Attrs.Bytes)
		}
		if s.Kind == KindCall {
			fl.insns += s.Attrs.N
		}
		if s.Attrs.Verdict != "" {
			fl.verdicts = append(fl.verdicts, s.Attrs.Verdict)
		}
	}
	sort.Slice(order, func(i, j int) bool { return byFlow[order[i]].start < byFlow[order[j]].start })
	for _, f := range order {
		fl := byFlow[f]
		var b strings.Builder
		if fl.flow == 0 {
			fmt.Fprintf(&b, "(no flow)            ")
		} else {
			fmt.Fprintf(&b, "flow %-4d %-10s ", fl.flow, fl.name+" ["+fl.backend+"]")
		}
		for k := 0; k < numKinds; k++ {
			if fl.count[k] == 0 {
				continue
			}
			if fl.count[k] == 1 {
				fmt.Fprintf(&b, " %s=%v", Kind(k), fmtNS(fl.total[k]))
			} else {
				fmt.Fprintf(&b, " %s×%d=%v", Kind(k), fl.count[k], fmtNS(fl.total[k]))
			}
		}
		if fl.bytes > 0 {
			fmt.Fprintf(&b, " bytes=%d", fl.bytes)
		}
		if fl.insns > 0 {
			fmt.Fprintf(&b, " sim_insns=%d", fl.insns)
		}
		if len(fl.verdicts) > 0 {
			fmt.Fprintf(&b, " verdicts=%s", strings.Join(fl.verdicts, ","))
		}
		fmt.Fprintln(w, b.String())
	}
}

// fmtNS renders a nanosecond count with a human unit.
func fmtNS(ns int64) string {
	return time.Duration(ns).Round(100 * time.Nanosecond).String()
}

// RegisterHTTP mounts the trace exporters on mux:
//
//	/trace      Chrome trace-event JSON (load in Perfetto / chrome://tracing)
//	/trace.txt  compact text timeline (with reg's phase summaries if non-nil)
//
// Pair it with telemetry.NewMux to serve metrics and traces together.
func RegisterHTTP(mux *http.ServeMux, reg *telemetry.Registry) {
	mux.HandleFunc("/trace", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = WriteChromeTrace(w)
	})
	mux.HandleFunc("/trace.txt", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		WriteTimeline(w, reg)
	})
}
