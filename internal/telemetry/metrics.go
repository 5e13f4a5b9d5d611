// Package telemetry is the observability layer for the code-generation
// pipeline: a lock-light metrics registry (atomic counters, gauges and
// bounded histograms), the per-backend instrument bundle for the
// v_lambda → emit → v_end → verify → install → call/evict lifecycle, and
// HTTP/JSON/expvar exporters.  (The lifecycle's events are internal/trace.)
//
// The whole package sits behind one global switch (SetEnabled); with it
// off, instrumented hot paths pay a single atomic load and allocate
// nothing, which keeps the paper's headline metric — host nanoseconds per
// generated instruction — honest even in instrumented builds.
package telemetry

import (
	"math"
	"sync/atomic"
)

// enabled is the global gate.  Instrumented call sites check Enabled()
// before touching clocks or metrics, so a disabled build's only cost is
// this one atomic load.
var enabled atomic.Bool

// Enabled reports whether telemetry collection is on.
func Enabled() bool { return enabled.Load() }

// SetEnabled turns telemetry collection on or off (default off).
func SetEnabled(on bool) { enabled.Store(on) }

// Counter is a monotonically increasing atomic counter.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Load returns the current value.
func (c *Counter) Load() uint64 { return c.v.Load() }

// Gauge is an atomic instantaneous value.
type Gauge struct{ v atomic.Int64 }

// Set stores v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adds n (which may be negative).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Load returns the current value.
func (g *Gauge) Load() int64 { return g.v.Load() }

// Histogram is a bounded histogram over uint64 observations (typically
// nanoseconds): a fixed set of upper bounds plus an overflow bucket, all
// updated with atomics.  Memory use is fixed at construction; Observe
// never allocates.
type Histogram struct {
	bounds []uint64 // sorted ascending upper bounds (inclusive)
	counts []atomic.Uint64
	sum    atomic.Uint64
	count  atomic.Uint64
	// min is seeded with MaxUint64 so the first Observe always wins the
	// CAS; it is only meaningful while count > 0.
	min atomic.Uint64
	max atomic.Uint64
}

// NewHistogram builds a histogram with the given inclusive upper bounds;
// observations above the last bound land in an implicit overflow bucket.
// Bounds must be ascending; nil selects DefTimeBounds.
func NewHistogram(bounds []uint64) *Histogram {
	if bounds == nil {
		bounds = DefTimeBounds
	}
	b := append([]uint64(nil), bounds...)
	for i := 1; i < len(b); i++ {
		if b[i] <= b[i-1] {
			panic("telemetry: histogram bounds must be strictly ascending")
		}
	}
	h := &Histogram{bounds: b, counts: make([]atomic.Uint64, len(b)+1)}
	h.min.Store(^uint64(0))
	return h
}

// DefTimeBounds is the default nanosecond bucket layout: roughly
// quarter-decade steps from 250ns to 1s, sized for codegen phase timings.
var DefTimeBounds = []uint64{
	250, 1e3, 4e3, 16e3, 64e3, 256e3, // 250ns .. 256µs
	1e6, 4e6, 16e6, 64e6, 256e6, 1e9, // 1ms .. 1s
}

// Observe records one value.
func (h *Histogram) Observe(v uint64) {
	// Linear scan instead of sort.Search: bucket layouts are a dozen
	// entries and Observe sits on the per-call hot path, where the
	// closure-calling binary search costs more than it saves.
	b := h.bounds
	i := 0
	for i < len(b) && b[i] < v {
		i++
	}
	h.counts[i].Add(1)
	h.sum.Add(v)
	h.count.Add(1)
	for {
		cur := h.min.Load()
		if v >= cur || h.min.CompareAndSwap(cur, v) {
			break
		}
	}
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			break
		}
	}
}

// Bucket is one histogram bucket in a snapshot: the cumulative count of
// observations at or below UpperBound (math.MaxUint64 marks the overflow
// bucket, rendered as "+Inf").
type Bucket struct {
	UpperBound uint64 `json:"le"`
	Count      uint64 `json:"count"`
}

// HistogramSnapshot is a point-in-time copy of a histogram.
type HistogramSnapshot struct {
	Count   uint64   `json:"count"`
	Sum     uint64   `json:"sum"`
	Mean    float64  `json:"mean"`
	Buckets []Bucket `json:"buckets"`
}

// Snapshot copies the histogram's current state (cumulative bucket
// counts, Prometheus-style).
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Count:   h.count.Load(),
		Sum:     h.sum.Load(),
		Buckets: make([]Bucket, len(h.counts)),
	}
	var cum uint64
	for i := range h.counts {
		cum += h.counts[i].Load()
		ub := uint64(1<<64 - 1)
		if i < len(h.bounds) {
			ub = h.bounds[i]
		}
		s.Buckets[i] = Bucket{UpperBound: ub, Count: cum}
	}
	if s.Count > 0 {
		s.Mean = float64(s.Sum) / float64(s.Count)
	}
	return s
}

// Summary is the compact five-number reduction of a histogram, sized for
// bounded machine-readable records (the diagnostic bundle's
// metrics_summary.json) and one-line human renderings (the trace timeline).  P50/P99 are estimated
// from the bucket layout: the reported value is the upper bound of the
// bucket the quantile falls in, clamped to the observed [Min, Max].
type Summary struct {
	Count uint64  `json:"count"`
	Sum   uint64  `json:"sum"`
	Mean  float64 `json:"mean"`
	Min   uint64  `json:"min"`
	Max   uint64  `json:"max"`
	P50   uint64  `json:"p50"`
	P99   uint64  `json:"p99"`
}

// Summary reduces the histogram's current state.  An empty histogram
// summarizes to all zeros.
func (h *Histogram) Summary() Summary {
	s := Summary{Count: h.count.Load(), Sum: h.sum.Load()}
	if s.Count == 0 {
		return s
	}
	s.Mean = float64(s.Sum) / float64(s.Count)
	s.Min = h.min.Load()
	s.Max = h.max.Load()
	counts := make([]uint64, len(h.counts))
	for i := range h.counts {
		counts[i] = h.counts[i].Load()
	}
	s.P50 = h.quantile(counts, 0.50, s)
	s.P99 = h.quantile(counts, 0.99, s)
	return s
}

// quantile returns the bucket-resolution estimate for q in (0,1] over the
// bucket counts loaded once by Summary.
func (h *Histogram) quantile(counts []uint64, q float64, s Summary) uint64 {
	v := s.Max // overflow bucket: all we know is "above the last bound"
	if i := NearestRank(counts, q); i < len(h.bounds) && h.bounds[i] < v {
		v = h.bounds[i]
	}
	return max(v, s.Min)
}

// NearestRank returns the index of the bucket holding the ⌈q·n⌉-th
// smallest of the n observations counted per bucket in counts (at least
// the first): the nearest-rank q-quantile, which every p99 in the tree
// reads, so one slow request in a hundred shows.
func NearestRank(counts []uint64, q float64) int {
	var n uint64
	for _, c := range counts {
		n += c
	}
	rank := max(uint64(math.Ceil(q*float64(n))), 1)
	var cum uint64
	for i, c := range counts {
		if cum += c; cum >= rank {
			return i
		}
	}
	return len(counts) - 1
}

// Count returns the number of observations so far.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observations.
func (h *Histogram) Sum() uint64 { return h.sum.Load() }
