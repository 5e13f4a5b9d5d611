package telemetry

import (
	"encoding/json"
	"math"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

func TestCounterGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c")
	c.Inc()
	c.Add(4)
	if got := c.Load(); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
	if r.Counter("c") != c {
		t.Error("Counter not idempotent: second lookup returned a new instrument")
	}
	g := r.Gauge("g")
	g.Set(7)
	g.Add(-2)
	if got := g.Load(); got != 5 {
		t.Errorf("gauge = %v, want 5", got)
	}
}

func TestHistogramBounds(t *testing.T) {
	h := NewHistogram([]uint64{10, 100, 1000})
	// One observation per region: bucket 0, 1, 2 and overflow.
	for _, v := range []uint64{10, 11, 100, 101, 1000, 1001, 5000} {
		h.Observe(v)
	}
	s := h.Snapshot()
	if s.Count != 7 {
		t.Fatalf("count = %d, want 7", s.Count)
	}
	// Cumulative, prom-style: le=10 -> 1, le=100 -> 3, le=1000 -> 5, +Inf -> 7.
	want := []uint64{1, 3, 5, 7}
	if len(s.Buckets) != len(want) {
		t.Fatalf("buckets = %d, want %d", len(s.Buckets), len(want))
	}
	for i, b := range s.Buckets {
		if b.Count != want[i] {
			t.Errorf("bucket[%d] (le=%d) = %d, want %d", i, b.UpperBound, b.Count, want[i])
		}
	}
	if s.Buckets[len(s.Buckets)-1].UpperBound != math.MaxUint64 {
		t.Error("last bucket must be +Inf")
	}
	if wantSum := uint64(10 + 11 + 100 + 101 + 1000 + 1001 + 5000); s.Sum != wantSum {
		t.Errorf("sum = %d, want %d", s.Sum, wantSum)
	}
}

func TestHistogramBadBounds(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewHistogram accepted non-ascending bounds")
		}
	}()
	NewHistogram([]uint64{10, 10})
}

func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				r.Counter("shared").Inc()
				r.Gauge("g").Add(1)
				r.Histogram("h", nil).Observe(uint64(i))
				if i%100 == 0 {
					_ = r.TextString()
					r.Snapshot()
				}
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("shared").Load(); got != 8000 {
		t.Errorf("shared counter = %d, want 8000", got)
	}
}

// TestDisabledPathAllocFree pins the disabled-telemetry contract: the emit
// hot path pays one atomic load (the Enabled gate) and zero allocations.
func TestDisabledPathAllocFree(t *testing.T) {
	SetEnabled(false)
	defer SetEnabled(false)
	allocs := testing.AllocsPerRun(1000, func() {
		// The exact gate core.Asm uses around its emit instrumentation.
		if Enabled() {
			t.Fatal("telemetry unexpectedly enabled")
		}
	})
	if allocs != 0 {
		t.Errorf("disabled gate allocates %.1f per run, want 0", allocs)
	}
}

// TestEnabledOpsAllocFree verifies the instruments themselves stay off the
// heap once created: Inc/Add/Observe must never allocate.
func TestEnabledOpsAllocFree(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c")
	g := r.Gauge("g")
	h := r.Histogram("h", nil)
	allocs := testing.AllocsPerRun(1000, func() {
		c.Inc()
		g.Set(35)
		h.Observe(12345)
	})
	if allocs != 0 {
		t.Errorf("instrument ops allocate %.1f per run, want 0", allocs)
	}
}

func TestWriteTextAndJSON(t *testing.T) {
	r := NewRegistry()
	r.Counter("codegen.mips.funcs").Add(3)
	r.Gauge("cache.entries").Set(16)
	r.GaugeFunc("derived.rate", func() float64 { return 42.5 })
	r.Histogram("emit.ns", []uint64{100, 200}).Observe(150)

	text := r.TextString()
	for _, want := range []string{
		"# TYPE codegen_mips_funcs counter",
		"codegen_mips_funcs 3",
		"cache_entries 16",
		"derived_rate 42.5",
		`emit_ns_bucket{le="200"} 1`,
		`emit_ns_bucket{le="+Inf"} 1`,
		"emit_ns_count 1",
		"emit_ns_min 150",
		"emit_ns_max 150",
		"emit_ns_p50 150",
		"emit_ns_p99 150",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("text output missing %q:\n%s", want, text)
		}
	}

	var sb strings.Builder
	if err := r.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal([]byte(sb.String()), &m); err != nil {
		t.Fatalf("WriteJSON produced invalid JSON: %v", err)
	}
	if m["codegen.mips.funcs"] != float64(3) {
		t.Errorf("json counter = %v, want 3", m["codegen.mips.funcs"])
	}
}

func TestHistogramSummary(t *testing.T) {
	h := NewHistogram([]uint64{10, 100, 1000})
	if s := h.Summary(); s != (Summary{}) {
		t.Fatalf("empty summary = %+v, want zeros", s)
	}
	// 98 small values in the le=10 bucket, one mid, one huge.
	for i := 0; i < 98; i++ {
		h.Observe(5)
	}
	h.Observe(50)
	h.Observe(4000)
	s := h.Summary()
	if s.Count != 100 || s.Min != 5 || s.Max != 4000 {
		t.Fatalf("summary = %+v, want count=100 min=5 max=4000", s)
	}
	if wantSum := uint64(98*5 + 50 + 4000); s.Sum != wantSum || s.Mean != float64(wantSum)/100 {
		t.Fatalf("sum/mean = %d/%v, want %d/%v", s.Sum, s.Mean, wantSum, float64(wantSum)/100)
	}
	// p50 falls in the le=10 bucket; p99 in the le=100 bucket (99th of
	// 100 sorted values is the 50).  Bucket-resolution estimates report
	// the bucket upper bound.
	if s.P50 != 10 {
		t.Errorf("p50 = %d, want 10 (le=10 bucket bound)", s.P50)
	}
	if s.P99 != 100 {
		t.Errorf("p99 = %d, want 100 (le=100 bucket bound)", s.P99)
	}
	// A quantile landing in the overflow bucket reports the observed max,
	// not +Inf.
	h2 := NewHistogram([]uint64{10})
	h2.Observe(99999)
	if s2 := h2.Summary(); s2.P50 != 99999 || s2.P99 != 99999 {
		t.Errorf("overflow quantiles = p50=%d p99=%d, want observed max", s2.P50, s2.P99)
	}
	// Single observation inside a wide bucket: clamp to the observed
	// range rather than reporting a bound below min.
	h3 := NewHistogram([]uint64{1000})
	h3.Observe(700)
	if s3 := h3.Summary(); s3.P50 < 700 || s3.P99 < 700 {
		t.Errorf("clamped quantiles = %+v, want >= min", s3)
	}
}

func TestSummaryConcurrentMinMax(t *testing.T) {
	h := NewHistogram(nil)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 1; i <= 1000; i++ {
				h.Observe(uint64(g*1000 + i))
			}
		}(g)
	}
	wg.Wait()
	s := h.Summary()
	if s.Count != 8000 || s.Min != 1 || s.Max != 8000 {
		t.Fatalf("summary = %+v, want count=8000 min=1 max=8000", s)
	}
}

func TestSummarySnapshotBounded(t *testing.T) {
	r := NewRegistry()
	for i := 0; i < 20; i++ {
		r.Counter(string(rune('a' + i))).Add(uint64(i + 1))
	}
	r.Histogram("phase_ns", nil).Observe(500)
	out, elided := r.SummarySnapshot(5)
	if elided != 15 {
		t.Fatalf("elided = %d, want 15", elided)
	}
	// Histograms are always present, reduced to summaries.
	if _, ok := out["phase_ns"].(Summary); !ok {
		t.Fatalf("phase_ns = %T, want Summary", out["phase_ns"])
	}
	if len(out) != 6 { // 5 top scalars + 1 histogram
		t.Fatalf("len = %d, want 6: %v", len(out), out)
	}
	// The kept scalars are the largest values.
	for _, name := range []string{"t", "s", "r", "q", "p"} {
		if _, ok := out[name]; !ok {
			t.Errorf("top-5 missing %q", name)
		}
	}
}

func TestHTTPEndpoint(t *testing.T) {
	r := NewRegistry()
	r.Counter("hits").Inc()
	mux := NewMux(r)

	get := func(path, accept string) (int, string, string) {
		req := httptest.NewRequest("GET", path, nil)
		if accept != "" {
			req.Header.Set("Accept", accept)
		}
		w := httptest.NewRecorder()
		mux.ServeHTTP(w, req)
		return w.Code, w.Header().Get("Content-Type"), w.Body.String()
	}

	code, ct, body := get("/metrics", "")
	if code != 200 || !strings.Contains(body, "hits 1") {
		t.Errorf("/metrics: code %d, body %q", code, body)
	}
	if !strings.Contains(ct, "text/plain") {
		t.Errorf("/metrics content-type = %q", ct)
	}
	code, ct, body = get("/metrics.json", "")
	if code != 200 || !strings.Contains(ct, "application/json") {
		t.Errorf("/metrics.json: code %d, content-type %q", code, ct)
	}
	var m map[string]any
	if err := json.Unmarshal([]byte(body), &m); err != nil {
		t.Fatalf("/metrics.json invalid: %v", err)
	}
	code, _, body = get("/metrics?format=json", "")
	if code != 200 || !strings.HasPrefix(strings.TrimSpace(body), "{") {
		t.Errorf("/metrics?format=json: code %d, body %q", code, body)
	}
}
