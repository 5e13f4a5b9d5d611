package slo

import (
	"testing"
	"time"

	"repro/internal/telemetry"
)

func newTestWatchdog(obj Objectives) (*Watchdog, *telemetry.Health) {
	h := &telemetry.Health{}
	w := New(obj, telemetry.NewRegistry(), h)
	return w, h
}

func hasReason(h *telemetry.Health, reason string) bool {
	for _, r := range h.Degraded() {
		if r == reason {
			return true
		}
	}
	return false
}

func TestLatencyBreachAndClear(t *testing.T) {
	w, h := newTestWatchdog(Objectives{P99NS: uint64(time.Millisecond), MinSamples: 10})
	g := w.Global()
	for i := 0; i < 50; i++ {
		g.Observe(uint64(10*time.Millisecond), false)
	}
	w.Evaluate(5 * time.Second)

	r := w.View().Global
	if !r.BreachedLatency {
		t.Fatalf("expected latency breach, got %+v", r)
	}
	if r.LatencyBreaches != 1 {
		t.Fatalf("latency breaches = %d, want 1", r.LatencyBreaches)
	}
	if r.BudgetBurnMS != 5000 {
		t.Fatalf("budget burn = %dms, want 5000", r.BudgetBurnMS)
	}
	if r.P99NS <= uint64(time.Millisecond) {
		t.Fatalf("p99 = %d, want > objective", r.P99NS)
	}
	if !hasReason(h, "slo:p99:global") {
		t.Fatalf("health degraded = %v, want slo:p99:global", h.Degraded())
	}

	// Rotate the slow observations out of the window; the breach clears.
	for i := 0; i < subWindows; i++ {
		w.rotate()
	}
	w.Evaluate(5 * time.Second)
	r = w.View().Global
	if r.BreachedLatency {
		t.Fatalf("expected breach cleared, got %+v", r)
	}
	if hasReason(h, "slo:p99:global") {
		t.Fatalf("degradation not cleared: %v", h.Degraded())
	}
	if r.BudgetBurnMS != 5000 {
		t.Fatalf("burn should stop accruing when clear, got %dms", r.BudgetBurnMS)
	}
}

func TestErrorRateBreach(t *testing.T) {
	w, h := newTestWatchdog(Objectives{ErrorRate: 0.1, MinSamples: 10})
	g := w.Global()
	for i := 0; i < 40; i++ {
		g.Observe(uint64(time.Microsecond), i%2 == 0) // 50% errors
	}
	w.Evaluate(time.Second)

	r := w.View().Global
	if !r.BreachedError {
		t.Fatalf("expected error-rate breach, got %+v", r)
	}
	if r.ErrorRate != 0.5 {
		t.Fatalf("error rate = %v, want 0.5", r.ErrorRate)
	}
	if r.ErrorBreaches != 1 {
		t.Fatalf("error breaches = %d, want 1", r.ErrorBreaches)
	}
	if !hasReason(h, "slo:error_rate:global") {
		t.Fatalf("health degraded = %v, want slo:error_rate:global", h.Degraded())
	}
	if r.BreachedLatency {
		t.Fatalf("latency should not breach on fast requests: %+v", r)
	}
}

func TestMinSamplesGuard(t *testing.T) {
	w, h := newTestWatchdog(Objectives{P99NS: uint64(time.Millisecond), ErrorRate: 0.1, MinSamples: 100})
	g := w.Global()
	for i := 0; i < 50; i++ {
		g.Observe(uint64(time.Second), true) // slow AND errored, but under MinSamples
	}
	w.Evaluate(time.Second)

	r := w.View().Global
	if r.BreachedLatency || r.BreachedError {
		t.Fatalf("breach below MinSamples: %+v", r)
	}
	if len(h.Degraded()) != 0 {
		t.Fatalf("unexpected degradations: %v", h.Degraded())
	}
}

func TestTenantTrackers(t *testing.T) {
	w, h := newTestWatchdog(Objectives{P99NS: uint64(time.Millisecond), MinSamples: 10})
	noisy := w.Tenant("noisy")
	quiet := w.Tenant("quiet")
	if w.Tenant("noisy") != noisy {
		t.Fatal("Tenant not idempotent")
	}
	for i := 0; i < 30; i++ {
		noisy.Observe(uint64(10*time.Millisecond), false)
		quiet.Observe(uint64(time.Microsecond), false)
	}
	w.Evaluate(time.Second)

	snap := w.View()
	if len(snap.Tenants) != 2 {
		t.Fatalf("tenants = %d, want 2", len(snap.Tenants))
	}
	byName := map[string]Report{}
	for _, r := range snap.Tenants {
		byName[r.Name] = r
	}
	if !byName["noisy"].BreachedLatency {
		t.Fatalf("noisy tenant should breach: %+v", byName["noisy"])
	}
	if byName["quiet"].BreachedLatency {
		t.Fatalf("quiet tenant should not breach: %+v", byName["quiet"])
	}
	if !hasReason(h, "slo:p99:noisy") || hasReason(h, "slo:p99:quiet") {
		t.Fatalf("degraded = %v", h.Degraded())
	}
	found := false
	for _, d := range snap.Degraded {
		if d == "slo:p99:noisy" {
			found = true
		}
	}
	if !found {
		t.Fatalf("snapshot degraded = %v, want slo:p99:noisy", snap.Degraded)
	}
}

func TestNilTrackerObserve(t *testing.T) {
	var tr *Tracker
	tr.Observe(123, true) // must not panic
}

func TestStartStop(t *testing.T) {
	w, _ := newTestWatchdog(Objectives{Window: 60 * time.Millisecond})
	w.Start()
	w.Global().Observe(uint64(time.Microsecond), false)
	time.Sleep(30 * time.Millisecond)
	w.Stop()
	w.Stop() // idempotent

	// A never-started watchdog stops cleanly too.
	w2, _ := newTestWatchdog(Objectives{})
	w2.Stop()
}

// TestOneP99Rule: the watchdog's windowed p99 and a telemetry histogram fed
// the same latencies rank the same way, nearest rank, so both see the two
// slow requests in 150 in the same bucket.
func TestOneP99Rule(t *testing.T) {
	w, _ := newTestWatchdog(Objectives{})
	h := telemetry.NewHistogram(telemetry.DefTimeBounds)
	for i := 0; i < 150; i++ {
		v := uint64(100)
		if i%75 == 0 {
			v = 10_000
		}
		w.Global().Observe(v, false)
		h.Observe(v)
	}
	_, _, p99 := w.Global().window()
	if got := h.Summary().P99; w.bucketOf(got) != w.bucketOf(p99) || got < 10_000 {
		t.Fatalf("telemetry p99 = %d ns, slo p99 = %d ns: want both in the slow requests' bucket", got, p99)
	}
}
