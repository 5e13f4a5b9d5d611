package telemetry

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

func get(t *testing.T, mux *http.ServeMux, path string) (int, string) {
	t.Helper()
	req := httptest.NewRequest("GET", path, nil)
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, req)
	body, _ := io.ReadAll(rec.Result().Body)
	return rec.Code, string(body)
}

func TestHealthzAlwaysOK(t *testing.T) {
	var h Health
	h.Expect("never_met")
	mux := http.NewServeMux()
	RegisterHealth(mux, &h)
	code, body := get(t, mux, "/healthz")
	if code != http.StatusOK || !strings.Contains(body, "ok") {
		t.Fatalf("/healthz = %d %q, want 200 ok (liveness must not depend on readiness)", code, body)
	}
}

func TestReadyzConditionLifecycle(t *testing.T) {
	var h Health
	mux := http.NewServeMux()
	RegisterHealth(mux, &h)

	// Zero conditions: ready by default.
	if code, _ := get(t, mux, "/readyz"); code != http.StatusOK {
		t.Fatalf("/readyz with no conditions = %d, want 200", code)
	}

	// The server's startup milestones, registered unmet.
	h.Expect("snapshot_restored")
	h.Expect("warmup_drained")
	code, body := get(t, mux, "/readyz")
	if code != http.StatusServiceUnavailable {
		t.Fatalf("/readyz with unmet conditions = %d, want 503", code)
	}
	if !strings.Contains(body, "snapshot_restored") || !strings.Contains(body, "warmup_drained") {
		t.Fatalf("/readyz body %q should name both unmet conditions", body)
	}

	// Partially met is still unready.
	h.Set("snapshot_restored", true)
	code, body = get(t, mux, "/readyz")
	if code != http.StatusServiceUnavailable {
		t.Fatalf("/readyz with one unmet condition = %d, want 503", code)
	}
	if strings.Contains(body, "snapshot_restored") {
		t.Fatalf("/readyz body %q should not name a met condition", body)
	}

	h.Set("warmup_drained", true)
	if code, body = get(t, mux, "/readyz"); code != http.StatusOK || !strings.Contains(body, "ready") {
		t.Fatalf("/readyz with all conditions met = %d %q, want 200 ready", code, body)
	}

	// Flipping unready again (shutdown drain) turns 503 back on.
	h.Set("warmup_drained", false)
	if code, _ = get(t, mux, "/readyz"); code != http.StatusServiceUnavailable {
		t.Fatalf("/readyz after un-setting a condition = %d, want 503", code)
	}
}

func TestHealthReadyReportsUnmet(t *testing.T) {
	var h Health
	h.Expect("a")
	h.Expect("b")
	h.Set("a", true)
	ready, unmet := h.Ready()
	if ready || len(unmet) != 1 || unmet[0] != "b" {
		t.Fatalf("Ready() = %v %v, want false [b]", ready, unmet)
	}

	// Two unmet, as on a server that drains before Recover finishes: the
	// same order on every poll.
	var s Health
	s.Expect("recovered")
	s.Expect("accepting_traffic")
	for i := 0; i < 50; i++ {
		if ready, unmet := s.Ready(); ready || strings.Join(unmet, ",") != "accepting_traffic,recovered" {
			t.Fatalf("poll %d: Ready() = %v %v, want false [accepting_traffic recovered]", i, ready, unmet)
		}
	}
}

func TestDegradedLifecycle(t *testing.T) {
	var h Health
	mux := http.NewServeMux()
	RegisterHealth(mux, &h)

	// Degradation is an annotation, not unreadiness: /readyz stays 200.
	h.Degrade("slo:p99:global")
	code, body := get(t, mux, "/readyz")
	if code != http.StatusOK {
		t.Fatalf("/readyz while degraded = %d, want 200 (degradation must not leave rotation)", code)
	}
	if !strings.Contains(body, "degraded: slo:p99:global") {
		t.Fatalf("/readyz body %q should name the degradation", body)
	}

	// Degradations render alongside unmet conditions on the 503 path too.
	h.Expect("snapshot_restored")
	code, body = get(t, mux, "/readyz")
	if code != http.StatusServiceUnavailable {
		t.Fatalf("/readyz with unmet condition = %d, want 503", code)
	}
	if !strings.Contains(body, "unready: snapshot_restored") || !strings.Contains(body, "degraded: slo:p99:global") {
		t.Fatalf("/readyz body %q should carry both unready and degraded lines", body)
	}

	h.Set("snapshot_restored", true)
	h.ClearDegraded("slo:p99:global")
	h.ClearDegraded("never_set") // clearing an unknown reason is a no-op
	code, body = get(t, mux, "/readyz")
	if code != http.StatusOK || strings.Contains(body, "degraded") {
		t.Fatalf("/readyz after clear = %d %q, want plain 200 ready", code, body)
	}
	if got := h.Degraded(); got != nil {
		t.Fatalf("Degraded() after clear = %v, want nil", got)
	}
}

func TestDegradedSorted(t *testing.T) {
	var h Health
	h.Degrade("slo:p99:tenant-b")
	h.Degrade("slo:error_rate:global")
	h.Degrade("slo:p99:global")
	got := h.Degraded()
	want := []string{"slo:error_rate:global", "slo:p99:global", "slo:p99:tenant-b"}
	if len(got) != len(want) {
		t.Fatalf("Degraded() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Degraded() = %v, want %v (sorted)", got, want)
		}
	}
}

func TestHealthConcurrentDegradeClear(t *testing.T) {
	var h Health
	h.Expect("boot")
	h.Set("boot", true)
	mux := http.NewServeMux()
	RegisterHealth(mux, &h)

	const workers = 8
	const iters = 500
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			reason := fmt.Sprintf("slo:p99:t%d", id)
			for j := 0; j < iters; j++ {
				h.Degrade(reason)
				h.Set("boot", j%2 == 0)
				_, _ = h.Ready()
				_ = h.Degraded()
				h.ClearDegraded(reason)
			}
		}(i)
	}
	// Readers hammer the handler while writers flip state.
	var rg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < 4; i++ {
		rg.Add(1)
		go func() {
			defer rg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					get(t, mux, "/readyz")
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	rg.Wait()

	// Every writer cleared its own reason on the way out.
	if got := h.Degraded(); got != nil {
		t.Fatalf("Degraded() after concurrent churn = %v, want nil", got)
	}
	h.Set("boot", true)
	if ready, unmet := h.Ready(); !ready {
		t.Fatalf("Ready() = false %v after churn, want true", unmet)
	}
}
