package telemetry

import (
	"fmt"
	"net/http"
	"sort"
	"sync"
)

// Health is the process liveness/readiness state behind the /healthz and
// /readyz endpoints.  Liveness is implicit (the handler answering at all
// is the signal); readiness is an explicit, named set of conditions the
// owner flips as startup milestones complete — a server marks
// "recovered" once its warm cache is reloaded and its journal open — and
// /readyz turns 200 only when every registered condition is true.
//
// The zero value is ready (no conditions registered).  Safe for
// concurrent use.
type Health struct {
	mu       sync.Mutex
	conds    map[string]bool
	degraded map[string]bool
}

// Expect registers a readiness condition in the false state.  Until
// Set(name, true) is called, Ready reports false and /readyz serves 503
// naming the unmet condition.  Re-registering an existing condition
// resets it to false.
func (h *Health) Expect(name string) { h.Set(name, false) }

// Set marks one readiness condition met (or, with false, unmet again —
// a server draining for shutdown can flip itself unready so load
// balancers stop routing to it before the listener closes).
func (h *Health) Set(name string, ok bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.conds == nil {
		h.conds = make(map[string]bool)
	}
	h.conds[name] = ok
}

// Ready reports whether every registered condition is met, and the names
// of those still unmet, sorted.
func (h *Health) Ready() (bool, []string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	var unmet []string
	for name, ok := range h.conds {
		if !ok {
			unmet = append(unmet, name)
		}
	}
	sort.Strings(unmet)
	return len(unmet) == 0, unmet
}

// Degrade records a named degradation reason.  Degradations are softer
// than readiness conditions: the process still serves (readyz stays 200)
// but advertises the reason — an SLO watchdog flags "slo:p99:global"
// while the latency objective is breached, and operators or autoscalers
// polling /readyz see it without the server leaving rotation.
// Idempotent; re-degrading an active reason is a no-op.
func (h *Health) Degrade(reason string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.degraded == nil {
		h.degraded = make(map[string]bool)
	}
	h.degraded[reason] = true
}

// ClearDegraded removes a degradation reason set by Degrade.  Clearing
// an unknown reason is a no-op.
func (h *Health) ClearDegraded(reason string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	delete(h.degraded, reason)
}

// Degraded returns the active degradation reasons, sorted.
func (h *Health) Degraded() []string {
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.degraded) == 0 {
		return nil
	}
	out := make([]string, 0, len(h.degraded))
	for r := range h.degraded {
		out = append(out, r)
	}
	sort.Strings(out)
	return out
}

// RegisterHealth mounts /healthz (liveness: always 200 while the process
// serves) and /readyz (readiness: 200 once every Health condition is
// met, 503 naming the unmet conditions otherwise) on mux.
func RegisterHealth(mux *http.ServeMux, h *Health) {
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		ready, unmet := h.Ready()
		degraded := h.Degraded()
		if !ready {
			w.WriteHeader(http.StatusServiceUnavailable)
			for _, name := range unmet {
				fmt.Fprintf(w, "unready: %s\n", name)
			}
			for _, reason := range degraded {
				fmt.Fprintf(w, "degraded: %s\n", reason)
			}
			return
		}
		fmt.Fprintln(w, "ready")
		for _, reason := range degraded {
			fmt.Fprintf(w, "degraded: %s\n", reason)
		}
	})
}
