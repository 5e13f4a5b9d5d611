// Package slo is the service-level-objective watchdog for the vcoded
// server: windowed p99 latency and server-fault error rate, per tenant
// and globally, compared against configurable objectives on an
// evaluation tick.  A breach increments error-budget burn counters,
// exports through telemetry ("slo.global.*" / "slo.tenant.<name>.*"),
// and surfaces as a typed degradation reason on /readyz via
// telemetry.Health — degradation is an annotation, not unreadiness, so
// load balancers keep routing while operators see the burn.
//
// A request's latency is observed here once.  The observation path is
// lock-free: each tracker keeps a ring of sub-window telemetry.Histograms
// on telemetry.DefTimeBounds, and the evaluator rotates the ring, handing
// the slot about to become current a fresh histogram, so the window slides
// without ever resetting one mid-read.
package slo

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/telemetry"
)

// Objectives configures the watchdog.  Zero fields take the defaults.
type Objectives struct {
	// P99NS is the windowed p99 latency objective in nanoseconds
	// (default 250ms).
	P99NS uint64
	// ErrorRate is the windowed server-fault error-rate objective in
	// [0,1) (default 0.5 — vcoded's typed 4xx rejections are the
	// caller's budget, not the service's, so only 5xx-class failures
	// count).
	ErrorRate float64
	// Window is the sliding evaluation window (default 30s).
	Window time.Duration
	// MinSamples is the observation count below which a window never
	// breaches — tiny samples make p99 meaningless (default 20).
	MinSamples uint64
}

func (o Objectives) withDefaults() Objectives {
	if o.P99NS == 0 {
		o.P99NS = uint64(250 * time.Millisecond)
	}
	if o.ErrorRate == 0 {
		o.ErrorRate = 0.5
	}
	if o.Window <= 0 {
		o.Window = 30 * time.Second
	}
	if o.MinSamples == 0 {
		o.MinSamples = 20
	}
	return o
}

// subWindows is the ring granularity: the window slides in
// Window/subWindows steps.
const subWindows = 6

// Tracker accumulates one scope's observations (global or one tenant).
// Observe is nil-receiver-safe so callers thread handles unconditionally.
type Tracker struct {
	name string
	wd   *Watchdog
	// wins are the sub-windows' latencies and errs their server faults.
	wins [subWindows]atomic.Pointer[telemetry.Histogram]
	errs [subWindows]atomic.Uint64

	latencyBreaches atomic.Uint64
	errorBreaches   atomic.Uint64
	burnMS          atomic.Uint64 // error-budget burn: ms spent in breach
	breachedLat     atomic.Bool
	breachedErr     atomic.Bool
	lastP99         atomic.Uint64
	lastErrRate     atomic.Uint64 // float64 bits
}

// Observe records one finished request: its wall latency and whether it
// was a server fault (5xx-class).
func (t *Tracker) Observe(durNS uint64, isErr bool) {
	if t == nil {
		return
	}
	i := t.wd.cur.Load()
	t.wins[i].Load().Observe(durNS)
	if isErr {
		t.errs[i].Add(1)
	}
}

// window merges the ring into the full window's request count, p99 and
// server-fault rate; p99 is the merged histogram's, so it ranks as every
// p99 in the tree does.
func (t *Tracker) window() (count, p99 uint64, errRate float64) {
	h := telemetry.NewHistogram(nil)
	var errs uint64
	for i := range t.wins {
		h.Merge(t.wins[i].Load())
		errs += t.errs[i].Load()
	}
	s := h.Summary()
	if s.Count > 0 {
		errRate = float64(errs) / float64(s.Count)
	}
	return s.Count, s.P99, errRate
}

// Report is one tracker's evaluated state.
type Report struct {
	Name            string  `json:"name"`
	Count           uint64  `json:"count"`
	P99NS           uint64  `json:"p99_ns"`
	ErrorRate       float64 `json:"error_rate"`
	LatencyBreaches uint64  `json:"latency_breaches"`
	ErrorBreaches   uint64  `json:"error_breaches"`
	BudgetBurnMS    uint64  `json:"budget_burn_ms"`
	BreachedLatency bool    `json:"breached_latency"`
	BreachedError   bool    `json:"breached_error_rate"`
}

// Snapshot is the watchdog's full evaluated state.
type Snapshot struct {
	WindowMS           int64    `json:"window_ms"`
	P99ObjectiveNS     uint64   `json:"p99_objective_ns"`
	ErrorRateObjective float64  `json:"error_rate_objective"`
	Global             Report   `json:"global"`
	Tenants            []Report `json:"tenants,omitempty"`
	Degraded           []string `json:"degraded,omitempty"`
}

// Watchdog owns the trackers, the rotation/evaluation loop, and the
// telemetry + health surfacing.
type Watchdog struct {
	obj    Objectives
	reg    *telemetry.Registry
	health *telemetry.Health // may be nil

	global *Tracker
	mu     sync.Mutex
	byName map[string]*Tracker

	cur  atomic.Int32 // current ring slot, advanced by the evaluator
	quit chan struct{}
	done chan struct{}
	once sync.Once
	stop sync.Once
}

// New builds a watchdog.  reg receives the slo.* instruments; health
// (optional) receives typed degradation reasons on breach.
func New(obj Objectives, reg *telemetry.Registry, health *telemetry.Health) *Watchdog {
	if reg == nil {
		reg = telemetry.Default
	}
	w := &Watchdog{
		obj:    obj.withDefaults(),
		reg:    reg,
		health: health,
		byName: make(map[string]*Tracker),
		quit:   make(chan struct{}),
		done:   make(chan struct{}),
	}
	w.global = w.newTracker("global", "slo.global.")
	return w
}

func (w *Watchdog) newTracker(name, prefix string) *Tracker {
	t := &Tracker{name: name, wd: w}
	for i := range int32(subWindows) {
		t.clear(i)
	}
	w.reg.GaugeFunc(prefix+"p99_ns", func() float64 { return float64(t.lastP99.Load()) })
	w.reg.GaugeFunc(prefix+"error_rate", func() float64 {
		return math.Float64frombits(t.lastErrRate.Load())
	})
	w.reg.GaugeFunc(prefix+"latency_breaches", func() float64 { return float64(t.latencyBreaches.Load()) })
	w.reg.GaugeFunc(prefix+"error_breaches", func() float64 { return float64(t.errorBreaches.Load()) })
	w.reg.GaugeFunc(prefix+"budget_burn_ms", func() float64 { return float64(t.burnMS.Load()) })
	return t
}

// Global returns the service-wide tracker.
func (w *Watchdog) Global() *Tracker { return w.global }

// Tenant returns (creating if needed) the tracker for one tenant,
// registered under "slo.tenant.<name>.*".
func (w *Watchdog) Tenant(name string) *Tracker {
	w.mu.Lock()
	defer w.mu.Unlock()
	if t, ok := w.byName[name]; ok {
		return t
	}
	t := w.newTracker(name, "slo.tenant."+name+".")
	w.byName[name] = t
	return t
}

// Start launches the rotate-and-evaluate loop (one tick per
// Window/subWindows).  Safe to call once; Stop shuts it down.
func (w *Watchdog) Start() {
	w.once.Do(func() {
		tick := w.obj.Window / subWindows
		go func() {
			defer close(w.done)
			tk := time.NewTicker(tick)
			defer tk.Stop()
			for {
				select {
				case <-tk.C:
					w.rotate()
					w.Evaluate(tick)
				case <-w.quit:
					return
				}
			}
		}()
	})
}

// Stop halts the evaluator (idempotent; a never-started watchdog stops
// cleanly too).
func (w *Watchdog) Stop() {
	w.stop.Do(func() { close(w.quit) })
	select {
	case <-w.done:
	default:
		w.once.Do(func() { close(w.done) }) // never started
		<-w.done
	}
}

// rotate advances the ring: the slot about to become current is cleared
// first, so it only ever carries observations from the newest sub-window.
func (w *Watchdog) rotate() {
	next := (w.cur.Load() + 1) % subWindows
	w.trackers(func(t *Tracker) { t.clear(next) })
	w.cur.Store(next)
}

// clear empties sub-window i.
func (t *Tracker) clear(i int32) {
	t.wins[i].Store(telemetry.NewHistogram(nil))
	t.errs[i].Store(0)
}

func (w *Watchdog) trackers(fn func(*Tracker)) {
	fn(w.global)
	w.mu.Lock()
	ts := make([]*Tracker, 0, len(w.byName))
	for _, t := range w.byName {
		ts = append(ts, t)
	}
	w.mu.Unlock()
	for _, t := range ts {
		fn(t)
	}
}

// Evaluate compares every tracker's window against the objectives,
// advances the burn counters by elapsed (the time since the previous
// evaluation), and updates health degradation.  Exported so tests and
// snapshot paths can evaluate deterministically.
func (w *Watchdog) Evaluate(elapsed time.Duration) {
	w.trackers(func(t *Tracker) { w.evaluate(t, elapsed) })
}

func (w *Watchdog) evaluate(t *Tracker, elapsed time.Duration) {
	count, p99, errRate := t.window()
	t.lastP99.Store(p99)
	t.lastErrRate.Store(math.Float64bits(errRate))
	latBreach := count >= w.obj.MinSamples && p99 > w.obj.P99NS
	errBreach := count >= w.obj.MinSamples && errRate > w.obj.ErrorRate
	if latBreach {
		t.latencyBreaches.Add(1)
	}
	if errBreach {
		t.errorBreaches.Add(1)
	}
	if latBreach || errBreach {
		t.burnMS.Add(uint64(elapsed.Milliseconds()))
	}
	w.setDegraded(&t.breachedLat, latBreach, "slo:p99:"+t.name)
	w.setDegraded(&t.breachedErr, errBreach, "slo:error_rate:"+t.name)
}

func (w *Watchdog) setDegraded(state *atomic.Bool, breached bool, reason string) {
	if state.Swap(breached) == breached || w.health == nil {
		return
	}
	if breached {
		w.health.Degrade(reason)
	} else {
		w.health.ClearDegraded(reason)
	}
}

// View evaluates nothing but reads every tracker's current window — the
// snapshot path for /v1/stats and bundles, valid even before the first
// tick.
func (w *Watchdog) View() Snapshot {
	snap := Snapshot{
		WindowMS:           w.obj.Window.Milliseconds(),
		P99ObjectiveNS:     w.obj.P99NS,
		ErrorRateObjective: w.obj.ErrorRate,
	}
	w.trackers(func(t *Tracker) {
		if r := w.report(t); t == w.global {
			snap.Global = r
		} else {
			snap.Tenants = append(snap.Tenants, r)
		}
	})
	sort.Slice(snap.Tenants, func(i, j int) bool { return snap.Tenants[i].Name < snap.Tenants[j].Name })
	for _, r := range append([]Report{snap.Global}, snap.Tenants...) {
		if r.BreachedLatency {
			snap.Degraded = append(snap.Degraded, "slo:p99:"+r.Name)
		}
		if r.BreachedError {
			snap.Degraded = append(snap.Degraded, "slo:error_rate:"+r.Name)
		}
	}
	return snap
}

func (w *Watchdog) report(t *Tracker) Report {
	count, p99, errRate := t.window()
	return Report{
		Name:            t.name,
		Count:           count,
		P99NS:           p99,
		ErrorRate:       errRate,
		LatencyBreaches: t.latencyBreaches.Load(),
		ErrorBreaches:   t.errorBreaches.Load(),
		BudgetBurnMS:    t.burnMS.Load(),
		BreachedLatency: t.breachedLat.Load(),
		BreachedError:   t.breachedErr.Load(),
	}
}
