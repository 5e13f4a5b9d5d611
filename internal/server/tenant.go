package server

import (
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/slo"
	"repro/internal/telemetry"
)

// Quota is one tenant's resource envelope.  Zero values fall back to the
// server-wide defaults (Config.DefaultQuota fields); a negative
// MaxResidentBytes or MaxCompileConcurrency means explicitly unlimited.
type Quota struct {
	// FuelPerCall caps the simulated-step budget of one call.  Requests
	// may ask for less; asking for more is rejected with quota_fuel.
	FuelPerCall uint64 `json:"fuel_per_call"`
	// MaxResidentBytes caps the code bytes the tenant's compiles keep
	// resident across the shard arenas.  A tenant at its cap has new
	// compiles rejected with quota_code_bytes until eviction or
	// invalidation frees space; cache hits are unaffected.
	MaxResidentBytes int64 `json:"max_resident_bytes"`
	// MaxCompileConcurrency caps the tenant's simultaneously running
	// compile flights across all shards (cache hits don't count).
	MaxCompileConcurrency int `json:"max_compile_concurrency"`
	// RatePerSec caps the tenant's request admission rate with a token
	// bucket Burst tokens deep (every request takes one token, cache
	// hits included).  Zero inherits the default; negative is explicitly
	// unlimited.
	RatePerSec float64 `json:"rate_per_sec"`
	Burst      int     `json:"burst"`
	// Priority is the tenant's default shed priority, 1–9 (9 sheds
	// last).  Zero inherits the default (5); requests may override per
	// call with their own "priority" field.
	Priority int `json:"priority"`
}

// withDefaults fills zero fields from d.
func (q Quota) withDefaults(d Quota) Quota {
	if q.FuelPerCall == 0 {
		q.FuelPerCall = d.FuelPerCall
	}
	if q.MaxResidentBytes == 0 {
		q.MaxResidentBytes = d.MaxResidentBytes
	}
	if q.MaxCompileConcurrency == 0 {
		q.MaxCompileConcurrency = d.MaxCompileConcurrency
	}
	if q.RatePerSec == 0 {
		q.RatePerSec = d.RatePerSec
	}
	if q.Burst == 0 {
		q.Burst = d.Burst
	}
	if q.Priority == 0 {
		q.Priority = d.Priority
	}
	return q
}

// tenant is the runtime state behind one quota row.
type tenant struct {
	name  string
	quota Quota

	// bucket rate-limits admissions; nil means unlimited.
	bucket *tokenBucket
	// priority is the tenant's default shed priority (clamped 0–9).
	priority int

	// resident is the code bytes this tenant's compiles currently keep
	// installed (decremented by the eviction hook).
	resident atomic.Int64
	// compiling counts in-flight compile flights this tenant owns.
	compiling atomic.Int64

	requests *telemetry.Counter
	errors   *telemetry.Counter
	rejected *telemetry.Counter // admission/quota rejections (subset of errors)
	compiles *telemetry.Counter
	callNS   *telemetry.Histogram

	// slo is the tenant's SLO tracker (nil when the watchdog is
	// disabled; Observe is nil-safe).
	slo *slo.Tracker
}

// newTenant builds the runtime state and registers the tenant's
// instruments under "server.tenant.<name>.*".
func newTenant(reg *telemetry.Registry, name string, q Quota) *tenant {
	prefix := "server.tenant." + name + "."
	t := &tenant{
		name:     name,
		quota:    q,
		priority: clampPriority(q.Priority),
		requests: reg.Counter(prefix + "requests"),
		errors:   reg.Counter(prefix + "errors"),
		rejected: reg.Counter(prefix + "rejected"),
		compiles: reg.Counter(prefix + "compiles"),
		callNS:   reg.Histogram(prefix+"call_ns", nil),
	}
	if q.Priority == 0 {
		t.priority = shedDefaultPriority
	}
	if q.RatePerSec > 0 {
		burst := q.Burst
		if burst <= 0 {
			burst = int(q.RatePerSec) // default burst: one second of rate
		}
		t.bucket = newTokenBucket(q.RatePerSec, burst)
	}
	reg.GaugeFunc(prefix+"resident_bytes", func() float64 {
		return float64(t.resident.Load())
	})
	return t
}

// admitRate takes one token from the tenant's rate bucket, rejecting
// with rate_limited (and the wait until a token accrues as Retry-After)
// when the bucket is dry.
func (t *tenant) admitRate() *APIError {
	if t.bucket == nil {
		return nil
	}
	ok, wait := t.bucket.take()
	if ok {
		return nil
	}
	ms := wait.Milliseconds()
	if ms < 1 {
		ms = 1
	}
	return apiErr(CodeRateLimited,
		"tenant %s over %g req/s (burst %d)", t.name, t.quota.RatePerSec, t.quota.Burst).
		withRetryAfter(ms)
}

// admitCompile checks the tenant's compile-side quotas and, when
// admitted, holds one concurrency slot (the caller must releaseCompile).
// It returns a typed rejection otherwise.  The resident-bytes check is
// admission-time: a tenant below its cap may overshoot by the one
// program it is admitting, which keeps the check cheap and the bound
// within one program size of exact.
func (t *tenant) admitCompile() *APIError {
	if max := t.quota.MaxResidentBytes; max > 0 && t.resident.Load() >= max {
		return apiErr(CodeQuotaCodeBytes,
			"tenant %s at resident code quota (%d of %d bytes)", t.name, t.resident.Load(), max).
			withRetryAfter(retryAfterEvictMS)
	}
	if max := t.quota.MaxCompileConcurrency; max > 0 {
		if n := t.compiling.Add(1); n > int64(max) {
			t.compiling.Add(-1)
			return apiErr(CodeQuotaConcurrency,
				"tenant %s at compile concurrency quota (%d)", t.name, max).
				withRetryAfter(retryAfterCompileMS)
		}
		return nil
	}
	t.compiling.Add(1)
	return nil
}

func (t *tenant) releaseCompile() { t.compiling.Add(-1) }

// Retry-After hints, in milliseconds: quota_code_bytes clears on
// eviction (slow), concurrency and queue depth clear when running
// compiles finish (fast).
const (
	retryAfterEvictMS   = 1000
	retryAfterCompileMS = 50
	retryAfterQueueMS   = 100
)

func (e *APIError) withRetryAfter(ms int64) *APIError {
	e.RetryAfterMS = ms
	return e
}

// tenantSet resolves tenant names to runtime state, creating rows for
// unknown tenants from the default quota when that is enabled.  The
// configured tenants are fixed once the server is built and are read with
// no lock; only the lazily admitted ones are behind mu.
type tenantSet struct {
	configured   map[string]*tenant
	reg          *telemetry.Registry
	defaultQuota Quota
	allowUnknown bool
	// watchdog, when set, hands every tenant its SLO tracker.
	watchdog *slo.Watchdog

	mu   sync.Mutex
	lazy map[string]*tenant
}

func newTenantSet(reg *telemetry.Registry, quotas map[string]Quota, defaultQuota Quota, allowUnknown bool) *tenantSet {
	ts := &tenantSet{
		configured:   make(map[string]*tenant, len(quotas)),
		reg:          reg,
		defaultQuota: defaultQuota,
		allowUnknown: allowUnknown,
		lazy:         make(map[string]*tenant),
	}
	for name, q := range quotas {
		ts.configured[name] = newTenant(reg, name, q.withDefaults(defaultQuota))
	}
	return ts
}

// setWatchdog attaches the SLO watchdog while the server is being built,
// wiring trackers onto the configured tenants (lazily admitted tenants get
// theirs in get).
func (ts *tenantSet) setWatchdog(w *slo.Watchdog) {
	ts.watchdog = w
	for name, t := range ts.configured {
		t.slo = w.Tenant(name)
	}
}

// get resolves name, lazily admitting unknown tenants when allowed.
func (ts *tenantSet) get(name string) (*tenant, *APIError) {
	if t, ok := ts.configured[name]; ok {
		return t, nil
	}
	if !ts.allowUnknown {
		return nil, apiErr(CodeUnknownTenant, "tenant %q has no quota configured", name)
	}
	ts.mu.Lock()
	defer ts.mu.Unlock()
	if t, ok := ts.lazy[name]; ok {
		return t, nil
	}
	t := newTenant(ts.reg, name, ts.defaultQuota)
	if ts.watchdog != nil {
		t.slo = ts.watchdog.Tenant(name)
	}
	ts.lazy[name] = t
	return t, nil
}

// names returns the known tenant names, sorted.
func (ts *tenantSet) names() []string {
	out := make([]string, 0, len(ts.configured))
	for name := range ts.configured {
		out = append(out, name)
	}
	ts.mu.Lock()
	for name := range ts.lazy {
		out = append(out, name)
	}
	ts.mu.Unlock()
	sort.Strings(out)
	return out
}
