// Package codecache is a concurrency-safe cache of compiled functions —
// the layer that turns the paper's one-shot dynamic code generation into a
// service shape: adaptive JIT compilation and DPF demultiplexing (§1,
// §4.2) win only when generated code is *reused*, so the compile results
// are kept keyed by a client-supplied content hash of their source
// (bytecode, filter spec, vasm text).
//
// The cache is sharded (per-shard lock + LRU list, a global touch clock
// ordering eviction across shards), deduplicates concurrent compiles of
// the same key into a single flight, and bounds capacity by entry count
// and by resident code bytes.  When bound to a core.Machine it installs
// compiled functions on insert and reclaims their simulated code memory on
// eviction (Machine.Uninstall, or Unit.Unload for a program's entry function,
// sized and evicted as the whole program) — the eager, out-of-order
// complement to the paper's stack-style Mark/Release arena (§5.2).
package codecache

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// CompileFunc produces the function for a key on a cache miss.  It runs
// without any cache lock held, so it may itself use the machine (allocate
// dispatch tables, define symbols).
type CompileFunc func() (*core.Func, error)

// Config sizes a Cache.
type Config struct {
	// Shards is the number of lock domains (rounded up to a power of
	// two; default 8).  Use 1 for strict global LRU order.
	Shards int
	// MaxEntries bounds the cached function count (0 = unlimited).
	MaxEntries int
	// MaxCodeBytes bounds the summed code bytes of cached functions and
	// programs (0 = unlimited).
	MaxCodeBytes int64
	// Machine, when set, receives Install on insert and Uninstall on
	// eviction, so eviction actually frees simulator code memory.
	Machine *core.Machine
	// FailureBackoff, when positive, negative-caches failed compiles:
	// requests for a key whose compile just failed are answered with the
	// cached error (no recompile) until the backoff expires, so a bad key
	// under heavy traffic cannot form a compile storm.  A compile that ends
	// in context.Canceled or DeadlineExceeded is never cached: the caller
	// gave up, the key did not fail.  Zero keeps the legacy behaviour —
	// failures are not cached and the next request retries immediately.
	FailureBackoff time.Duration
	// Name, when non-empty, registers the cache's counters in the
	// process-wide telemetry registry under "codecache.<Name>.*", so the
	// HTTP/JSON exporters include hit/miss/eviction/single-flight rates
	// alongside the codegen metrics.  Leave empty for throwaway caches
	// (tests); an unnamed cache can still be exported later with
	// RegisterTelemetry.
	Name string
	// OnEvict, when set, runs after an entry leaves the cache (capacity
	// eviction or Invalidate) and after its code left the machine.  A
	// caller that keeps books by key — per-tenant residency accounting —
	// settles them here.  It runs without any cache lock held and may call
	// back into the cache.
	OnEvict func(key string, fn *core.Func)
	// OnCompileResult, when set, fires exactly once per actual compile
	// flight as it settles — err is nil on success, the compile/install
	// failure otherwise.  Coalesced waiters and negative-cache hits do
	// not fire it, which makes it the right signal for consecutive-
	// failure accounting (circuit breakers) layered above the cache.  It
	// runs without any cache lock held.
	OnCompileResult func(key string, err error)
}

// CompilePanicError reports that a compile callback panicked.  The cache
// recovers the panic, converts it to this error for every waiter of the
// flight, and (with FailureBackoff) negative-caches it like any other
// compile failure.
type CompilePanicError struct {
	Key   string
	Value any
}

func (e *CompilePanicError) Error() string {
	return fmt.Sprintf("codecache: compile for key %q panicked: %v", e.Key, e.Value)
}

// Cache is a sharded, single-flight, LRU-evicting map from content hash to
// compiled function.  The zero value is not usable; call New.
type Cache struct {
	machine         *core.Machine
	maxEntries      int
	maxBytes        int64
	failureBackoff  time.Duration
	onEvict         func(key string, fn *core.Func)
	onCompileResult func(key string, err error)
	shards          []*shard
	mask            uint32

	// clock is a global touch counter: every hit or insert stamps the
	// entry, and eviction picks the smallest stamp among the shard LRU
	// tails — exact LRU per shard, near-exact globally.
	clock atomic.Uint64

	hits, misses, coalesced     atomic.Uint64
	evictions, compiles         atomic.Uint64
	compileErrors, compileNanos atomic.Uint64
	compilePanics, negativeHits atomic.Uint64
	entries, codeBytes          atomic.Int64
}

type shard struct {
	mu      sync.Mutex
	entries map[string]*entry
	// LRU list head (most recent) and tail (eviction candidate); only
	// ready entries are linked.
	head, tail *entry
}

type entry struct {
	key   string
	fn    *core.Func
	err   error
	size  int64
	stamp uint64
	// done is closed when the flight finishes (fn or err is set); ready
	// marks the entry linked into the LRU and visible as a hit.  failed
	// marks a negative entry (err set, never linked); it stays mapped
	// until negUntil so repeated requests for a broken key back off
	// instead of recompiling.  ready/failed are written under the shard
	// lock; waiters blocked on done read fn/err through the channel's
	// happens-before edge instead.
	done     chan struct{}
	ready    bool
	failed   bool
	negUntil time.Time

	prev, next *entry
}

// New builds a cache from cfg.
func New(cfg Config) *Cache {
	n := cfg.Shards
	if n <= 0 {
		n = 8
	}
	pow := 1
	for pow < n {
		pow <<= 1
	}
	c := &Cache{
		machine:         cfg.Machine,
		maxEntries:      cfg.MaxEntries,
		maxBytes:        cfg.MaxCodeBytes,
		failureBackoff:  cfg.FailureBackoff,
		onEvict:         cfg.OnEvict,
		onCompileResult: cfg.OnCompileResult,
		shards:          make([]*shard, pow),
		mask:            uint32(pow - 1),
	}
	for i := range c.shards {
		c.shards[i] = &shard{entries: make(map[string]*entry)}
	}
	if cfg.Name != "" {
		c.RegisterTelemetry(telemetry.Default, cfg.Name)
	}
	return c
}

// HashKey condenses arbitrary client content into a cache key (FNV-1a).
// Clients hash whatever determines the generated code: source bytecode,
// a filter specification, assembly text.  Several parts hash as their
// concatenation with a NUL between neighbours, without building it.
func HashKey(parts ...string) string {
	const offset, prime = 14695981039346656037, 1099511628211
	h := uint64(offset)
	for n, part := range parts {
		if n > 0 {
			h *= prime // (h ^ 0) * prime: the NUL separator
		}
		for i := 0; i < len(part); i++ {
			h ^= uint64(part[i])
			h *= prime
		}
	}
	return strconv.FormatUint(h, 16)
}

func (c *Cache) shard(key string) *shard {
	const offset, prime = 2166136261, 16777619
	h := uint32(offset)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= prime
	}
	return c.shards[h&c.mask]
}

// GetOrCompile returns the cached function for key, compiling (and, when a
// machine is bound, installing) it on a miss.  Concurrent calls for the
// same key coalesce into one compile: exactly one caller runs compile, the
// rest wait for its result.  A compile that fails — or panics; the panic
// is recovered into a *CompilePanicError — always closes the flight, so
// waiters never deadlock.  Failed keys are negative-cached for
// Config.FailureBackoff (not at all when zero — the next request retries),
// except when the failure is a context cancellation or deadline.
func (c *Cache) GetOrCompile(key string, compile CompileFunc) (*core.Func, error) {
	var lkStart time.Time
	if trace.Enabled() {
		lkStart = time.Now()
	}
	s := c.shard(key)
	s.mu.Lock()
	if e, ok := s.entries[key]; ok {
		switch {
		case e.ready:
			e.stamp = c.clock.Add(1)
			s.moveToFront(e)
			s.mu.Unlock()
			c.hits.Add(1)
			lookupSpan(lkStart, "hit", e.fn, key, nil)
			return e.fn, nil
		case e.failed:
			if time.Now().Before(e.negUntil) {
				err := e.err
				s.mu.Unlock()
				c.negativeHits.Add(1)
				lookupSpan(lkStart, "negative", nil, key, err)
				return nil, err
			}
			// Backoff expired: drop the negative entry and retry below.
			delete(s.entries, key)
		default:
			s.mu.Unlock()
			c.coalesced.Add(1)
			<-e.done
			if e.err != nil {
				lookupSpan(lkStart, "coalesced", nil, key, e.err)
				return nil, e.err
			}
			lookupSpan(lkStart, "coalesced", e.fn, key, nil)
			return e.fn, nil
		}
	}
	e := &entry{key: key, done: make(chan struct{})}
	s.entries[key] = e
	s.mu.Unlock()
	c.misses.Add(1)

	start := time.Now()
	fn, err := c.runCompile(key, compile)
	c.compileNanos.Add(uint64(time.Since(start)))
	if err == nil {
		c.compiles.Add(1)
		// Front ends that place their own code (tinyc, vasm) return it
		// resident; installing it again would only re-hash its words.
		if c.machine != nil && !c.machine.Installed(fn) {
			err = c.machine.Install(fn)
		}
	}
	if err != nil {
		c.compileErrors.Add(1)
		e.err = err
		s.mu.Lock()
		// The caller's own cancellation or deadline is no verdict on the
		// key: it settles this flight and is not remembered.
		if c.failureBackoff > 0 && !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded) {
			e.failed = true
			e.negUntil = time.Now().Add(c.failureBackoff)
		} else {
			delete(s.entries, key)
		}
		s.mu.Unlock()
		close(e.done)
		if c.onCompileResult != nil {
			c.onCompileResult(key, err)
		}
		lookupSpan(lkStart, "miss", nil, key, err)
		return nil, err
	}
	e.fn = fn
	e.size = int64(fn.SizeBytes())
	if u := fn.Unit(); u != nil {
		e.size = u.CodeBytes()
	}
	s.mu.Lock()
	e.stamp = c.clock.Add(1)
	e.ready = true
	s.pushFront(e)
	s.mu.Unlock()
	c.entries.Add(1)
	c.codeBytes.Add(e.size)
	close(e.done)
	if c.onCompileResult != nil {
		c.onCompileResult(key, nil)
	}
	c.enforce()
	lookupSpan(lkStart, "miss", fn, key, nil)
	return fn, nil
}

// lookupSpan records a KindLookup trace span for one GetOrCompile
// outcome.  lkStart is zero when tracing was off at entry — then this is
// a no-op, keeping the disabled path at its single atomic load.  On a
// miss the span covers the whole flight (compile + install), which is
// exactly the latency the caller saw.
func lookupSpan(lkStart time.Time, verdict string, fn *core.Func, key string, err error) {
	if lkStart.IsZero() {
		return
	}
	name, backend, flow := key, "", uint64(0)
	if fn != nil {
		name, backend, flow = fn.Name, fn.BackendName, fn.TraceFlow()
	}
	at := trace.Attrs{Verdict: verdict}
	if err != nil {
		at.Err = err.Error()
	}
	trace.Record(trace.KindLookup, backend, name, flow, lkStart, time.Since(lkStart), at)
}

// runCompile runs the client's compile callback with panic isolation: the
// single-flight contract requires the flight to complete no matter what
// the callback does, so a panic becomes an error like any other.
func (c *Cache) runCompile(key string, compile CompileFunc) (fn *core.Func, err error) {
	defer func() {
		if r := recover(); r != nil {
			c.compilePanics.Add(1)
			fn, err = nil, &CompilePanicError{Key: key, Value: r}
		}
	}()
	return compile()
}

// Get returns the cached function for key without compiling, counting a
// hit when present.  It does not wait for an in-flight compile.
func (c *Cache) Get(key string) (*core.Func, bool) {
	s := c.shard(key)
	s.mu.Lock()
	e, ok := s.entries[key]
	if !ok || !e.ready {
		s.mu.Unlock()
		return nil, false
	}
	e.stamp = c.clock.Add(1)
	s.moveToFront(e)
	s.mu.Unlock()
	c.hits.Add(1)
	return e.fn, true
}

// Contains reports whether key is cached and ready, without touching LRU
// order or metrics.
func (c *Cache) Contains(key string) bool {
	s := c.shard(key)
	s.mu.Lock()
	e, ok := s.entries[key]
	ready := ok && e.ready
	s.mu.Unlock()
	return ready
}

// Len returns the number of ready entries.
func (c *Cache) Len() int { return int(c.entries.Load()) }

// Invalidate drops key from the cache (uninstalling its function when a
// machine is bound), reporting whether it was present.  In-flight compiles
// are not interrupted.
func (c *Cache) Invalidate(key string) bool {
	s := c.shard(key)
	s.mu.Lock()
	e, ok := s.entries[key]
	if !ok || !e.ready {
		if ok && e.failed {
			// Invalidating a negative entry clears the backoff so the
			// next request retries immediately.
			delete(s.entries, key)
		}
		s.mu.Unlock()
		return false
	}
	delete(s.entries, key)
	s.unlink(e)
	s.mu.Unlock()
	c.drop(e, false)
	return true
}

// over reports whether a capacity bound is exceeded.
func (c *Cache) over() bool {
	if c.maxEntries > 0 && int(c.entries.Load()) > c.maxEntries {
		return true
	}
	return c.maxBytes > 0 && c.codeBytes.Load() > c.maxBytes
}

// enforce evicts least-recently-used entries until within capacity.  The
// globally most-recently-touched entry is never evicted, so a single
// oversized function does not evict itself out from under its caller.
func (c *Cache) enforce() {
	for c.over() {
		var vs *shard
		var victim *entry
		var victimStamp, newest uint64
		for _, s := range c.shards {
			s.mu.Lock()
			if s.head != nil && s.head.stamp > newest {
				newest = s.head.stamp
			}
			if t := s.tail; t != nil && (victim == nil || t.stamp < victimStamp) {
				vs, victim, victimStamp = s, t, t.stamp
			}
			s.mu.Unlock()
		}
		if victim == nil || victimStamp == newest {
			return
		}
		vs.mu.Lock()
		// Re-check under the lock: the victim may have been touched or
		// removed since the scan.
		if e, ok := vs.entries[victim.key]; !ok || e != victim || victim != vs.tail {
			vs.mu.Unlock()
			continue
		}
		delete(vs.entries, victim.key)
		vs.unlink(victim)
		vs.mu.Unlock()
		c.drop(victim, true)
	}
}

// drop finalizes a removed entry: bookkeeping plus machine uninstall.
func (c *Cache) drop(e *entry, evicted bool) {
	c.entries.Add(-1)
	c.codeBytes.Add(-e.size)
	if evicted {
		c.evictions.Add(1)
	}
	if u := e.fn.Unit(); c.machine != nil && u != nil {
		u.Unload() // a caller still holding e.fn gets core.ErrUnloaded
	} else if c.machine != nil {
		// A racing caller may already be re-running the loose function
		// (Call re-installs it on demand): a failed uninstall is not fatal.
		_ = c.machine.Uninstall(e.fn)
	}
	if c.onEvict != nil {
		c.onEvict(e.key, e.fn)
	}
}

// Each calls fn for every ready entry — the enumeration a warm-cache
// snapshot walks at shutdown.  The key set is captured per shard under
// its lock, but fn runs with no lock held, so it may call back into the
// cache; entries inserted or evicted while Each runs may or may not be
// seen.
func (c *Cache) Each(fn func(key string, f *core.Func)) {
	for _, s := range c.shards {
		type pair struct {
			key string
			fn  *core.Func
		}
		s.mu.Lock()
		pairs := make([]pair, 0, len(s.entries))
		for k, e := range s.entries {
			if e.ready {
				pairs = append(pairs, pair{k, e.fn})
			}
		}
		s.mu.Unlock()
		for _, p := range pairs {
			fn(p.key, p.fn)
		}
	}
}

// --- intrusive LRU list (entries are linked only while ready) ---

func (s *shard) pushFront(e *entry) {
	e.prev = nil
	e.next = s.head
	if s.head != nil {
		s.head.prev = e
	}
	s.head = e
	if s.tail == nil {
		s.tail = e
	}
}

func (s *shard) unlink(e *entry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		s.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		s.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (s *shard) moveToFront(e *entry) {
	if s.head == e {
		return
	}
	s.unlink(e)
	s.pushFront(e)
}

// Metrics is a point-in-time snapshot of cache activity.
type Metrics struct {
	// Hits and Misses count GetOrCompile/Get outcomes; Coalesced counts
	// callers that waited on another caller's in-flight compile instead
	// of compiling themselves.
	Hits, Misses, Coalesced uint64
	// Compiles counts successful compilations, CompileErrors failed
	// ones, and CompileNanos the wall time summed over both.
	Compiles, CompileErrors, CompileNanos uint64
	// CompilePanics counts compile callbacks that panicked (a subset of
	// CompileErrors); NegativeHits counts requests answered from the
	// failure backoff window without recompiling.
	CompilePanics, NegativeHits uint64
	// Evictions counts capacity-driven removals.
	Evictions uint64
	// Entries and CodeBytes describe current residency as accounted by
	// the cache (the bound Machine's CodeBytesResident may differ if
	// other clients install code too).
	Entries   int64
	CodeBytes int64
}

// Snapshot captures current metrics.
func (c *Cache) Snapshot() Metrics {
	return Metrics{
		Hits:          c.hits.Load(),
		Misses:        c.misses.Load(),
		Coalesced:     c.coalesced.Load(),
		Compiles:      c.compiles.Load(),
		CompileErrors: c.compileErrors.Load(),
		CompileNanos:  c.compileNanos.Load(),
		CompilePanics: c.compilePanics.Load(),
		NegativeHits:  c.negativeHits.Load(),
		Evictions:     c.evictions.Load(),
		Entries:       c.entries.Load(),
		CodeBytes:     c.codeBytes.Load(),
	}
}
