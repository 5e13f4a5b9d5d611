// Package codecache is a concurrency-safe cache of compiled functions —
// the layer that turns the paper's one-shot dynamic code generation into a
// service shape: adaptive JIT compilation and DPF demultiplexing (§1,
// §4.2) win only when generated code is *reused*, so the compile results
// are kept keyed by a client-supplied content hash of their source
// (bytecode, filter spec, vasm text).
//
// One lock guards one map and one exact LRU list.  Concurrent compiles of
// the same key share a single flight, and capacity is bounded by entry
// count and by resident code bytes.  Bound to a core.Machine, the cache owns
// what it holds: every entry is a core.Unit — the program its front end
// built, or the unit of one Machine.Install places a bare function in — and
// eviction is Unit.Unload, which returns code, tables and data together
// (§5.2: storage "is easily reclaimed when the function is deallocated").
// A caller still holding an evicted function gets core.ErrUnloaded from the
// machine, never a silent re-install, and asks the cache again.
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
// without the cache lock held, so it may itself use the machine (build a
// unit, allocate dispatch tables, define symbols).  With a machine bound it
// returns a member of a unit resident there, whose unit the cache then
// owns, or a function resident nowhere, which the cache installs.
type CompileFunc func() (*core.Func, error)

// Config sizes a Cache.
type Config struct {
	// Machine, when set, is where entries live: the cache installs each
	// bare function there, and eviction unloads the entry's unit.
	Machine *core.Machine
	// MaxEntries bounds the cached function count (0 = unlimited).
	MaxEntries int
	// MaxCodeBytes bounds the summed code bytes of cached programs
	// (0 = unlimited).
	MaxCodeBytes int64
	// Name, when non-empty, registers the cache's counters in the
	// process-wide telemetry registry under "codecache.<Name>.*"; an
	// unnamed cache can still be exported with RegisterTelemetry.
	Name string
	// OnEvict, when set, runs after an entry leaves the cache (capacity
	// eviction or Invalidate) and after its code left the machine.  A
	// caller that keeps books by key — per-tenant residency accounting —
	// settles them here.  It runs without the cache lock held and may call
	// back into the cache.
	OnEvict func(key string, fn *core.Func)
}

// CompilePanicError reports that a compile callback panicked.  The cache
// recovers the panic and converts it to this error for every waiter of the
// flight.
type CompilePanicError struct {
	Key   string
	Value any
}

func (e *CompilePanicError) Error() string {
	return fmt.Sprintf("codecache: compile for key %q panicked: %v", e.Key, e.Value)
}

// Cache is a single-flight, LRU-evicting map from content hash to compiled
// function.  The zero value is not usable; call New.
type Cache struct {
	machine    *core.Machine
	maxEntries int
	maxBytes   int64
	onEvict    func(key string, fn *core.Func)

	mu      sync.Mutex
	entries map[string]*entry
	// LRU list head (most recent) and tail (eviction candidate); only
	// ready entries are linked, and ready and codeBytes count them.
	head, tail *entry
	ready      int
	codeBytes  int64

	hits, misses, coalesced     atomic.Uint64
	evictions, compiles         atomic.Uint64
	compileErrors, compileNanos atomic.Uint64
	compilePanics               atomic.Uint64
}

type entry struct {
	key  string
	fn   *core.Func
	err  error
	size int64
	// done is closed when the flight finishes (fn or err is set); ready
	// marks the entry linked into the LRU and visible as a hit, and is
	// written under the lock.  Waiters blocked on done read fn/err through
	// the channel's happens-before edge instead.
	done  chan struct{}
	ready bool

	prev, next *entry
}

// New builds a cache from cfg.
func New(cfg Config) *Cache {
	c := &Cache{
		machine:    cfg.Machine,
		maxEntries: cfg.MaxEntries,
		maxBytes:   cfg.MaxCodeBytes,
		onEvict:    cfg.OnEvict,
		entries:    make(map[string]*entry),
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

// GetOrCompile returns the cached function for key, compiling (and, when a
// machine is bound, taking ownership of) it on a miss.  Concurrent calls
// for the same key coalesce into one compile: exactly one caller runs
// compile, the rest wait for its result.  A compile that fails — or
// panics; the panic is recovered into a *CompilePanicError — always closes
// the flight, so waiters never deadlock, and nothing of it is remembered:
// the next request compiles.  A waiter whose leader gave up (its compile
// ended in context.Canceled or DeadlineExceeded) does not inherit that: it
// goes round again and runs its own compile under its own context.
func (c *Cache) GetOrCompile(key string, compile CompileFunc) (*core.Func, error) {
	var lkStart time.Time
	if trace.Enabled() {
		lkStart = time.Now()
	}
	for {
		if fn, ok := c.Get(key); ok {
			lookupSpan(lkStart, "hit", fn, key, nil)
			return fn, nil
		}
		c.mu.Lock()
		e, inFlight := c.entries[key]
		if !inFlight {
			e = &entry{key: key, done: make(chan struct{})}
			c.entries[key] = e
		}
		c.mu.Unlock()
		if !inFlight {
			fn, err := c.lead(e, compile)
			lookupSpan(lkStart, "miss", fn, key, err)
			return fn, err
		}
		c.coalesced.Add(1)
		<-e.done
		if errors.Is(e.err, context.Canceled) || errors.Is(e.err, context.DeadlineExceeded) {
			continue
		}
		lookupSpan(lkStart, "coalesced", e.fn, key, e.err)
		return e.fn, e.err
	}
}

// lead runs the flight of e, the entry this caller just put in the map.
func (c *Cache) lead(e *entry, compile CompileFunc) (*core.Func, error) {
	c.misses.Add(1)
	start := time.Now()
	fn, size, err := c.runCompile(e.key, compile)
	c.compileNanos.Add(uint64(time.Since(start)))
	c.mu.Lock()
	if err != nil {
		c.compileErrors.Add(1)
		e.err = err
		delete(c.entries, e.key)
	} else {
		c.compiles.Add(1)
		e.fn, e.size, e.ready = fn, size, true
		c.pushFront(e)
		c.ready++
		c.codeBytes += size
	}
	c.mu.Unlock()
	close(e.done)
	if err == nil {
		c.enforce()
	}
	return fn, err
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

// runCompile runs the client's compile callback with panic isolation — the
// single-flight contract requires the flight to complete no matter what
// the callback does, so a panic becomes an error like any other — and, with
// a machine bound, installs it there (a no-op for a function its front end
// already placed).  size is what the entry charges: its whole unit's code.
func (c *Cache) runCompile(key string, compile CompileFunc) (fn *core.Func, size int64, err error) {
	defer func() {
		if r := recover(); r != nil {
			c.compilePanics.Add(1)
			fn, size, err = nil, 0, &CompilePanicError{Key: key, Value: r}
		}
	}()
	if fn, err = compile(); err != nil {
		return nil, 0, err
	}
	if c.machine != nil {
		if err = c.machine.Install(fn); err != nil {
			return nil, 0, err
		}
	}
	if u := fn.Unit(); u != nil {
		return fn, u.CodeBytes(), nil
	}
	return fn, int64(fn.SizeBytes()), nil
}

// Get returns the cached function for key without compiling, counting a
// hit and making the entry most recently used when present.  It does not
// wait for an in-flight compile.
func (c *Cache) Get(key string) (*core.Func, bool) {
	c.mu.Lock()
	e, ok := c.entries[key]
	if !ok || !e.ready {
		c.mu.Unlock()
		return nil, false
	}
	if c.head != e {
		c.unlink(e)
		c.pushFront(e)
	}
	c.mu.Unlock()
	c.hits.Add(1)
	return e.fn, true
}

// Contains reports whether key is cached and ready, without touching LRU
// order or metrics.
func (c *Cache) Contains(key string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[key]
	return ok && e.ready
}

// Len returns the number of ready entries.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ready
}

// Invalidate drops key from the cache (unloading its unit when a machine
// is bound), reporting whether it was present.  In-flight compiles are not
// interrupted.
func (c *Cache) Invalidate(key string) bool {
	c.mu.Lock()
	e, ok := c.entries[key]
	if ok = ok && e.ready; ok {
		c.remove(e)
	}
	c.mu.Unlock()
	if ok {
		c.drop(e)
	}
	return ok
}

// enforce evicts from the least-recently-used end until within capacity.
// The most recently used entry is never evicted, so a single oversized
// program does not evict itself out from under its caller.
func (c *Cache) enforce() {
	for {
		c.mu.Lock()
		v := c.tail
		over := (c.maxEntries > 0 && c.ready > c.maxEntries) || (c.maxBytes > 0 && c.codeBytes > c.maxBytes)
		if !over || v == c.head {
			c.mu.Unlock()
			return
		}
		c.remove(v)
		c.mu.Unlock()
		c.evictions.Add(1)
		c.drop(v)
	}
}

// remove takes a ready entry out of the map, the list and the books.
// Caller holds mu.
func (c *Cache) remove(e *entry) {
	delete(c.entries, e.key)
	c.unlink(e)
	c.ready--
	c.codeBytes -= e.size
}

// drop finalizes a removed entry, with no lock held: its program leaves the
// machine — a caller still holding e.fn gets core.ErrUnloaded — and then
// the owner hears of it.
func (c *Cache) drop(e *entry) {
	if u := e.fn.Unit(); u != nil {
		u.Unload()
	}
	if c.onEvict != nil {
		c.onEvict(e.key, e.fn)
	}
}

// Each calls fn for every ready entry — the enumeration a warm-cache
// snapshot walks at shutdown.  The entries are captured under the lock,
// but fn runs with no lock held, so it may call back into the cache;
// entries inserted or evicted while Each runs may or may not be seen.
func (c *Cache) Each(fn func(key string, f *core.Func)) {
	c.mu.Lock()
	ready := make([]*entry, 0, c.ready)
	for e := c.head; e != nil; e = e.next {
		ready = append(ready, e)
	}
	c.mu.Unlock()
	for _, e := range ready {
		fn(e.key, e.fn)
	}
}

// --- intrusive LRU list (entries are linked only while ready) ---

func (c *Cache) pushFront(e *entry) {
	e.prev = nil
	e.next = c.head
	if c.head != nil {
		c.head.prev = e
	}
	c.head = e
	if c.tail == nil {
		c.tail = e
	}
}

func (c *Cache) unlink(e *entry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		c.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		c.tail = e.prev
	}
	e.prev, e.next = nil, nil
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
	// CompileErrors).
	CompilePanics uint64
	// Evictions counts capacity-driven removals.
	Evictions uint64
	// Entries and CodeBytes describe current residency as accounted by
	// the cache (the bound Machine's CodeBytesResident rounds each function
	// up to 16 bytes, and counts what other clients install too).
	Entries   int64
	CodeBytes int64
}

// Snapshot captures current metrics.
func (c *Cache) Snapshot() Metrics {
	c.mu.Lock()
	entries, codeBytes := c.ready, c.codeBytes
	c.mu.Unlock()
	return Metrics{
		Hits:          c.hits.Load(),
		Misses:        c.misses.Load(),
		Coalesced:     c.coalesced.Load(),
		Compiles:      c.compiles.Load(),
		CompileErrors: c.compileErrors.Load(),
		CompileNanos:  c.compileNanos.Load(),
		CompilePanics: c.compilePanics.Load(),
		Evictions:     c.evictions.Load(),
		Entries:       int64(entries),
		CodeBytes:     codeBytes,
	}
}
