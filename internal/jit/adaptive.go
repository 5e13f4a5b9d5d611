package jit

import (
	"errors"
	"sync"

	"repro/internal/codecache"
	"repro/internal/core"
	"repro/internal/profile"
)

// Adaptive is the full shape of the paper's best-known application of
// dynamic code generation (§1): an interpreter "that compiles frequently
// used code to machine code and then executes it directly".  Functions
// are interpreted until they have run Threshold times; the next call
// compiles them with VCODE and every call thereafter executes machine
// code.
//
// Compiled code lives in a codecache.Cache keyed by bytecode content, so
// concurrent promotions of the same function coalesce into one compile,
// capacity-driven eviction reclaims simulator code memory, and two Funcs
// with identical bytecode share one compilation.  Adaptive is safe for
// concurrent use.
type Adaptive struct {
	m *Machine
	// Threshold is the call count at which a function becomes hot.
	Threshold int
	// BlockThreshold, when positive, also promotes on block heat: a
	// function whose accumulated loop backedges (interpreted calls) plus
	// estimated branch resolutions (edge-profiled compiled runs) reach it
	// compiles on the next call even if its call count is still cold.
	// One call spinning a million-iteration loop promotes this way; it
	// never would on call counts alone.
	BlockThreshold int64

	cache *codecache.Cache

	// promoteWG counts the tier-3 formations running in the background.
	promoteWG sync.WaitGroup

	// hot is the shared hot-count table (profile.HotCounts): one atomic
	// bump per call replaces the old mutex-guarded count map, and the
	// profiler joins the same counts into its reports.
	hot *profile.HotCounts
	// blocks accumulates per-function block heat under the same content
	// key (interpreter backedges feed it directly; an attached
	// profile.EdgeProfiler may feed it too via SetHotCounts(ad.Blocks())).
	blocks *profile.HotCounts

	keys sync.Map // *Func -> memoized content hash (string)

	// sb, when set (EnableSuperblocks), adds the third tier: hot compiled
	// functions are re-formed into profile-guided superblocks.
	sb        *SuperblockConfig
	sbState   sync.Map // key (string) -> *tier3state
	sbForming sync.Map // key (string) -> struct{} (formation in flight)
}

// NewAdaptive wraps a JIT machine with a cache bounded at 128 compiled
// functions; use NewAdaptiveCache to tune capacity or share a cache.
func NewAdaptive(m *Machine, threshold int) *Adaptive {
	return NewAdaptiveCache(m, threshold,
		codecache.New(codecache.Config{Machine: m.Core(), MaxEntries: 128}))
}

// NewAdaptiveCache wraps a JIT machine with an explicit code cache.  The
// cache must be bound to m.Core() (or to no machine at all, in which case
// compiled functions install on first call and nothing reclaims them).
func NewAdaptiveCache(m *Machine, threshold int, cache *codecache.Cache) *Adaptive {
	return &Adaptive{
		m:         m,
		Threshold: threshold,
		cache:     cache,
		hot:       profile.NewHotCounts(),
		blocks:    profile.NewHotCounts(),
	}
}

// WaitPromotions blocks until every background tier-3 formation started
// so far has settled (installed or failed).  Tests and shutdown paths use
// it; steady-state callers never need to.
func (ad *Adaptive) WaitPromotions() { ad.promoteWG.Wait() }

// Cache exposes the underlying code cache (for metrics and sharing).
func (ad *Adaptive) Cache() *codecache.Cache { return ad.cache }

// Metrics snapshots the cache counters.
func (ad *Adaptive) Metrics() codecache.Metrics { return ad.cache.Snapshot() }

// Hot exposes the invocation-count table, keyed by bytecode content
// hash; a profiler links it with SetHotCounts to show calls alongside
// samples.
func (ad *Adaptive) Hot() *profile.HotCounts { return ad.hot }

// Blocks exposes the block-heat table.  Link an edge profiler with
// e.SetHotCounts(ad.Blocks()) so compiled-code branch activity keeps
// feeding the same promotion signal the interpreter's backedge counts
// seed.
func (ad *Adaptive) Blocks() *profile.HotCounts { return ad.blocks }

// key memoizes f's content hash (hashing bytecode on every call would
// erase the win of calling compiled code).
func (ad *Adaptive) key(f *Func) string {
	if k, ok := ad.keys.Load(f); ok {
		return k.(string)
	}
	k, _ := ad.keys.LoadOrStore(f, f.CacheKey())
	return k.(string)
}

// Compiled reports whether f's code is resident in the cache.
func (ad *Adaptive) Compiled(f *Func) bool { return ad.cache.Contains(ad.key(f)) }

// Calls returns how many times f has been invoked through the wrapper
// (two Funcs with identical bytecode share a count, as they share a
// compilation).
func (ad *Adaptive) Calls(f *Func) int { return int(ad.hot.Get(ad.key(f))) }

// Call runs f, interpreting while it is cold and compiling it once it
// crosses the threshold.  It returns the result and the modelled cycle
// cost of this call.
func (ad *Adaptive) Call(f *Func, args ...int32) (int32, uint64, error) {
	key := ad.key(f)
	n := ad.hot.Inc(key, f.Name)

	hot := int(n) > ad.Threshold || ad.cache.Contains(key)
	if !hot && ad.BlockThreshold > 0 {
		// Block-heat check last (it walks a sync.Map; the cheap paths
		// above decide most calls).  The interpreter's backedge entry is
		// keyed by content hash and an edge profiler's by "edge:"+name;
		// summing exactly those two keys scopes the signal to THIS
		// function's identity — the old GetByName merge summed every
		// entry sharing a display name, so a hot function in one tenant
		// could promote a cold same-named function in another.
		hot = ad.blocks.Get(key)+ad.blocks.Get("edge:"+f.Name) >= ad.BlockThreshold
	}
	for hot {
		fn, err := ad.cache.GetOrCompile(key, func() (*core.Func, error) {
			return ad.m.Compile(f)
		})
		if err != nil {
			return 0, 0, err
		}
		// Evicted between the lookup and the call: ask the cache again.
		if r, cycles, err := ad.runCompiled(key, f, fn, n, args...); !errors.Is(err, core.ErrUnloaded) {
			return r, cycles, err
		}
	}
	r, cycles, backedges, err := InterpCounted(f, args...)
	if backedges > 0 {
		ad.blocks.Add(key, f.Name, backedges)
	}
	return r, cycles, err
}
