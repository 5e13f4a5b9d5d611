package profile

import (
	"sync"
	"sync/atomic"
)

// HotCounts is a lock-light invocation counter table keyed by a stable
// content key (e.g. a bytecode hash), with a display name per entry.  The
// adaptive JIT bumps one atomic per call instead of a mutex-guarded map,
// and the profiler joins the counts into its reports — one shared notion
// of "hot" across promotion decisions and profiles.
type HotCounts struct {
	m sync.Map // key string -> *hotEntry
}

type hotEntry struct {
	name string
	n    atomic.Int64
}

// NewHotCounts returns an empty table.
func NewHotCounts() *HotCounts { return &HotCounts{} }

// Inc bumps the counter for key (creating it with the given display name
// on first sight) and returns the new count.
func (h *HotCounts) Inc(key, name string) int64 { return h.Add(key, name, 1) }

// Add adds n to the counter for key (creating it with the given display
// name on first sight) and returns the new count.  Weighted adds let
// sampled sources — the edge profiler records one event per stride
// branch resolutions — feed estimated true counts into the same table.
func (h *HotCounts) Add(key, name string, n int64) int64 {
	if e, ok := h.m.Load(key); ok {
		return e.(*hotEntry).n.Add(n)
	}
	e := &hotEntry{name: name}
	if prev, loaded := h.m.LoadOrStore(key, e); loaded {
		e = prev.(*hotEntry)
	}
	return e.n.Add(n)
}

// Get returns the count for key (0 when unseen).
func (h *HotCounts) Get(key string) int64 {
	if e, ok := h.m.Load(key); ok {
		return e.(*hotEntry).n.Load()
	}
	return 0
}

// GetByName sums counts over entries with the given display name (names
// need not be unique, unlike keys).
func (h *HotCounts) GetByName(name string) int64 {
	var n int64
	h.m.Range(func(_, v any) bool {
		if e := v.(*hotEntry); e.name == name {
			n += e.n.Load()
		}
		return true
	})
	return n
}
