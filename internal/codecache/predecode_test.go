package codecache

import (
	"fmt"
	"testing"

	"repro/internal/core"
)

// TestEvictionDropsPredecodedBody pins the body half of the eviction
// path: a cache eviction uninstalls the function AND drops its
// predecoded threaded-engine body, and the recompiled replacement at
// the reused address executes its own fresh body (correct results, not
// the evicted function's).
func TestEvictionDropsPredecodedBody(t *testing.T) {
	m := newTestMachine(t)
	if m.Engine() != core.EngineThreaded {
		t.Fatal("threaded engine is not the default")
	}
	c := New(Config{MaxEntries: 1, Machine: m})

	get := func(k int64) *core.Func {
		t.Helper()
		fn, err := c.GetOrCompile(fmt.Sprint(k), func() (*core.Func, error) {
			return buildAdder(t, k), nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return fn
	}

	f1 := get(100)
	if got := m.PredecodedBodies(); got != 1 {
		t.Fatalf("bodies after first fill: %d, want 1", got)
	}
	if v, err := m.Call(f1, core.I(1)); err != nil || v.Int() != 101 {
		t.Fatalf("f1(1) = %v, %v; want 101", v, err)
	}

	// Capacity 1: every new key evicts the previous function; the body
	// count must stay pinned at one, and each resident function must
	// compute its own sum even though it reuses the same arena hole.
	for k := int64(200); k < 210; k++ {
		fn := get(k)
		if got := m.PredecodedBodies(); got != 1 {
			t.Fatalf("bodies after evicting fill %d: %d, want 1", k, got)
		}
		v, err := m.Call(fn, core.I(5))
		if err != nil {
			t.Fatal(err)
		}
		if v.Int() != 5+k {
			t.Fatalf("f%d(5) = %d, want %d (stale predecoded body?)", k, v.Int(), 5+k)
		}
	}
}
