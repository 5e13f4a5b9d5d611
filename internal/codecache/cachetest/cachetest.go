// Package cachetest holds the one assertion every test of a machine-bound
// cache ends on, shared across the packages whose tests drive one.
package cachetest

import (
	"testing"

	"repro/internal/codecache"
	"repro/internal/core"
)

// Ledger fails t unless c owns what m holds: every entry is a unit, the
// cache's Entries and CodeBytes are what its entries' units charge, and the
// machine's installed functions and resident code beyond base (what the test
// itself placed before the cache's first insert) are those units' members,
// each rounded up to 16 bytes.  For a quiescent cache.
func Ledger(t testing.TB, c *codecache.Cache, m *core.Machine, base core.ArenaStats) {
	t.Helper()
	var entries, charged int64
	var funcs int
	var resident uint64
	c.Each(func(key string, fn *core.Func) {
		entries++
		members := []*core.Func{fn}
		if u := fn.Unit(); u != nil {
			members = u.Funcs()
		} else {
			t.Errorf("cache entry %s (%s) has no unit", key, fn.Name)
		}
		for _, f := range members {
			funcs++
			charged += int64(f.SizeBytes())
			resident += (uint64(f.SizeBytes()) + 15) &^ 15
		}
	})
	if s := c.Snapshot(); s.Entries != entries || s.CodeBytes != charged {
		t.Errorf("cache books %d entries, %d code bytes; its entries are %d, charging %d", s.Entries, s.CodeBytes, entries, charged)
	}
	st := m.ArenaStats()
	if got, gotBytes := st.Funcs-base.Funcs, st.CodeBytesResident-base.CodeBytesResident; got != funcs || gotBytes != resident {
		t.Errorf("machine holds %d functions, %d code bytes beyond its base; the cache's %d entries own %d, %d",
			got, gotBytes, entries, funcs, resident)
	}
}
