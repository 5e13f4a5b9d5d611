package server

import (
	"net/http"
	"testing"
)

// restoreEntry is what a snapshot holds for one tinyc program of tenant a.
func restoreEntry(source string) snapEntry {
	return snapEntry{Key: contentKey(LangTinyC, "", source), Tenant: "a", Lang: LangTinyC, Source: source}
}

// Restore is a loop over the cache's own flight: a key held twice compiles
// once and its second copy is a hit, and an entry whose source no longer
// compiles is counted and fails alone.
func TestRestoreDuplicateAndBrokenEntries(t *testing.T) {
	s, ts := newTestServer(t, func(c *Config) { c.Shards = 1 })
	good, other := restoreEntry(missSource(1)), restoreEntry(missSource(3))
	broken := restoreEntry("int main(int n) { return nosuch(n); }")

	warm, _ := s.restoreEntries([]snapEntry{good, broken, good, other})
	if warm != 3 {
		t.Errorf("%d entries warm, want 3 (two programs, one of them twice)", warm)
	}
	if got := s.snapErrors.Load(); got != 1 {
		t.Errorf("snapshot.errors = %d, want 1 for the program that no longer compiles", got)
	}
	if got := s.shards[0].compiles.Load(); got != 2 {
		t.Errorf("%d compiles for two distinct programs that compile", got)
	}
	if got := s.snapExact.Load() + s.snapRecompiled.Load(); got != 2 {
		t.Errorf("exact+recompiled = %d, want 2", got)
	}
	for _, e := range []snapEntry{good, other} {
		status, out := post(t, ts, "/v1/exec", map[string]any{"tenant": "a", "key": e.Key, "args": []int{7}})
		if status != http.StatusOK || out["cached"] != true || out["durable"] != true {
			t.Errorf("exec by restored key %s: %d %v", e.Key, status, out)
		}
	}
	status, out := post(t, ts, "/v1/exec", map[string]any{"tenant": "a", "key": broken.Key, "args": []int{7}})
	wantErrCode(t, status, out, http.StatusNotFound, CodeNotFound)
}

// A request that is compiling a key when restore reaches it owns the
// flight: restore waits for it and compiles nothing.
func TestRestoreCoalescesWithLiveCompile(t *testing.T) {
	s, _ := newTestServer(t, func(c *Config) { c.Shards = 1 })
	held := holdFrontEnd(s)
	h, sh := s.Handler(), s.shards[0]

	served := make(chan int, 1)
	go func() { served <- serve(h, missBody(t, 1)).Code }()
	waitFor(t, "the request to enter the front end", func() bool { return held.inside.Load() == 1 })

	restored := make(chan int, 1)
	go func() {
		warm, _ := s.restoreEntries([]snapEntry{restoreEntry(missSource(1))})
		restored <- warm
	}()
	waitFor(t, "restore to join the request's flight", func() bool { return sh.cache.Snapshot().Coalesced == 1 })
	close(held.release)

	if code := <-served; code != http.StatusOK {
		t.Errorf("the live request answered %d", code)
	}
	if warm := <-restored; warm != 1 {
		t.Errorf("restore reported %d warm entries, want 1", warm)
	}
	if got := sh.compiles.Load(); got != 1 {
		t.Errorf("shard counted %d compiles for one key", got)
	}
	if got := s.snapErrors.Load(); got != 0 {
		t.Errorf("snapshot.errors = %d", got)
	}
}
