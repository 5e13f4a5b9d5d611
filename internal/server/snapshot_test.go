package server

import (
	"encoding/json"
	"errors"
	"net/http"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/telemetry"
)

func snapshotConfig() Config {
	return Config{
		Shards:              2,
		WorkersPerShard:     2,
		AllowUnknownTenants: true,
		Registry:            telemetry.NewRegistry(),
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "warm.snap")

	// First life: compile two programs (both front ends), run one, save.
	s1, err := New(snapshotConfig())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if _, err := s1.Restore(""); err != nil {
		t.Fatalf("Restore(empty): %v", err)
	}
	ts1 := newHTTP(t, s1)
	status, out := post(t, ts1, "/v1/exec", map[string]any{
		"tenant": "alice", "lang": "vasm", "source": factVasm, "args": []int{6},
	})
	if status != http.StatusOK {
		t.Fatalf("exec: %d %v", status, out)
	}
	keyFact := out["key"].(string)
	status, out = post(t, ts1, "/v1/compile", map[string]any{
		"tenant": "bob", "lang": "tinyc", "source": fibTinyC,
	})
	if status != http.StatusOK {
		t.Fatalf("compile: %d %v", status, out)
	}
	keyFib := out["key"].(string)

	n, err := s1.SaveSnapshot(path)
	if err != nil || n != 2 {
		t.Fatalf("SaveSnapshot = %d, %v; want 2 programs", n, err)
	}
	ts1.Close()
	s1.Close()

	// Second life: restore, then execute by key with no source at all.
	s2, err := New(snapshotConfig())
	if err != nil {
		t.Fatalf("New(2): %v", err)
	}
	defer s2.Close()
	if ready, _ := s2.Health().Ready(); ready {
		t.Fatalf("ready before restore")
	}
	n, err = s2.Restore(path)
	if err != nil || n != 2 {
		t.Fatalf("Restore = %d, %v; want 2 warm programs", n, err)
	}
	if ready, missing := s2.Health().Ready(); !ready {
		t.Fatalf("not ready after restore: %v", missing)
	}
	ts2 := newHTTP(t, s2)
	defer ts2.Close()

	status, out = post(t, ts2, "/v1/exec", map[string]any{
		"tenant": "alice", "key": keyFact, "args": []int{7},
	})
	if status != http.StatusOK {
		t.Fatalf("warm exec fact: %d %v", status, out)
	}
	if got := asInt(t, out["result"]); got != 5040 {
		t.Fatalf("warm fact(7) = %d, want 5040", got)
	}
	if out["cached"] != true {
		t.Fatalf("warm exec was not a cache hit: %v", out)
	}
	status, out = post(t, ts2, "/v1/exec", map[string]any{
		"tenant": "bob", "key": keyFib, "args": []int{10},
	})
	if status != http.StatusOK || asInt(t, out["result"]) != 55 {
		t.Fatalf("warm exec fib: %d %v", status, out)
	}

	// Accounting followed the snapshot: tenants own their restored code.
	alice, _ := s2.tenants.get("alice")
	bob, _ := s2.tenants.get("bob")
	if alice.resident.Load() <= 0 || bob.resident.Load() <= 0 {
		t.Fatalf("restored residency: alice=%d bob=%d", alice.resident.Load(), bob.resident.Load())
	}
	// Every restored program verified as exact or recompiled — none lost.
	if got := s2.snapExact.Load() + s2.snapRecompiled.Load(); got != 2 {
		t.Fatalf("exact+recompiled = %d, want 2", got)
	}
}

func TestSnapshotRejectsGarbage(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.snap")
	if err := os.WriteFile(bad, []byte("not a snapshot at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := New(snapshotConfig())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer s.Close()
	if _, err := s.Restore(bad); !errors.Is(err, errTorn) {
		t.Fatalf("garbage snapshot restored with error %v, want errTorn", err)
	}
	// A bad snapshot serves cold, it does not wedge boot.
	if ready, missing := s.Health().Ready(); !ready {
		t.Fatalf("not ready after failed restore: %v", missing)
	}
	if s.jrnlTorn.Load() == 0 {
		t.Fatalf("restore failure not counted")
	}
}

// A file with another format's magic, or a journal of a future version,
// is not read: it fails the header check (and Restore boots cold, as
// TestSnapshotRejectsGarbage checks).
func TestSnapshotVersionGate(t *testing.T) {
	dir := t.TempDir()
	for name, raw := range map[string][]byte{
		"foreign": append([]byte("VCXXXX"), journalVersion, 0, 0, 0, 0),
		"future":  append([]byte(journalMagic), 99),
	} {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		if recs, diag := replayJournal(p); !diag.HeaderBad || len(recs) != 0 {
			t.Fatalf("%s header accepted: %d records, %+v", name, len(recs), diag)
		}
	}
}

func TestSnapshotMissingFileServesCold(t *testing.T) {
	s, err := New(snapshotConfig())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer s.Close()
	n, err := s.Restore(filepath.Join(t.TempDir(), "never-written.snap"))
	if err != nil || n != 0 {
		t.Fatalf("missing snapshot: n=%d err=%v", n, err)
	}
	if ready, _ := s.Health().Ready(); !ready {
		t.Fatalf("not ready with no snapshot")
	}
}

// TestSnapshotStatsSurvive exercises /v1/stats after a restore so the
// units map and cache state agree.
func TestSnapshotStatsSurvive(t *testing.T) {
	path := filepath.Join(t.TempDir(), "warm.snap")
	s1, _ := New(snapshotConfig())
	s1.Restore("")
	ts1 := newHTTP(t, s1)
	post(t, ts1, "/v1/compile", map[string]any{
		"tenant": "alice", "lang": "vasm", "source": factVasm,
	})
	if n, err := s1.SaveSnapshot(path); n != 1 || err != nil {
		t.Fatalf("save: %d %v", n, err)
	}
	ts1.Close()
	s1.Close()

	s2, _ := New(snapshotConfig())
	if _, err := s2.Restore(path); err != nil {
		t.Fatalf("restore: %v", err)
	}
	defer s2.Close()
	st := s2.StatsView()
	units := 0
	for _, sh := range st.Shards {
		units += sh.Units
	}
	if units != 1 {
		t.Fatalf("units after restore = %d, want 1", units)
	}
	raw, err := json.Marshal(st)
	if err != nil || len(raw) == 0 {
		t.Fatalf("stats marshal: %v", err)
	}
}
