package server

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/telemetry"
)

// newJournaledServer builds a server with shards arenas and runs Recover
// against the given snapshot+journal pair.
func newJournaledServer(t *testing.T, shards int, snap, jrnl string) (*Server, *httptest.Server, RecoveryStats, error) {
	t.Helper()
	s, err := New(Config{
		Shards:              shards,
		WorkersPerShard:     2,
		AllowUnknownTenants: true,
		Registry:            telemetry.NewRegistry(),
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	st, rerr := s.Recover(snap, jrnl)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { ts.Close(); s.Close() })
	return s, ts, st, rerr
}

// compileN compiles n distinct tinyc programs and returns key -> expected
// result for exec with args [3].  wantDurable asserts the ack's durability
// bit (true only when the server has a journal).
func compileN(t *testing.T, ts *httptest.Server, n, salt int, wantDurable bool) map[string]int64 {
	t.Helper()
	want := make(map[string]int64, n)
	for i := 0; i < n; i++ {
		a, b := salt*100+i*7+1, i
		status, out := post(t, ts, "/v1/exec", map[string]any{
			"tenant": "alice", "lang": "tinyc",
			"source": "int main(int n) { return n * " + itoa(a) + " + " + itoa(b) + "; }",
			"args":   []int{3},
		})
		if status != http.StatusOK {
			t.Fatalf("exec %d: %d %v", i, status, out)
		}
		if got := asInt(t, out["result"]); got != int64(3*a+b) {
			t.Fatalf("exec %d: result %d, want %d", i, got, 3*a+b)
		}
		if out["durable"] != wantDurable {
			t.Fatalf("exec %d durable = %v, want %v: %v", i, out["durable"], wantDurable, out)
		}
		want[out["key"].(string)] = int64(3*a + b)
	}
	return want
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b []byte
	for n > 0 {
		b = append([]byte{byte('0' + n%10)}, b...)
		n /= 10
	}
	return string(b)
}

func verifyKeys(t *testing.T, ts *httptest.Server, want map[string]int64) {
	t.Helper()
	for key, exp := range want {
		status, out := post(t, ts, "/v1/exec", map[string]any{"tenant": "alice", "key": key, "args": []int{3}})
		if status != http.StatusOK {
			t.Fatalf("warm exec %s: %d %v", key, status, out)
		}
		if got := asInt(t, out["result"]); got != exp {
			t.Fatalf("warm exec %s: result %d, want %d — recovered unit computes a different program", key, got, exp)
		}
		if out["durable"] != true {
			t.Fatalf("restored key %s not durable: %v", key, out)
		}
	}
}

// ledgerConserved asserts Σ tenant resident bytes == Σ shard unit bytes.
func ledgerConserved(t *testing.T, s *Server) int64 {
	t.Helper()
	st := s.StatsView()
	var tenantBytes, shardBytes int64
	for _, tn := range st.Tenants {
		tenantBytes += tn.ResidentBytes
	}
	for _, sh := range st.Shards {
		shardBytes += sh.UnitBytes
	}
	if tenantBytes != shardBytes || tenantBytes == 0 {
		t.Fatalf("residency ledger broken: tenants=%dB shards=%dB", tenantBytes, shardBytes)
	}
	return tenantBytes
}

// TestJournalOnlyRecovery kills a journaled server without a checkpoint:
// everything acknowledged durable must come back from the journal tail.
func TestJournalOnlyRecovery(t *testing.T) {
	dir := t.TempDir()
	snap, jrnl := filepath.Join(dir, "s.vcsnap"), filepath.Join(dir, "j.vcjrnl")

	s1, ts1, _, err := newJournaledServer(t, 2, snap, jrnl)
	if err != nil {
		t.Fatalf("first boot: %v", err)
	}
	want := compileN(t, ts1, 5, 1, true)
	// "Crash": no Checkpoint, no SaveSnapshot — the journal is all there is.
	ts1.Close()
	s1.Close()

	s2, ts2, st, err := newJournaledServer(t, 2, snap, jrnl)
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	if st.Warm != 5 || st.JournalRecords < 5 {
		t.Fatalf("recovery stats %+v, want 5 warm from >=5 journal records", st)
	}
	if ready, missing := s2.Health().Ready(); !ready {
		t.Fatalf("not ready after recovery: %v", missing)
	}
	verifyKeys(t, ts2, want)
	ledgerConserved(t, s2)
}

// TestReshardingRestore checkpoints an N-shard server and recovers into
// M != N shards: same keys, same answers, ledger conserved, resharding
// counted and exported.
func TestReshardingRestore(t *testing.T) {
	dir := t.TempDir()
	snap, jrnl := filepath.Join(dir, "s.vcsnap"), filepath.Join(dir, "j.vcjrnl")

	s1, ts1, _, err := newJournaledServer(t, 2, snap, jrnl)
	if err != nil {
		t.Fatalf("first boot: %v", err)
	}
	want := compileN(t, ts1, 8, 2, true)
	if err := s1.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	bytes1 := ledgerConserved(t, s1)
	ts1.Close()
	s1.Close()

	s2, ts2, st, err := newJournaledServer(t, 3, snap, jrnl)
	if err != nil {
		t.Fatalf("resharded recovery: %v", err)
	}
	if st.Warm != 8 {
		t.Fatalf("warm = %d, want 8 (stats %+v)", st.Warm, st)
	}
	if st.Resharded == 0 {
		t.Fatalf("no unit resharded across a 2->3 shard change: %+v", st)
	}
	verifyKeys(t, ts2, want)
	if bytes2 := ledgerConserved(t, s2); bytes2 != bytes1 {
		t.Fatalf("ledger changed across resharding: %dB -> %dB", bytes1, bytes2)
	}
	view := s2.StatsView()
	if view.Resharded != uint64(st.Resharded) {
		t.Fatalf("Stats.Resharded = %d, want %d", view.Resharded, st.Resharded)
	}
	if view.RecoveryMS != st.DurationMS {
		t.Fatalf("Stats.RecoveryMS = %d, want %d", view.RecoveryMS, st.DurationMS)
	}
}

// TestCheckpointFoldsJournal verifies compaction: after Checkpoint the
// journal holds exactly the live set as add records and recovers alone.
func TestCheckpointFoldsJournal(t *testing.T) {
	dir := t.TempDir()
	snap, jrnl := filepath.Join(dir, "s.vcsnap"), filepath.Join(dir, "j.vcjrnl")

	s1, ts1, _, err := newJournaledServer(t, 2, snap, jrnl)
	if err != nil {
		t.Fatalf("boot: %v", err)
	}
	want := compileN(t, ts1, 4, 3, true)
	for key := range compileN(t, ts1, 2, 4, true) { // evicted: a del follows each add
		if !s1.shards[shardOf(key, 2)].cache.Invalidate(key) {
			t.Fatalf("key %s not resident", key)
		}
	}
	if err := s1.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	recs, diag := replayJournal(jrnl)
	if diag.Torn || diag.HeaderBad || len(recs) != len(want) {
		t.Fatalf("compacted journal: %d records, %+v; want the %d live units", len(recs), diag, len(want))
	}
	for _, r := range recs {
		if _, ok := want[r.Entry.Key]; r.Op != journalOpAdd || !ok {
			t.Fatalf("compacted journal holds %+v, not an add of a live key", r)
		}
	}
	ts1.Close()
	s1.Close()

	// The journal alone carries the state; the snapshot path was never used.
	if _, err := os.Stat(snap); !os.IsNotExist(err) {
		t.Fatalf("a journaled server wrote its snapshot path: %v", err)
	}
	_, ts2, st, err := newJournaledServer(t, 2, "", jrnl)
	if err != nil {
		t.Fatalf("recovery from the compacted journal: %v", err)
	}
	if st.Warm != 4 || st.JournalRecords != 4 {
		t.Fatalf("recovery stats %+v, want 4 warm from 4 records", st)
	}
	verifyKeys(t, ts2, want)
}

// TestRecoverAcrossBackends: a file a mips server wrote — entries folded
// by a checkpoint plus a journal tail — recovers fully warm into a sparc
// server, because every entry recompiles from source whatever backend
// wrote it.
func TestRecoverAcrossBackends(t *testing.T) {
	dir := t.TempDir()
	snap, jrnl := filepath.Join(dir, "s.vcsnap"), filepath.Join(dir, "j.vcjrnl")
	boot := func(backend string) (*Server, *httptest.Server, RecoveryStats) {
		s, err := New(Config{Backend: backend, Shards: 2, WorkersPerShard: 2, AllowUnknownTenants: true, Registry: telemetry.NewRegistry()})
		if err != nil {
			t.Fatalf("New(%s): %v", backend, err)
		}
		st, err := s.Recover(snap, jrnl)
		if err != nil {
			t.Fatalf("Recover(%s): %v", backend, err)
		}
		ts := httptest.NewServer(s.Handler())
		t.Cleanup(func() { ts.Close(); s.Close() })
		return s, ts, st
	}
	s1, ts1, _ := boot("mips")
	want := compileN(t, ts1, 4, 8, true)
	if err := s1.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	maps.Copy(want, compileN(t, ts1, 3, 9, true))
	ts1.Close()
	s1.Close() // no final checkpoint: the last three are the journal tail

	s2, ts2, st := boot("sparc")
	if st.Warm != len(want) {
		t.Fatalf("sparc recovered %d of %d mips entries warm (%+v)", st.Warm, len(want), st)
	}
	verifyKeys(t, ts2, want)
	if got := s2.snapExact.Load() + s2.snapRecompiled.Load(); got != uint64(len(want)) {
		t.Fatalf("exact+recompiled = %d, want %d", got, len(want))
	}
}

// TestSnapshotBitFlips flips single bytes across every region of a
// SaveSnapshot file — magic, version, a record's frame header, record
// payloads — and requires a typed diagnostic each time, no panic, a
// serving server, every key whose record is at or after the flip
// answering 404, every key before it answering correctly, and never a
// wrong answer under a stale key (each record has passed its own CRC).
func TestSnapshotBitFlips(t *testing.T) {
	dir := t.TempDir()
	snap := filepath.Join(dir, "s.vcsnap")
	s1, ts1, _, err := newJournaledServer(t, 2, snap, "")
	if err != nil {
		t.Fatalf("boot: %v", err)
	}
	want := compileN(t, ts1, 3, 4, false)
	if _, err := s1.SaveSnapshot(snap); err != nil {
		t.Fatalf("SaveSnapshot: %v", err)
	}
	ts1.Close()
	s1.Close()
	clean, err := os.ReadFile(snap)
	if err != nil {
		t.Fatal(err)
	}
	recs, _ := replayJournal(snap)
	// ends[i] is the offset just past record i.
	var ends []int
	for off := len(journalHeader()); off < len(clean); {
		off += 8 + int(binary.LittleEndian.Uint32(clean[off:]))
		ends = append(ends, off)
	}
	if len(recs) != 3 || len(ends) != 3 {
		t.Fatalf("clean file: %d records, %d frames; want 3", len(recs), len(ends))
	}

	regions := map[string]int{
		"magic":        0,
		"version":      len(journalMagic),
		"crc":          ends[0] + 5,
		"payload-head": len(journalHeader()) + 8 + 3,
		"payload-mid":  len(clean) / 2,
		"payload-tail": len(clean) - 2,
	}
	for name, off := range regions {
		t.Run(name, func(t *testing.T) {
			mangled := append([]byte(nil), clean...)
			mangled[off] ^= 0x10
			p := filepath.Join(t.TempDir(), "flip.vcsnap")
			if err := os.WriteFile(p, mangled, 0o644); err != nil {
				t.Fatal(err)
			}
			s, ts, st, rerr := newJournaledServer(t, 2, p, "")
			if !errors.Is(rerr, errTorn) || !st.JournalTorn {
				t.Fatalf("corrupt file (%s): err %v, stats %+v; want errTorn", name, rerr, st)
			}
			if ready, missing := s.Health().Ready(); !ready {
				t.Fatalf("server not serving after a corrupt file: %v", missing)
			}
			before := make(map[string]bool)
			for i, r := range recs {
				before[r.Entry.Key] = ends[i] <= off
			}
			if kept := st.Warm; kept != countTrue(before) {
				t.Fatalf("warm = %d, want the %d records before byte %d", kept, countTrue(before), off)
			}
			for key, exp := range want {
				status, out := post(t, ts, "/v1/exec", map[string]any{"tenant": "alice", "key": key, "args": []int{3}})
				if !before[key] {
					wantErrCode(t, status, out, http.StatusNotFound, CodeNotFound)
				} else if status != http.StatusOK || asInt(t, out["result"]) != exp {
					t.Fatalf("key %s before the flip: %d %v, want %d", key, status, out, exp)
				}
			}
		})
	}
}

func countTrue(m map[string]bool) (n int) {
	for _, v := range m {
		if v {
			n++
		}
	}
	return n
}

// TestJournalBitFlipRecovery flips a byte inside a journal record region
// and requires a partially-warm boot: every record before the flip
// serves, the tail is truncated with JournalTorn set, nothing panics.
func TestJournalBitFlipRecovery(t *testing.T) {
	dir := t.TempDir()
	snap, jrnl := filepath.Join(dir, "s.vcsnap"), filepath.Join(dir, "j.vcjrnl")
	s1, ts1, _, err := newJournaledServer(t, 2, snap, jrnl)
	if err != nil {
		t.Fatalf("boot: %v", err)
	}
	compileN(t, ts1, 6, 5, true)
	ts1.Close()
	s1.Close()

	clean, err := os.ReadFile(jrnl)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a byte around 2/3 in: some records live before it.
	mangled := append([]byte(nil), clean...)
	mangled[len(mangled)*2/3] ^= 0x20
	if err := os.WriteFile(jrnl, mangled, 0o644); err != nil {
		t.Fatal(err)
	}
	trusted, diag := replayJournal(jrnl)
	if !diag.Torn || len(trusted) == 0 || len(trusted) >= 6 {
		t.Fatalf("flip at 2/3 should leave a partial tail: %d records, %+v", len(trusted), diag)
	}

	s2, _, st, rerr := newJournaledServer(t, 2, snap, jrnl)
	if rerr == nil {
		t.Fatal("torn journal recovered without a diagnostic")
	}
	if !st.JournalTorn {
		t.Fatalf("stats %+v, want JournalTorn", st)
	}
	if st.Warm != len(trusted) {
		t.Fatalf("warm = %d, want the %d trusted records", st.Warm, len(trusted))
	}
	if ready, missing := s2.Health().Ready(); !ready {
		t.Fatalf("server not serving after torn journal: %v", missing)
	}
}

// TestDurableAckRequiresJournal pins the contract: without a journal the
// ack says durable=false; with one it says true only after the fsync.
func TestDurableAckRequiresJournal(t *testing.T) {
	_, ts := newTestServer(t, nil) // no journal
	status, out := post(t, ts, "/v1/exec", map[string]any{
		"tenant": "a", "lang": "tinyc", "source": "int main(int n) { return n; }", "args": []int{1},
	})
	if status != http.StatusOK {
		t.Fatalf("exec: %d %v", status, out)
	}
	if out["durable"] != false {
		t.Fatalf("journal-less ack claims durability: %v", out)
	}
}

// TestGracefulDrain: BeginDrain flips readiness immediately and new
// requests get the typed shutdown rejection.
func TestGracefulDrain(t *testing.T) {
	s, ts := newTestServer(t, nil)
	if ready, _ := s.Health().Ready(); !ready {
		t.Fatal("not ready before drain")
	}
	s.BeginDrain()
	if ready, _ := s.Health().Ready(); ready {
		t.Fatal("still ready after BeginDrain")
	}
	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		t.Fatal("/readyz still 200 after BeginDrain")
	}
	status, out := post(t, ts, "/v1/exec", map[string]any{
		"tenant": "a", "lang": "tinyc", "source": "int main(int n) { return n; }", "args": []int{1},
	})
	wantErrCode(t, status, out, http.StatusServiceUnavailable, CodeShuttingDown)
}

// TestReadyMeansJournalOpen: a server that listens while it recovers (as
// vcoded does) turns ready only once its journal is open, so the first
// request of a client that waited for readiness is acknowledged durably.
func TestReadyMeansJournalOpen(t *testing.T) {
	dir := t.TempDir()
	s, err := New(Config{Shards: 2, AllowUnknownTenants: true, Registry: telemetry.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	ts := newHTTP(t, s)
	defer func() { ts.Close(); s.Close() }()
	recovered := make(chan error, 1)
	go func() {
		_, err := s.Recover(filepath.Join(dir, "s.vcsnap"), filepath.Join(dir, "j.vcjrnl"))
		recovered <- err
	}()
	waitFor(t, "readiness", func() bool { ready, _ := s.Health().Ready(); return ready })
	status, out := post(t, ts, "/v1/exec", map[string]any{
		"tenant": "a", "lang": "tinyc", "source": "int main(int n) { return n + 1; }", "args": []int{1},
	})
	if status != http.StatusOK || out["durable"] != true {
		t.Errorf("first request after readiness: status %d, %v; want a durable ack", status, out)
	}
	if err := <-recovered; err != nil {
		t.Fatal(err)
	}
}

// TestCheckpointKeepsInFlightUnit: a miss whose journal record fsynced
// into the generation a checkpoint then retires, but which has not yet
// returned to the cache when the checkpoint walks the resident set, must
// be in the compacted file — the compaction replaces the only journal
// record of a unit that is about to be acknowledged durable.
func TestCheckpointKeepsInFlightUnit(t *testing.T) {
	dir := t.TempDir()
	snap, jrnl := filepath.Join(dir, "s.vcsnap"), filepath.Join(dir, "j.vcjrnl")
	s1, ts1, _, err := newJournaledServer(t, 2, snap, jrnl)
	if err != nil {
		t.Fatalf("boot: %v", err)
	}
	const source = "int main(int n) { return n * 5 + 1; }"
	key := contentKey(LangTinyC, "", source)
	sh := s1.shards[shardOf(key, 2)]
	// The first half of a miss, as Server.compile runs it inside the
	// cache's flight: compile, admit, journal.
	u, err := compileUnit(sh.machine, key, "alice", LangTinyC, source, "")
	if err != nil {
		t.Fatal(err)
	}
	alice, ae := s1.tenants.get("alice")
	if ae != nil {
		t.Fatal(ae)
	}
	sh.admit(u, alice)
	if _, err := s1.dur.Load().append(journalRecord{Op: journalOpAdd, Entry: snapEntryOf(u, sh.id)}, true); err != nil {
		t.Fatal(err)
	}
	if err := s1.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	ts1.Close()
	s1.Close() // no final checkpoint: a crash

	_, ts2, _, err := newJournaledServer(t, 2, snap, jrnl)
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	verifyKeys(t, ts2, map[string]int64{key: 16})
}

// TestRequestsDuringRecover: vcoded listens before it recovers, so a client
// that does not wait for /readyz posts while Recover rebuilds the resident
// set and opens the journal.  Every reply is a 200 — durable or not — or a
// typed error, and (under -race) no request reads the journal Recover is
// publishing without synchronising with it.
func TestRequestsDuringRecover(t *testing.T) {
	dir := t.TempDir()
	snap, jrnl := filepath.Join(dir, "s.vcsnap"), filepath.Join(dir, "j.vcjrnl")
	// A first life leaves programs behind, so Recover has work to do.
	s1, ts1, _, err := newJournaledServer(t, 2, snap, jrnl)
	if err != nil {
		t.Fatalf("first boot: %v", err)
	}
	compileN(t, ts1, 16, 7, true)
	ts1.Close()
	s1.Close()

	s, err := New(Config{Shards: 2, AllowUnknownTenants: true, Registry: telemetry.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	h := s.Handler()
	// exec posts a never-seen source and checks the reply.
	exec := func(k int) (durable bool, err error) {
		body := fmt.Sprintf(`{"tenant":"t","lang":"tinyc","source":"int main(int n) { return n + %d; }","args":[1]}`, k)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/exec", strings.NewReader(body)))
		var out struct {
			Result  json.Number
			Durable bool
			Error   *APIError
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
			return false, fmt.Errorf("source %d: %d %q: %v", k, rec.Code, rec.Body, err)
		}
		switch {
		case rec.Code == http.StatusOK && out.Result.String() == fmt.Sprint(k+1):
			return out.Durable, nil
		case rec.Code != http.StatusOK && out.Error != nil && statusFor(out.Error.Code) == rec.Code:
			return false, nil
		}
		return false, fmt.Errorf("source %d: %d %s", k, rec.Code, rec.Body)
	}

	done := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan error, 2)
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 1; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				if _, err := exec(w*1000000 + i); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	st, err := s.Recover(snap, jrnl)
	close(done)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if err != nil || st.Warm != 16 {
		t.Fatalf("Recover = %+v, %v; want 16 warm", st, err)
	}
	if durable, err := exec(-1); err != nil || !durable {
		t.Fatalf("after Recover: durable %v, %v; want a durable ack", durable, err)
	}
}
