package server

import (
	"bytes"
	"errors"
	"maps"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/telemetry"
)

// testJournal opens a journal whose compactions write *live.
func testJournal(t *testing.T, inj *faultinject.Injector, live *[]snapEntry) (*journal, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "j.vcjrnl")
	if live == nil {
		live = new([]snapEntry)
	}
	j, err := openJournal(path, time.Millisecond, inj, telemetry.NewRegistry(), func() []snapEntry { return *live })
	if err != nil {
		t.Fatalf("openJournal: %v", err)
	}
	return j, path
}

func addRec(key string) journalRecord {
	return journalRecord{Op: journalOpAdd, Entry: snapEntry{Key: key, Tenant: "t", Lang: "vasm", Source: "src-" + key}}
}

func TestJournalRoundTrip(t *testing.T) {
	j, path := testJournal(t, nil, nil)
	for _, k := range []string{"a", "b", "c"} {
		if _, err := j.append(addRec(k), true); err != nil {
			t.Fatalf("append(%s): %v", k, err)
		}
	}
	if _, err := j.append(journalRecord{Op: journalOpDel, Key: "b"}, true); err != nil {
		t.Fatalf("append(del): %v", err)
	}
	j.close()

	recs, diag := replayJournal(path)
	if diag.Torn || diag.HeaderBad || diag.Missing {
		t.Fatalf("clean journal diagnosed dirty: %+v", diag)
	}
	if len(recs) != 4 {
		t.Fatalf("replayed %d records, want 4", len(recs))
	}
	for i, want := range []string{"a", "b", "c"} {
		if recs[i].Op != journalOpAdd || recs[i].Entry.Key != want || recs[i].Entry.Source != "src-"+want {
			t.Fatalf("record %d = %+v, want add %s", i, recs[i], want)
		}
	}
	if recs[3].Op != journalOpDel || recs[3].Key != "b" {
		t.Fatalf("record 3 = %+v, want del b", recs[3])
	}
}

func TestJournalTornTailTruncatesReplay(t *testing.T) {
	j, path := testJournal(t, nil, nil)
	for _, k := range []string{"a", "b", "c"} {
		if _, err := j.append(addRec(k), true); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
	j.close()
	clean, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name   string
		mangle func([]byte) []byte
		want   int // trusted records after corruption
	}{
		{"truncated mid-frame", func(b []byte) []byte { return b[:len(b)-3] }, 2},
		{"flipped payload byte", func(b []byte) []byte {
			out := append([]byte(nil), b...)
			out[len(out)-2] ^= 0x40
			return out
		}, 2},
		{"garbage appended", func(b []byte) []byte { return append(append([]byte(nil), b...), 0xde, 0xad) }, 3},
		{"absurd length field", func(b []byte) []byte {
			// Rewrite the first record's length to claim gigabytes.
			out := append([]byte(nil), b...)
			off := len(journalHeader())
			out[off], out[off+1], out[off+2], out[off+3] = 0xff, 0xff, 0xff, 0x7f
			return out
		}, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := filepath.Join(t.TempDir(), "mangled.vcjrnl")
			if err := os.WriteFile(p, tc.mangle(clean), 0o644); err != nil {
				t.Fatal(err)
			}
			recs, diag := replayJournal(p)
			if !diag.Torn {
				t.Fatalf("corruption not diagnosed: %+v", diag)
			}
			if len(recs) != tc.want {
				t.Fatalf("replayed %d records, want %d", len(recs), tc.want)
			}
		})
	}
}

func TestJournalHeaderCorruption(t *testing.T) {
	j, path := testJournal(t, nil, nil)
	if _, err := j.append(addRec("a"), true); err != nil {
		t.Fatal(err)
	}
	j.close()
	raw, _ := os.ReadFile(path)
	raw[0] ^= 0xff
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	recs, diag := replayJournal(path)
	if !diag.HeaderBad || len(recs) != 0 {
		t.Fatalf("bad header accepted: recs=%d diag=%+v", len(recs), diag)
	}
	if _, diag := replayJournal(filepath.Join(t.TempDir(), "absent")); !diag.Missing {
		t.Fatalf("missing file not diagnosed: %+v", diag)
	}
}

// A compaction replaces the file with the live set as add records, and
// the writer keeps appending to the new file.
func TestJournalCompactionProtocol(t *testing.T) {
	var live []snapEntry
	j, path := testJournal(t, nil, &live)
	for _, k := range []string{"kept", "evicted"} {
		if _, err := j.append(addRec(k), true); err != nil {
			t.Fatal(err)
		}
	}
	live = []snapEntry{addRec("kept").Entry}
	if err := j.checkpoint(); err != nil {
		t.Fatalf("compaction: %v", err)
	}
	if _, err := j.append(addRec("new"), true); err != nil {
		t.Fatalf("append after compaction: %v", err)
	}
	j.close()

	recs, diag := replayJournal(path)
	if diag.Torn || len(recs) != 2 || recs[0].Entry.Key != "kept" || recs[1].Entry.Key != "new" {
		t.Fatalf("compacted journal = %+v (%+v), want kept then new", recs, diag)
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("temp file left behind: %v", err)
	}
	if err := j.checkpoint(); !errors.Is(err, errJournalClosed) {
		t.Fatalf("compaction after close = %v, want errJournalClosed", err)
	}
}

func TestJournalDegradesOnSyncFaultAndCompactionClears(t *testing.T) {
	inj := faultinject.New(faultinject.Config{Seed: 1, JournalSyncErrorRate: 1})
	j, _ := testJournal(t, nil, nil)
	defer j.close()
	j.inj = inj // after the boot-time compaction, which would fail too

	_, err := j.append(addRec("a"), true)
	if err == nil {
		t.Fatal("append succeeded with every fsync failing")
	}
	if !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("append error %v is not the injected fault", err)
	}
	// Degraded: later appends fail fast with the typed sentinel.
	if _, err := j.append(addRec("b"), true); !errors.Is(err, errJournalDegraded) {
		t.Fatalf("append after failure = %v, want errJournalDegraded", err)
	}
	if !j.failed.Load() {
		t.Fatal("journal not marked degraded")
	}
	// A compaction whose own fsync fails clears nothing.
	if err := j.checkpoint(); !errors.Is(err, faultinject.ErrInjected) || !j.failed.Load() {
		t.Fatalf("failed compaction: %v, degraded %v; want the injected fault and still degraded", err, j.failed.Load())
	}
	// Once the disk heals, compaction hands the writer a fresh file and
	// clears the state.
	j.disk = disk{}
	if err := j.checkpoint(); err != nil {
		t.Fatalf("compaction out of degraded: %v", err)
	}
	if j.failed.Load() {
		t.Fatal("compaction did not clear the degraded state")
	}
	if _, err := j.append(addRec("c"), true); err != nil {
		t.Fatalf("append after compaction: %v", err)
	}
}

// TestCompactionKilledAtEachStep fails a checkpoint's compaction at each
// of its steps — the write and the fsync through the injector, the rename
// and the directory sync through the test seam — then crashes, and
// recovers exactly the keys acknowledged durable.  A step that fails
// before the rename leaves the old file in place and the journal
// healthy; a failed directory sync degrades it.  Either way the next
// successful compaction leaves a healthy journal holding every resident
// unit.
func TestCompactionKilledAtEachStep(t *testing.T) {
	errSeam := errors.New("seam: step failed")
	for i, step := range []string{"write", "fsync", "rename", "dirsync"} {
		t.Run(step, func(t *testing.T) {
			dir := t.TempDir()
			jrnl := filepath.Join(dir, "j.vcjrnl")
			s1, ts1, _, err := newJournaledServer(t, 2, "", jrnl)
			if err != nil {
				t.Fatal(err)
			}
			durable := compileN(t, ts1, 3, 10+i, true)
			j := s1.dur.Load()
			switch step {
			case "write":
				j.inj = faultinject.New(faultinject.Config{Seed: 1, JournalWriteErrorRate: 1})
			case "fsync":
				j.inj = faultinject.New(faultinject.Config{Seed: 1, JournalSyncErrorRate: 1})
			default:
				j.fault = func(s string) error {
					if s == step {
						return errSeam
					}
					return nil
				}
			}
			old, _ := os.ReadFile(jrnl)
			if err := s1.Checkpoint(); !errors.Is(err, faultinject.ErrInjected) && !errors.Is(err, errSeam) {
				t.Fatalf("compaction with its %s failing returned %v", step, err)
			}
			now, _ := os.ReadFile(jrnl)
			degraded := j.failed.Load()
			if !degraded && !bytes.Equal(old, now) {
				t.Fatalf("a failed %s neither left the old file nor degraded the journal", step)
			}
			if degraded != (step == "dirsync") {
				t.Fatalf("failed %s: degraded = %v", step, degraded)
			}
			j.disk = disk{} // the disk heals
			later := compileN(t, ts1, 2, 20+i, !degraded)
			if !degraded {
				maps.Copy(durable, later)
			}

			// A crash now: the file as it stands is what a kill leaves.
			crash := filepath.Join(dir, "crash.vcjrnl")
			raw, err := os.ReadFile(jrnl)
			if err == nil {
				err = os.WriteFile(crash, raw, 0o644)
			}
			if err != nil {
				t.Fatalf("copying the crash image: %v", err)
			}
			s2, ts2, _, err := newJournaledServer(t, 2, "", crash)
			if err != nil {
				t.Fatalf("recovery after a failed %s: %v", step, err)
			}
			verifyKeys(t, ts2, durable)
			if n := residentUnits(s2); n != len(durable) {
				t.Fatalf("%d units resident after recovery, want the %d acked durable", n, len(durable))
			}

			// The next compaction succeeds and clears the degraded state.
			if err := s1.Checkpoint(); err != nil || j.failed.Load() {
				t.Fatalf("compaction after healing: %v, degraded %v", err, j.failed.Load())
			}
			maps.Copy(durable, later) // resident when the compaction walked
			maps.Copy(durable, compileN(t, ts1, 2, 30+i, true))
			ts1.Close()
			s1.Close() // no final checkpoint: a crash
			_, ts3, _, err := newJournaledServer(t, 2, "", jrnl)
			if err != nil {
				t.Fatal(err)
			}
			verifyKeys(t, ts3, durable)
		})
	}
}

func residentUnits(s *Server) (units int) {
	for _, sh := range s.shards {
		n, _ := sh.unitTotals()
		units += n
	}
	return units
}

func TestJournalRecordBytesAreFramed(t *testing.T) {
	frame, err := encodeRecord(addRec("x"))
	if err != nil {
		t.Fatal(err)
	}
	if len(frame) < 9 || !bytes.Contains(frame, []byte("src-x")) {
		t.Fatalf("frame looks wrong: %d bytes", len(frame))
	}
}
