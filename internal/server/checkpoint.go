package server

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"time"

	"repro/internal/core"
)

// Warm restarts: the server writes every resident program — key, owning
// tenant, language, entry point, source, home shard, and the verified
// entry function's final code words — as one add record in a compacted
// journal (journal.go), and restores them through the cache's
// GetOrCompile.  Restore recompiles from source, whatever backend wrote
// the file, which re-runs the verifier and the normal install pipeline,
// so a file can never smuggle unverified code into an arena: the stored
// words are a cross-check, not the load path.  Code words are compared
// against the recompiled function and counted as exact or recompiled
// (words legitimately differ across restarts when allocation order
// shifts the absolute addresses linked into the code, and across
// backends).
//
// Every entry records the shard it lived in, but restore routes each key
// through shardOf under the *current* shard count: operators can change
// -shards across restarts and the file reshards on load (counted in
// server.snapshot.resharded).

// snapEntry is one resident program, as an add record carries it.
type snapEntry struct {
	Key    string
	Tenant string
	Lang   string
	Entry  string
	Source string
	Shard  int // home shard when recorded
	Words  []uint32
}

// snapEntryOf serializes one resident unit.
func snapEntryOf(u *unit, shardID int) snapEntry {
	return snapEntry{
		Key:    u.key,
		Tenant: u.tenantName,
		Lang:   u.lang,
		Entry:  u.entry,
		Source: u.source,
		Shard:  shardID,
		Words:  slices.Clone(u.entryFn.Words),
	}
}

// liveSet is the resident set in key order.  It walks the registered
// units, not the cache's ready entries: a miss registers its unit before
// it journals it, so a unit whose record is in the generation a
// compaction replaces is kept even if its flight has not yet returned to
// the cache (TestCheckpointKeepsInFlightUnit).
func (s *Server) liveSet() []snapEntry {
	var entries []snapEntry
	for _, sh := range s.shards {
		sh.eachUnit(func(u *unit) {
			entries = append(entries, snapEntryOf(u, sh.id))
		})
	}
	slices.SortFunc(entries, func(a, b snapEntry) int { return strings.Compare(a.Key, b.Key) })
	return entries
}

// SaveSnapshot writes the resident set to path as a compacted journal
// (temp file, fsync, rename, directory sync) — the file Restore, or
// Recover without a journal, replays.  It returns the number of programs
// saved.  A journaled server compacts its journal with Checkpoint
// instead.
func (s *Server) SaveSnapshot(path string) (int, error) {
	entries := s.liveSet()
	f, err := disk{}.writeGeneration(path, entries)
	if f != nil {
		f.Close()
	}
	if err != nil {
		return 0, err
	}
	s.snapSaved.Add(uint64(len(entries)))
	return len(entries), nil
}

// Restore replays the file at path (if any) and marks the server ready.
// Call it exactly once after New, with "" or a missing path when there
// is nothing to restore — readiness (/readyz) stays false until both
// restore conditions flip.  Restore is Recover without a journal.  It
// returns the number of programs made warm.
func (s *Server) Restore(path string) (int, error) {
	st, err := s.Recover(path, "")
	return st.Warm, err
}

// RecoveryStats is what Recover found and did — the typed material for
// the operator log line.
type RecoveryStats struct {
	Warm           int   // programs recompiled and resident
	JournalRecords int   // records replayed
	Resharded      int   // units whose recorded home shard moved
	JournalTorn    bool  // replay stopped at a torn or corrupt record or header
	DurationMS     int64 // wall time of the whole recovery
}

func (st RecoveryStats) String() string {
	return fmt.Sprintf("warm=%d journal_records=%d resharded=%d journal_torn=%v duration_ms=%d",
		st.Warm, st.JournalRecords, st.Resharded, st.JournalTorn, st.DurationMS)
}

// Recover rebuilds the resident set by replaying one file — journalPath
// when it is set, else snapPath, a SaveSnapshot file — and, with a
// journal, compacts it to the recovered set, keeps appending to it and
// starts the periodic checkpointer; then it flips readiness.  With a
// journal, snapPath is neither read nor written.
//
// Recovery is tolerant by construction: a missing file is a cold start,
// and a torn or corrupt record (or a header that is not a journal's)
// truncates the replay there — counted, reported as errTorn, and every
// record before it still restored.  The server always comes up; the
// returned error (alongside the stats) is diagnostic, never fatal.
// Replay routes every unit through shardOf under the current shard
// count, so a file written with N shards restores into an M-shard
// server.
func (s *Server) Recover(snapPath, journalPath string) (RecoveryStats, error) {
	start := time.Now()
	var st RecoveryStats
	var firstErr error
	path := journalPath
	if path == "" {
		path = snapPath
	}
	var entries []snapEntry
	if path != "" {
		recs, diag := replayJournal(path)
		if diag.Torn || diag.HeaderBad {
			st.JournalTorn = true
			s.jrnlTorn.Inc()
			firstErr = fmt.Errorf("%w: %s after %d records (replay truncated)", errTorn, path, diag.Records)
		}
		entries = foldRecords(recs)
		st.JournalRecords = len(recs)
		s.jrnlReplayed.Add(uint64(len(recs)))
	}
	st.Warm, st.Resharded = s.restoreEntries(entries)
	// Before readiness flips: a client that waited for /readyz gets durable
	// acks.  A request that did not wait reads the journal published or not.
	if journalPath != "" {
		j, err := openJournal(journalPath, s.cfg.FsyncInterval, s.cfg.Injector, s.cfg.Registry, s.liveSet)
		if err != nil && firstErr == nil {
			firstErr = fmt.Errorf("server: boot-time compaction failed, journal degraded until a checkpoint: %w", err)
		}
		s.dur.Store(j)
		if s.cfg.CheckpointInterval > 0 {
			s.startCheckpoints(s.cfg.CheckpointInterval)
		}
	}
	s.health.Set("recovered", true)
	st.DurationMS = time.Since(start).Milliseconds()
	s.recoveryMS.Store(st.DurationMS)
	return st, firstErr
}

// foldRecords applies replayed records in order and returns the entries
// still live, in the order their keys were first added.
func foldRecords(recs []journalRecord) []snapEntry {
	var entries []snapEntry
	index := make(map[string]int)
	for _, r := range recs {
		switch {
		case r.Op == journalOpAdd && r.Entry.Key != "":
			if i, ok := index[r.Entry.Key]; ok {
				entries[i] = r.Entry
				continue
			}
			index[r.Entry.Key] = len(entries)
			entries = append(entries, r.Entry)
		case r.Op == journalOpDel:
			if i, ok := index[r.Key]; ok {
				entries[i].Key = "" // dropped below
				delete(index, r.Key)
			}
		}
	}
	return slices.DeleteFunc(entries, func(e snapEntry) bool { return e.Key == "" })
}

// restoreEntries routes recovered entries through shardOf under the
// current shard count and recompiles them, shard by shard in file order,
// through the cache's GetOrCompile — the flight live requests use, so a
// request arriving mid-restore coalesces instead of compiling again, and
// a key the file holds twice compiles once.  Entries whose recorded home
// shard differs from their current one are counted as resharded.
// Restored units are marked durable: they came from disk.
func (s *Server) restoreEntries(entries []snapEntry) (warm, resharded int) {
	perShard := make([][]snapEntry, len(s.shards))
	for _, e := range entries {
		i := shardOf(e.Key, len(s.shards))
		if e.Shard != i {
			resharded++
		}
		perShard[i] = append(perShard[i], e)
	}
	s.snapResharded.Add(uint64(resharded))

	for i, list := range perShard {
		sh := s.shards[i]
		for _, e := range list {
			_, err := sh.cache.GetOrCompile(e.Key, func() (*core.Func, error) {
				t, apiE := s.tenants.get(e.Tenant)
				if apiE != nil {
					return nil, apiE
				}
				u, err := compileUnit(sh.machine, e.Key, e.Tenant, e.Lang, e.Source, e.Entry)
				if err != nil {
					return nil, err
				}
				u.durable.Store(true)
				sh.admit(u, t)
				if slices.Equal(u.entryFn.Words, e.Words) {
					s.snapExact.Inc()
				} else {
					s.snapRecompiled.Inc()
				}
				return u.entryFn, nil
			})
			if err != nil {
				s.snapErrors.Inc()
			} else {
				warm++
			}
		}
	}
	s.snapRestored.Add(uint64(warm))
	return warm, resharded
}

// Checkpoint compacts the journal: at its next batch boundary the writer
// goroutine rewrites it as one add record per resident unit and keeps
// appending to the new file (journal.compact).  A successful compaction
// also clears a degraded journal — the recovery path for injected or
// real fsync failures.
func (s *Server) Checkpoint() error {
	j := s.dur.Load()
	if j == nil {
		return errors.New("server: no journal to compact (call Recover with a journal path first)")
	}
	if err := j.checkpoint(); err != nil {
		s.ckptErrors.Inc()
		return err
	}
	s.checkpoints.Inc()
	return nil
}

// startCheckpoints runs Checkpoint on a ticker until Close.
func (s *Server) startCheckpoints(every time.Duration) {
	s.ckptQuit = make(chan struct{})
	s.ckptWG.Add(1)
	go func() {
		defer s.ckptWG.Done()
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				_ = s.Checkpoint()
			case <-s.ckptQuit:
				return
			}
		}
	}()
}

// stopCheckpoints halts the periodic checkpointer, if running.
func (s *Server) stopCheckpoints() {
	if s.ckptQuit != nil {
		close(s.ckptQuit)
		s.ckptWG.Wait()
		s.ckptQuit = nil
	}
}
