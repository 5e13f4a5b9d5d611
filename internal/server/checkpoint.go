package server

import (
	"errors"
	"fmt"
	"os"
	"time"
)

// RecoveryStats is what Recover found and did — the typed material for
// the operator log line.
type RecoveryStats struct {
	Warm            int   // programs recompiled and resident
	SnapshotEntries int   // entries the snapshot contributed
	JournalRecords  int   // journal records applied on top
	Resharded       int   // units whose recorded home shard moved
	SnapshotCorrupt bool  // snapshot present but failed validation
	JournalTorn     bool  // journal replay stopped at a torn/corrupt record
	DurationMS      int64 // wall time of the whole recovery
}

func (st RecoveryStats) String() string {
	return fmt.Sprintf("warm=%d snapshot_entries=%d journal_records=%d resharded=%d snapshot_corrupt=%v journal_torn=%v duration_ms=%d",
		st.Warm, st.SnapshotEntries, st.JournalRecords, st.Resharded, st.SnapshotCorrupt, st.JournalTorn, st.DurationMS)
}

// Recover rebuilds the resident set from the last snapshot plus the
// journal tail and — when journalPath is non-empty — folds the recovered
// state into a fresh snapshot, opens a fresh journal for steady-state
// appends and starts the periodic checkpointer; then it flips readiness.
//
// Recovery is tolerant by construction: a missing snapshot is a cold
// start, a corrupt snapshot is counted and reported but still boots
// (partially warm from the journal if it has self-contained records),
// and a torn journal tail truncates the replay at the first bad CRC.
// The server always comes up; the returned error (alongside the stats)
// is diagnostic, never fatal.  Replay routes every unit through shardOf
// under the current shard count, so a snapshot taken with N shards
// restores into an M-shard server.
func (s *Server) Recover(snapPath, journalPath string) (RecoveryStats, error) {
	start := time.Now()
	var st RecoveryStats
	var firstErr error
	if journalPath != "" && snapPath == "" {
		return st, errors.New("server: a journal requires a snapshot path to compact into")
	}

	// The snapshot is the base layer.
	var entries []snapEntry
	index := make(map[string]int)
	add := func(e snapEntry) {
		if i, ok := index[e.Key]; ok {
			entries[i] = e
			return
		}
		index[e.Key] = len(entries)
		entries = append(entries, e)
	}
	del := func(key string) {
		if i, ok := index[key]; ok {
			entries[i].Key = "" // tombstone; skipped below
			delete(index, key)
		}
	}
	if snapPath != "" {
		file, err := loadSnapshot(snapPath)
		switch {
		case err == nil:
			if file.Backend != s.cfg.Backend {
				s.snapIncompat.Add(uint64(len(file.Entries)))
			} else {
				for _, e := range file.Entries {
					add(e)
				}
				st.SnapshotEntries = len(file.Entries)
			}
		case os.IsNotExist(err):
			// Cold start: nothing to restore.
		default:
			st.SnapshotCorrupt = true
			s.snapErrors.Inc()
			firstErr = err
		}
	}

	// The journal tail mutates it.  The steady-state generation replays
	// first, then the rotation file a checkpoint left behind (covering a
	// crash in any window of the rotate→snapshot→rename protocol; replay
	// is idempotent, so records both files carry apply cleanly).
	if journalPath != "" {
		for _, p := range []string{journalPath, journalPath + ".rot"} {
			recs, diag := replayJournal(p)
			if diag.Torn || diag.HeaderBad {
				st.JournalTorn = true
				s.jrnlTorn.Inc()
				if firstErr == nil {
					firstErr = fmt.Errorf("server: journal %s is torn or corrupt after %d records (replay truncated)", p, diag.Records)
				}
			}
			for _, r := range recs {
				switch r.Op {
				case journalOpAdd:
					if r.Entry.Key != "" {
						add(r.Entry)
					}
				case journalOpDel:
					del(r.Key)
				}
			}
			st.JournalRecords += len(recs)
			s.jrnlReplayed.Add(uint64(len(recs)))
		}
	}

	live := entries[:0]
	for _, e := range entries {
		if e.Key != "" {
			live = append(live, e)
		}
	}
	s.health.Set("snapshot_restored", true)
	st.Warm, st.Resharded = s.restoreEntries(live)
	// Before readiness flips: a client that waited for /readyz gets durable
	// acks, and these fields are set before any request it sends reads them.
	if journalPath != "" {
		if err := s.startJournal(snapPath, journalPath); err != nil {
			firstErr = err
		}
	}
	s.health.Set("warmup_drained", true)
	st.DurationMS = time.Since(start).Milliseconds()
	s.recoveryMS.Store(st.DurationMS)
	return st, firstErr
}

// startJournal folds the recovered state into a fresh snapshot, opens a
// fresh journal for steady-state appends and starts the checkpointer.
func (s *Server) startJournal(snapPath, journalPath string) error {
	// Fold *before* truncating the journal: if the fold crashes, the old
	// snapshot + old journal still reproduce this state on the next boot.
	if _, err := s.SaveSnapshot(snapPath); err != nil {
		return fmt.Errorf("server: recovery checkpoint failed, journaling disabled: %w", err)
	}
	_ = os.Remove(journalPath + ".rot")
	j, err := openJournal(journalPath, s.cfg.FsyncInterval, s.cfg.Injector, s.cfg.Registry)
	if err != nil {
		return fmt.Errorf("server: opening journal, journaling disabled: %w", err)
	}
	s.journal = j
	s.snapPath, s.jrnlPath = snapPath, journalPath
	if s.cfg.CheckpointInterval > 0 {
		s.startCheckpoints(s.cfg.CheckpointInterval)
	}
	return nil
}

// Checkpoint folds the current resident set and the journal into a new
// snapshot generation: rotate the journal (new appends go to a fresh
// .rot file), write the snapshot atomically, then publish the rotation
// by renaming .rot over the journal.  A crash in any window leaves a
// snapshot+journal pair that replays to the same state.  Rotation also
// clears a degraded journal — the recovery path for injected or real
// fsync failures.
func (s *Server) Checkpoint() error {
	s.ckptMu.Lock()
	defer s.ckptMu.Unlock()
	if s.snapPath == "" {
		return errors.New("server: no snapshot path configured (call Recover first)")
	}
	if s.journal != nil {
		if err := s.journal.rotate(); err != nil {
			s.ckptErrors.Inc()
			return err
		}
	}
	if _, err := s.SaveSnapshot(s.snapPath); err != nil {
		s.ckptErrors.Inc()
		return err
	}
	if s.journal != nil {
		if err := s.journal.finishRotation(); err != nil {
			s.ckptErrors.Inc()
			return err
		}
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
