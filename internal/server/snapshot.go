package server

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/core"
)

// Warm-cache snapshots: the server serializes every resident program —
// key, owning tenant, language, entry point, source, home shard, and the
// verified entry function's final code words — and restores them through
// the cache's GetOrCompile.  Restore recompiles from source, which
// re-runs the verifier and the normal install pipeline, so a snapshot
// can never smuggle unverified code into an arena: the stored words are
// a cross-check, not the load path.  Code words are compared against the
// recompiled function and counted as exact or recompiled (words can
// legitimately differ across restarts when allocation order shifts the
// absolute addresses linked into the code).
//
// The format is a magic string, one version byte, a CRC32-IEEE of the
// payload (little-endian), then a gob stream.  Loading rejects bad
// magic, unknown versions and checksum mismatches — a flipped bit
// anywhere in the payload drops the whole snapshot to a typed error and
// a cold boot rather than risking a silently altered source recompiling
// into wrong words under a stale key.  Entries whose backend differs
// from the server's are skipped, not errors, so a snapshot survives a
// backend change without blocking boot.
//
// Every entry records the shard it lived in and the file records the
// shard count, but restore routes each key through shardOf under the
// *current* shard count: operators can change -shards across restarts
// and the snapshot reshards on load (counted in
// server.snapshot.resharded).

const snapshotMagic = "VCSNAP"
const snapshotVersion = byte(2)

// snapEntry is one resident program in the snapshot (and in journal add
// records, which embed the same shape).
type snapEntry struct {
	Key    string
	Tenant string
	Lang   string
	Entry  string
	Source string
	Shard  int // home shard when recorded
	Words  []uint32
}

// snapFile is the gob payload following the magic + version + CRC
// header.
type snapFile struct {
	Backend string
	Shards  int
	Entries []snapEntry
}

// snapEntryOf serializes one resident unit.
func snapEntryOf(u *unit, shardID int) snapEntry {
	words := make([]uint32, len(u.entryFn.Words))
	copy(words, u.entryFn.Words)
	return snapEntry{
		Key:    u.key,
		Tenant: u.tenantName,
		Lang:   u.lang,
		Entry:  u.entry,
		Source: u.source,
		Shard:  shardID,
		Words:  words,
	}
}

// SaveSnapshot writes the warm-cache snapshot for every shard to path
// (atomically: temp file, fsync, rename).  It returns the number of
// programs saved.  It walks the registered units, not the cache's ready
// entries: a miss registers its unit before it journals it, so a unit
// whose record is in the generation a checkpoint retires is saved even
// if its flight has not yet returned to the cache.
func (s *Server) SaveSnapshot(path string) (int, error) {
	file := snapFile{Backend: s.cfg.Backend, Shards: len(s.shards)}
	for _, sh := range s.shards {
		sh.eachUnit(func(u *unit) {
			file.Entries = append(file.Entries, snapEntryOf(u, sh.id))
		})
	}
	sort.Slice(file.Entries, func(i, j int) bool { return file.Entries[i].Key < file.Entries[j].Key })

	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(&file); err != nil {
		return 0, fmt.Errorf("server: encoding snapshot: %w", err)
	}
	var buf bytes.Buffer
	buf.WriteString(snapshotMagic)
	buf.WriteByte(snapshotVersion)
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], crc32.ChecksumIEEE(payload.Bytes()))
	buf.Write(crc[:])
	buf.Write(payload.Bytes())

	if err := writeFileAtomic(path, buf.Bytes()); err != nil {
		return 0, err
	}
	s.snapSaved.Add(uint64(len(file.Entries)))
	return len(file.Entries), nil
}

// writeFileAtomic is write-to-temp, fsync, rename, best-effort directory
// sync — the crash-safe publish protocol both the snapshot and the
// journal rotation rely on.
func writeFileAtomic(path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		return err
	}
	if d, err := os.Open(filepath.Dir(path)); err == nil {
		_ = d.Sync()
		_ = d.Close()
	}
	return nil
}

// loadSnapshot parses and validates a snapshot file.
func loadSnapshot(path string) (*snapFile, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	hdrLen := len(snapshotMagic) + 1 + 4
	if len(raw) < hdrLen || string(raw[:len(snapshotMagic)]) != snapshotMagic {
		return nil, fmt.Errorf("server: %s is not a snapshot (bad magic)", path)
	}
	if v := raw[len(snapshotMagic)]; v != snapshotVersion {
		return nil, fmt.Errorf("server: snapshot %s has version %d, want %d", path, v, snapshotVersion)
	}
	sum := binary.LittleEndian.Uint32(raw[len(snapshotMagic)+1 : hdrLen])
	payload := raw[hdrLen:]
	if crc32.ChecksumIEEE(payload) != sum {
		return nil, fmt.Errorf("server: snapshot %s failed its checksum (corrupt)", path)
	}
	var file snapFile
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&file); err != nil {
		return nil, fmt.Errorf("server: decoding snapshot %s: %w", path, err)
	}
	return &file, nil
}

// Restore loads the warm-cache snapshot at path (if any) and marks the
// server ready.  Call it exactly once after New, with "" or a missing
// path when there is nothing to restore — readiness (/readyz) stays
// false until both restore conditions flip.  Servers with a journal
// should call Recover instead, which replays the journal tail on top of
// the snapshot and starts checkpointing; Restore is Recover without a
// journal.  It returns the number of programs made warm.
func (s *Server) Restore(path string) (int, error) {
	st, err := s.Recover(path, "")
	return st.Warm, err
}

// restoreEntries routes recovered entries through shardOf under the
// current shard count and recompiles them, shard by shard in snapshot
// order, through the cache's GetOrCompile — the flight live requests use,
// so a request arriving mid-restore coalesces instead of compiling again,
// and a key the snapshot holds twice compiles once.  Entries whose recorded
// home shard differs from their current one are counted as resharded.
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
				if wordsEqual(u.entryFn.Words, e.Words) {
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

func wordsEqual(a, b []uint32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
