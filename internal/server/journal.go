package server

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/faultinject"
	"repro/internal/telemetry"
)

// The journal (VCJRNL) is the server's one on-disk format: the resident
// set as a log of add and del records.  Each accepted compile appends an
// add, each eviction a best-effort del.  Compaction rewrites the file as
// one add per resident unit: at boot, on every checkpoint, and as
// SaveSnapshot's file when there is no journal.  Recovery replays one
// file.
//
// On-disk layout: a header — the magic string "VCJRNL" plus one version
// byte — then a sequence of records, each framed as
//
//	[4-byte LE payload length][4-byte LE CRC32-IEEE of payload][payload]
//
// where the payload is a self-contained gob stream of one journalRecord.
// Replay stops at the first short, oversized, CRC-mismatching or
// undecodable record: everything before a torn tail is trusted,
// everything at and after it is discarded.  That is sound because a
// record is only acknowledged as durable after its batch fsynced, and a
// record that passed its CRC cannot bring an altered source back under a
// stale key: keys hash (lang, entry, source).
//
// Appends funnel through one writer goroutine that group-commits: it
// drains the request channel up to a batch bound or the fsync interval,
// writes the batch with a single write+fsync, then releases every
// waiter.  A write or sync failure flips the journal into a degraded
// state — every current and future append fails fast (acks go out
// non-durable) — until the next compaction hands the writer a fresh file.
const (
	journalMagic   = "VCJRNL"
	journalVersion = byte(1)

	journalOpAdd = byte(1)
	journalOpDel = byte(2)

	// maxJournalRecordBytes bounds one record at replay: a length field
	// larger than this is corruption, not a real record.
	maxJournalRecordBytes = 8 << 20
	// journalBatchMax bounds one group commit.
	journalBatchMax = 256
)

var (
	errJournalDegraded = errors.New("server: journal degraded (write or fsync failed; clears at next checkpoint)")
	errJournalClosed   = errors.New("server: journal closed")
	// errTorn marks a file replay could not read to its end: a torn or
	// corrupt record, or a header that is not a journal's.
	errTorn = errors.New("server: journal torn or corrupt")
)

// journalRecord is one logical mutation of the resident set.
type journalRecord struct {
	Op    byte
	Key   string    // set for del
	Entry snapEntry // set for add
}

func journalHeader() []byte {
	return append([]byte(journalMagic), journalVersion)
}

// encodeRecord frames one record: length, CRC, gob payload.
func encodeRecord(rec journalRecord) ([]byte, error) {
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(&rec); err != nil {
		return nil, fmt.Errorf("server: encoding journal record: %w", err)
	}
	p := payload.Bytes()
	frame := make([]byte, 8+len(p))
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(p)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.ChecksumIEEE(p))
	copy(frame[8:], p)
	return frame, nil
}

// disk runs the journal's file steps, each behind its fault: inj fails a
// write or an fsync, and fault — a test seam, nil in production — fails
// any step by name ("write", "fsync", "rename", "dirsync").
type disk struct {
	inj   *faultinject.Injector
	fault func(step string) error
}

func (d disk) do(step string, op func() error) error {
	var err error
	switch {
	case d.inj != nil && step == "write":
		err = d.inj.JournalWriteFault()
	case d.inj != nil && step == "fsync":
		err = d.inj.JournalSyncFault()
	}
	if err == nil && d.fault != nil {
		err = d.fault(step)
	}
	if err != nil {
		return err
	}
	return op()
}

// writeAtomic publishes data at path: write path+".tmp", fsync, rename
// it over path, sync the directory.  Once the rename has happened it
// returns the new file, open at its end, with a nil error only if the
// directory sync made the new name durable too.  A step that fails
// before the rename leaves path as it was and returns no file.
func (d disk) writeAtomic(path string, data []byte) (*os.File, error) {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, err
	}
	err = d.do("write", func() error { _, err := f.Write(data); return err })
	if err == nil {
		err = d.do("fsync", f.Sync)
	}
	if err == nil {
		err = d.do("rename", func() error { return os.Rename(tmp, path) })
	}
	if err != nil {
		f.Close()
		return nil, err
	}
	return f, d.do("dirsync", func() error {
		dir, err := os.Open(filepath.Dir(path))
		if err != nil {
			return err
		}
		defer dir.Close()
		return dir.Sync()
	})
}

// writeGeneration is the one writer of compacted files: the header and
// one add record per entry, published by writeAtomic.
func (d disk) writeGeneration(path string, entries []snapEntry) (*os.File, error) {
	buf := journalHeader()
	for _, e := range entries {
		frame, err := encodeRecord(journalRecord{Op: journalOpAdd, Entry: e})
		if err != nil {
			return nil, err
		}
		buf = append(buf, frame...)
	}
	return d.writeAtomic(path, buf)
}

// jreq is one writer-goroutine request: an append frame, or a compaction
// when frame is nil.  done, when set, receives the result.
type jreq struct {
	frame []byte
	done  chan error
}

type journal struct {
	disk
	path       string
	fsyncEvery time.Duration
	live       func() []snapEntry // the resident set a compaction writes

	reqs chan jreq
	quit chan struct{}
	dead chan struct{} // closed when the writer goroutine exits

	closeOnce sync.Once

	// failed marks the degraded state: the current journal file took a
	// write/sync error, so nothing after the failure point can be trusted
	// durable.  Cleared only by a compaction (fresh file).
	failed  atomic.Bool
	pending atomic.Int64

	// lsn numbers accepted appends across the journal's lifetime (1 is
	// the first record).  It is a correlation ID for flight-recorder
	// events and diagnostic bundles — monotonic per process, not a disk
	// offset, and not reset by compaction.
	lsn atomic.Uint64

	f *os.File // owned by the writer goroutine once run starts

	appends    *telemetry.Counter
	appendErrs *telemetry.Counter
	tombstones *telemetry.Counter
	fsyncs     *telemetry.Counter
	bytesOut   *telemetry.Counter
}

// openJournal compacts path to the live set — the boot-time fold — and
// starts the writer goroutine on the new file.  If the fold fails the
// journal is still returned, degraded until a checkpoint's compaction
// succeeds.
func openJournal(path string, fsyncEvery time.Duration, inj *faultinject.Injector, reg *telemetry.Registry, live func() []snapEntry) (*journal, error) {
	j := &journal{
		disk:       disk{inj: inj},
		path:       path,
		fsyncEvery: fsyncEvery,
		live:       live,
		reqs:       make(chan jreq, 1024),
		quit:       make(chan struct{}),
		dead:       make(chan struct{}),
		appends:    reg.Counter("server.journal.appends"),
		appendErrs: reg.Counter("server.journal.append_errors"),
		tombstones: reg.Counter("server.journal.tombstones"),
		fsyncs:     reg.Counter("server.journal.fsyncs"),
		bytesOut:   reg.Counter("server.journal.bytes"),
	}
	reg.GaugeFunc("server.journal.pending", func() float64 {
		return float64(j.pending.Load())
	})
	err := j.compact()
	if j.f == nil {
		j.failed.Store(true) // nothing to append to until a compaction succeeds
	}
	go j.run()
	return j, err
}

// append journals one record and returns its LSN.  With wait set it
// blocks until the record has been written and fsynced (group commit) —
// a nil error is the durability guarantee.  Without wait the record
// rides the next batch on a best-effort basis (eviction tombstones).
func (j *journal) append(rec journalRecord, wait bool) (uint64, error) {
	frame, err := encodeRecord(rec)
	if err != nil {
		return 0, err
	}
	if j.failed.Load() {
		j.appendErrs.Inc()
		return 0, errJournalDegraded
	}
	lsn := j.lsn.Add(1)
	r := jreq{frame: frame}
	if wait {
		r.done = make(chan error, 1)
	}
	j.pending.Add(1)
	return lsn, j.submit(r)
}

// checkpoint asks the writer to compact at its next batch boundary and
// waits for the result.
func (j *journal) checkpoint() error {
	return j.submit(jreq{done: make(chan error, 1)})
}

// submit hands r to the writer and, when r.done is set, waits for the
// result.
func (j *journal) submit(r jreq) error {
	select {
	case j.reqs <- r:
	case <-j.dead:
		if r.frame != nil {
			j.pending.Add(-1)
		}
		return errJournalClosed
	}
	if r.done == nil {
		return nil
	}
	select {
	case err := <-r.done:
		return err
	case <-j.dead:
		return errJournalClosed
	}
}

// close stops the writer, flushing and syncing anything queued.
func (j *journal) close() {
	j.closeOnce.Do(func() { close(j.quit) })
	<-j.dead
}

// run is the writer goroutine: it gathers appends into a batch until
// the fsync window closes or the batch is full, then flushes it with one
// write+fsync.  A compaction flushes the batch first, so it runs between
// two batches.
func (j *journal) run() {
	defer close(j.dead)
	var batch []jreq
	var window <-chan time.Time // opened by a batch's first append
	for {
		select {
		case r := <-j.reqs:
			if r.frame == nil {
				batch = j.flush(batch)
				r.done <- j.compact()
				continue
			}
			if len(batch) == 0 {
				window = time.After(j.fsyncEvery)
			}
			if batch = append(batch, r); len(batch) < journalBatchMax {
				continue
			}
		case <-window:
		case <-j.quit:
			j.flush(batch)
			j.drainAndExit()
			return
		}
		batch = j.flush(batch)
	}
}

// drainAndExit serves whatever appends are still queued, then syncs and
// closes.
func (j *journal) drainAndExit() {
	for {
		select {
		case r := <-j.reqs:
			if r.frame == nil {
				r.done <- errJournalClosed
				continue
			}
			j.flush([]jreq{r})
		default:
			if j.f != nil {
				_ = j.f.Sync()
				_ = j.f.Close()
			}
			return
		}
	}
}

// flush writes one batch with a single write and a single fsync, then
// releases every waiter, and returns the batch emptied.  Any failure
// degrades the journal: all waiters in the batch (and every later append
// until a compaction) get an error, because nothing past the failure
// point is guaranteed on disk.
func (j *journal) flush(batch []jreq) []jreq {
	if len(batch) == 0 {
		return batch
	}
	defer j.pending.Add(-int64(len(batch)))
	var buf []byte
	for _, r := range batch {
		buf = append(buf, r.frame...)
	}
	err := errJournalDegraded
	if !j.failed.Load() {
		err = j.do("write", func() error { _, err := j.f.Write(buf); return err })
		if err == nil {
			err = j.do("fsync", j.f.Sync)
		}
	}
	if err != nil {
		j.failed.Store(true)
		j.appendErrs.Add(uint64(len(batch)))
	} else {
		j.appends.Add(uint64(len(batch)))
		j.fsyncs.Inc()
		j.bytesOut.Add(uint64(len(buf)))
	}
	for _, r := range batch {
		if r.done != nil {
			r.done <- err
		}
	}
	return batch[:0]
}

// compact rewrites the journal as the live set and moves the writer onto
// the new file.  It runs between batches on the writer goroutine (or in
// openJournal before it starts), so every append is in one generation
// or both, and replay is idempotent: an append flushed before the
// boundary had its unit registered first (Server.compile admits before
// it appends), so the walk sees it, and one queued after lands in the
// new file.  A step that fails before the rename leaves the old file
// and the writer on it.  A directory sync that fails after it degrades
// the journal: no record is acknowledged into a file whose name may not
// survive a crash.  Success clears a degraded journal, since the new
// file holds everything resident.
func (j *journal) compact() error {
	f, err := j.writeGeneration(j.path, j.live())
	if f == nil {
		return err
	}
	if j.f != nil {
		_ = j.f.Close()
	}
	j.f = f
	j.failed.Store(err != nil)
	return err
}

// journalDiag describes what replay found.
type journalDiag struct {
	Missing   bool // no file
	HeaderBad bool // existing file without a valid header
	Torn      bool // stopped early at a short/corrupt record
	Records   int  // good records returned
}

// replayJournal reads every trustworthy record from path, stopping at
// the first torn or corrupt one.  It never fails hard: corruption just
// truncates the replay.
func replayJournal(path string) ([]journalRecord, journalDiag) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, journalDiag{Missing: true}
	}
	hdr := journalHeader()
	if len(raw) < len(hdr) || !bytes.Equal(raw[:len(hdr)], hdr) {
		return nil, journalDiag{HeaderBad: len(raw) > 0}
	}
	var (
		recs []journalRecord
		diag journalDiag
	)
	off := len(hdr)
	for off < len(raw) {
		if len(raw)-off < 8 {
			diag.Torn = true
			break
		}
		n := int(binary.LittleEndian.Uint32(raw[off : off+4]))
		sum := binary.LittleEndian.Uint32(raw[off+4 : off+8])
		if n <= 0 || n > maxJournalRecordBytes || len(raw)-off-8 < n {
			diag.Torn = true
			break
		}
		payload := raw[off+8 : off+8+n]
		if crc32.ChecksumIEEE(payload) != sum {
			diag.Torn = true
			break
		}
		var rec journalRecord
		if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&rec); err != nil {
			diag.Torn = true
			break
		}
		recs = append(recs, rec)
		off += 8 + n
	}
	diag.Records = len(recs)
	return recs, diag
}
