package server

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/codecache"
	"repro/internal/core"
	"repro/internal/jit"
	"repro/internal/mem"
	"repro/internal/telemetry"
)

// shard is one compile-and-execute arena: a core.Machine (its own
// simulated memory, trap table and code region), the codecache bound to
// it, and the gate bounding the miss compiles that run on request
// goroutines.  Content hashes map onto shards by hash, so resident code
// scales horizontally across N arenas and eviction pressure in one
// tenant-heavy shard never touches another shard's cache.  Calls serialize
// per shard (one simulated CPU each); N shards give N-way call parallelism.
type shard struct {
	id      int
	machine *core.Machine
	cache   *codecache.Cache
	gate    compileGate

	// units maps key to *unit.  A hit reads it for the reply's durable
	// flag, so reads take no lock.
	units sync.Map

	// evicted is the server's hook: tenant residency accounting and the
	// journal tombstone on cache eviction/invalidation.
	evicted func(u *unit)

	calls    atomic.Uint64
	compiles atomic.Uint64
}

// unit is what the server knows of one resident program: whose it is, the
// compile metadata the journal records, and which function the cache
// holds.  What the program occupies on the shard's machine is prog's,
// and leaves with it when the cache evicts the entry function.
type unit struct {
	key        string
	tenantName string
	lang       string
	entry      string
	source     string
	entryFn    *core.Func
	prog       *core.Unit

	// durable flips true once the unit's journal record fsynced (or the
	// unit was restored from disk) — the crash-survival guarantee the
	// response's "durable" field reports.
	durable atomic.Bool
	// lsn is the journal sequence number behind the durable ack (0 for
	// units restored from disk or compiled without a journal) — the
	// correlation ID flight-recorder events and bundles carry.
	lsn atomic.Uint64
}

// newShard builds one arena on the given backend.
func newShard(id int, backend string, workers, maxEntries int, maxBytes int64, reg *telemetry.Registry) (*shard, error) {
	jm, err := jit.NewMachineTarget(backend, mem.Uncosted)
	if err != nil {
		return nil, err
	}
	s := &shard{
		id:      id,
		machine: jm.Core(),
		gate:    compileGate{slots: make(chan struct{}, workers)},
	}
	s.cache = codecache.New(codecache.Config{
		Machine:      s.machine,
		MaxEntries:   maxEntries,
		MaxCodeBytes: maxBytes,
		Name:         fmt.Sprintf("srv%d", id),
		OnEvict:      s.onEvict,
	})
	reg.GaugeFunc(fmt.Sprintf("server.shard.%d.code_bytes_resident", id), func() float64 {
		return float64(s.machine.ArenaStats().CodeBytesResident)
	})
	reg.GaugeFunc(fmt.Sprintf("server.shard.%d.units", id), func() float64 {
		n, _ := s.unitTotals()
		return float64(n)
	})
	return s, nil
}

// admit records a freshly compiled unit and charges its tenant's residency:
// the one step a miss and a snapshot restore share.  Called from inside the
// compile flight, before the cache entry becomes ready, so an eviction of
// the key always finds its unit.
func (s *shard) admit(u *unit, t *tenant) {
	s.units.Store(u.key, u)
	s.compiles.Add(1)
	t.resident.Add(u.prog.CodeBytes())
}

// unit returns the resident unit for key, if any.
func (s *shard) unit(key string) *unit {
	v, _ := s.units.Load(key)
	u, _ := v.(*unit)
	return u
}

// eachUnit calls fn for every resident unit.
func (s *shard) eachUnit(fn func(*unit)) {
	s.units.Range(func(_, u any) bool {
		fn(u.(*unit))
		return true
	})
}

// unitDurable reports whether key's unit has its journal record on
// disk (false for unknown keys and for units compiled while the
// journal was degraded).
func (s *shard) unitDurable(key string) bool {
	u := s.unit(key)
	return u != nil && u.durable.Load()
}

// unitTotals counts the resident units and sums their bytes — the shard
// side of the residency ledger (the tenant side is each tenant's resident
// counter).
func (s *shard) unitTotals() (n int, bytes int64) {
	s.eachUnit(func(u *unit) {
		n++
		bytes += u.prog.CodeBytes()
	})
	return n, bytes
}

// onEvict is the codecache hook: the cache has already unloaded the
// program; forget the unit and tell the server so tenant residency
// accounting stays truthful.
func (s *shard) onEvict(key string, fn *core.Func) {
	if u, ok := s.units.LoadAndDelete(key); ok && s.evicted != nil {
		s.evicted(u.(*unit))
	}
}

// queueDepth is the shard's compile backlog: misses waiting for a compile
// slot.  Admission's QueueBound and the shed watermarks watch it.
func (s *shard) queueDepth() int64 { return s.gate.waiting.Load() }

// close waits for the compiles in flight.
func (s *shard) close() { s.gate.close() }

// errShardClosed fails a miss that reaches its shard after Close began.
var errShardClosed = apiErr(CodeShuttingDown, "server is shutting down")

// compileGate bounds the miss compiles of one shard.  A miss compiles on
// the goroutine of the request that found it, so a cold request costs no
// scheduler hand-off; the gate keeps at most cap(slots) of them compiling
// at once and counts the rest as the queue admission watches.
type compileGate struct {
	slots   chan struct{} // counting semaphore, one token per compiling miss
	waiting atomic.Int64  // misses inside enter, not yet holding a slot

	mu       sync.Mutex
	closed   bool
	inflight sync.WaitGroup // misses between enter and leave
}

// enter takes a compile slot, waiting for one while ctx lives.  Only a miss
// that finds no slot free counts as waiting: one that takes a free slot
// never shows in the queue depth admission reads, so a burst of requests
// behind it is not refused queue_full for a wait that did not happen.
// Every nil return is paired with one leave.
func (g *compileGate) enter(ctx context.Context) error {
	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		return errShardClosed
	}
	g.inflight.Add(1)
	g.mu.Unlock()

	took := false
	select {
	case g.slots <- struct{}{}:
		took = true
	default:
		g.waiting.Add(1)
		select {
		case g.slots <- struct{}{}:
			took = true
		case <-ctx.Done():
		}
		g.waiting.Add(-1)
	}
	err := ctx.Err()
	if took && err != nil {
		// A request that gave up while it queued must not start compiling.
		<-g.slots
	}
	if err != nil {
		g.inflight.Done()
	}
	return err
}

// leave returns the slot enter took.
func (g *compileGate) leave() {
	<-g.slots
	g.inflight.Done()
}

// close fails later enters and waits for the misses already inside.
func (g *compileGate) close() {
	g.mu.Lock()
	g.closed = true
	g.mu.Unlock()
	g.inflight.Wait()
}

// shardOf maps a content-hash key onto one of n shards (FNV-1a over the
// key).
func shardOf(key string, n int) int {
	const offset, prime = 14695981039346656037, 1099511628211
	h := uint64(offset)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= prime
	}
	return int(h % uint64(n))
}
