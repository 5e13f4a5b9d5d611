// Package trace is the one recorder: a ring of fixed-shape records that
// holds both the code-generation lifecycle of every generated function
// (compile → regalloc → emit → verify → install → call×N → evict) and the
// decisions the vcoded server made on each request (admit → cache →
// journal → exec → outcome).
//
// One global atomic gate switches it: with the gate off an instrumented
// call site pays a single atomic load and allocates nothing (pinned by a
// zero-alloc test).  With it on, recording is one mutex acquisition and a
// struct copy into a lazily allocated ring — no allocation on the record
// path either.
//
// Records of one function share a flow ID (see NextFlow); exporters group
// by flow, so the Chrome trace-event rendering shows one lane per
// generated function and the text timeline one line per lifecycle.
// Records of one request share its request ID, and the request's closing
// outcome record carries its entry function's flow, so a request joins
// the lifecycle of the code it ran.
package trace

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Kind identifies what a record describes.  The lifecycle kinds follow
// the pipeline: the jit front end compiles bytecode (assigning registers
// on the way), the Asm emits target instructions, the Machine verifies,
// installs, calls and eventually evicts the code.  The request kinds
// follow the server's request path.
type Kind uint8

const (
	// KindCompile covers a whole front-end compilation (jit bytecode →
	// VCODE emission); regalloc and emit nest inside it.
	KindCompile Kind = iota
	// KindRegalloc is register and spill-slot assignment.
	KindRegalloc
	// KindEmit covers v_lambda through v_end in the Asm.
	KindEmit
	// KindVerify is the pre-install static verifier.
	KindVerify
	// KindInstall is code placement, relocation and the memory copy.
	KindInstall
	// KindCall is one execution of an installed function.
	KindCall
	// KindEvict is code reclamation (cache eviction or Uninstall).
	KindEvict
	// KindLookup is a code-cache probe; its Verdict records hit, miss or
	// coalesced.
	KindLookup
	// KindSuperblock covers one tier-3 promotion: superblock formation
	// from the tier-2 recording plus the optimized re-emission.  N is the
	// trace's block count, Bytes the installed optimized body.
	KindSuperblock
	// KindAdmit is a request's admission verdict: "ok" once past the rate
	// limiter, breaker, shed watermarks, queue bound and tenant quotas, or
	// the typed rejection code.  Priority carries the shed priority.
	KindAdmit
	// KindCache is the shard + cache verdict: "hit", "compiled",
	// "coalesced" (another request's flight produced the function) or
	// "error".
	KindCache
	// KindJournal is the durability decision: "durable" with the record's
	// LSN once the group commit fsynced, "degraded" when the journal is
	// failing and the ack goes out non-durable.
	KindJournal
	// KindExec is the sandboxed call: Name is the engine, Fuel the steps
	// consumed, Dur the call's wall time, Tier the execution tier.
	KindExec
	// KindOutcome closes a request: the response's verdict ("ok" or the
	// error code) and error text, the whole request's duration, and the
	// entry function's flow when one was resolved.
	KindOutcome

	numKinds = int(KindOutcome) + 1
)

var kindNames = [numKinds]string{
	"compile", "regalloc", "emit", "verify", "install", "call", "evict", "lookup", "superblock",
	"admit", "cache", "journal", "exec", "outcome",
}

func (k Kind) String() string {
	if int(k) < numKinds {
		return kindNames[k]
	}
	return "unknown"
}

// MarshalText renders the kind by name, so JSON readers never decode
// enum ordinals.
func (k Kind) MarshalText() ([]byte, error) { return []byte(k.String()), nil }

// UnmarshalText parses a kind name back.
func (k *Kind) UnmarshalText(b []byte) error {
	for i, n := range kindNames {
		if n == string(b) {
			*k = Kind(i)
			return nil
		}
	}
	return fmt.Errorf("trace: unknown kind %q", b)
}

// Attrs carries the kind-specific attributes.  It is a fixed struct rather
// than a map so that recording never allocates; unused fields are zero and
// elided by the exporters.
type Attrs struct {
	// Bytes is the code size the phase handled (emit/install/evict).
	Bytes int64 `json:"bytes,omitempty"`
	// N is a phase-specific magnitude: source instructions for
	// compile/emit, words checked for verify, simulator instructions
	// retired for call.
	N int64 `json:"n,omitempty"`
	// Fuel is the step budget a call consumed (0 when unlimited or
	// unknown).
	Fuel uint64 `json:"fuel,omitempty"`
	// Verdict is a short outcome label: "ok"/"reject" for verify,
	// "hit"/"miss"/"coalesced" for cache lookups, "ok" or the error code
	// for a request's stages.
	Verdict string `json:"verdict,omitempty"`
	// Err is the error text when the phase failed (truncated).
	Err string `json:"err,omitempty"`
	// Key is the program's content key on a request's records.
	Key string `json:"key,omitempty"`
	// Shard is the request's shard; -1 before one is chosen.
	Shard int32 `json:"shard,omitempty"`
	// Priority is the request's shed priority, 0–9.
	Priority int8 `json:"priority,omitempty"`
	// Tier is the execution tier that served an exec record: 1
	// interpreted, 2 compiled, 3 superblock-optimized.
	Tier int8 `json:"tier,omitempty"`
	// LSN is the journal record behind a durable ack.
	LSN uint64 `json:"lsn,omitempty"`
}

// Span is one record.  Start is nanoseconds since the recorder epoch
// (process-local, monotonic); Dur is the phase wall time.  ReqID and
// Tenant are set on a request's records only.
type Span struct {
	Seq     uint64 `json:"seq"`
	Flow    uint64 `json:"flow,omitempty"` // lifecycle ID shared by all records of one function
	Kind    Kind   `json:"kind"`
	Backend string `json:"backend,omitempty"`
	Name    string `json:"name,omitempty"`
	Start   int64  `json:"start_ns"`
	Dur     int64  `json:"dur_ns,omitempty"`
	ReqID   string `json:"request_id,omitempty"`
	Tenant  string `json:"tenant,omitempty"`
	Attrs
}

// enabled is the global gate; see the package comment.
var enabled atomic.Bool

// Enabled reports whether recording is on.
func Enabled() bool { return enabled.Load() }

// SetEnabled turns recording on or off (default off).  The ring is
// allocated lazily on the first record, so a build that never records pays
// no memory.
func SetEnabled(on bool) { enabled.Store(on) }

// flowSeq allocates lifecycle IDs; 0 means "no flow assigned yet".
var flowSeq atomic.Uint64

// NextFlow returns a fresh lifecycle ID.  All records of one generated
// function should share the ID so exporters can reassemble the
// compile→…→evict chain.
func NextFlow() uint64 { return flowSeq.Add(1) }

// epoch anchors timestamps.  time.Since(epoch) uses the monotonic clock,
// so records order correctly even across wall-clock adjustments.
var epoch = time.Now()

// ringCap bounds the ring: the most recent ringCap records are retained.
// At 192 bytes a record the ring tops out at 3 MiB, allocated lazily.
const ringCap = 16384

var (
	ringMu  sync.Mutex
	ring    []Span // nil until the first record; len == ringCap after
	ringSeq uint64
)

// put stamps s with the next sequence number and copies it into the ring.
func put(s *Span) {
	ringMu.Lock()
	if ring == nil {
		ring = make([]Span, ringCap)
	}
	s.Seq = ringSeq
	ring[ringSeq%ringCap] = *s
	ringSeq++
	ringMu.Unlock()
}

// Active is an in-flight span handle returned by Begin.  It is a value —
// holding one costs no allocation — and End on a zero Active is a no-op,
// so call sites can unconditionally End a handle they conditionally
// began.
type Active struct {
	start   time.Time
	backend string
	name    string
	kind    Kind
	live    bool
}

// Begin opens a span if recording is enabled; otherwise it returns an
// inert handle.  The flow ID is supplied at End because many call sites
// only learn it after the phase completes (e.g. the compile span learns
// its function's flow from the assembled Func).
func Begin(kind Kind, backend, name string) Active {
	if !enabled.Load() {
		return Active{}
	}
	return Active{start: time.Now(), backend: backend, name: name, kind: kind, live: true}
}

// End closes the span and records it.  No-op on an inert handle or if
// recording was disabled mid-span.
func (a Active) End(flow uint64, at Attrs) {
	if !a.live || !enabled.Load() {
		return
	}
	record(a.kind, a.backend, a.name, flow, a.start, time.Since(a.start), at)
}

// Record appends one span with caller-measured timing.  It is a no-op
// (one atomic load) unless recording is enabled.  Use this where the
// caller already times the phase for telemetry; use Begin/End otherwise.
func Record(kind Kind, backend, name string, flow uint64, start time.Time, dur time.Duration, at Attrs) {
	if !enabled.Load() {
		return
	}
	record(kind, backend, name, flow, start, dur, at)
}

func record(kind Kind, backend, name string, flow uint64, start time.Time, dur time.Duration, at Attrs) {
	put(&Span{
		Flow:    flow,
		Kind:    kind,
		Backend: backend,
		Name:    name,
		Start:   start.Sub(epoch).Nanoseconds(),
		Dur:     dur.Nanoseconds(),
		Attrs:   at,
	})
}

// Spans snapshots the ring, oldest first.
func Spans() []Span {
	ringMu.Lock()
	defer ringMu.Unlock()
	n := min(ringSeq, ringCap)
	out := make([]Span, 0, n)
	for i := ringSeq - n; i < ringSeq; i++ {
		out = append(out, ring[i%ringCap])
	}
	return out
}

// Reset discards all records and exemplars (the ring memory is kept).
func Reset() {
	ringMu.Lock()
	ringSeq = 0
	ringMu.Unlock()
	resetExemplars()
}
