// Package trace is the lifecycle flight recorder for the code-generation
// pipeline: a ring-buffered span tracer that records one span tree per
// generated function across compile → regalloc → emit → verify → install
// → call×N → evict, with per-span attributes (backend, bytes emitted,
// verify verdict, cache hit/miss, fuel used).
//
// It follows the same gating discipline as internal/telemetry: one global
// atomic switch, and with it off an instrumented call site pays a single
// atomic load and allocates nothing (pinned by a zero-alloc test).  With
// it on, recording a span is one mutex acquisition and a struct copy into
// a preallocated ring — no allocation on the record path either.
//
// Spans within one function lifecycle share a flow ID (see NextFlow);
// exporters group by flow, so the Chrome trace-event rendering shows one
// lane per generated function and the text timeline one line per
// lifecycle.
package trace

import (
	"sync"
	"sync/atomic"
	"time"
)

// Kind identifies one stage of a generated function's lifecycle.  The
// order matches the pipeline: the jit front end compiles bytecode
// (assigning registers on the way), the Asm emits target instructions,
// the Machine verifies, installs, calls and eventually evicts the code.
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
	// KindLookup is a code-cache probe; its Verdict attribute records
	// hit, miss or coalesced.
	KindLookup
	// KindRequest covers one whole server request (internal/server):
	// admission, cache lookup/compile, and the sandboxed call.  Its
	// Name carries "tenant/request-id" so a lifecycle lane ties back to
	// the network request that drove it.
	KindRequest
	// KindSuperblock covers one tier-3 promotion: superblock formation
	// from the tier-2 recording plus the optimized re-emission.  Its N
	// attribute is the trace's block count, Bytes the installed optimized
	// body.
	KindSuperblock

	numKinds = int(KindSuperblock) + 1
)

var kindNames = [numKinds]string{
	"compile", "regalloc", "emit", "verify", "install", "call", "evict", "lookup", "request",
	"superblock",
}

func (k Kind) String() string {
	if int(k) < numKinds {
		return kindNames[k]
	}
	return "unknown"
}

// Attrs carries the phase-specific span attributes.  It is a fixed struct
// rather than a map so that recording a span never allocates; unused
// fields are zero and elided by the exporters.
type Attrs struct {
	// Bytes is the code size the phase handled (emit/install/evict).
	Bytes int64
	// N is a phase-specific magnitude: source instructions for
	// compile/emit, words checked for verify, simulator instructions
	// retired for call.
	N int64
	// Fuel is the step budget a call consumed (0 when unlimited or
	// unknown).
	Fuel uint64
	// Verdict is a short outcome label: "ok"/"reject" for verify,
	// "hit"/"miss"/"coalesced" for cache lookups.
	Verdict string
	// Err is the error text when the phase failed (truncated).
	Err string
}

// Span is one recorded lifecycle phase.  Start is nanoseconds since the
// tracer epoch (process-local, monotonic); Dur is the phase wall time.
type Span struct {
	Seq     uint64
	Flow    uint64 // lifecycle ID shared by all spans of one function
	Kind    Kind
	Backend string
	Name    string
	Start   int64 // ns since epoch
	Dur     int64 // ns
	Attrs   Attrs
}

// enabled is the global gate; see the package comment.
var enabled atomic.Bool

// Enabled reports whether span recording is on.
func Enabled() bool { return enabled.Load() }

// SetEnabled turns span recording on or off (default off).  The ring is
// allocated lazily on the first recorded span, so a build that never
// traces pays no memory.
func SetEnabled(on bool) { enabled.Store(on) }

// flowSeq allocates lifecycle IDs; 0 means "no flow assigned yet".
var flowSeq atomic.Uint64

// NextFlow returns a fresh lifecycle ID.  All spans recorded for one
// generated function should share the ID so exporters can reassemble the
// compile→…→evict chain.
func NextFlow() uint64 { return flowSeq.Add(1) }

// epoch anchors span timestamps.  time.Since(epoch) uses the monotonic
// clock, so spans order correctly even across wall-clock adjustments.
var epoch = time.Now()

// spanCap bounds the ring: the most recent spanCap spans are retained.
// At ~120 bytes per span the ring tops out near 1 MiB, allocated lazily.
const spanCap = 8192

var (
	ringMu  sync.Mutex
	ring    []Span // nil until the first span; len == spanCap after
	ringSeq uint64
)

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

// Begin opens a span if tracing is enabled; otherwise it returns an inert
// handle.  The flow ID is supplied at End because many call sites only
// learn it after the phase completes (e.g. the compile span learns its
// function's flow from the assembled Func).
func Begin(kind Kind, backend, name string) Active {
	if !enabled.Load() {
		return Active{}
	}
	return Active{start: time.Now(), backend: backend, name: name, kind: kind, live: true}
}

// End closes the span and records it.  No-op on an inert handle or if
// tracing was disabled mid-span.
func (a Active) End(flow uint64, at Attrs) {
	if !a.live || !enabled.Load() {
		return
	}
	record(a.kind, a.backend, a.name, flow, a.start, time.Since(a.start), at)
}

// Record appends one span with caller-measured timing.  It is a no-op
// (one atomic load) unless tracing is enabled.  Use this where the caller
// already times the phase for telemetry; use Begin/End otherwise.
func Record(kind Kind, backend, name string, flow uint64, start time.Time, dur time.Duration, at Attrs) {
	if !enabled.Load() {
		return
	}
	record(kind, backend, name, flow, start, dur, at)
}

func record(kind Kind, backend, name string, flow uint64, start time.Time, dur time.Duration, at Attrs) {
	// Build the span outside the lock: recording is on the per-call hot
	// path when tracing is on, so the critical section is just the slot
	// copy and sequence bump.
	sp := Span{
		Flow:    flow,
		Kind:    kind,
		Backend: backend,
		Name:    name,
		Start:   start.Sub(epoch).Nanoseconds(),
		Dur:     dur.Nanoseconds(),
		Attrs:   at,
	}
	ringMu.Lock()
	if ring == nil {
		ring = make([]Span, spanCap)
	}
	sp.Seq = ringSeq
	ring[ringSeq%spanCap] = sp
	ringSeq++
	ringMu.Unlock()
}

// Spans snapshots the ring, oldest first.
func Spans() []Span {
	ringMu.Lock()
	defer ringMu.Unlock()
	n := ringSeq
	if n > spanCap {
		n = spanCap
	}
	out := make([]Span, 0, n)
	for i := ringSeq - n; i < ringSeq; i++ {
		out = append(out, ring[i%spanCap])
	}
	return out
}

// Len reports how many spans are currently retained (bounded by the ring
// capacity regardless of how many were ever recorded).
func Len() int {
	ringMu.Lock()
	defer ringMu.Unlock()
	if ringSeq > spanCap {
		return spanCap
	}
	return int(ringSeq)
}

// Reset discards all recorded spans (the ring memory is kept).
func Reset() {
	ringMu.Lock()
	ringSeq = 0
	ringMu.Unlock()
}
