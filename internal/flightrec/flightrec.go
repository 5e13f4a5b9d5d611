// Package flightrec is the per-request black box for the vcoded server:
// a ring-buffered event recorder that captures, per request ID, every
// decision the service made on the way to a response — the admission
// verdict (rate limit, breaker, shed, queue, quota) with the request's
// shed priority, the shard and cache verdict, the journal LSN behind a
// durable ack, the engine and fuel of the sandboxed call, and the final
// outcome code.  After an incident the ring reconstructs the full
// admission→compile→journal→exec→outcome chain for any recent request
// without ever having logged a line.
//
// It follows the same gating discipline as internal/trace and
// internal/telemetry: one global atomic switch, and with it off an
// instrumented call site pays a single atomic load and allocates nothing
// (pinned by a zero-alloc test).  Begin returns nil when disabled and
// every method is nil-receiver-safe, so call sites thread the handle
// unconditionally.  With it on, recording an event is one mutex
// acquisition and a struct copy into a preallocated ring.
//
// On top of the ring sits bounded exemplar capture: the slowest-N
// requests per rolling window and the most recent errored requests keep
// their complete event chain (plus the trace flow/span ID), so the tail
// and the failures stay reconstructible even after the ring has lapped.
package flightrec

import (
	"encoding/json"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Stage identifies one decision point in a request's life.  The order
// matches the request path: admission control, the shard cache, the
// durability journal, the sandboxed call, the final outcome.
type Stage uint8

const (
	// StageAdmit is the admission verdict: "ok" once past the rate
	// limiter, breaker, shed watermarks, queue bound and tenant quotas,
	// or the typed rejection code.  Priority carries the request's shed
	// priority.
	StageAdmit Stage = iota
	// StageCache is the shard + cache verdict: "hit", "compiled",
	// "coalesced" (another request's flight produced the function) or
	// "error".
	StageCache
	// StageJournal is the durability decision: "durable" with the
	// record's LSN once the group commit fsynced, "degraded" when the
	// journal is failing and the ack goes out non-durable.
	StageJournal
	// StageExec is the sandboxed call: Detail carries the engine name,
	// Fuel the steps consumed, DurNS the call wall time.
	StageExec
	// StageOutcome closes the chain: the response's verdict ("ok" or the
	// error code) and the whole request's wall time.
	StageOutcome

	numStages = int(StageOutcome) + 1
)

var stageNames = [numStages]string{"admit", "cache", "journal", "exec", "outcome"}

func (s Stage) String() string {
	if int(s) < numStages {
		return stageNames[s]
	}
	return "unknown"
}

// MarshalJSON renders the stage by name so bundle consumers (and humans)
// never decode enum ordinals.
func (s Stage) MarshalJSON() ([]byte, error) {
	return []byte(`"` + s.String() + `"`), nil
}

// UnmarshalJSON parses the stage name back — bundle tooling round-trips
// rings through JSON.
func (s *Stage) UnmarshalJSON(b []byte) error {
	var name string
	if err := json.Unmarshal(b, &name); err != nil {
		return err
	}
	for i, n := range stageNames {
		if n == name {
			*s = Stage(i)
			return nil
		}
	}
	return fmt.Errorf("flightrec: unknown stage %q", name)
}

// Event is one recorded decision.  It is a fixed-shape struct rather
// than a map so recording never allocates; unused fields are zero.
type Event struct {
	Seq      uint64 `json:"seq"`
	Time     int64  `json:"t_ns"` // ns since the recorder epoch
	Stage    Stage  `json:"stage"`
	ReqID    string `json:"request_id"`
	Tenant   string `json:"tenant"`
	Key      string `json:"key,omitempty"`
	Verdict  string `json:"verdict"`
	Detail   string `json:"detail,omitempty"` // engine name, truncated error
	Shard    int32  `json:"shard"`            // -1 before a shard is chosen
	Priority int8   `json:"priority"`
	Fuel     uint64 `json:"fuel,omitempty"`
	LSN      uint64 `json:"lsn,omitempty"`
	DurNS    int64  `json:"dur_ns,omitempty"`
	// Tier is the execution tier that served a StageExec event: 1
	// interpreted, 2 compiled, 3 superblock-optimized.  Zero on stages
	// where no tier applies (and in rings recorded before the field
	// existed).
	Tier int8 `json:"tier,omitempty"`
}

// enabled is the global gate; see the package comment.
var enabled atomic.Bool

// Enabled reports whether flight recording is on.
func Enabled() bool { return enabled.Load() }

// SetEnabled turns flight recording on or off (default off).  The ring
// is allocated lazily on the first event, so a build that never records
// pays no memory.
func SetEnabled(on bool) { enabled.Store(on) }

// epoch anchors event timestamps; time.Since(epoch) uses the monotonic
// clock so events order correctly across wall-clock adjustments.
var epoch = time.Now()

// ringCap bounds the event ring: the most recent ringCap events are
// retained.  Five-ish events per request means the ring holds the last
// ~3000 requests.
const ringCap = 16384

var (
	ringMu  sync.Mutex
	ring    []Event // nil until the first event; len == ringCap after
	ringSeq uint64
)

// chainCap bounds one request's retained chain: admit + cache + journal
// + exec + outcome plus slack for repeated admission events.
const chainCap = 10

// Request is the per-request recording handle.  Begin returns nil when
// recording is disabled and every method no-ops on a nil receiver, so
// call sites never branch.  Handles are pooled; after Finish the handle
// must not be used again.
type Request struct {
	reqID  string
	tenant string
	start  time.Time
	n      int
	events [chainCap]Event
}

var reqPool = sync.Pool{New: func() any { return new(Request) }}

// Begin opens a request chain.  Returns nil (an inert handle) when
// recording is disabled.
func Begin(reqID, tenant string) *Request {
	if !enabled.Load() {
		return nil
	}
	r := reqPool.Get().(*Request)
	r.reqID, r.tenant, r.start, r.n = reqID, tenant, time.Now(), 0
	return r
}

// Event records one decision on the request's chain and in the global
// ring.  The caller fills the stage-specific fields; Seq, Time, ReqID
// and Tenant are stamped here.
func (r *Request) Event(stage Stage, e Event) {
	if r == nil {
		return
	}
	e.Stage = stage
	e.Time = time.Since(epoch).Nanoseconds()
	e.ReqID = r.reqID
	e.Tenant = r.tenant
	ringMu.Lock()
	if ring == nil {
		ring = make([]Event, ringCap)
	}
	e.Seq = ringSeq
	ring[ringSeq%ringCap] = e
	ringSeq++
	ringMu.Unlock()
	if r.n < chainCap {
		r.events[r.n] = e
		r.n++
	}
}

// Finish closes the chain with a StageOutcome event (outcome "ok" or the
// error code, detail the truncated error text, flow the trace span/flow
// ID when known), runs exemplar retention, and returns the handle to the
// pool.  The handle must not be used afterwards.
func (r *Request) Finish(outcome, detail string, flow uint64) {
	if r == nil {
		return
	}
	dur := time.Since(r.start).Nanoseconds()
	r.Event(StageOutcome, Event{Verdict: outcome, Detail: detail, Shard: -1, DurNS: dur})
	retain(r, outcome, flow, dur)
	r.reqID, r.tenant, r.n = "", "", 0
	reqPool.Put(r)
}

// --- exemplars ---

// Exemplar is one retained request: its identity, outcome, the trace
// flow/span ID that joins it to the lifecycle tracer, and a copy of its
// complete event chain.
type Exemplar struct {
	ReqID   string  `json:"request_id"`
	Tenant  string  `json:"tenant"`
	Outcome string  `json:"outcome"`
	Flow    uint64  `json:"flow,omitempty"` // trace span/flow ID
	StartNS int64   `json:"start_ns"`       // ns since the recorder epoch
	DurNS   int64   `json:"dur_ns"`
	Events  []Event `json:"events"`
}

const (
	// slowCap bounds the slowest-request exemplars kept per window.
	slowCap = 8
	// errCap bounds the errored-request exemplars (a ring of the most
	// recent; "every errored request" up to this retention).
	errCap = 32
)

var (
	exMu       sync.Mutex
	exWindow   = int64(60 * time.Second) // rotation period, ns
	exWindowAt int64                     // current window's start, ns since epoch
	slowCur    []Exemplar                // slowest-N of the current window
	slowPrev   []Exemplar                // the completed previous window
	errRing    [errCap]Exemplar
	errSeq     uint64
)

// SetWindow changes the slowest-N rotation window (default 60s).
func SetWindow(d time.Duration) {
	exMu.Lock()
	exWindow = d.Nanoseconds()
	exMu.Unlock()
}

func retain(r *Request, outcome string, flow uint64, dur int64) {
	errored := outcome != "ok"
	now := time.Since(epoch).Nanoseconds()
	exMu.Lock()
	defer exMu.Unlock()
	if now-exWindowAt >= exWindow {
		slowPrev, slowCur = slowCur, nil
		exWindowAt = now
	}
	// Slowest-N admission: fill up, then displace the fastest member.
	slowIdx := -1
	if len(slowCur) < slowCap {
		slowIdx = len(slowCur)
		slowCur = append(slowCur, Exemplar{})
	} else {
		min := 0
		for i := 1; i < len(slowCur); i++ {
			if slowCur[i].DurNS < slowCur[min].DurNS {
				min = i
			}
		}
		if dur > slowCur[min].DurNS {
			slowIdx = min
		}
	}
	if slowIdx < 0 && !errored {
		return
	}
	ex := Exemplar{
		ReqID:   r.reqID,
		Tenant:  r.tenant,
		Outcome: outcome,
		Flow:    flow,
		StartNS: now - dur,
		DurNS:   dur,
		Events:  append([]Event(nil), r.events[:r.n]...),
	}
	if slowIdx >= 0 {
		slowCur[slowIdx] = ex
	}
	if errored {
		errRing[errSeq%errCap] = ex
		errSeq++
	}
}

// ExemplarSet is the Exemplars snapshot.
type ExemplarSet struct {
	// Slowest merges the current and previous windows, slowest first.
	Slowest []Exemplar `json:"slowest"`
	// Errored is the retained errored requests, oldest first.
	Errored []Exemplar `json:"errored"`
}

// Exemplars snapshots the retained exemplars.
func Exemplars() ExemplarSet {
	exMu.Lock()
	defer exMu.Unlock()
	var set ExemplarSet
	set.Slowest = append(append([]Exemplar(nil), slowCur...), slowPrev...)
	for i := 0; i+1 < len(set.Slowest); i++ {
		for j := i + 1; j < len(set.Slowest); j++ {
			if set.Slowest[j].DurNS > set.Slowest[i].DurNS {
				set.Slowest[i], set.Slowest[j] = set.Slowest[j], set.Slowest[i]
			}
		}
	}
	n := errSeq
	if n > errCap {
		n = errCap
	}
	for i := errSeq - n; i < errSeq; i++ {
		set.Errored = append(set.Errored, errRing[i%errCap])
	}
	return set
}

// Events snapshots the ring, oldest first.
func Events() []Event {
	ringMu.Lock()
	defer ringMu.Unlock()
	n := ringSeq
	if n > ringCap {
		n = ringCap
	}
	out := make([]Event, 0, n)
	for i := ringSeq - n; i < ringSeq; i++ {
		out = append(out, ring[i%ringCap])
	}
	return out
}

// Len reports how many events are currently retained (bounded by the
// ring capacity regardless of how many were ever recorded).
func Len() int {
	ringMu.Lock()
	defer ringMu.Unlock()
	if ringSeq > ringCap {
		return ringCap
	}
	return int(ringSeq)
}

// Reset discards all recorded events and exemplars (ring memory kept).
func Reset() {
	ringMu.Lock()
	ringSeq = 0
	ringMu.Unlock()
	exMu.Lock()
	slowCur, slowPrev = nil, nil
	errSeq = 0
	exWindowAt = time.Since(epoch).Nanoseconds()
	exMu.Unlock()
}
