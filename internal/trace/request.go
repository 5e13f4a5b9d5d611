package trace

import (
	"sort"
	"sync"
	"time"
)

// chainCap bounds one request's retained chain: admit + cache + journal +
// exec + outcome plus slack for the stages a request evicted between its
// compile and its call repeats.
const chainCap = 10

// Request is one request's handle.  BeginRequest returns nil when
// recording is disabled and every method no-ops on a nil receiver, so
// call sites never branch.  Handles are pooled; after Finish the handle
// must not be used again.
type Request struct {
	id, tenant string
	start      time.Time
	n          int
	chain      [chainCap]Span
}

var requests = sync.Pool{New: func() any { return new(Request) }}

// BeginRequest opens a request's chain.  It returns nil (an inert handle)
// when recording is disabled.
func BeginRequest(id, tenant string) *Request {
	if !enabled.Load() {
		return nil
	}
	r := requests.Get().(*Request)
	r.id, r.tenant, r.start, r.n = id, tenant, time.Now(), 0
	return r
}

// Record appends one of the request's records to its chain and to the
// ring.  The caller fills Kind and the kind's fields (Dur for a timed
// stage); Seq, Start, ReqID and Tenant are stamped here.  A chain that
// is full keeps its first records.
func (r *Request) Record(s Span) {
	if r == nil {
		return
	}
	s.Start = time.Since(epoch).Nanoseconds() - s.Dur
	s.ReqID, s.Tenant = r.id, r.tenant
	put(&s)
	if r.n < chainCap {
		r.chain[r.n] = s
		r.n++
	}
}

// Finish closes the request with its outcome record — the whole request's
// duration, at's verdict ("ok" or the error code) and error text, and the
// entry function's flow when known — which always lands in the chain
// (over its last record when the chain is full).  It then runs exemplar
// retention and returns the handle to the pool.
func (r *Request) Finish(flow uint64, at Attrs) {
	if r == nil {
		return
	}
	r.n = min(r.n, chainCap-1)
	r.Record(Span{Kind: KindOutcome, Flow: flow, Dur: time.Since(r.start).Nanoseconds(), Attrs: at})
	retain(r.chain[:r.n])
	r.id, r.tenant = "", ""
	requests.Put(r)
}

// ExemplarSet is the retained requests: each one's chain, ending in its
// outcome record.
type ExemplarSet struct {
	// Slowest merges the current and previous windows, slowest first.
	Slowest [][]Span `json:"slowest"`
	// Errored is the most recent requests whose outcome was not "ok",
	// oldest first.
	Errored [][]Span `json:"errored"`
}

const (
	// slowCap bounds the slowest-request exemplars kept per window.
	slowCap = 8
	// errCap bounds the errored-request exemplars.
	errCap = 32
)

var (
	exMu       sync.Mutex
	exWindow   = int64(60 * time.Second) // slowest-N rotation period, ns
	exWindowAt int64                     // current window's start, ns since epoch
	slowCur    [][]Span                  // slowest-N of the current window
	slowPrev   [][]Span                  // the completed previous window
	errRing    [errCap][]Span
	errSeq     uint64
)

// outcome is a retained chain's closing record.
func outcome(chain []Span) *Span { return &chain[len(chain)-1] }

// retain keeps a copy of chain if the request is among the current
// window's slowest or errored.
func retain(chain []Span) {
	out := outcome(chain)
	errored := out.Verdict != "ok"
	now := out.Start + out.Dur
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
		slowCur = append(slowCur, nil)
	} else {
		fastest := 0
		for i := range slowCur {
			if outcome(slowCur[i]).Dur < outcome(slowCur[fastest]).Dur {
				fastest = i
			}
		}
		if out.Dur > outcome(slowCur[fastest]).Dur {
			slowIdx = fastest
		}
	}
	if slowIdx < 0 && !errored {
		return
	}
	kept := append([]Span(nil), chain...)
	if slowIdx >= 0 {
		slowCur[slowIdx] = kept
	}
	if errored {
		errRing[errSeq%errCap] = kept
		errSeq++
	}
}

// Exemplars snapshots the retained exemplars.
func Exemplars() ExemplarSet {
	exMu.Lock()
	defer exMu.Unlock()
	var set ExemplarSet
	set.Slowest = append(append([][]Span(nil), slowCur...), slowPrev...)
	sort.SliceStable(set.Slowest, func(i, j int) bool {
		return outcome(set.Slowest[i]).Dur > outcome(set.Slowest[j]).Dur
	})
	for i := errSeq - min(errSeq, errCap); i < errSeq; i++ {
		set.Errored = append(set.Errored, errRing[i%errCap])
	}
	return set
}

func resetExemplars() {
	exMu.Lock()
	slowCur, slowPrev = nil, nil
	errSeq = 0
	exWindowAt = time.Since(epoch).Nanoseconds()
	exMu.Unlock()
}
