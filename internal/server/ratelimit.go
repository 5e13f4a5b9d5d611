package server

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"time"
)

// Overload protection is three layers, checked in admission order:
//
//  1. per-tenant token-bucket rate limiting (requests/sec with burst) —
//     applied to every request before any work happens; 429
//     rate_limited;
//  2. a per-key compile circuit breaker — keys whose compiles keep
//     failing fast-fail with 503 circuit_open instead of burning
//     compile slots (the cache remembers no failure; this is the one
//     failure memory, fed by server.compile once per flight it led);
//  3. a global load-shedding watermark on summed compile queue depth —
//     past the low watermark compile-requiring requests below priority 4
//     are shed, past the high watermark everything below priority 8 is,
//     with 503 overloaded.  Cache hits always serve.

// tokenBucket is a standard leaky token bucket: rate tokens/sec accrue
// up to burst; one request takes one token.
type tokenBucket struct {
	mu     sync.Mutex
	rate   float64
	burst  float64
	tokens float64
	last   time.Time
}

func newTokenBucket(rate float64, burst int) *tokenBucket {
	if burst < 1 {
		burst = 1
	}
	return &tokenBucket{rate: rate, burst: float64(burst), tokens: float64(burst), last: time.Now()}
}

// take consumes one token when available; otherwise it reports how long
// until one accrues.
func (b *tokenBucket) take() (ok bool, wait time.Duration) {
	b.mu.Lock()
	defer b.mu.Unlock()
	now := time.Now()
	b.tokens += now.Sub(b.last).Seconds() * b.rate
	if b.tokens > b.burst {
		b.tokens = b.burst
	}
	b.last = now
	if b.tokens >= 1 {
		b.tokens--
		return true, 0
	}
	return false, time.Duration((1 - b.tokens) / b.rate * float64(time.Second))
}

// breakerSet is the per-key compile circuit breaker: `threshold`
// consecutive compile failures open a key's circuit for `cooldown`.
// After the cooldown one probe compile is allowed through half-open —
// success closes the circuit, failure reopens it immediately.
type breakerSet struct {
	mu        sync.Mutex
	m         map[string]*breakerState
	threshold int
	cooldown  time.Duration
}

type breakerState struct {
	fails     int
	openUntil time.Time
	touched   time.Time
}

// breakerMaxKeys bounds the tracked-key map; past it, closed stale
// entries are pruned (an open circuit is never pruned early).
const breakerMaxKeys = 4096

func newBreakerSet(threshold int, cooldown time.Duration) *breakerSet {
	return &breakerSet{m: make(map[string]*breakerState), threshold: threshold, cooldown: cooldown}
}

// allow reports whether a compile for key may proceed; when the circuit
// is open it returns the remaining cooldown.
func (bs *breakerSet) allow(key string) (wait time.Duration, open bool) {
	bs.mu.Lock()
	defer bs.mu.Unlock()
	st, ok := bs.m[key]
	if !ok {
		return 0, false
	}
	if rem := time.Until(st.openUntil); rem > 0 {
		return rem, true
	}
	return 0, false
}

// record feeds one compile outcome into the breaker.  Transient errors
// (cancellation, shutdown) say nothing about the key and are ignored.
func (bs *breakerSet) record(key string, err error) {
	if err != nil && transientCompileErr(err) {
		return
	}
	bs.mu.Lock()
	defer bs.mu.Unlock()
	if err == nil {
		delete(bs.m, key)
		return
	}
	st := bs.m[key]
	if st == nil {
		if len(bs.m) >= breakerMaxKeys {
			bs.pruneLocked()
		}
		st = &breakerState{}
		bs.m[key] = st
	}
	st.fails++
	st.touched = time.Now()
	if st.fails >= bs.threshold {
		st.openUntil = time.Now().Add(bs.cooldown)
		// Half-open: after the cooldown one more failure reopens
		// immediately instead of re-counting from zero.
		st.fails = bs.threshold - 1
	}
}

// pruneLocked drops closed entries that have not failed recently.
func (bs *breakerSet) pruneLocked() {
	cutoff := time.Now().Add(-bs.cooldown)
	now := time.Now()
	for k, st := range bs.m {
		if st.openUntil.Before(now) && st.touched.Before(cutoff) {
			delete(bs.m, k)
		}
	}
}

// transientCompileErr reports the outcomes that say nothing about the key
// and must not move its breaker state.
func transientCompileErr(err error) bool {
	return errors.Is(err, context.Canceled) ||
		errors.Is(err, context.DeadlineExceeded) ||
		errors.Is(err, errShardClosed)
}

// Shed priorities: requests carry 0–9 (9 sheds last); tenants default
// from their quota, requests may override per call.
const (
	shedDefaultPriority = 5
	shedLowMinPriority  = 4 // below this sheds at the low watermark
	shedHighMinPriority = 8 // below this sheds at the high watermark
	retryAfterShedMS    = 250
	retryAfterBreakerMS = 500
)

func clampPriority(p int) int {
	if p < 0 {
		return 0
	}
	if p > 9 {
		return 9
	}
	return p
}

// shedCheck applies the load-shedding watermarks to one compile-
// requiring request.
func (s *Server) shedCheck(prio int) *APIError {
	depth := s.queueDepth()
	var min int
	switch {
	case depth >= s.cfg.ShedHighWatermark:
		min = shedHighMinPriority
	case depth >= s.cfg.ShedLowWatermark:
		min = shedLowMinPriority
	default:
		return nil
	}
	if prio >= min {
		return nil
	}
	s.shedded.Inc()
	return apiErr(CodeOverloaded,
		"shedding priority<%d traffic (queue depth %d, priority %d)", min, depth, prio).
		withRetryAfter(retryAfterShedMS)
}

// totalQueueDepth sums the shards' compile backlogs — the signal the
// shed watermarks watch.
func (s *Server) totalQueueDepth() int64 {
	var sum int64
	for _, sh := range s.shards {
		sum += sh.queueDepth()
	}
	return sum
}

// jitterMS spreads a Retry-After hint ±20% so synchronized clients
// don't retry in lockstep.
func jitterMS(ms int64) int64 {
	if ms <= 0 {
		return ms
	}
	span := ms * 40 / 100
	if span <= 0 {
		return ms
	}
	return ms - span/2 + rand.Int63n(span+1)
}
