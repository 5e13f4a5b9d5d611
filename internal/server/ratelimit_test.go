package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"testing"
	"time"

	"repro/internal/faultinject"
)

func TestTokenBucket(t *testing.T) {
	b := newTokenBucket(1, 2)
	for i := 0; i < 2; i++ {
		if ok, _ := b.take(); !ok {
			t.Fatalf("take %d within burst failed", i)
		}
	}
	ok, wait := b.take()
	if ok {
		t.Fatal("third take within the same instant passed a burst-2 bucket")
	}
	if wait <= 0 || wait > 2*time.Second {
		t.Fatalf("wait hint %v, want ~1s", wait)
	}
	// Tokens accrue with time.
	b.mu.Lock()
	b.last = b.last.Add(-time.Second)
	b.mu.Unlock()
	if ok, _ := b.take(); !ok {
		t.Fatal("token did not accrue after a simulated second")
	}
}

func TestRateLimit429(t *testing.T) {
	_, ts := newTestServer(t, func(c *Config) {
		c.DefaultQuota = Quota{RatePerSec: 0.001, Burst: 2}
	})
	body := map[string]any{"tenant": "bob", "lang": "vasm", "source": factVasm, "args": []int{4}}
	for i := 0; i < 2; i++ {
		status, out := post(t, ts, "/v1/exec", body)
		if status != http.StatusOK {
			t.Fatalf("exec %d within burst: %d %v", i, status, out)
		}
	}
	status, out := post(t, ts, "/v1/exec", body)
	wantErrCode(t, status, out, http.StatusTooManyRequests, CodeRateLimited)
	errObj := out["error"].(map[string]any)
	if asInt(t, errObj["retry_after_ms"]) < 1 {
		t.Fatalf("429 without a retry hint: %v", out)
	}
}

func TestRateLimitRetryAfterHeader(t *testing.T) {
	s, ts := newTestServer(t, func(c *Config) {
		c.DefaultQuota = Quota{RatePerSec: 0.001, Burst: 1}
	})
	post(t, ts, "/v1/exec", map[string]any{"tenant": "bob", "lang": "vasm", "source": factVasm, "args": []int{4}})
	raw, err := json.Marshal(map[string]any{"tenant": "bob", "lang": "vasm", "source": factVasm, "args": []int{4}})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/exec", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 missing Retry-After header")
	}
	if s.StatsView().RateLimited == 0 {
		t.Fatal("rate_limited counter not exported")
	}
}

func TestBreakerSet(t *testing.T) {
	bs := newBreakerSet(3, 50*time.Millisecond)
	boom := errors.New("compile exploded")
	for i := 0; i < 2; i++ {
		bs.record("k", boom)
		if _, open := bs.allow("k"); open {
			t.Fatalf("open after only %d failures", i+1)
		}
	}
	bs.record("k", boom)
	wait, open := bs.allow("k")
	if !open || wait <= 0 {
		t.Fatalf("not open after 3 consecutive failures (wait %v)", wait)
	}
	// Success closes a (different, still counting) key entirely.
	bs.record("j", boom)
	bs.record("j", nil)
	bs.record("j", boom)
	bs.record("j", boom)
	if _, open := bs.allow("j"); open {
		t.Fatal("success did not reset the consecutive-failure count")
	}
	// Half-open: once the cooldown lapses one more failure reopens
	// immediately.
	time.Sleep(60 * time.Millisecond)
	if _, open := bs.allow("k"); open {
		t.Fatal("circuit still open after the cooldown")
	}
	bs.record("k", boom)
	if _, open := bs.allow("k"); !open {
		t.Fatal("half-open probe failure did not reopen the circuit")
	}
	// Transient errors say nothing about the key.
	transient := fmt.Errorf("flight aborted: %w", context.Canceled)
	for i := 0; i < 5; i++ {
		bs.record("t", transient)
	}
	if _, open := bs.allow("t"); open {
		t.Fatal("transient errors tripped the breaker")
	}
}

func TestServerBreakerOpens(t *testing.T) {
	s, ts := newTestServer(t, func(c *Config) {
		c.Injector = faultinject.New(faultinject.Config{Seed: 7, CompileErrorRate: 1})
		c.BreakerCooldown = time.Hour
	})
	body := map[string]any{"tenant": "a", "lang": "vasm", "source": factVasm, "entry": "fact", "key": "doomed", "args": []int{4}}
	// Three consecutive compile failures trip the breaker: only settled
	// compile flights feed it.
	sawFailure := 0
	for i := 0; i < 10 && sawFailure < 3; i++ {
		status, out := post(t, ts, "/v1/exec", body)
		if status == http.StatusInternalServerError || status == http.StatusBadRequest {
			sawFailure++
			_ = out
		}
		time.Sleep(20 * time.Millisecond)
	}
	if sawFailure < 3 {
		t.Fatalf("only %d compile failures induced; cannot trip breaker", sawFailure)
	}
	// The circuit is now open with a one-hour cooldown: the next request
	// fast-fails as circuit_open without touching the compiler.
	deadline := time.Now().Add(2 * time.Second)
	for {
		status, out := post(t, ts, "/v1/exec", body)
		if status == http.StatusServiceUnavailable {
			wantErrCode(t, status, out, http.StatusServiceUnavailable, CodeCircuitOpen)
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("breaker never opened: last %d %v", status, out)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if s.StatsView().BreakerOpen == 0 {
		t.Fatal("breaker_open counter not exported")
	}
}

func TestShedWatermarks(t *testing.T) {
	s, ts := newTestServer(t, func(c *Config) {
		c.ShedLowWatermark = 10
		c.ShedHighWatermark = 20
	})
	// Stub the queue-depth signal so the watermarks are deterministic.
	depth := int64(0)
	s.queueDepth = func() int64 { return depth }

	newBody := func(src string, prio int) map[string]any {
		return map[string]any{"tenant": "a", "lang": "vasm", "source": src, "args": []int{4}, "priority": prio}
	}

	// Below the low watermark everything compiles.
	status, out := post(t, ts, "/v1/exec", newBody(factVasm, 0))
	if status != http.StatusOK {
		t.Fatalf("idle exec: %d %v", status, out)
	}
	key := out["key"].(string)

	// Past the low watermark, priority<4 sheds and priority>=4 serves.
	depth = 15
	status, out = post(t, ts, "/v1/exec", newBody(factVasm+"\n; v2", 3))
	wantErrCode(t, status, out, http.StatusServiceUnavailable, CodeOverloaded)
	if status, out = post(t, ts, "/v1/exec", newBody(factVasm+"\n; v3", 5)); status != http.StatusOK {
		t.Fatalf("priority-5 exec shed at the low watermark: %d %v", status, out)
	}

	// Past the high watermark, even default priority sheds; 9 survives.
	depth = 25
	status, out = post(t, ts, "/v1/exec", newBody(factVasm+"\n; v4", 5))
	wantErrCode(t, status, out, http.StatusServiceUnavailable, CodeOverloaded)
	if status, out = post(t, ts, "/v1/exec", newBody(factVasm+"\n; v5", 9)); status != http.StatusOK {
		t.Fatalf("priority-9 exec shed at the high watermark: %d %v", status, out)
	}

	// Cache hits always serve, whatever the depth.
	if status, out = post(t, ts, "/v1/exec", map[string]any{"tenant": "a", "key": key, "args": []int{4}, "priority": 0}); status != http.StatusOK {
		t.Fatalf("cache hit shed under load: %d %v", status, out)
	}
	if s.StatsView().Shed != 2 {
		t.Fatalf("shed counter = %d, want 2", s.StatsView().Shed)
	}
}

func TestJitterMS(t *testing.T) {
	if jitterMS(0) != 0 {
		t.Fatal("jitter invented a retry hint from zero")
	}
	varied := false
	for i := 0; i < 100; i++ {
		j := jitterMS(1000)
		if j < 800 || j > 1200 {
			t.Fatalf("jitterMS(1000) = %d outside ±20%%", j)
		}
		if j != 1000 {
			varied = true
		}
	}
	if !varied {
		t.Fatal("jitter never varied across 100 draws")
	}
}

func TestClampPriority(t *testing.T) {
	for _, tc := range []struct{ in, want int }{{-5, 0}, {0, 0}, {5, 5}, {9, 9}, {42, 9}} {
		if got := clampPriority(tc.in); got != tc.want {
			t.Fatalf("clampPriority(%d) = %d, want %d", tc.in, got, tc.want)
		}
	}
}
