package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/jit"
	"repro/internal/mem"
)

// missSource is the i-th of a family of distinct tinyc programs; every
// third has a helper, so its function-pointer table has two slots.
func missSource(i int) string {
	if i%3 == 0 {
		return fmt.Sprintf("int twice(int x) { return x + x; } int main(int n) { return twice(n) + %d; }", i)
	}
	return fmt.Sprintf("int main(int n) { int a = n * 3 + %d; int b = a - n; return a + b; }", i)
}

func missBody(t testing.TB, i int) []byte {
	t.Helper()
	raw, err := json.Marshal(map[string]any{
		"tenant": "a", "lang": LangTinyC, "source": missSource(i), "args": []int{7},
	})
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// serve runs one /v1/exec through the handler with no listener between.
func serve(h http.Handler, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/exec", bytes.NewReader(body)))
	return rec
}

// wantServeErr checks a recorded response for a typed error.
func wantServeErr(t *testing.T, rec *httptest.ResponseRecorder, wantStatus int, want Code) {
	t.Helper()
	var out map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatalf("decoding %q: %v", rec.Body, err)
	}
	wantErrCode(t, rec.Code, out, wantStatus, want)
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// heldFrontEnd wraps the server's front end so a test can count entries,
// see how many are inside at once, and hold them there.
type heldFrontEnd struct {
	entered, inside, maxInside atomic.Int64
	release                    chan struct{} // closed to let compiles through
}

func holdFrontEnd(s *Server) *heldFrontEnd {
	h := &heldFrontEnd{release: make(chan struct{})}
	inner := s.frontEnd
	s.frontEnd = func(m *core.Machine, key, tenantName, lang, source, entry string) (*unit, error) {
		h.entered.Add(1)
		n := h.inside.Add(1)
		for {
			max := h.maxInside.Load()
			if n <= max || h.maxInside.CompareAndSwap(max, n) {
				break
			}
		}
		defer h.inside.Add(-1)
		<-h.release
		return inner(m, key, tenantName, lang, source, entry)
	}
	return h
}

// The contentKey bytes are persisted in snapshots and journals: these
// values were produced by the parent commit's
// HashKey(fmt.Sprintf("%s\x00%s\x00%s", lang, entry, source)).
func TestContentKeyGolden(t *testing.T) {
	for _, c := range []struct{ lang, entry, source, want string }{
		{LangTinyC, "", fibTinyC, "9770fda2f94c2337"},
		{LangVasm, "fact", factVasm, "a6417788a1796c27"},
		{LangTinyC, "main", "int main() { return 0; }", "b13c9a59be066ca3"},
		{"", "", "", "8328807b4eb6fed"},
	} {
		if got := contentKey(c.lang, c.entry, c.source); got != c.want {
			t.Errorf("contentKey(%q, %q, %d bytes) = %s, want %s", c.lang, c.entry, len(c.source), got, c.want)
		}
	}
}

func TestRequestIDFormat(t *testing.T) {
	s := &Server{}
	if got := s.requestID("mine"); got != "mine" {
		t.Fatalf("supplied id rewritten to %q", got)
	}
	for seq, want := range map[uint64]string{1: "r000001", 999999: "r999999", 1000000: "r1000000"} {
		s.reqSeq.Store(seq - 1)
		if got := s.requestID(""); got != want || got != fmt.Sprintf("r%06d", seq) {
			t.Errorf("request %d minted %q, want %q", seq, got, want)
		}
	}
}

// Every program's function-pointer table comes off the shard's heap and
// must go back when the program is evicted: at the parent commit 4,000 cold
// compiles left 64,000 bytes behind, and a shard died of it after 458k.
func TestHeapBoundedUnderColdTraffic(t *testing.T) {
	s, _ := newTestServer(t, func(c *Config) {
		c.Shards = 1
		c.MaxEntriesPerShard = 16
	})
	h := s.Handler()
	for i := 0; i < 4000; i++ {
		if rec := serve(h, missBody(t, i)); rec.Code != http.StatusOK {
			t.Fatalf("request %d: %d %s", i, rec.Code, rec.Body)
		}
	}
	// A compile-error path must give its table back too.
	for i := 0; i < 200; i++ {
		raw, _ := json.Marshal(map[string]any{"tenant": "a", "lang": LangTinyC,
			"source": fmt.Sprintf("int main(int n) { return nosuch(n) + %d; }", i)})
		if rec := serve(h, raw); rec.Code != http.StatusUnprocessableEntity {
			t.Fatalf("bad program %d: %d %s", i, rec.Code, rec.Body)
		}
	}
	ar := s.shards[0].machine.ArenaStats()
	// 16 residents and the one being inserted, 16 bytes a table.
	if const_ := uint64(17 * 16); ar.HeapBytesUsed > const_ {
		t.Fatalf("HeapBytesUsed = %d after 4,000 cold compiles with 16 resident, want <= %d", ar.HeapBytesUsed, const_)
	}
	if ar.Funcs > 2*17 {
		t.Fatalf("%d functions installed with 16 programs resident", ar.Funcs)
	}
}

// One worker slot: a second miss on the shard queues behind the first and
// never enters the front end beside it, and with the queue at its bound the
// third is refused.
func TestInlineCompileSlotBoundsFrontEnd(t *testing.T) {
	s, _ := newTestServer(t, func(c *Config) {
		c.Shards = 1
		c.WorkersPerShard = 1
		c.QueueBound = 1
		c.ShedLowWatermark, c.ShedHighWatermark = 100, 100 // defaults scale with QueueBound
	})
	held := holdFrontEnd(s)
	h, sh := s.Handler(), s.shards[0]

	var wg sync.WaitGroup
	codes := make([]int, 2)
	start := func(i int) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			codes[i] = serve(h, missBody(t, 1+i)).Code
		}()
	}
	start(0)
	waitFor(t, "the first miss to enter the front end", func() bool { return held.inside.Load() == 1 })
	start(1)
	waitFor(t, "the second miss to queue for the slot", func() bool { return sh.queueDepth() == 1 })
	if n := held.entered.Load(); n != 1 {
		t.Fatalf("%d compiles entered the front end with one slot", n)
	}
	if got := s.StatsView().QueueDepth; got != 1 {
		t.Fatalf("stats queue_depth = %d with one miss waiting", got)
	}

	rec := serve(h, missBody(t, 5))
	wantServeErr(t, rec, http.StatusTooManyRequests, CodeQueueFull)
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("queue_full without Retry-After")
	}

	close(held.release)
	wg.Wait()
	if codes[0] != http.StatusOK || codes[1] != http.StatusOK {
		t.Fatalf("queued misses finished %v", codes)
	}
	if max := held.maxInside.Load(); max != 1 {
		t.Fatalf("%d compiles were inside the front end at once with WorkersPerShard 1", max)
	}
	if d := sh.queueDepth(); d != 0 {
		t.Fatalf("queue depth %d after the misses drained", d)
	}
}

// A front-end panic on the request goroutine is recovered into the same
// typed error the pool used to produce, and feeds the breaker.
func TestInlineCompilePanicIsTypedAndFeedsBreaker(t *testing.T) {
	s, _ := newTestServer(t, func(c *Config) {
		c.Shards = 1
		c.WorkersPerShard = 1
		c.Injector = faultinject.New(faultinject.Config{Seed: 3, CompilePanicRate: 1})
		c.BreakerThreshold = 2
		c.BreakerCooldown = time.Hour
	})
	h := s.Handler()
	body := missBody(t, 1)
	for i := 0; i < 2; i++ {
		wantServeErr(t, serve(h, body), http.StatusInternalServerError, CodeCompilePanic)
	}
	wantServeErr(t, serve(h, body), http.StatusServiceUnavailable, CodeCircuitOpen)
	// The panics unwound through the gate: its slot is free again.
	if err := s.shards[0].gate.enter(context.Background()); err != nil {
		t.Fatalf("slot not returned after a panic: %v", err)
	}
	s.shards[0].gate.leave()
}

// A request that gives up while it waits for a slot leaves without
// compiling, and without moving its key's breaker.
func TestInlineCompileCancelWhileQueued(t *testing.T) {
	s, _ := newTestServer(t, func(c *Config) {
		c.Shards = 1
		c.WorkersPerShard = 1
	})
	held := holdFrontEnd(s)
	close(held.release)
	sh := s.shards[0]
	if err := sh.gate.enter(context.Background()); err != nil { // the test holds the only slot
		t.Fatal(err)
	}
	tn, ae := s.tenants.get("a")
	if ae != nil {
		t.Fatal(ae)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan *APIError, 1)
	go func() {
		_, ae := s.compile(ctx, nil, tn, LangTinyC, missSource(1), "", "", 5)
		done <- ae
	}()
	waitFor(t, "the miss to queue", func() bool { return sh.queueDepth() == 1 })
	cancel()
	if ae := <-done; ae == nil || ae.Code != CodeDeadline {
		t.Fatalf("cancelled miss returned %v, want %s", ae, CodeDeadline)
	}
	if n := held.entered.Load(); n != 0 {
		t.Fatalf("a cancelled miss compiled (%d front-end entries)", n)
	}
	if d := sh.queueDepth(); d != 0 {
		t.Fatalf("queue depth %d after the cancel", d)
	}
	if _, open := s.breakers.allow(contentKey(LangTinyC, "", missSource(1))); open {
		t.Fatal("a cancellation opened the key's circuit")
	}
	sh.gate.leave()
	if _, ae := s.compile(context.Background(), nil, tn, LangTinyC, missSource(1), "", "", 5); ae != nil {
		t.Fatalf("compile after the slot came back: %v", ae)
	}
}

// A miss that takes a free compile slot is never counted as queued.  It
// used to be, for the instant between counting itself and taking the slot,
// and a request admitted in that instant was refused queue_full with
// QueueBound 1 (TestInlineCompileCoalescesSameKey failed about one run in
// a hundred, and one in twelve once the hit path's decode got faster).
func TestFreeSlotIsNotQueued(t *testing.T) {
	g := compileGate{slots: make(chan struct{}, 1)}
	stop, seen := make(chan struct{}), make(chan int64, 1)
	go func() {
		for {
			select {
			case <-stop:
				close(seen)
				return
			default:
				if d := g.waiting.Load(); d != 0 {
					seen <- d
					<-stop
					close(seen)
					return
				}
			}
		}
	}()
	for i := 0; i < 200000; i++ {
		if err := g.enter(context.Background()); err != nil {
			t.Fatal(err)
		}
		g.leave()
	}
	close(stop)
	if d, ok := <-seen; ok {
		t.Fatalf("queue depth read %d with the only slot free", d)
	}
}

// Close waits for a miss that is compiling on its request goroutine, and a
// miss arriving at the closed gate is turned away as shutting_down.
func TestCloseWaitsForInlineCompile(t *testing.T) {
	cfg := Config{Shards: 1, WorkersPerShard: 1, AllowUnknownTenants: true, SLODisable: true}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Restore(""); err != nil {
		t.Fatal(err)
	}
	held := holdFrontEnd(s)
	h := s.Handler()
	reqDone := make(chan int, 1)
	go func() { reqDone <- serve(h, missBody(t, 1)).Code }()
	waitFor(t, "the miss to enter the front end", func() bool { return held.inside.Load() == 1 })

	closed := make(chan struct{})
	go func() { s.Close(); close(closed) }()
	select {
	case <-closed:
		t.Fatal("Close returned while a compile was in flight")
	case <-time.After(50 * time.Millisecond):
	}
	if err := s.shards[0].gate.enter(context.Background()); err != errShardClosed {
		t.Fatalf("enter on a closing gate = %v, want shutting_down", err)
	}
	close(held.release)
	<-closed
	if code := <-reqDone; code != http.StatusOK {
		t.Fatalf("the in-flight request finished %d", code)
	}
}

// Concurrent misses of one key share one flight: one compile, one slot, and
// the followers answer as cached.
func TestInlineCompileCoalescesSameKey(t *testing.T) {
	s, _ := newTestServer(t, func(c *Config) {
		c.Shards = 1
		c.WorkersPerShard = 1
		c.QueueBound = 1 // followers wait on the flight, not in the queue
		c.ShedLowWatermark, c.ShedHighWatermark = 100, 100
	})
	held := holdFrontEnd(s)
	h, sh := s.Handler(), s.shards[0]
	const n = 6
	body := missBody(t, 1)
	var wg sync.WaitGroup
	var ok, cached atomic.Int64
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rec := serve(h, body)
			if rec.Code != http.StatusOK {
				t.Errorf("status %d: %s", rec.Code, rec.Body)
				return
			}
			ok.Add(1)
			var out struct {
				Cached bool `json:"cached"`
			}
			if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
				t.Error(err)
			} else if out.Cached {
				cached.Add(1)
			}
		}()
	}
	waitFor(t, "the followers to coalesce", func() bool { return sh.cache.Snapshot().Coalesced == n-1 })
	if d := sh.queueDepth(); d != 0 {
		t.Fatalf("coalesced followers count as queued: depth %d", d)
	}
	close(held.release)
	wg.Wait()
	if ok.Load() != n || cached.Load() != n-1 {
		t.Fatalf("%d of %d served, %d as cached (want %d)", ok.Load(), n, cached.Load(), n-1)
	}
	if got := held.entered.Load(); got != 1 {
		t.Fatalf("%d compiles for one key", got)
	}
	if got := sh.compiles.Load(); got != 1 {
		t.Fatalf("shard counted %d compiles", got)
	}
}

// missAllocBudget is what one cold /v1/exec may allocate inside the
// handler.  This test measured 85 KB before the miss path was rebuilt (two
// copies of the shard's 512-entry address map, a token slice grown by
// doubling, the batch pool's bookkeeping for a one-item batch), 17 KB
// after, and 13 KB (13.6 under -race) since tinyc's front end allocates per
// program and builds on the machine's recycled assembler; what is left is
// the request and response, the unit, and what Install keeps.
const missAllocBudget = 16 << 10

// TestMissPathAllocBudget names the layer when the miss path regresses:
// CI runs it on its own, without the benchmark.
func TestMissPathAllocBudget(t *testing.T) {
	s, _ := newTestServer(t, func(c *Config) { c.Shards = 1 })
	h := s.Handler()
	const warm, n = 600, 400 // past MaxEntriesPerShard: every timed miss also evicts
	bodies := make([][]byte, warm+n)
	for i := range bodies {
		bodies[i] = missBody(t, i)
	}
	run := func(bs [][]byte) {
		for i, b := range bs {
			if rec := serve(h, b); rec.Code != http.StatusOK {
				t.Fatalf("request %d: %d %s", i, rec.Code, rec.Body)
			}
		}
	}
	run(bodies[:warm])
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	run(bodies[warm:])
	runtime.ReadMemStats(&after)
	perMiss := (after.TotalAlloc - before.TotalAlloc) / n
	t.Logf("%d bytes allocated per miss (budget %d), %d residents", perMiss, missAllocBudget, s.shards[0].cache.Len())
	if perMiss > missAllocBudget {
		t.Fatalf("a miss allocates %d bytes, budget %d", perMiss, missAllocBudget)
	}
}

// BenchmarkServeMiss is one cold /v1/exec per iteration: decode, key,
// admission, slot, tinyc front end, install, evict, call, encode — the
// handler alone, no TCP.  `make bench-miss` runs it.
func BenchmarkServeMiss(b *testing.B) {
	s, err := New(Config{Shards: 1, WorkersPerShard: 1, AllowUnknownTenants: true, SLODisable: true})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Restore(""); err != nil {
		b.Fatal(err)
	}
	h := s.Handler()
	const chunk = 1024 // sources are rendered a chunk at a time, off the clock
	bodies := make([][]byte, 0, chunk)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%chunk == 0 {
			b.StopTimer()
			bodies = bodies[:0]
			for k := i; k < i+chunk && k < b.N; k++ {
				bodies = append(bodies, missBody(b, k))
			}
			b.StartTimer()
		}
		if rec := serve(h, bodies[i%chunk]); rec.Code != http.StatusOK {
			b.Fatalf("request %d: %d %s", i, rec.Code, rec.Body)
		}
	}
}

// TestCompileUnitOrderIsDeclarationOrder: a unit lists its functions as the
// source declares them, at the same addresses on every fresh machine (both
// used to follow a map's iteration order).
func TestCompileUnitOrderIsDeclarationOrder(t *testing.T) {
	const src = `
int zeta(int n) { return n + 1; }
int alpha(int n) { return n * 2; }
int main(int n) { return zeta(n) + alpha(n); }
int omega(int n) { return main(n); }
`
	for _, backend := range []string{"mips", "sparc", "alpha"} {
		var first string
		for trial := 0; trial < 20; trial++ {
			jm, err := jit.NewMachineTarget(backend, mem.Uncosted)
			if err != nil {
				t.Fatal(err)
			}
			u, err := compileUnit(jm.Core(), "k", "t", LangTinyC, src, "")
			if err != nil {
				t.Fatal(err)
			}
			var got []string
			for _, f := range u.prog.Funcs() {
				got = append(got, fmt.Sprintf("%s@%#x", f.Name, f.Addr()))
			}
			if names := fmt.Sprint(got); trial == 0 {
				first = names
				if !strings.HasPrefix(names, "[zeta@") || u.entryFn.Name != "main" ||
					strings.Index(names, "zeta@") > strings.Index(names, "alpha@") ||
					strings.Index(names, "alpha@") > strings.Index(names, "main@") ||
					strings.Index(names, "main@") > strings.Index(names, "omega@") {
					t.Fatalf("%s: unit's functions = %s, want zeta, alpha, main, omega", backend, names)
				}
			} else if names != first {
				t.Fatalf("%s: trial %d: unit's functions = %s, first trial's %s", backend, trial, names, first)
			}
		}
	}
}
