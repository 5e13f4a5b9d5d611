package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"testing"

	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/telemetry"
)

func TestMain(m *testing.M) {
	telemetry.SetEnabled(true)
	os.Exit(m.Run())
}

const factVasm = `
.func fact (%i) leaf
.reg acc temp i
    seti    acc, 1
loop:
    bleii   arg0, 1, done
    muli    acc, acc, arg0
    subii   arg0, arg0, 1
    jmp     loop
done:
    reti    acc
.end
`

const fibTinyC = `
int main(int n) {
	int a = 0;
	int b = 1;
	while (n > 0) {
		int t = a + b;
		a = b;
		b = t;
		n = n - 1;
	}
	return a;
}
`

// newTestServer builds a Server on a fresh registry (no cross-test
// metric sharing), marks it ready, and wraps it in an httptest server.
func newTestServer(t *testing.T, mut func(*Config)) (*Server, *httptest.Server) {
	t.Helper()
	cfg := Config{
		Shards:              2,
		WorkersPerShard:     2,
		AllowUnknownTenants: true,
		Registry:            telemetry.NewRegistry(),
	}
	if mut != nil {
		mut(&cfg)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if _, err := s.Restore(""); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { ts.Close(); s.Close() })
	return s, ts
}

// newHTTP wraps an already-built Server in an httptest listener.
func newHTTP(t *testing.T, s *Server) *httptest.Server {
	t.Helper()
	return httptest.NewServer(s.Handler())
}

// post sends body as JSON and decodes the response into a generic map.
func post(t *testing.T, ts *httptest.Server, path string, body map[string]any) (int, map[string]any) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	defer resp.Body.Close()
	var out map[string]any
	dec := json.NewDecoder(resp.Body)
	dec.UseNumber()
	if err := dec.Decode(&out); err != nil {
		t.Fatalf("decode %s: %v", path, err)
	}
	return resp.StatusCode, out
}

func wantErrCode(t *testing.T, status int, out map[string]any, wantStatus int, want Code) {
	t.Helper()
	if status != wantStatus {
		t.Fatalf("status = %d (%v), want %d", status, out, wantStatus)
	}
	e, _ := out["error"].(map[string]any)
	if e == nil {
		t.Fatalf("no error object in %v", out)
	}
	if got := e["code"]; got != string(want) {
		t.Fatalf("error code = %v, want %s (message %v)", got, want, e["message"])
	}
}

func asInt(t *testing.T, v any) int64 {
	t.Helper()
	n, ok := v.(json.Number)
	if !ok {
		t.Fatalf("not a number: %v (%T)", v, v)
	}
	i, err := n.Int64()
	if err != nil {
		t.Fatalf("int64(%v): %v", n, err)
	}
	return i
}

func TestExecVasmAndCacheHit(t *testing.T) {
	_, ts := newTestServer(t, nil)
	status, out := post(t, ts, "/v1/exec", map[string]any{
		"tenant": "alice", "lang": "vasm", "source": factVasm, "args": []int{6},
	})
	if status != http.StatusOK {
		t.Fatalf("status %d: %v", status, out)
	}
	if got := asInt(t, out["result"]); got != 720 {
		t.Fatalf("fact(6) = %d, want 720", got)
	}
	if out["cached"] != false {
		t.Fatalf("first call reported cached: %v", out)
	}
	key, _ := out["key"].(string)
	if key == "" {
		t.Fatalf("no key in response: %v", out)
	}

	// Same content from another tenant: cache hit, same key.
	status, out2 := post(t, ts, "/v1/exec", map[string]any{
		"tenant": "bob", "lang": "vasm", "source": factVasm, "args": []int{5},
	})
	if status != http.StatusOK || out2["cached"] != true || out2["key"] != key {
		t.Fatalf("second call not a shared cache hit: %d %v", status, out2)
	}
	if got := asInt(t, out2["result"]); got != 120 {
		t.Fatalf("fact(5) = %d, want 120", got)
	}
}

func TestExecTinyC(t *testing.T) {
	_, ts := newTestServer(t, nil)
	status, out := post(t, ts, "/v1/exec", map[string]any{
		"tenant": "alice", "lang": "tinyc", "source": fibTinyC, "args": []int{10},
	})
	if status != http.StatusOK {
		t.Fatalf("status %d: %v", status, out)
	}
	if got := asInt(t, out["result"]); got != 55 {
		t.Fatalf("fib(10) = %d, want 55", got)
	}
}

func TestCompileThenExecByKey(t *testing.T) {
	_, ts := newTestServer(t, nil)
	status, out := post(t, ts, "/v1/compile", map[string]any{
		"tenant": "alice", "lang": "vasm", "source": factVasm,
	})
	if status != http.StatusOK {
		t.Fatalf("compile status %d: %v", status, out)
	}
	key := out["key"].(string)
	if asInt(t, out["code_bytes"]) <= 0 || asInt(t, out["functions"]) != 1 {
		t.Fatalf("compile response: %v", out)
	}

	// Execute by key alone — no source re-upload.
	status, out = post(t, ts, "/v1/exec", map[string]any{
		"tenant": "alice", "key": key, "args": []int{7},
	})
	if status != http.StatusOK {
		t.Fatalf("exec-by-key status %d: %v", status, out)
	}
	if got := asInt(t, out["result"]); got != 5040 {
		t.Fatalf("fact(7) = %d, want 5040", got)
	}
	if out["cached"] != true {
		t.Fatalf("exec-by-key not cached: %v", out)
	}
}

func TestErrorTaxonomy(t *testing.T) {
	_, ts := newTestServer(t, nil)
	cases := []struct {
		name   string
		path   string
		body   map[string]any
		status int
		code   Code
	}{
		{"unknown lang", "/v1/exec",
			map[string]any{"lang": "cobol", "source": "x"},
			http.StatusBadRequest, CodeBadRequest},
		{"no source no key", "/v1/exec",
			map[string]any{"lang": "vasm"},
			http.StatusBadRequest, CodeBadRequest},
		{"bad arity", "/v1/exec",
			map[string]any{"lang": "vasm", "source": factVasm, "args": []int{1, 2}},
			http.StatusBadRequest, CodeBadRequest},
		{"missing entry", "/v1/exec",
			map[string]any{"lang": "vasm", "source": factVasm, "entry": "nope", "args": []int{1}},
			http.StatusNotFound, CodeNotFound},
		{"unresident key", "/v1/exec",
			map[string]any{"key": "deadbeef", "args": []int{1}},
			http.StatusNotFound, CodeNotFound},
		{"parse error", "/v1/compile",
			map[string]any{"lang": "tinyc", "source": "int main( {"},
			http.StatusUnprocessableEntity, CodeCompileError},
		// A register jump or call with no operand is the source's mistake
		// (422), not a front-end panic (500 compile_panic).
		{"jmpr without operand", "/v1/exec",
			map[string]any{"lang": "vasm", "source": ".func f (%i) leaf\n jmpr\n.end", "args": []int{1}},
			http.StatusUnprocessableEntity, CodeCompileError},
		{"callr without operand", "/v1/exec",
			map[string]any{"lang": "vasm", "source": ".func f (%i)\n callr\n.end", "args": []int{1}},
			http.StatusUnprocessableEntity, CodeCompileError},
		{"fuel exhausted", "/v1/exec",
			map[string]any{"lang": "vasm", "source": factVasm, "args": []int{1 << 20}, "fuel": 50},
			http.StatusUnprocessableEntity, CodeFuelExhausted},
		{"fuel over quota", "/v1/exec",
			map[string]any{"lang": "vasm", "source": factVasm, "args": []int{1}, "fuel": 1 << 40},
			http.StatusBadRequest, CodeQuotaFuel},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			status, out := post(t, ts, tc.path, tc.body)
			wantErrCode(t, status, out, tc.status, tc.code)
		})
	}
}

func TestUnknownTenantRejected(t *testing.T) {
	_, ts := newTestServer(t, func(c *Config) {
		c.AllowUnknownTenants = false
		c.Tenants = map[string]Quota{"alice": {}}
	})
	status, out := post(t, ts, "/v1/exec", map[string]any{
		"tenant": "mallory", "lang": "vasm", "source": factVasm, "args": []int{3},
	})
	wantErrCode(t, status, out, http.StatusForbidden, CodeUnknownTenant)

	status, _ = post(t, ts, "/v1/exec", map[string]any{
		"tenant": "alice", "lang": "vasm", "source": factVasm, "args": []int{3},
	})
	if status != http.StatusOK {
		t.Fatalf("known tenant rejected: %d", status)
	}
}

func TestQuotaCodeBytes(t *testing.T) {
	_, ts := newTestServer(t, func(c *Config) {
		c.Tenants = map[string]Quota{"small": {MaxResidentBytes: 1}}
	})
	status, out := post(t, ts, "/v1/compile", map[string]any{
		"tenant": "small", "lang": "vasm", "source": factVasm,
	})
	if status != http.StatusOK {
		t.Fatalf("first compile: %d %v", status, out)
	}
	// Now at (over) quota: a different program must be rejected.
	status, out = post(t, ts, "/v1/compile", map[string]any{
		"tenant": "small", "lang": "tinyc", "source": fibTinyC,
	})
	wantErrCode(t, status, out, http.StatusTooManyRequests, CodeQuotaCodeBytes)
	e := out["error"].(map[string]any)
	if asInt(t, e["retry_after_ms"]) <= 0 {
		t.Fatalf("backpressure without retry_after_ms: %v", out)
	}
	// A cache hit on the resident program is still served.
	status, _ = post(t, ts, "/v1/exec", map[string]any{
		"tenant": "small", "lang": "vasm", "source": factVasm, "args": []int{4},
	})
	if status != http.StatusOK {
		t.Fatalf("cache hit rejected at quota: %d", status)
	}
}

func TestQuotaConcurrency(t *testing.T) {
	reg := telemetry.NewRegistry()
	tn := newTenant(reg, "x", Quota{MaxCompileConcurrency: 1})
	if ae := tn.admitCompile(); ae != nil {
		t.Fatalf("first admit: %v", ae)
	}
	ae := tn.admitCompile()
	if ae == nil || ae.Code != CodeQuotaConcurrency {
		t.Fatalf("second admit = %v, want quota_concurrency", ae)
	}
	if ae.Status() != http.StatusTooManyRequests || ae.RetryAfterMS <= 0 {
		t.Fatalf("quota_concurrency status/retry: %d %d", ae.Status(), ae.RetryAfterMS)
	}
	tn.releaseCompile()
	if ae := tn.admitCompile(); ae != nil {
		t.Fatalf("admit after release: %v", ae)
	}
}

func TestEvictionReturnsResidency(t *testing.T) {
	s, ts := newTestServer(t, func(c *Config) {
		c.Shards = 1
		c.MaxEntriesPerShard = 1
	})
	status, out := post(t, ts, "/v1/compile", map[string]any{
		"tenant": "alice", "lang": "vasm", "source": factVasm,
	})
	if status != http.StatusOK {
		t.Fatalf("compile A: %d %v", status, out)
	}
	keyA := out["key"].(string)
	status, _ = post(t, ts, "/v1/compile", map[string]any{
		"tenant": "alice", "lang": "tinyc", "source": fibTinyC,
	})
	if status != http.StatusOK {
		t.Fatalf("compile B: %d", status)
	}

	// A was evicted to make room: its bytes must be returned.
	alice, ae := s.tenants.get("alice")
	if ae != nil {
		t.Fatalf("get tenant: %v", ae)
	}
	u := s.shards[0].unit(contentKey(LangTinyC, "", fibTinyC))
	if u == nil {
		t.Fatalf("unit B not registered")
	}
	if got := alice.resident.Load(); got != u.prog.CodeBytes() {
		t.Fatalf("resident after eviction = %d, want %d (B only)", got, u.prog.CodeBytes())
	}
	status, out = post(t, ts, "/v1/exec", map[string]any{
		"tenant": "alice", "key": keyA, "args": []int{3},
	})
	wantErrCode(t, status, out, http.StatusNotFound, CodeNotFound)
}

func TestStatsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, nil)
	for i := 0; i < 3; i++ {
		post(t, ts, "/v1/exec", map[string]any{
			"tenant": "alice", "lang": "vasm", "source": factVasm, "args": []int{i + 2},
		})
	}
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatalf("GET /v1/stats: %v", err)
	}
	defer resp.Body.Close()
	var st Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decode stats: %v", err)
	}
	if len(st.Shards) != 2 || !st.Ready || st.Requests != 3 {
		t.Fatalf("stats: %+v", st)
	}
	var alice *TenantStats
	for i := range st.Tenants {
		if st.Tenants[i].Name == "alice" {
			alice = &st.Tenants[i]
		}
	}
	if alice == nil || alice.Requests != 3 || alice.Compiles != 1 || alice.ResidentBytes <= 0 {
		t.Fatalf("tenant stats: %+v", st.Tenants)
	}
	if alice.Calls != 3 || alice.CallP99NS == 0 {
		t.Fatalf("tenant call summary: %+v", alice)
	}
	total := 0
	for _, sh := range st.Shards {
		total += sh.Units
		if sh.Calls > 0 && sh.CodeBytesResident == 0 {
			t.Fatalf("shard with calls but no resident code: %+v", sh)
		}
	}
	if total != 1 {
		t.Fatalf("units across shards = %d, want 1", total)
	}
}

func TestHealthAndReadiness(t *testing.T) {
	cfg := Config{Shards: 1, Registry: telemetry.NewRegistry()}
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	get := func(path string) int {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if get("/healthz") != http.StatusOK {
		t.Fatalf("liveness before restore")
	}
	if get("/readyz") != http.StatusServiceUnavailable {
		t.Fatalf("ready before Restore ran")
	}
	if _, err := s.Restore(""); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	if get("/readyz") != http.StatusOK {
		t.Fatalf("not ready after Restore")
	}
}

func TestObservabilityMounted(t *testing.T) {
	_, ts := newTestServer(t, nil)
	post(t, ts, "/v1/exec", map[string]any{
		"tenant": "alice", "lang": "vasm", "source": factVasm, "args": []int{3},
	})
	for _, path := range []string{"/metrics", "/metrics.json", "/trace.txt", "/healthz", "/readyz"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s = %d", path, resp.StatusCode)
		}
	}
}

func TestClassify(t *testing.T) {
	cases := []struct {
		err  error
		want Code
	}{
		{core.ErrFuelExhausted, CodeFuelExhausted},
		{fmt.Errorf("wrap: %w", core.ErrFuelExhausted), CodeFuelExhausted},
		{context.DeadlineExceeded, CodeDeadline},
		{fmt.Errorf("x: %w", faultinject.ErrInjected), CodeInjectedFault},
		{errors.New("anything else"), CodeExecError},
		{apiErr(CodeQueueFull, "q"), CodeQueueFull},
	}
	for _, tc := range cases {
		if got := classify(tc.err); got.Code != tc.want {
			t.Errorf("classify(%v) = %s, want %s", tc.err, got.Code, tc.want)
		}
	}
	if got := classifyCompile(errors.New("parse")); got.Code != CodeCompileError {
		t.Errorf("classifyCompile residual = %s", got.Code)
	}
	if got := classifyCompile(core.ErrFuelExhausted); got.Code != CodeFuelExhausted {
		t.Errorf("classifyCompile typed = %s", got.Code)
	}
	if !errorsIs(apiErr(CodeDeadline, "d"), CodeDeadline) {
		t.Errorf("errorsIs failed")
	}
}
