package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"
)

// Cross-tenant isolation: a tenant that grinds into every quota wall it
// has — fuel exhaustion on each call, resident-code quota, compile
// concurrency — must not break another tenant's correctness, and must
// not blow up the victim's tail latency.  Run under -race in CI.
//
// The latency assertion is deliberately generous and absolute (shared
// CI boxes): the point is "victim p99 stays in the same universe", not
// a benchmark — latency is measured by `go run ./bench` (serve_hot).
const victimP99Bound = 500 * time.Millisecond

// quietPost is the raw client used by the isolation hammer: no testing
// assertions, just status + decoded body.
func quietPost(ts *httptest.Server, path string, body map[string]any) (int, map[string]any, error) {
	raw, _ := json.Marshal(body)
	resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(raw))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	var out map[string]any
	dec := json.NewDecoder(resp.Body)
	dec.UseNumber()
	if err := dec.Decode(&out); err != nil {
		return resp.StatusCode, nil, err
	}
	return resp.StatusCode, out, nil
}

func TestCrossTenantIsolation(t *testing.T) {
	t.Run("symbols", testSymbolsArePerUnit)
	cases := []struct {
		name   string
		lang   string
		source string
		arg    int
		want   int64
	}{
		{"vasm", LangVasm, factVasm, 7, 5040},
		{"tinyc", LangTinyC, fibTinyC, 10, 55},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, ts := newTestServer(t, func(c *Config) {
				c.Shards = 2
				c.Tenants = map[string]Quota{
					"hostile": {
						FuelPerCall:           1 << 14,
						MaxResidentBytes:      8 << 10,
						MaxCompileConcurrency: 2,
					},
					"victim": {},
				}
				c.AllowUnknownTenants = false
			})

			// Warm the victim's program once so the steady state is the
			// cache-hit path a real tenant lives on.
			status, out := post(t, ts, "/v1/exec", map[string]any{
				"tenant": "victim", "lang": tc.lang, "source": tc.source, "args": []int{tc.arg},
			})
			if status != http.StatusOK {
				t.Fatalf("victim warmup: %d %v", status, out)
			}

			stop := make(chan struct{})
			var wg sync.WaitGroup

			// Hostile tenant: 4 goroutines hammering every quota.
			hostileCodes := make(map[string]int)
			var hostileMu sync.Mutex
			for g := 0; g < 4; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for i := 0; ; i++ {
						select {
						case <-stop:
							return
						default:
						}
						var body map[string]any
						switch i % 3 {
						case 0: // burn the whole fuel budget
							body = map[string]any{
								"tenant": "hostile", "lang": LangVasm,
								"source": factVasm, "args": []int{1 << 20},
							}
						case 1: // unique programs into the resident-bytes wall
							body = map[string]any{
								"tenant": "hostile", "lang": LangVasm,
								"source": factVasm + fmt.Sprintf("; v%d-%d", g, i),
							}
						default: // concurrency pressure on one fresh key
							body = map[string]any{
								"tenant": "hostile", "lang": LangTinyC,
								"source": fmt.Sprintf("int main(int n) { return n + %d; }", i%7),
								"args":   []int{1},
							}
						}
						path := "/v1/exec"
						if i%3 == 1 {
							path = "/v1/compile"
						}
						st, out, err := quietPost(ts, path, body)
						if err != nil {
							continue // listener closing at test end
						}
						if st != http.StatusOK {
							e, _ := out["error"].(map[string]any)
							if e == nil || e["code"] == "" {
								t.Errorf("hostile failure without typed code: %d %v", st, out)
								return
							}
							hostileMu.Lock()
							hostileCodes[e["code"].(string)]++
							hostileMu.Unlock()
						}
					}
				}(g)
			}

			// Victim: steady requests; every one must be correct.  At
			// least victimN of them, and then for as long as the hostile
			// tenant needs to reach both of its walls: on a loaded box 200
			// cache hits can finish before 70 hostile programs compile.
			const victimN = 200
			hostileAtWalls := func() bool {
				hostileMu.Lock()
				defer hostileMu.Unlock()
				return hostileCodes[string(CodeFuelExhausted)] > 0 && hostileCodes[string(CodeQuotaCodeBytes)] > 0
			}
			deadline := time.Now().Add(10 * time.Second)
			lat := make([]time.Duration, 0, victimN)
			for i := 0; i < victimN || (!hostileAtWalls() && time.Now().Before(deadline)); i++ {
				begin := time.Now()
				st, out, err := quietPost(ts, "/v1/exec", map[string]any{
					"tenant": "victim", "lang": tc.lang, "source": tc.source, "args": []int{tc.arg},
				})
				lat = append(lat, time.Since(begin))
				if err != nil {
					t.Fatalf("victim request %d: %v", i, err)
				}
				if st != http.StatusOK {
					t.Fatalf("victim request %d failed: %d %v", i, st, out)
				}
				n, _ := out["result"].(json.Number).Int64()
				if n != tc.want {
					t.Fatalf("victim result %d = %d, want %d", i, n, tc.want)
				}
			}
			close(stop)
			wg.Wait()

			sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
			p99 := lat[len(lat)*99/100]
			if p99 > victimP99Bound {
				t.Fatalf("victim p99 = %v under hostile load (bound %v)", p99, victimP99Bound)
			}
			t.Logf("victim p99 = %v; hostile rejections by code: %v", p99, hostileCodes)

			// The hostile tenant actually hit its walls — otherwise this
			// test is not testing isolation.
			hostileMu.Lock()
			defer hostileMu.Unlock()
			if hostileCodes[string(CodeFuelExhausted)] == 0 {
				t.Errorf("hostile never exhausted fuel: %v", hostileCodes)
			}
			if hostileCodes[string(CodeQuotaCodeBytes)] == 0 {
				t.Errorf("hostile never hit resident-bytes quota: %v", hostileCodes)
			}
		})
	}
}

// dataProgram is a vasm program whose .data section is named name, holds
// word, and is read by get and overwritten by set.
func dataProgram(name string, word int) string {
	return fmt.Sprintf(".data %s\n.word %d\n"+
		".func get () leaf\n setsym t0, %s\n ldii t0, t0, 0\n reti t0\n.end\n"+
		".func set (%%i) leaf\n setsym t0, %s\n stii arg0, t0, 0\n reti arg0\n.end\n", name, word, name, name)
}

// testSymbolsArePerUnit is TestCrossTenantIsolation's naming half: a
// program's .data names are its own.  Two tenants use one name for
// different data and each reads its own, cached and after the other is
// evicted; a tenant cannot name another's data; a name the machine defines
// is refused whoever else is resident.  (A guessed address still reaches
// the victim's data: memory windows are ROADMAP item 9b.)
func testSymbolsArePerUnit(t *testing.T) {
	s, ts := newTestServer(t, func(c *Config) { c.Shards = 1 })
	exec := func(tenant, source, entry string, args ...int) (int, map[string]any) {
		t.Helper()
		return post(t, ts, "/v1/exec", map[string]any{
			"tenant": tenant, "lang": LangVasm, "source": source, "entry": entry, "args": args})
	}
	wantResult := func(what string, want int64, status int, out map[string]any) {
		t.Helper()
		if status != http.StatusOK || asInt(t, out["result"]) != want {
			t.Fatalf("%s: %d %v, want %d", what, status, out, want)
		}
	}
	const trapData = ".data __div_i\n.word 1\n.func f () leaf\n retv\n.end\n"
	status, out := exec("a", trapData, "")
	wantErrCode(t, status, out, http.StatusUnprocessableEntity, CodeCompileError)
	alone := out["error"].(map[string]any)["message"]

	progA, progB := dataProgram("tab", 111), dataProgram("tab", 222)
	for round := 0; round < 2; round++ { // compiled, then cached
		status, out = exec("a", progA, "get")
		wantResult("a's tab", 111, status, out)
		status, out = exec("b", progB, "get")
		wantResult("b's tab", 222, status, out)
	}
	keyA := contentKey(LangVasm, "get", progA)
	if !s.shards[0].cache.Invalidate(keyA) {
		t.Fatal("a's program was not resident")
	}
	status, out = exec("b", progB, "get")
	wantResult("b's tab with a evicted", 222, status, out)
	status, out = exec("a", progA, "get")
	wantResult("a's tab compiled again beside b's", 111, status, out)

	victim := dataProgram("secret", 42)
	status, out = exec("victim", victim, "get")
	wantResult("victim's secret", 42, status, out)
	status, out = exec("hostile", ".func grab () leaf\n setsym t0, secret\n seti t1, 666\n stii t1, t0, 0\n reti t1\n.end\n", "")
	wantErrCode(t, status, out, http.StatusUnprocessableEntity, CodeCompileError)
	if msg, _ := out["error"].(map[string]any)["message"].(string); !strings.Contains(msg, `undefined symbol "secret"`) {
		t.Fatalf("hostile setsym refused with %q, want an undefined symbol", msg)
	}
	status, out = exec("victim", victim, "get")
	wantResult("victim's cached get after the hostile program", 42, status, out)
	if out["cached"] != true {
		t.Fatalf("victim's second get was not served from the cache: %v", out)
	}

	status, out = exec("a", trapData+"; a key of its own, not the first refusal remembered\n", "")
	wantErrCode(t, status, out, http.StatusUnprocessableEntity, CodeCompileError)
	if crowded := out["error"].(map[string]any)["message"]; crowded != alone {
		t.Fatalf(".data named like a trap: %q with tenants resident, %q on the empty shard", crowded, alone)
	}
	machineLedger(t, s)
}

// TestIsolationResidencyLedger checks the accounting ends consistent
// after the storm: summed tenant residency equals summed live unit
// bytes.
func TestIsolationResidencyLedger(t *testing.T) {
	s, ts := newTestServer(t, func(c *Config) {
		c.Shards = 2
		c.MaxEntriesPerShard = 4 // force evictions
	})
	for i := 0; i < 40; i++ {
		tenantName := fmt.Sprintf("t%d", i%3)
		post(t, ts, "/v1/compile", map[string]any{
			"tenant": tenantName, "lang": LangTinyC,
			"source": fmt.Sprintf("int main(int n) { return n * %d; }", i),
		})
	}
	var unitBytes, tenantBytes int64
	for _, sh := range s.shards {
		_, n := sh.unitTotals()
		unitBytes += n
	}
	for _, name := range s.tenants.names() {
		tn, _ := s.tenants.get(name)
		tenantBytes += tn.resident.Load()
	}
	if unitBytes != tenantBytes {
		t.Fatalf("ledger mismatch: units hold %d bytes, tenants charged %d", unitBytes, tenantBytes)
	}
	if unitBytes == 0 {
		t.Fatalf("nothing resident after 40 compiles")
	}
}
