package server

import (
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/telemetry"
)

// Soak sizes: 12,000 requests (a tenth under -short) from 8 closed-loop
// clients over 4 tenants, injector seed 7.
const (
	soakRequests = 12000
	soakClients  = 8
	soakTenants  = 4
	soakSeed     = 7
)

// churnVasm sums n..1 through a word of its .data section, so every
// iteration runs a generated store and load for the injector's access
// faults to hit, and every compile and eviction of it (the soak sends 16
// variants into a cache too small to keep them) takes a data block and a
// name and must give both back.
const churnVasm = `
.data cell
.word 0
.func churn (%i) leaf
.reg acc temp i
.reg p temp p
    setsym  p, cell
    seti    acc, 0
loop:
    bleii   arg0, 0, done
    addi    acc, acc, arg0
    stii    acc, p, 0
    ldii    acc, p, 0
    subii   arg0, arg0, 1
    jmp     loop
done:
    reti    acc
.end
`

// publishedCodes is the wire taxonomy: a failure outside it fails the soak.
var publishedCodes = map[Code]bool{
	CodeBadRequest: true, CodeUnknownTenant: true, CodeNotFound: true,
	CodeQueueFull: true, CodeQuotaConcurrency: true, CodeQuotaCodeBytes: true,
	CodeQuotaFuel: true, CodeVerifyReject: true, CodeCompileError: true,
	CodeCompilePanic: true, CodeFuelExhausted: true, CodeDeadline: true,
	CodeTrapPanic: true, CodeSimPanic: true, CodeInjectedFault: true,
	CodeExecError: true, CodeShuttingDown: true,
	CodeRateLimited: true, CodeCircuitOpen: true, CodeOverloaded: true,
}

// soakRequest builds a client's i-th request: mostly cache-hot programs
// from a small corpus, a slice of never-seen sources to keep the compile
// path and eviction busy, compile-only variants, a program that loads and
// stores, and a loop far past its tenant's fuel cap.
func soakRequest(rng *rand.Rand, client, i int) (path string, body map[string]any) {
	tenant := fmt.Sprintf("t%d", rng.Intn(soakTenants))
	switch rng.Intn(8) {
	case 0:
		return "/v1/exec", map[string]any{
			"tenant": tenant, "lang": "tinyc",
			"source": fmt.Sprintf("int main(int n) { return n * %d + %d; }", client+2, i),
			"args":   []int{3},
		}
	case 1:
		return "/v1/compile", map[string]any{
			"tenant": tenant, "lang": "vasm",
			"source": factVasm + fmt.Sprintf("; variant %d", i%32),
		}
	case 2:
		// t2's fuel cap is the one a run reaches before an injected fetch
		// fault ends it.
		return "/v1/exec", map[string]any{
			"tenant": "t2", "lang": "vasm", "source": factVasm, "args": []int{1 << 20},
		}
	case 3:
		return "/v1/exec", map[string]any{
			"tenant": tenant, "lang": "vasm", "source": churnVasm + fmt.Sprintf("; variant %d", i%16), "args": []int{200},
		}
	default:
		return "/v1/exec", map[string]any{
			"tenant": tenant, "lang": "tinyc",
			"source": fmt.Sprintf("int main(int n) { int a = 0; int i = 0; while (i < n) { a = a + i * %d; i = i + 1; } return a; }", rng.Intn(8)+1),
			"args":   []int{20},
		}
	}
}

// TestServeSoak runs a mixed-tenant, mixed-language load against an
// in-process server with deterministic faults on every shard — memory
// faults inside running code, errors and panics around the front ends —
// and the flight recorder on, as production would.  The server's contract:
// no request crashes it (a handler panic would reach the client as a
// broken connection) and every failure is a typed JSON error from the
// published taxonomy.  The soak's own contract: most requests get past
// admission, every configured fault class fires, and the rejection,
// injection, panic-recovery and fuel paths are all seen.  It then folds
// the resident set into a snapshot and restores it into a server with a
// different shard count, which must conserve the residency ledger.  Last,
// every machine must hold exactly its resident units, and with the caches
// emptied exactly what a fresh machine holds: code, heap and names of every
// program compiled, refused or evicted on the way came back.
func TestServeSoak(t *testing.T) {
	withFlightRecording(t)
	requests := soakRequests
	if testing.Short() {
		requests /= 10
	}
	inj := faultinject.New(faultinject.Config{
		Seed:           soakSeed,
		FetchErrorRate: 0.0002,
		FetchFlipRate:  0.0005,
		LoadErrorRate:  0.001,
		StoreErrorRate: 0.001,
		// A tenth-size run must still see several of each.
		CompileErrorRate: 0.10,
		CompilePanicRate: 0.10,
	})
	cfg := Config{
		Shards:             4,
		WorkersPerShard:    2,
		MaxEntriesPerShard: 16, // under the ~60 programs that recur: they churn
		QueueBound:         64,
		DefaultQuota: Quota{
			FuelPerCall:           1 << 18,
			MaxResidentBytes:      128 << 10,
			MaxCompileConcurrency: 4,
		},
		Tenants: map[string]Quota{
			"t2": {FuelPerCall: 1024},
			// One tenant in four keeps the limiter in the mix without
			// admission deciding how much of the soak reaches a shard.
			"t3": {RatePerSec: 50, Burst: 20},
		},
		AllowUnknownTenants: true,
		Registry:            telemetry.NewRegistry(),
		Injector:            inj,
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if _, err := srv.Restore(""); err != nil {
		t.Fatal(err)
	}
	ts := newHTTP(t, srv)
	defer ts.Close()

	var mu sync.Mutex // guards byCode and untyped
	byCode := make(map[Code]int)
	var untyped []string
	var wg sync.WaitGroup
	for c := 0; c < soakClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(soakSeed + int64(c)*7919))
			for i := 0; i < requests/soakClients; i++ {
				path, body := soakRequest(rng, c, i)
				status, out, err := quietPost(ts, path, body)
				if err == nil && status == http.StatusOK {
					continue
				}
				e, _ := out["error"].(map[string]any)
				code, _ := e["code"].(string)
				mu.Lock()
				switch {
				case err != nil:
					untyped = append(untyped, fmt.Sprintf("%s -> %d: %v", path, status, err))
				case !publishedCodes[Code(code)]:
					untyped = append(untyped, fmt.Sprintf("%s -> %d: code %q outside the taxonomy", path, status, code))
				default:
					byCode[Code(code)]++
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()

	total := requests / soakClients * soakClients
	st := inj.Stats()
	t.Logf("%d requests, errors by code %v", total, byCode)
	t.Log(st)

	if len(untyped) > 0 {
		show := untyped[:min(len(untyped), 5)]
		t.Errorf("%d failures outside the typed taxonomy (transport errors are escaped panics), e.g. %v", len(untyped), show)
	}
	if reached := total - byCode[CodeRateLimited]; reached*100 < 60*total {
		t.Errorf("%d of %d requests got past admission, want >= 60%%", reached, total)
	}
	if st.FetchErrors == 0 || st.BitFlips == 0 || st.LoadErrors == 0 || st.StoreErrors == 0 ||
		st.CompileErrors == 0 || st.CompilePanics == 0 {
		t.Errorf("a configured fault class never fired: %v", st)
	}
	for _, code := range []Code{CodeRateLimited, CodeInjectedFault, CodeCompilePanic, CodeFuelExhausted} {
		if byCode[code] == 0 {
			t.Errorf("no request came back %s", code)
		}
	}
	if t.Failed() {
		// Every failed request's decision chain is in the flight ring.
		if path, err := srv.WriteBundleFile(os.TempDir(), "serve-soak"); err == nil {
			t.Logf("diagnostic bundle written to %s", path)
		}
		return
	}

	// Resharded restore: 4 shards' resident set into 3.
	snap := filepath.Join(t.TempDir(), "soak.vcsnap")
	saved, err := srv.SaveSnapshot(snap)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Shards, cfg.Injector, cfg.Registry = 3, nil, telemetry.NewRegistry()
	cold, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer cold.Close()
	rst, err := cold.Recover(snap, "")
	if err != nil {
		t.Fatalf("recovery of %d-entry snapshot: %v", saved, err)
	}
	if rst.Resharded == 0 {
		t.Errorf("no unit resharded across a 4->3 shard change: %+v", rst)
	}
	t.Logf("%d-entry snapshot into 3 shards: %v (ledger %d B conserved)", saved, rst, ledgerConserved(t, cold))

	machineLedger(t, srv)
	machineLedger(t, cold)
	var evictions uint64
	want := freshArenas(t, srv)
	for _, sh := range srv.shards {
		evictions += sh.cache.Snapshot().Evictions
		sh.cache.Each(func(key string, _ *core.Func) { sh.cache.Invalidate(key) })
		if got := sh.machine.ArenaStats(); got != want {
			t.Errorf("shard %d emptied: arenas %+v, a fresh machine's %+v", sh.id, got, want)
		}
	}
	if evictions == 0 {
		t.Error("the entry cap never evicted a program")
	}
}
