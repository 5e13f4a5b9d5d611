package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/jit"
	"repro/internal/mem"
	"repro/internal/tinyc"
)

// freshArenas is what a shard's machine holds before its first program.
func freshArenas(t testing.TB, s *Server) core.ArenaStats {
	t.Helper()
	fresh, err := jit.NewMachineTarget(s.cfg.Backend, mem.Uncosted)
	if err != nil {
		t.Fatal(err)
	}
	return fresh.Core().ArenaStats()
}

// machineLedger holds every shard's machine to its registered units: the
// installed functions are the units' members and nothing else, resident
// code is their 16-rounded sum, and the heap in use beyond a fresh
// machine's is the units' tables and data.  For a quiescent server.
func machineLedger(t testing.TB, s *Server) {
	t.Helper()
	heapBase := freshArenas(t, s).HeapBytesUsed
	for _, sh := range s.shards {
		var code, heap uint64
		funcs := 0
		sh.mu.Lock()
		for _, u := range sh.units {
			for _, f := range u.prog.Funcs() {
				code += (uint64(f.SizeBytes()) + 15) &^ 15
				funcs++
			}
			heap += u.prog.HeapBytes()
		}
		sh.mu.Unlock()
		st := sh.machine.ArenaStats()
		if st.Funcs != funcs || st.CodeBytesResident != code || st.HeapBytesUsed-heapBase != heap {
			t.Errorf("shard %d: machine holds %d functions, %d code bytes, %d heap bytes; its units account for %d, %d, %d",
				sh.id, st.Funcs, st.CodeBytesResident, st.HeapBytesUsed-heapBase, funcs, code, heap)
		}
	}
}

// TestRefusedProgramLeavesNothing: a program the server refuses — at an
// instruction after its .data was laid out, at the install of its second
// function, in the code generator of its second function, or for an entry
// it does not have — leaves the shard's arenas as they were, request after
// request, and the corrected program then compiles under the same names.
func TestRefusedProgramLeavesNothing(t *testing.T) {
	s, ts := newTestServer(t, func(c *Config) { c.Shards = 1 })
	m := s.shards[0].machine
	base := m.ArenaStats()
	const dataFixed = ".data tab\n.word 5, 6, 7\n.func get () leaf\n setsym t0, tab\n ldii t0, t0, 4\n reti t0\n.end\n"
	for _, tc := range []struct {
		name   string
		body   map[string]any
		status int
		code   Code
	}{
		{"vasm data then unknown instruction", map[string]any{"lang": LangVasm,
			"source": ".data tab\n.word 5, 6, 7\n.func get () leaf\n setsym t0, tab\n ldiii t0, t0, 4\n reti t0\n.end\n"},
			http.StatusUnprocessableEntity, CodeCompileError},
		{"vasm second function names nothing", map[string]any{"lang": LangVasm,
			"source": ".func a (%i) leaf\n reti arg0\n.end\n.func b () leaf\n setsym t0, nowhere\n retv\n.end\n"},
			http.StatusUnprocessableEntity, CodeCompileError},
		{"tinyc second function refused", map[string]any{"lang": LangTinyC,
			"source": "int one(int n) { return n + 1; }\nint main(int n) { return one(n) + missing; }\n"},
			http.StatusUnprocessableEntity, CodeCompileError},
		{"no such entry", map[string]any{"lang": LangVasm, "source": dataFixed, "entry": "put"},
			http.StatusNotFound, CodeNotFound},
	} {
		for round := 0; round < 3; round++ {
			tc.body["tenant"] = "alice"
			status, out := post(t, ts, "/v1/exec", tc.body)
			wantErrCode(t, status, out, tc.status, tc.code)
			if got := m.ArenaStats(); got != base {
				t.Fatalf("%s, request %d: arenas %+v, want %+v", tc.name, round, got, base)
			}
		}
	}
	status, out := post(t, ts, "/v1/exec", map[string]any{"tenant": "alice", "lang": LangVasm, "source": dataFixed})
	if status != http.StatusOK || asInt(t, out["result"]) != 6 {
		t.Fatalf("the corrected program: %d %v, want 6", status, out)
	}
	machineLedger(t, s)
}

// Two two-function programs whose mains call through slot 0 of their
// tables: run on the other's table, leafA's main would spin to its fuel cap.
const (
	leafA = "int twice(int n) { return n + n; }\nint main(int n) { return twice(n) + 1; }\n"
	spinB = "int spin(int n) { while (1) { n = n + 1; } return n; }\nint main(int n) { if (n < 0) return spin(n); return 7; }\n"
)

// TestEvictedUnitIsNeverReinstalled: a program evicted after compile
// resolved it and before the call ran (ROADMAP 6a) is not put back beside
// a table the heap has since given to another program.  Through core the
// stale function is ErrUnloaded on both engines; through the server the
// call re-enters compile once and answers with the right result, and the
// machine holds the resident units and nothing else.
func TestEvictedUnitIsNeverReinstalled(t *testing.T) {
	t.Run("core", func(t *testing.T) {
		jm, err := jit.NewMachineTarget("mips", mem.Uncosted)
		if err != nil {
			t.Fatal(err)
		}
		m := jm.Core()
		base := m.ArenaStats()
		prog, err := tinyc.Parse(leafA)
		if err != nil {
			t.Fatal(err)
		}
		c := tinyc.NewCompiler(m)
		if err := c.Compile(prog); err != nil {
			t.Fatal(err)
		}
		c.Unit().Unload()
		for _, e := range []core.Engine{core.EngineSwitch, core.EngineThreaded} {
			if err := m.SetEngine(e); err != nil {
				t.Fatal(err)
			}
			if _, err := m.Call(c.Funcs()["main"], core.I(12)); !errors.Is(err, core.ErrUnloaded) {
				t.Errorf("%v engine: call of an unloaded program: %v, want ErrUnloaded", e, err)
			}
		}
		if got := m.ArenaStats(); got != base {
			t.Errorf("arenas %+v, want the empty machine's %+v", got, base)
		}
	})

	s, _ := newTestServer(t, func(c *Config) {
		c.Shards = 1
		c.MaxEntriesPerShard = 1
	})
	ctx := context.Background()
	alice, ae := s.tenants.get("alice")
	if ae != nil {
		t.Fatal(ae)
	}
	compile := func(src string) compileResult {
		t.Helper()
		cr, ae := s.compile(ctx, nil, alice, LangTinyC, src, "", "", 0)
		if ae != nil {
			t.Fatal(ae)
		}
		return cr
	}
	stale := compile(leafA)
	compile(spinB) // evicts leafA; its table block is spinB's now
	if s.shards[0].unit(stale.key) != nil {
		t.Fatal("leafA still resident: the eviction this test is about did not happen")
	}
	req := &request{Tenant: "alice", Lang: LangTinyC, Source: leafA, Args: []json.Number{"12"}}
	cr := stale
	er, ae := s.exec(ctx, nil, alice, &cr, req)
	if ae != nil {
		t.Fatalf("call of the evicted program: %v", ae)
	}
	if er.value.Int() != 25 || cr.fn == stale.fn || cr.cached {
		t.Fatalf("result %d from fn %p (stale %p, cached %v), want 25 from a fresh compile", er.value.Int(), cr.fn, stale.fn, cr.cached)
	}
	if stale.fn.Installed() {
		t.Error("the evicted program's entry function is installed again")
	}
	machineLedger(t, s)

	// By key alone there is nothing to compile again: the existing not_found.
	compile(spinB)
	_, ae = s.exec(ctx, nil, alice, &cr, &request{Tenant: "alice", Key: cr.key, Args: req.Args})
	if ae == nil || ae.Code != CodeNotFound {
		t.Fatalf("call by key of an evicted program: %v, want %s", ae, CodeNotFound)
	}
	machineLedger(t, s)
}

// TestCacheBoundsWholePrograms: MaxCodeBytesPerShard counts a program's
// every function, as tenant residency does, not its entry function alone.
// Two two-function programs, each over half the cap but with an entry
// function under half of it: the second evicts the first.
func TestCacheBoundsWholePrograms(t *testing.T) {
	probe, _ := newTestServer(t, func(c *Config) { c.Shards = 1 })
	u, err := compileUnit(probe.shards[0].machine, "k", "t", LangTinyC, leafA, "")
	if err != nil {
		t.Fatal(err)
	}
	whole, entry := u.prog.CodeBytes(), int64(u.entryFn.SizeBytes())
	limit := whole + whole/2
	if len(u.prog.Funcs()) != 2 || 2*entry > limit {
		t.Fatalf("probe program: %d functions, entry %d of %d bytes: two entries would not fit under %d", len(u.prog.Funcs()), entry, whole, limit)
	}

	s, ts := newTestServer(t, func(c *Config) {
		c.Shards = 1
		c.MaxCodeBytesPerShard = limit
	})
	for i, src := range []string{leafA, leafA + "// again\n"} {
		status, out := post(t, ts, "/v1/compile", map[string]any{"tenant": "alice", "lang": LangTinyC, "source": src})
		if status != http.StatusOK || asInt(t, out["functions"]) != 2 {
			t.Fatalf("compile %d: %d %v, want 2 functions", i, status, out)
		}
	}
	// (The second copy's size may differ by an instruction: its table sat
	// at another address while the first was resident, ROADMAP 6b.)
	st := s.StatsView().Shards[0]
	if st.Units != 1 || st.Cache.Evictions != 1 || st.Cache.CodeBytes != st.UnitBytes || st.UnitBytes < whole-8 {
		t.Fatalf("after two %d-byte programs under a %d-byte cap: %d units, %d evictions, cache charges %d, units hold %d",
			whole, limit, st.Units, st.Cache.Evictions, st.Cache.CodeBytes, st.UnitBytes)
	}
	machineLedger(t, s)
}

// TestLeaseSurvivesChurn: a one-entry shard under eight clients, each posting
// its own program, evicts nearly every program between its compile and its
// call.  A request that carries its source goes through compile again as
// often as that happens (ROADMAP 9c): none is answered not_found, every
// result is right, and the machine ends holding the one resident unit.
func TestLeaseSurvivesChurn(t *testing.T) {
	s, _ := newTestServer(t, func(c *Config) {
		c.Shards = 1
		c.MaxEntriesPerShard = 1
	})
	h := s.Handler()
	const clients, posts = 8, 60
	var wg sync.WaitGroup
	for i := 1; i <= clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			body, want := missBody(t, i), int64(35+2*i)
			if i%3 == 0 {
				want = int64(14 + i)
			}
			for n := 0; n < posts; n++ {
				rec := serve(h, body)
				var out struct{ Result int64 }
				if err := json.Unmarshal(rec.Body.Bytes(), &out); rec.Code != http.StatusOK || err != nil || out.Result != want {
					t.Errorf("client %d, post %d: %d %s (%v), want %d", i, n, rec.Code, rec.Body, err, want)
					return
				}
			}
		}()
	}
	wg.Wait()
	t.Logf("%d requests, %d evictions, %d re-entries into compile",
		clients*posts, s.shards[0].cache.Snapshot().Evictions, s.execRetries.Load())
	machineLedger(t, s)
}

// TestFollowerSurvivesLeaderCancel, through /v1/exec: the front end holds
// the leader of a flight in its compile slot until the leader's client goes
// away.  The leader is answered with its own deadline; the request that had
// coalesced onto its flight is not — it compiles under its own context and
// is answered 200 (ROADMAP 6e).
func TestFollowerSurvivesLeaderCancel(t *testing.T) {
	s, _ := newTestServer(t, func(c *Config) { c.Shards = 1 })
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	inner, first := s.frontEnd, true // the front end is entered one flight at a time
	s.frontEnd = func(m *core.Machine, key, tenantName, lang, source, entry string) (*unit, error) {
		if first {
			first = false
			<-ctx.Done()
			return nil, ctx.Err()
		}
		return inner(m, key, tenantName, lang, source, entry)
	}
	h, body := s.Handler(), missBody(t, 1)
	leader, follower := make(chan *httptest.ResponseRecorder, 1), make(chan *httptest.ResponseRecorder, 1)
	go func() {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/exec", bytes.NewReader(body)).WithContext(ctx))
		leader <- rec
	}()
	waitFor(t, "the leader to take the flight", func() bool { return s.shards[0].cache.Snapshot().Misses == 1 })
	go func() { follower <- serve(h, body) }()
	waitFor(t, "the follower to join the leader's flight", func() bool { return s.shards[0].cache.Snapshot().Coalesced == 1 })
	cancel()
	wantServeErr(t, <-leader, http.StatusGatewayTimeout, CodeDeadline)
	if rec := <-follower; rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), `"cached":false`) {
		t.Fatalf("follower of a cancelled leader: %d %s, want 200 from its own compile", rec.Code, rec.Body)
	}
	machineLedger(t, s)
}
