package server

import (
	"bytes"
	"encoding/json"
	"go/ast"
	"go/parser"
	"go/token"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/faultinject"
)

// declaredCodes reads the Code constants out of errors.go.
func declaredCodes(t *testing.T) []Code {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), "errors.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var codes []Code
	ast.Inspect(f, func(n ast.Node) bool {
		vs, ok := n.(*ast.ValueSpec)
		if !ok {
			return true
		}
		if id, ok := vs.Type.(*ast.Ident); ok && id.Name == "Code" {
			for _, v := range vs.Values {
				s, err := strconv.Unquote(v.(*ast.BasicLit).Value)
				if err != nil {
					t.Fatal(err)
				}
				codes = append(codes, Code(s))
			}
		}
		return false
	})
	return codes
}

// body marshals a request for serve.
func body(t *testing.T, req map[string]any) []byte {
	t.Helper()
	raw, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestEveryCodeHasACase provokes every wire code and checks the status
// statusFor serves it with.  The list of codes comes from errors.go, so a
// code added there without a row here fails.  Every code a request can
// reach is provoked through /v1/exec or /v1/compile; trap_panic and
// sim_panic (a runtime helper panicking, the simulator panicking) cannot be
// provoked by a source and are built from the library errors they map from.
func TestEveryCodeHasACase(t *testing.T) {
	tinyc := func(n int) map[string]any {
		return map[string]any{"tenant": "a", "lang": "tinyc", "source": missSource(n), "args": []int{7}}
	}
	exec := func(t *testing.T, mut func(*Config), req map[string]any) *httptest.ResponseRecorder {
		s, _ := newTestServer(t, mut)
		return serve(s.Handler(), body(t, req))
	}
	compile := func(t *testing.T, req map[string]any) *httptest.ResponseRecorder {
		s, _ := newTestServer(t, nil)
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/compile", bytes.NewReader(body(t, req))))
		return rec
	}
	// held sends then while misses occupy the server's one shard: one inside
	// the front end and, with queued, one waiting for the compile slot.
	held := func(t *testing.T, mut func(*Config), then map[string]any, queued bool) *httptest.ResponseRecorder {
		s, _ := newTestServer(t, mut)
		hold, h := holdFrontEnd(s), s.Handler()
		var wg sync.WaitGroup
		defer wg.Wait()
		defer close(hold.release)
		miss := func(n int) {
			wg.Add(1)
			go func() { defer wg.Done(); serve(h, body(t, tinyc(n))) }()
		}
		miss(1)
		waitFor(t, "a miss inside the front end", func() bool { return hold.inside.Load() == 1 })
		if queued {
			miss(2)
			waitFor(t, "a miss queued behind it", func() bool { return s.shards[0].queueDepth() == 1 })
		}
		return serve(h, body(t, then))
	}
	inPackage := func(err error) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		writeErr(rec, "r1", classify(err))
		return rec
	}

	cases := map[Code]func(t *testing.T) *httptest.ResponseRecorder{
		CodeBadRequest: func(t *testing.T) *httptest.ResponseRecorder {
			return exec(t, nil, map[string]any{"lang": "cobol", "source": "x"})
		},
		CodeUnknownTenant: func(t *testing.T) *httptest.ResponseRecorder {
			return exec(t, func(c *Config) { c.AllowUnknownTenants, c.Tenants = false, map[string]Quota{"alice": {}} },
				map[string]any{"tenant": "mallory", "lang": "vasm", "source": factVasm, "args": []int{3}})
		},
		CodeNotFound: func(t *testing.T) *httptest.ResponseRecorder {
			return exec(t, nil, map[string]any{"key": "deadbeef", "args": []int{1}})
		},
		CodeQueueFull: func(t *testing.T) *httptest.ResponseRecorder {
			return held(t, func(c *Config) {
				c.Shards, c.WorkersPerShard, c.QueueBound = 1, 1, 1
				c.ShedLowWatermark, c.ShedHighWatermark = 100, 100
			}, tinyc(3), true)
		},
		CodeQuotaConcurrency: func(t *testing.T) *httptest.ResponseRecorder {
			return held(t, func(c *Config) { c.Shards, c.DefaultQuota.MaxCompileConcurrency = 1, 1 }, tinyc(3), false)
		},
		CodeQuotaCodeBytes: func(t *testing.T) *httptest.ResponseRecorder {
			s, _ := newTestServer(t, func(c *Config) { c.Tenants = map[string]Quota{"small": {MaxResidentBytes: 1}} })
			req := map[string]any{"tenant": "small", "lang": "vasm", "source": factVasm, "args": []int{3}}
			if rec := serve(s.Handler(), body(t, req)); rec.Code != http.StatusOK {
				t.Fatalf("first compile: %d %s", rec.Code, rec.Body)
			}
			req["source"] = fibTinyC
			req["lang"] = "tinyc"
			return serve(s.Handler(), body(t, req))
		},
		CodeQuotaFuel: func(t *testing.T) *httptest.ResponseRecorder {
			return exec(t, nil, map[string]any{"lang": "vasm", "source": factVasm, "args": []int{1}, "fuel": 1 << 40})
		},
		CodeVerifyReject: func(t *testing.T) *httptest.ResponseRecorder {
			// A call to a data address: the verifier knows no code there.
			return compile(t, map[string]any{"lang": "vasm",
				"source": ".data tbl\n.word 1\n.func f (%i)\n startcall %i\n setarg 0, arg0\n callsym tbl\n reti arg0\n.end"})
		},
		CodeCompileError: func(t *testing.T) *httptest.ResponseRecorder {
			return compile(t, map[string]any{"lang": "tinyc", "source": "int main( {"})
		},
		CodeCompilePanic: func(t *testing.T) *httptest.ResponseRecorder {
			return exec(t, func(c *Config) { c.Injector = faultinject.New(faultinject.Config{Seed: 1, CompilePanicRate: 1}) }, tinyc(1))
		},
		CodeFuelExhausted: func(t *testing.T) *httptest.ResponseRecorder {
			return exec(t, nil, map[string]any{"lang": "vasm", "source": factVasm, "args": []int{1 << 20}, "fuel": 50})
		},
		CodeDeadline: func(t *testing.T) *httptest.ResponseRecorder {
			return exec(t, func(c *Config) { c.CallTimeout = time.Nanosecond }, tinyc(1))
		},
		CodeTrapPanic: func(*testing.T) *httptest.ResponseRecorder {
			return inPackage(&core.TrapPanicError{Sym: "__div_i", PC: 0x50, Value: "boom"})
		},
		CodeSimPanic: func(*testing.T) *httptest.ResponseRecorder {
			return inPackage(&core.PanicError{PC: 0x1000, Value: "boom"})
		},
		CodeInjectedFault: func(t *testing.T) *httptest.ResponseRecorder {
			return exec(t, func(c *Config) { c.Injector = faultinject.New(faultinject.Config{Seed: 1, CompileErrorRate: 1}) }, tinyc(1))
		},
		CodeExecError: func(t *testing.T) *httptest.ResponseRecorder {
			// A misaligned load.
			return exec(t, nil, map[string]any{"lang": "vasm", "args": []int{1},
				"source": ".func f (%p) leaf\n.reg x temp i\n ldii x, arg0, 0\n reti x\n.end"})
		},
		CodeShuttingDown: func(t *testing.T) *httptest.ResponseRecorder {
			s, _ := newTestServer(t, nil)
			s.BeginDrain()
			return serve(s.Handler(), body(t, tinyc(1)))
		},
		CodeRateLimited: func(t *testing.T) *httptest.ResponseRecorder {
			s, _ := newTestServer(t, func(c *Config) { c.DefaultQuota = Quota{RatePerSec: 0.001, Burst: 1} })
			serve(s.Handler(), body(t, tinyc(1)))
			return serve(s.Handler(), body(t, tinyc(1)))
		},
		CodeCircuitOpen: func(t *testing.T) *httptest.ResponseRecorder {
			s, _ := newTestServer(t, func(c *Config) { c.BreakerThreshold, c.BreakerCooldown = 1, time.Hour })
			bad := map[string]any{"lang": "tinyc", "source": "int main( {"}
			serve(s.Handler(), body(t, bad))
			return serve(s.Handler(), body(t, bad))
		},
		CodeOverloaded: func(t *testing.T) *httptest.ResponseRecorder {
			s, _ := newTestServer(t, nil)
			s.queueDepth = func() int64 { return 1 << 20 }
			req := tinyc(1)
			req["priority"] = 0
			return serve(s.Handler(), body(t, req))
		},
	}
	for _, code := range declaredCodes(t) {
		provoke, ok := cases[code]
		if !ok {
			t.Errorf("no case provokes %s", code)
			continue
		}
		delete(cases, code)
		t.Run(string(code), func(t *testing.T) {
			wantServeErr(t, provoke(t), statusFor(code), code)
		})
	}
	for code := range cases {
		t.Errorf("a case for %s, which errors.go does not declare", code)
	}
}
