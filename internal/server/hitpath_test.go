package server

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/telemetry"
)

// testBodies are the request bodies the package's tests post, one of each
// shape: every field they set, every fixture source, exec by key.
func testBodies(tb testing.TB) [][]byte {
	var out [][]byte
	for _, m := range []map[string]any{
		{"tenant": "alice", "lang": "vasm", "source": factVasm, "args": []int{6}},
		{"tenant": "alice", "lang": "tinyc", "source": fibTinyC, "args": []int{10}},
		{"tenant": "alice", "lang": "vasm", "source": factVasm},
		{"tenant": "alice", "key": "a6417788a1796c27", "args": []int{7}},
		{"lang": "cobol", "source": "x"},
		{"lang": "vasm"},
		{"lang": "vasm", "source": factVasm, "entry": "nope", "args": []int{1}},
		{"key": "deadbeef", "args": []int{1}},
		{"lang": "tinyc", "source": "int main( {"},
		{"lang": "vasm", "source": ".func f (%i) leaf\n jmpr\n.end", "args": []int{1}},
		{"lang": "vasm", "source": factVasm, "args": []int{1 << 20}, "fuel": 50},
		{"lang": "vasm", "source": factVasm, "args": []int{1}, "fuel": 1 << 40},
		{"tenant": "a", "lang": LangTinyC, "source": missSource(0), "args": []int{7}},
		{"tenant": "a", "lang": LangTinyC, "source": missSource(1), "args": []int{7}, "priority": 0},
		{"tenant": "hostile", "lang": LangVasm, "source": factVasm + "; v1-2", "entry": "fact", "args": []int{3}},
		{"tenant": "t2", "lang": "vasm", "source": churnVasm + "; variant 3", "args": []int{200}},
		{"tenant": "a", "lang": "vasm", "source": factVasm, "entry": "fact", "key": "doomed", "args": []int{4}},
		{"tenant": "a", "key": "9770fda2f94c2337", "args": []int{4}, "priority": 9},
		{"tenant": "alice", "lang": "tinyc", "source": fibTinyC, "args": []int{10}, "request_id": "flight-1"},
		{"tenant": "bob", "key": "no-such-key", "request_id": "flight-miss"},
		{"lang": LangVasm, "source": ".data tab\n.word 5, 6, 7\n.func get () leaf\n setsym t0, tab\n ldii t0, t0, 4\n reti t0\n.end\n"},
		{"lang": "vasm", "args": []int{1}, "source": ".func f (%p) leaf\n.reg x temp i\n ldii x, arg0, 0\n reti x\n.end"},
		{"lang": "vasm", "source": nonFiniteVasm, "args": []float64{1e300, -1}},
	} {
		raw, err := json.Marshal(m)
		if err != nil {
			tb.Fatal(err)
		}
		out = append(out, raw)
	}
	return append(out, []byte(`{"tenant":"t","lang":"tinyc","source":"int main(int n) { return n + 3; }","args":[1]}`))
}

// FuzzDecodeRequest holds the request decoder to encoding/json: for any
// body it accepts exactly when json.Unmarshal into a request does, and then
// yields a deeply equal request and the same content key.
func FuzzDecodeRequest(f *testing.F) {
	// The decoder knows request's fields by name: a field added to one and
	// not the other fails here, before any body does.
	rt := reflect.TypeOf(request{})
	if rt.NumField() != len(requestFields) {
		f.Fatalf("request has %d fields, the decoder knows %d", rt.NumField(), len(requestFields))
	}
	for i, name := range requestFields {
		if tag := rt.Field(i).Tag.Get("json"); tag != name {
			f.Fatalf("request field %d is %q, the decoder reads %q there", i, tag, name)
		}
	}
	for _, b := range testBodies(f) {
		f.Add(b)
	}
	for _, s := range []string{
		// \u escapes: plain, a surrogate pair, lone and mismatched surrogates.
		`{"tenant":"\u0061\u00e9\u4e16","source":"\ud83d\ude00","entry":"\ud83d","key":"\ude00x","lang":"\ud83d\u0041"}`,
		`{"source":"\ud83d\ud83d\ude00","request_id":"\/\b\f\n\r\t\"\\"}`,
		`{"source":"\u12"}`, `{"source":"\x41"}`, `{"source":"\'"}`,
		// Invalid UTF-8 and raw control characters.
		"{\"source\":\"\xff\xfe\xed\xa0\x80 \xe2\x82\"}", "{\"source\":\"a\tb\"}", "{\"source\":\"a\x00\"}",
		"{\"tenant\":\"ok\"}\x00",
		// Case-folded keys: upper case, the long s, the Kelvin sign.
		`{"TENANT":"a","Lang":"vasm","ſource":"x","\u212Aey":"k","ARGS":[1],"Request_ID":"r","PRIORITY":3,"fUEL":2,"eNtRy":"e"}`,
		`{"ſ":1,"tenantſ":2,"ķey":3,"sourcE":"y"}`,
		// Duplicate keys, null elements reusing what an earlier array left.
		`{"tenant":"a","tenant":"b","args":[1,2],"args":[3]}`,
		`{"args":[1,2,3],"args":[4],"args":[null,null,null,null]}`,
		`{"args":[1,2],"args":[],"args":[null]}`,
		`{"priority":1,"priority":null}`, `{"priority":null,"priority":2}`, `{"tenant":"a","tenant":null}`,
		// null as the whole body and as each field.
		`null`, ` null `, `nul`, `{}`, ``, ` `,
		`{"tenant":null,"lang":null,"source":null,"entry":null,"key":null,"args":null,"fuel":null,"request_id":null,"priority":null}`,
		// Unknown fields, nested.
		`{"x":{"a":[1,{"b":null}],"c":"d"},"tenant":"t","y":[[],{}],"z":true,"w":false,"v":-1.5e-3}`,
		`{"x":[1,]}`, `{"x":{"a"}}`, `{"x":tru}`, `{"x":[` + strings.Repeat("[", 20) + strings.Repeat("]", 20) + `]}`,
		// args as strings, and not numbers.
		`{"args":["1","-2.5e3","0"]}`, `{"args":[""]}`, `{"args":["x"]}`, `{"args":["01"]}`, `{"args":[" 1"]}`,
		`{"args":[true]}`, `{"args":[[1]]}`, `{"args":"1"}`, `{"args":{}}`, `{"args":[1 2]}`,
		`{"args":[1,]}`, `{"args":[null,]}`, `{"args":[,1]}`, `{"args":[1`,
		// fuel as an exponent, negative, a fraction, too large.
		`{"fuel":1e3}`, `{"fuel":-1}`, `{"fuel":1.0}`, `{"fuel":18446744073709551615}`, `{"fuel":18446744073709551616}`,
		`{"fuel":-0}`, `{"fuel":"5"}`,
		// priority overflowing int, and not an integer.
		`{"priority":9223372036854775807}`, `{"priority":9223372036854775808}`, `{"priority":-9223372036854775809}`,
		`{"priority":1.5}`, `{"priority":"3"}`,
		// Numbers the grammar refuses.
		`{"fuel":01}`, `{"fuel":1.}`, `{"fuel":.5}`, `{"fuel":1e}`, `{"fuel":+1}`, `{"args":[-]}`, `{"args":[1e+]}`,
		// Trailing data, and other top-level values.
		`{"tenant":"a"} {"tenant":"b"}`, `{"tenant":"a"}x`, `{"tenant":"a"}` + "\n\t ", `[]`, `"s"`, `1`, `true`,
		`{"tenant":"a",}`, `{"tenant" "a"}`, `{tenant:"a"}`, `{"tenant":"a"`, `{"tenant":"a`,
	} {
		f.Add([]byte(s))
	}
	deep := strings.Repeat(`[`, maxDepth-1) + strings.Repeat(`]`, maxDepth-1)
	f.Add([]byte(`{"x":` + deep + `}`))
	f.Add([]byte(`{"x":[` + deep + `]}`))

	text := []byte("leftover bytes from an earlier request")
	f.Fuzz(func(t *testing.T, body []byte) {
		var want, got request
		werr := json.Unmarshal(body, &want)
		var gerr error
		text, gerr = decodeRequest(body, &got, text)
		if (werr == nil) != (gerr == nil) {
			t.Fatalf("body %q: encoding/json says %v, decodeRequest says %v", body, werr, gerr)
		}
		if werr != nil {
			return
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("body %q:\ndecodeRequest %#v\nencoding/json %#v", body, got, want)
		}
		if g, w := contentKey(got.Lang, got.Entry, got.Source), contentKey(want.Lang, want.Entry, want.Source); g != w {
			t.Fatalf("body %q: key %s, encoding/json's request's %s", body, g, w)
		}
	})
}

// execResponse and renderResult are how the /v1/exec reply was written
// before appendExecReply: the encoding/json rendering it must equal.
type execResponse struct {
	RequestID  string `json:"request_id"`
	Key        string `json:"key"`
	Shard      int    `json:"shard"`
	Cached     bool   `json:"cached"`
	Durable    bool   `json:"durable"`
	Result     any    `json:"result"`
	ResultType string `json:"result_type"`
	Cycles     uint64 `json:"cycles"`
	Insns      uint64 `json:"insns"`
	WallNS     int64  `json:"wall_ns"`
}

func renderResult(v core.Value) (any, string) {
	switch v.T {
	case core.TypeV:
		return nil, "void"
	case core.TypeF:
		return v.Float32(), "f"
	case core.TypeD:
		return v.Float64(), "d"
	case core.TypeU, core.TypeUL, core.TypeP:
		return v.Uint(), v.T.Letter()
	default:
		return v.Int(), v.T.Letter()
	}
}

// TestExecReplyMatchesEncodingJSON: for every finite result of every type
// and request IDs that need escaping, the appended reply is byte for byte
// what json.NewEncoder(w).Encode(execResponse{...}) writes.
func TestExecReplyMatchesEncodingJSON(t *testing.T) {
	ints := []int64{0, 1, -1, 127, -128, 1 << 31, -1 << 31, math.MaxInt64, math.MinInt64}
	floats := []float64{0, math.Copysign(0, -1), 1, -1.5, 0.1, 123456.789, 1e-6, 9.99e-7, 1e-7, 1e20, 1e21, 1.5e300,
		math.SmallestNonzeroFloat64, math.MaxFloat64, 1e-9, 3.4e38, math.SmallestNonzeroFloat32}
	var values []core.Value
	for tt := core.TypeV; tt <= core.TypeD; tt++ {
		switch tt {
		case core.TypeV:
			values = append(values, core.Value{T: tt})
		case core.TypeF:
			for _, f := range floats {
				if f32 := float32(f); !math.IsInf(float64(f32), 0) {
					values = append(values, core.F(f32))
				}
			}
		case core.TypeD:
			for _, f := range floats {
				values = append(values, core.D(f))
			}
		default:
			for _, n := range ints {
				values = append(values, core.Value{T: tt, Bits: uint64(n)})
			}
		}
	}
	ids := []string{"r000001", "mine", "a<b", "a&b", "x>y", "line\u2028sep\u2029", "\xff\xfe", "quote\"back\\", "tab\tnl\n\x01", "é世", ""}
	sh := &shard{id: 3}
	for i, v := range values {
		reqID := ids[i%len(ids)]
		cr := compileResult{key: "9770fda2f94c2337", shard: sh, cached: i%2 == 0, durable: i%3 == 0}
		er := execResult{value: v, stats: core.CallStats{Cycles: uint64(i) * 1000003, Insns: uint64(i)}, wall: time.Duration(i) * 977}
		res, typ := renderResult(v)
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(execResponse{
			RequestID: reqID, Key: cr.key, Shard: sh.id, Cached: cr.cached, Durable: cr.durable,
			Result: res, ResultType: typ, Cycles: er.stats.Cycles, Insns: er.stats.Insns, WallNS: er.wall.Nanoseconds(),
		}); err != nil {
			t.Fatalf("%v: %v", v, err)
		}
		if got := appendExecReply(nil, reqID, &cr, &er); !bytes.Equal(got, want.Bytes()) {
			t.Errorf("%v, request %q:\n got %s\nwant %s", v, reqID, got, want.Bytes())
		}
	}
}

// nonFiniteVasm is g(x, y) = x*x*y, over doubles; nonFiniteVasmF over floats.
const (
	nonFiniteVasm  = ".func g (%d%d) leaf\n muld arg0, arg0, arg0\n muld arg0, arg0, arg1\n retd arg0\n.end\n"
	nonFiniteVasmF = ".func g (%f%f) leaf\n mulf arg0, arg0, arg0\n mulf arg0, arg0, arg1\n retf arg0\n.end\n"
)

// TestNonFiniteResultsHaveABody: encoding/json refuses NaN and the
// infinities, and the reply used to go out as a 200 with an empty body.  A
// non-finite result is the string "NaN", "+Inf" or "-Inf", its type as ever.
func TestNonFiniteResultsHaveABody(t *testing.T) {
	_, ts := newTestServer(t, nil)
	for _, c := range []struct {
		src, typ string
		x        float64
	}{{nonFiniteVasm, "d", 1e300}, {nonFiniteVasmF, "f", 1e30}} {
		for _, want := range []struct {
			y      float64
			result string
		}{{1, "+Inf"}, {-1, "-Inf"}, {0, "NaN"}} {
			status, out := post(t, ts, "/v1/exec", map[string]any{
				"tenant": "a", "lang": LangVasm, "source": c.src, "args": []float64{c.x, want.y}})
			if status != http.StatusOK || out["result"] != want.result || out["result_type"] != c.typ {
				t.Errorf("%s: g(%g, %g) = %d %v, want 200 with result %q of type %s", c.typ, c.x, want.y, status, out, want.result, c.typ)
			}
		}
	}
}

// hitWriter is a ResponseWriter a test reuses: its header map and body
// buffer are kept from one request to the next.
type hitWriter struct {
	header http.Header
	status int
	body   []byte
}

func (w *hitWriter) Header() http.Header  { return w.header }
func (w *hitWriter) WriteHeader(code int) { w.status = code }
func (w *hitWriter) Write(p []byte) (int, error) {
	w.body = append(w.body, p...)
	return len(p), nil
}

// hitFixture serves one resident tinyc /v1/exec over and over: the request,
// its body reader and the writer are built once and reused.
type hitFixture struct {
	h    http.Handler
	req  *http.Request
	rd   *bytes.Reader
	body []byte
	w    *hitWriter
}

func newHitFixture(tb testing.TB, h http.Handler) *hitFixture {
	body, err := json.Marshal(map[string]any{"tenant": "a", "lang": LangTinyC, "source": fibTinyC, "args": []int{10}})
	if err != nil {
		tb.Fatal(err)
	}
	f := &hitFixture{h: h, req: httptest.NewRequest(http.MethodPost, "/v1/exec", nil), rd: bytes.NewReader(body),
		body: body, w: &hitWriter{header: http.Header{}}}
	f.req.Body = io.NopCloser(f.rd)
	f.serve(tb) // the miss that makes the program resident
	f.serve(tb)
	if !bytes.Contains(f.w.body, []byte(`"cached":true`)) || !bytes.Contains(f.w.body, []byte(`"result":55,`)) {
		tb.Fatalf("not a resident hit: %s", f.w.body)
	}
	return f
}

func (f *hitFixture) serve(tb testing.TB) {
	f.rd.Reset(f.body)
	f.w.status, f.w.body = 0, f.w.body[:0]
	f.h.ServeHTTP(f.w, f.req)
	if f.w.status != http.StatusOK {
		tb.Fatalf("status %d: %s", f.w.status, f.w.body)
	}
}

// The hit path's budget inside the handler, per request.  The handler
// before the one-pass decoder did 23 allocations, 1,792 bytes, on this
// request: a reflection decode, a timer context, an encoder and the `any`
// it encoded.  What is left, 5 allocations and 176 bytes:
//   - the source, the tenant, the args slice and its one number, copied out
//     of the pooled body (the runtime packs tiny strings into one block);
//   - the minted request ID;
//   - the content key.
const hitAllocs, hitBytes = 8, 600

// raceDetector is set when the race detector is on (race_test.go): it
// makes sync.Pool drop a share of what it is given, so the pooled buffers
// are allocated again and the budget does not hold.
var raceDetector bool

// TestHitPathAllocBudget names the layer when the hit path regresses: a
// resident tinyc /v1/exec through Handler() on a reused writer and body,
// telemetry off for the measurement.
func TestHitPathAllocBudget(t *testing.T) {
	if raceDetector {
		t.Skip("sync.Pool drops buffers under the race detector")
	}
	s, _ := newTestServer(t, nil)
	f := newHitFixture(t, s.Handler())
	telemetry.SetEnabled(false)
	defer telemetry.SetEnabled(true)
	const n = 2000
	allocs := testing.AllocsPerRun(n, func() { f.serve(t) })
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		f.serve(t)
	}
	runtime.ReadMemStats(&after)
	perHit := (after.TotalAlloc - before.TotalAlloc) / n
	t.Logf("%.1f allocations, %d bytes per resident hit (budget %d, %d)", allocs, perHit, hitAllocs, hitBytes)
	if allocs > hitAllocs || perHit > hitBytes {
		t.Fatalf("a resident hit allocates %.1f times, %d bytes; budget %d, %d", allocs, perHit, hitAllocs, hitBytes)
	}
}

// BenchmarkServeHit is one resident /v1/exec per iteration: decode, key,
// lookup, call, reply — the handler alone, no TCP, telemetry off.  `make
// bench-hit` runs it.
func BenchmarkServeHit(b *testing.B) {
	s, err := New(Config{Shards: 1, WorkersPerShard: 1, AllowUnknownTenants: true, SLODisable: true, Registry: telemetry.NewRegistry()})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Restore(""); err != nil {
		b.Fatal(err)
	}
	f := newHitFixture(b, s.Handler())
	telemetry.SetEnabled(false)
	defer telemetry.SetEnabled(true)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.serve(b)
	}
}
