package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/flightrec"
	"repro/internal/server"
	"repro/internal/telemetry"
	"repro/internal/tinyc"
)

// serveWL is the two server workloads: an in-process vcoded (server.New
// behind httptest.NewServer, 2 shards x 1 worker, rate limit off, no fault
// injection, no journal) driven closed-loop by 2 clients on 2 keep-alive
// connections — vcoded's callers are RPC clients that wait for the reply.
//
// serve_hot posts 8 resident tinyc sources, so HTTP/JSON, admission and the
// cache lookup dominate; serve_cold posts a never-seen source every time,
// so compile and install dominate and cache or hot-path tricks must show
// no change.
type serveWL struct {
	cold bool
	srv  *server.Server
	ts   *httptest.Server
	url  string
	hc   [serveClients]*http.Client
	// hot is the resident request set; pending holds each client's
	// requests for the next slice (the hot set repeated, or fresh cold
	// sources).
	hot     []*serveReq
	pending [serveClients][]*serveReq
	nextIdx int // next unused cold source index
	// tmplInsns is the simulated instructions a response must report for
	// each source template: learnt from the first response at set-up, then
	// required of every response.  (Instructions, not cycles: the
	// simulator's load-use interlock looks at the last instruction of the
	// previous call on the shard, so a request's cycle count can differ by
	// one with what ran before it.)
	tmplInsns [tinycTemplates]uint64
	hash      string

	// tr is the tracer the handler middleware records into (nil outside a
	// traced slice).
	tr atomic.Pointer[tracer]
	// Per-request samples of the traced pass.
	mu        sync.Mutex
	rttNs     []float64
	wallNs    []float64
	handlerNs []float64
	cachedN   int
	replies   int
	opSeq     atomic.Uint64
}

const (
	serveClients = 2
	// serveUnit is the requests each client sends per unit of work: the
	// whole hot set, or two sources of each template.
	serveUnit   = 8
	spanHeader  = "X-Bench-Span"
	spanHandler = "X-Bench-Handler"
)

type serveReq struct {
	body  []byte
	want  int64
	insns uint64
}

// execReply is the part of the /v1/exec response the client checks.
type execReply struct {
	Cached bool   `json:"cached"`
	Result int64  `json:"result"`
	Insns  uint64 `json:"insns"`
	WallNS int64  `json:"wall_ns"`
}

func (w *serveWL) name() string {
	if w.cold {
		return "serve_cold"
	}
	return "serve_hot"
}
func (w *serveWL) corpus() string { return w.hash }
func (w *serveWL) sliceUnits() int {
	if w.cold {
		return 22
	}
	return 70
}

func (w *serveWL) headline() (string, string, func(float64) float64) {
	return "goodput_per_s", "1/s", func(ns float64) float64 { return 1e9 / ns }
}

func (w *serveWL) allocName() string     { return "alloc_bytes_per_req" }
func (w *serveWL) shareLayers() []string { return []string{layerHTTP, layerServer, layerExec} }
func (w *serveWL) procs() int            { return serveClients }

func (w *serveWL) exact() (string, string, float64) {
	var sum uint64
	for _, n := range w.tmplInsns {
		sum += n
	}
	return "sim_insns_per_req", "count", float64(sum) / tinycTemplates
}

// newServer builds the server under test: two arenas with one compile
// worker each, a tenant with the rate limit explicitly off, its own
// telemetry registry, the SLO watchdog off (it is a background goroutine
// with a timer, not part of a request).  With journalDir the server
// recovers onto a fresh snapshot+journal pair there and acknowledges a
// compile only once its journal record is fsynced; without, it journals
// nothing.
func newServer(journalDir string) (*server.Server, error) {
	srv, err := server.New(server.Config{
		Shards:          2,
		WorkersPerShard: 1,
		Tenants:         map[string]server.Quota{"bench": {RatePerSec: -1}},
		Registry:        telemetry.NewRegistry(),
		SLODisable:      true,
	})
	if err != nil {
		return nil, err
	}
	if journalDir != "" {
		_, err = srv.Recover(filepath.Join(journalDir, "snap"), filepath.Join(journalDir, "journal"))
	} else {
		_, err = srv.Restore("")
	}
	if err != nil {
		srv.Close()
		return nil, err
	}
	return srv, nil
}

func (w *serveWL) setup(seed int64) error {
	var err error
	if w.srv, err = newServer(""); err != nil {
		return err
	}
	w.ts = httptest.NewServer(w.middleware(w.srv.Handler()))
	w.url = w.ts.URL + "/v1/exec"
	for c := range w.hc {
		w.hc[c] = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true}}
	}
	stream := "serve_hot"
	if w.cold {
		stream = "serve_cold"
	}
	rng := newRNG(seed, stream)
	var h corpusHasher
	if w.cold {
		// The seed picks where in the index space this run's sources
		// start; every request then takes the next index.
		w.nextIdx = rng.Intn(1 << 20)
		h.add("cold|%d|%s", w.nextIdx, tinycAt(w.nextIdx).source())
	}
	// The hot set (and, for the cold workload, one source per template):
	// each goes through the server once, which warms the cache and teaches
	// the client what a correct response looks like.
	for i := 0; i < serveUnit; i++ {
		p := genTinyc(rng, i)
		src := p.source()
		rq := newServeReq(p)
		h.add("%s", src)
		if ref, err := tinycReference(src, tinycArg); err != nil || int64(ref) != rq.want {
			return fmt.Errorf("closed form says %d, tinyc interpreter says %d (%v) for %q", rq.want, ref, err, src)
		}
		rep, err := w.do(0, rq, nil)
		if err != nil {
			return fmt.Errorf("warm-up request: %w", err)
		}
		if rep.Result != rq.want {
			return fmt.Errorf("warm-up: server says %d, reference says %d for %q", rep.Result, rq.want, src)
		}
		t := i % tinycTemplates
		if w.tmplInsns[t] == 0 {
			w.tmplInsns[t] = rep.Insns
		}
		rq.insns = w.tmplInsns[t]
		if rep.Insns != rq.insns {
			return fmt.Errorf("warm-up: template %d retires %d instructions here and %d before", t, rep.Insns, rq.insns)
		}
		w.hot = append(w.hot, rq)
	}
	w.hash = h.sum()
	return nil
}

// newServeReq renders p as an /v1/exec request.  The generated sources
// hold nothing JSON would escape.
func newServeReq(p tinycProg) *serveReq {
	body := fmt.Sprintf(`{"tenant":"bench","lang":"tinyc","source":%q,"args":[%d]}`, p.source(), tinycArg)
	return &serveReq{body: []byte(body), want: int64(p.eval(tinycArg))}
}

func (w *serveWL) teardown() {
	if w.ts != nil {
		for _, hc := range w.hc {
			hc.CloseIdleConnections()
		}
		w.ts.Close()
		w.srv.Close()
	}
	*w = serveWL{cold: w.cold}
}

// middleware puts a span around the server's handler while a traced slice
// runs, as a child of the client's round-trip span named in the request
// header, and tells the client its own span so the server-reported call
// time can be hung under it.
func (w *serveWL) middleware(h http.Handler) http.Handler {
	return http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		tr := w.tr.Load()
		if tr == nil {
			h.ServeHTTP(rw, r)
			return
		}
		var parent spanID
		if _, err := fmt.Sscanf(r.Header.Get(spanHeader), "%d.%d", &parent.gen, &parent.idx); err != nil {
			parent = noSpan
		}
		id := tr.begin("server.handler", layerServer, parent, 0, 0)
		rw.Header().Set(spanHandler, fmt.Sprintf("%d.%d", id.gen, id.idx))
		t0 := time.Now()
		h.ServeHTTP(rw, r)
		d := time.Since(t0)
		tr.end(id)
		w.mu.Lock()
		w.handlerNs = append(w.handlerNs, float64(d))
		w.mu.Unlock()
	})
}

// do posts one request as client c and decodes the reply.  A transport
// error, a non-200 status or an undecodable body is an error.
func (w *serveWL) do(c int, rq *serveReq, tr *tracer) (execReply, error) {
	var rep execReply
	req, err := http.NewRequest(http.MethodPost, w.url, bytes.NewReader(rq.body))
	if err != nil {
		return rep, err
	}
	req.Header.Set("Content-Type", "application/json")
	var root spanID
	var t0 time.Time
	if tr != nil {
		root = tr.begin("http.rtt", layerHTTP, noSpan, c, w.opSeq.Add(1))
		req.Header.Set(spanHeader, fmt.Sprintf("%d.%d", root.gen, root.idx))
		t0 = time.Now()
	}
	resp, err := w.hc[c].Do(req)
	if err != nil {
		tr.end(root)
		return rep, err
	}
	derr := json.NewDecoder(resp.Body).Decode(&rep)
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if tr != nil {
		tr.end(root)
		rtt := float64(time.Since(t0))
		var hid spanID
		if _, err := fmt.Sscanf(resp.Header.Get(spanHandler), "%d.%d", &hid.gen, &hid.idx); err == nil {
			tr.record("server.exec_wall", layerExec, hid, rep.WallNS, 0)
		}
		w.mu.Lock()
		w.rttNs = append(w.rttNs, rtt)
		w.wallNs = append(w.wallNs, float64(rep.WallNS))
		w.replies++
		if rep.Cached {
			w.cachedN++
		}
		w.mu.Unlock()
	}
	if resp.StatusCode != http.StatusOK {
		return rep, fmt.Errorf("HTTP %d", resp.StatusCode)
	}
	return rep, derr
}

// prepare queues each client's requests for a slice of reps units.  Hot:
// the resident set, each client starting at its own offset.  Cold: fresh
// sources, the templates dealt round-robin so every slice retires the same
// simulated instructions, rendered here, outside the timed window.
func (w *serveWL) prepare(reps int) int {
	for c := range w.pending {
		w.pending[c] = w.pending[c][:0]
		for i := 0; i < reps*serveUnit; i++ {
			if !w.cold {
				w.pending[c] = append(w.pending[c], w.hot[(i+c*serveUnit/serveClients)%len(w.hot)])
				continue
			}
			// Advance to the next index whose template is i's, so each
			// client sees every template equally often.
			for w.nextIdx%tinycTemplates != i%tinycTemplates {
				w.nextIdx++
			}
			rq := newServeReq(tinycAt(w.nextIdx))
			w.nextIdx++
			rq.insns = w.tmplInsns[i%tinycTemplates]
			w.pending[c] = append(w.pending[c], rq)
		}
	}
	return 0
}

func (w *serveWL) slice(reps int, tr *tracer) sliceOut {
	w.tr.Store(tr)
	defer w.tr.Store(nil)
	var outs [serveClients]sliceOut
	var wg sync.WaitGroup
	for c := range w.pending {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for _, rq := range w.pending[c] {
				rep, err := w.do(c, rq, tr)
				outs[c].ops++
				if err != nil || rep.Result != rq.want || rep.Insns != rq.insns {
					outs[c].failed++
					continue
				}
				outs[c].work++
			}
		}(c)
	}
	wg.Wait()
	var out sliceOut
	for _, o := range outs {
		out.ops += o.ops
		out.failed += o.failed
		out.work += o.work
	}
	return out
}

func (w *serveWL) layers(lc *layerCtx) ([]metric, error) {
	prefix := "server."
	if w.cold {
		prefix = "server.cold."
	}
	us := func(ns float64) float64 { return ns / 1e3 }
	rtt50 := median(w.rttNs)
	ms := []metric{
		{prefix + "rtt_p50_us", "us", us(rtt50)},
		{prefix + "rtt_samples", "count", float64(len(w.rttNs))},
	}
	// The tail percentile the sample supports: p99 needs 1,000 samples.
	tail := 0.0
	if p, ok := tailPercentile(len(w.rttNs)); ok && p >= 99 {
		tail = us(quantile(w.rttNs, 0.99))
	}
	ms = append(ms, metric{prefix + "rtt_p99_us", "us", tail})

	// The handler with no TCP under it: Handler().ServeHTTP into a
	// recorder, on requests of the workload's kind and on resident ones.
	h := w.srv.Handler()
	handlerP50 := func(rqs []*serveReq) (float64, error) {
		var ns []float64
		for _, rq := range rqs {
			req := httptest.NewRequest(http.MethodPost, "/v1/exec", bytes.NewReader(rq.body))
			rec := httptest.NewRecorder()
			t0 := time.Now()
			h.ServeHTTP(rec, req)
			ns = append(ns, float64(time.Since(t0)))
			if rec.Code != http.StatusOK {
				return 0, fmt.Errorf("handler probe: HTTP %d", rec.Code)
			}
		}
		return median(ns), nil
	}
	w.prepare(40)
	handler50, err := handlerP50(w.pending[0])
	if err != nil {
		return nil, err
	}
	var resident []*serveReq
	for i := 0; i < 40*serveUnit; i++ {
		resident = append(resident, w.hot[i%len(w.hot)])
	}
	resident50, err := handlerP50(resident)
	if err != nil {
		return nil, err
	}

	// The same sources with no server at all: tinyc and a core.Machine.
	compile50, call50, err := w.directProbe()
	if err != nil {
		return nil, err
	}
	wall50 := median(w.wallNs)
	compileShare := 0.0
	if w.cold {
		compileShare = compile50 / rtt50
	} else {
		compile50 = 0 // resident sources compile nothing per request
	}
	ms = append(ms,
		metric{prefix + "exec_wall_us_p50", "us", us(wall50)},
		metric{prefix + "handler_tcp_us_p50", "us", us(median(w.handlerNs))},
		metric{prefix + "handler_us_p50", "us", us(handler50)},
		metric{prefix + "http_stack_us_p50", "us", us(rtt50 - handler50)},
		metric{prefix + "overhead_us_p50", "us", us(handler50 - wall50 - compile50)},
		metric{prefix + "direct_call_us_p50", "us", us(compile50 + call50)},
		metric{prefix + "exec_share_of_rtt", "share", wall50 / rtt50},
		metric{prefix + "compile_share_of_rtt", "share", compileShare},
		metric{prefix + "miss_path_share_of_rtt", "share", (handler50 - resident50) / rtt50},
		metric{prefix + "cached_share", "share", float64(w.cachedN) / float64(w.replies)})

	st := w.srv.StatsView()
	var hits, misses, compiles, rejected uint64
	for _, sh := range st.Shards {
		hits += sh.Cache.Hits
		misses += sh.Cache.Misses
		compiles += sh.Compiles
	}
	rejected = st.RateLimited + st.Shed + st.BreakerOpen
	for _, tn := range st.Tenants {
		rejected += tn.Rejected
	}
	ms = append(ms,
		metric{prefix + "cache_hit_share", "share", float64(hits) / float64(hits+misses)},
		metric{prefix + "compiles", "count", float64(compiles)},
		metric{prefix + "rejected", "count", float64(rejected)})
	if w.cold {
		return ms, nil
	}

	// The flight recorder's cost on a served request, by its public gate:
	// blocks of requests with the recorder off and on in alternation, so
	// drift of the machine lands on both.
	var rtts [2][]float64
	for block := 0; block < 10; block++ {
		on := block % 2
		flightrec.SetEnabled(on == 1)
		for i := 0; i < 300; i++ {
			t0 := time.Now()
			if _, derr := w.do(0, w.hot[i%len(w.hot)], nil); derr != nil {
				err = derr
			}
			rtts[on] = append(rtts[on], float64(time.Since(t0)))
		}
	}
	flightrec.SetEnabled(false)
	flightrec.Reset()
	if err != nil {
		return nil, err
	}
	off, on := median(rtts[0]), median(rtts[1])
	ack, err := durableAckProbe()
	if err != nil {
		return nil, err
	}
	return append(ms,
		metric{"flightrec.rtt_us_delta", "us", us(on - off)},
		metric{"server.durable_ack_us_p50", "us", us(ack)}), nil
}

// directProbe runs the workload's kind of source through tinyc and a
// core.Machine with no server: the median time to parse, compile and
// install, and the median time of the call itself.
func (w *serveWL) directProbe() (compile50, call50 float64, err error) {
	tg, err := newTarget("mips", nil) // the server's default backend
	if err != nil {
		return 0, 0, err
	}
	m := tg.m
	var compiles, calls []float64
	for i := 0; i < 200; i++ {
		src := tinycAt(w.nextIdx).source()
		w.nextIdx++
		mk := m.Mark()
		t0 := time.Now()
		prog, perr := tinyc.Parse(src)
		if perr != nil {
			return 0, 0, perr
		}
		c := tinyc.NewCompiler(m)
		if cerr := c.Compile(prog); cerr != nil {
			return 0, 0, cerr
		}
		compiles = append(compiles, float64(time.Since(t0)))
		fn := c.Funcs()["main"]
		t0 = time.Now()
		if _, _, cerr := m.CallWithStats(context.Background(), core.CallOpts{Fuel: 1 << 20}, fn, core.I(tinycArg)); cerr != nil {
			return 0, 0, cerr
		}
		// Time the warm call the server makes, not the first one.
		t0 = time.Now()
		if _, _, cerr := m.CallWithStats(context.Background(), core.CallOpts{Fuel: 1 << 20}, fn, core.I(tinycArg)); cerr != nil {
			return 0, 0, cerr
		}
		calls = append(calls, float64(time.Since(t0)))
		for _, f := range c.Funcs() {
			if uerr := m.Uninstall(f); uerr != nil {
				return 0, 0, uerr
			}
		}
		m.Release(mk)
	}
	return median(compiles), median(calls), nil
}

// durableAckProbe is a short journaled segment: a journaling server in a
// temporary directory under bench/out, posted never-seen sources one at a
// time.  Each 200 comes back only
// after the compile's journal record has been fsynced, so the median round
// trip is the durable-ack latency (the group-commit window plus the
// fsync).
func durableAckProbe() (float64, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return 0, err
	}
	dir, err := os.MkdirTemp(outDir, "journal-")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	srv, err := newServer(dir)
	if err != nil {
		return 0, err
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	hc := &http.Client{}
	defer hc.CloseIdleConnections()
	var rtts []float64
	for i := 0; i < 40; i++ {
		rq := newServeReq(tinycAt(1<<21 + i))
		var ack struct {
			Durable bool  `json:"durable"`
			Result  int64 `json:"result"`
		}
		t0 := time.Now()
		resp, err := hc.Post(ts.URL+"/v1/exec", "application/json", bytes.NewReader(rq.body))
		if err != nil {
			return 0, err
		}
		derr := json.NewDecoder(resp.Body).Decode(&ack)
		resp.Body.Close()
		rtts = append(rtts, float64(time.Since(t0)))
		if derr != nil || resp.StatusCode != http.StatusOK || !ack.Durable || ack.Result != rq.want {
			return 0, fmt.Errorf("durable probe: status %d durable %v result %d want %d (%v)", resp.StatusCode, ack.Durable, ack.Result, rq.want, derr)
		}
	}
	return median(rtts), nil
}
