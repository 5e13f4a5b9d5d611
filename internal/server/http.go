package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"slices"
	"sync"
	"time"

	"repro/internal/flightrec"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// request is the JSON body shared by /v1/exec and /v1/compile.  A body
// may carry source (compile-if-needed) or just a key (must be
// resident); content hashes make retries and cross-client sharing
// idempotent.  decodeRequest (wire.go) parses it, field by field: a field
// added here is added there, and FuzzDecodeRequest fails until it is.
type request struct {
	// Tenant names the quota row; empty means "default".
	Tenant string `json:"tenant"`
	// Lang is "vasm" or "tinyc"; required with Source.
	Lang string `json:"lang"`
	// Source is the program text.  Optional when Key names a resident
	// program.
	Source string `json:"source"`
	// Entry selects the function to run (default: tinyc "main", vasm
	// first function).
	Entry string `json:"entry"`
	// Key is the content hash from an earlier compile; send it alone to
	// run without re-uploading source.
	Key string `json:"key"`
	// Args are the call arguments, matched against the entry signature.
	Args []json.Number `json:"args"`
	// Fuel lowers (never raises) the tenant's per-call step budget.
	Fuel uint64 `json:"fuel"`
	// RequestID is echoed back and stamped onto trace spans; minted
	// when absent.
	RequestID string `json:"request_id"`
	// Priority is this request's shed priority, 0–9 (9 sheds last);
	// omitted inherits the tenant's default.
	Priority *int `json:"priority"`
}

// prio resolves the request's effective shed priority.
func (req *request) prio(t *tenant) int {
	if req.Priority != nil {
		return clampPriority(*req.Priority)
	}
	return t.priority
}

// compileResponse is the /v1/compile success body.
type compileResponse struct {
	RequestID string `json:"request_id"`
	Key       string `json:"key"`
	Shard     int    `json:"shard"`
	Cached    bool   `json:"cached"`
	Durable   bool   `json:"durable"`
	Entry     string `json:"entry"`
	CodeBytes int64  `json:"code_bytes"`
	Functions int    `json:"functions"`
	Params    int    `json:"params"`
}

// errorResponse is every failure body: {"request_id": ..., "error":
// {"code": ..., "message": ..., "retry_after_ms": ...}}.
type errorResponse struct {
	RequestID string    `json:"request_id"`
	Error     *APIError `json:"error"`
}

const maxBodyBytes = 1 << 20 // source programs are small; cap abuse

// Handler builds the server's mux: the v1 API plus the observability
// surface (telemetry /metrics, lifecycle /trace, health /healthz
// /readyz) on the same listener.
func (s *Server) Handler() *http.ServeMux {
	mux := telemetry.NewMux(s.cfg.Registry)
	trace.RegisterHTTP(mux, s.cfg.Registry)
	telemetry.RegisterHealth(mux, s.health)
	mux.HandleFunc("/v1/exec", s.handleExec)
	mux.HandleFunc("/v1/compile", s.handleCompile)
	mux.HandleFunc("/v1/stats", s.handleStats)
	mux.HandleFunc("/debug/bundle", s.handleBundle)
	return mux
}

// exchange is the reusable bytes of one /v1/exec or /v1/compile request:
// the body as read, the decoder's unescaped strings and the reply as
// appended.  What the request keeps is copied out of them, and the exchange
// goes back to the pool when the handler returns.
type exchange struct {
	body, text, reply []byte
}

var exchanges = sync.Pool{New: func() any { return new(exchange) }}

// maxPooledBytes bounds the buffers an exchange takes back to the pool, so
// one large body does not stay allocated for good.
const maxPooledBytes = 64 << 10

func getExchange() *exchange { return exchanges.Get().(*exchange) }

func (x *exchange) release() {
	for _, b := range []*[]byte{&x.body, &x.text, &x.reply} {
		if cap(*b) > maxPooledBytes {
			*b = nil
		}
	}
	exchanges.Put(x)
}

// decode reads, bounds and parses the request body into req.
func decode(r *http.Request, x *exchange, req *request) *APIError {
	if r.Method != http.MethodPost {
		return apiErr(CodeBadRequest, "method %s not allowed (POST)", r.Method)
	}
	var err error
	if x.body, err = readBody(r.Body, x.body[:0]); err != nil {
		return apiErr(CodeBadRequest, "reading body: %v", err)
	}
	if len(x.body) > maxBodyBytes {
		return apiErr(CodeBadRequest, "body over %d bytes", maxBodyBytes)
	}
	if x.text, err = decodeRequest(x.body, req, x.text); err != nil {
		return apiErr(CodeBadRequest, "parsing JSON: %v", err)
	}
	if req.Tenant == "" {
		req.Tenant = "default"
	}
	return nil
}

// readBody appends r's contents to b, stopping once past maxBodyBytes: what
// io.ReadAll(io.LimitReader(r, maxBodyBytes+1)) reads, into a reused buffer.
func readBody(r io.Reader, b []byte) ([]byte, error) {
	for {
		if len(b) == cap(b) {
			b = slices.Grow(b, 512)
		}
		n, err := r.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err == io.EOF || len(b) > maxBodyBytes {
			return b, nil
		}
		if err != nil {
			return b, err
		}
	}
}

// jsonType is every reply's Content-Type, one slice shared by all.
var jsonType = []string{"application/json"}

func writeBody(w http.ResponseWriter, status int, body []byte) {
	w.Header()["Content-Type"] = jsonType
	w.WriteHeader(status)
	_, _ = w.Write(body)
}

// writeJSON answers with v as encoding/json renders it, marshalled before
// the status goes out: a value it cannot render is a 500, never a 200 with
// no body.
func writeJSON(w http.ResponseWriter, status int, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		http.Error(w, "encoding the reply: "+err.Error(), http.StatusInternalServerError)
		return
	}
	writeBody(w, status, append(b, '\n'))
}

func writeErr(w http.ResponseWriter, reqID string, ae *APIError) {
	if ae.RetryAfterMS > 0 {
		// Jitter the hint ±20% (on a copy — the original may be a shared
		// template) so synchronized clients spread their retries.
		j := *ae
		j.RetryAfterMS = jitterMS(ae.RetryAfterMS)
		ae = &j
		secs := (ae.RetryAfterMS + 999) / 1000
		w.Header().Set("Retry-After", fmt.Sprintf("%d", secs))
	}
	writeJSON(w, ae.Status(), errorResponse{RequestID: reqID, Error: ae})
}

// requestSpan opens a request's lifecycle span, named tenant/request-id.
// The name is built only when tracing is on.
func (s *Server) requestSpan(tenant, reqID string) trace.Active {
	if !trace.Enabled() {
		return trace.Active{}
	}
	return trace.Begin(trace.KindRequest, s.cfg.Backend, tenant+"/"+reqID)
}

// admitted is a request past the preamble /v1/exec and /v1/compile share:
// what the rest of its handler, and finishRequest, need of it.
type admitted struct {
	start time.Time
	req   request
	reqID string
	sp    trace.Active
	fr    *flightrec.Request
	t     *tenant
	cr    compileResult
}

// begin runs the shared preamble into a: decode, request ID, span, flight
// handle, tenant, rate limit, compile.  A request one of them refuses is
// answered and finished here, and begin returns false.
func (s *Server) begin(w http.ResponseWriter, r *http.Request, x *exchange, a *admitted) bool {
	a.start = time.Now()
	req := &a.req
	ae := decode(r, x, req)
	if ae != nil {
		writeErr(w, "", ae)
		return false
	}
	a.reqID = s.requestID(req.RequestID)
	a.sp = s.requestSpan(req.Tenant, a.reqID)
	a.fr = flightrec.Begin(a.reqID, req.Tenant)
	if a.t, ae = s.tenants.get(req.Tenant); ae != nil {
		s.requests.Inc()
		s.errorsAll.Inc()
		a.sp.End(0, trace.Attrs{Verdict: string(ae.Code)})
		a.fr.Finish(string(ae.Code), ae.Message, 0)
		writeErr(w, a.reqID, ae)
		return false
	}
	if ae = a.t.admitRate(); ae != nil {
		s.rateLimited.Inc()
		a.t.rejected.Inc()
		a.fr.Event(flightrec.StageAdmit, flightrec.Event{
			Verdict: string(ae.Code), Shard: -1, Priority: int8(req.prio(a.t))})
	} else {
		a.cr, ae = s.compile(r.Context(), a.fr, a.t, req.Lang, req.Source, req.Entry, req.Key, req.prio(a.t))
	}
	if ae != nil {
		s.finishRequest(w, a, ae)
		return false
	}
	return true
}

// handleExec is compile-if-needed plus one sandboxed call.
func (s *Server) handleExec(w http.ResponseWriter, r *http.Request) {
	x := getExchange()
	defer x.release()
	var a admitted
	if !s.begin(w, r, x, &a) {
		return
	}
	er, ae := s.exec(r.Context(), a.fr, a.t, &a.cr, &a.req)
	s.finishRequest(w, &a, ae)
	if ae != nil {
		return
	}
	x.reply = appendExecReply(x.reply[:0], a.reqID, &a.cr, &er)
	writeBody(w, http.StatusOK, x.reply)
}

// handleCompile is compile-and-cache: the program becomes resident (and
// callable by key) without running it.
func (s *Server) handleCompile(w http.ResponseWriter, r *http.Request) {
	x := getExchange()
	defer x.release()
	var a admitted
	if !s.begin(w, r, x, &a) {
		return
	}
	resp := compileResponse{
		RequestID: a.reqID,
		Key:       a.cr.key,
		Shard:     a.cr.shard.id,
		Cached:    a.cr.cached,
		Durable:   a.cr.durable,
		Entry:     a.cr.fn.Name,
		Params:    len(a.cr.fn.Params),
		CodeBytes: a.cr.fn.Unit().CodeBytes(),
		Functions: len(a.cr.fn.Unit().Funcs()),
	}
	s.finishRequest(w, &a, nil)
	writeJSON(w, http.StatusOK, resp)
}

// handleStats serves the service-wide statistics document.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.StatsView())
}
