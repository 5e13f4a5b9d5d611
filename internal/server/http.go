package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"repro/internal/flightrec"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// request is the JSON body shared by /v1/exec and /v1/compile.  A body
// may carry source (compile-if-needed) or just a key (must be
// resident); content hashes make retries and cross-client sharing
// idempotent.
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

// execResponse is the /v1/exec success body.
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

// decode parses and bounds the request body.
func decode(r *http.Request) (*request, *APIError) {
	if r.Method != http.MethodPost {
		return nil, apiErr(CodeBadRequest, "method %s not allowed (POST)", r.Method)
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, maxBodyBytes+1))
	if err != nil {
		return nil, apiErr(CodeBadRequest, "reading body: %v", err)
	}
	if len(body) > maxBodyBytes {
		return nil, apiErr(CodeBadRequest, "body over %d bytes", maxBodyBytes)
	}
	var req request
	if err := json.Unmarshal(body, &req); err != nil {
		return nil, apiErr(CodeBadRequest, "parsing JSON: %v", err)
	}
	if req.Tenant == "" {
		req.Tenant = "default"
	}
	return &req, nil
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
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
	req   *request
	reqID string
	sp    trace.Active
	fr    *flightrec.Request
	t     *tenant
	cr    compileResult
}

// begin runs the shared preamble: decode, request ID, span, flight handle,
// tenant, rate limit, compile.  A request one of them refuses is answered and
// finished here, and ok is false.
func (s *Server) begin(w http.ResponseWriter, r *http.Request) (a admitted, ok bool) {
	a.start = time.Now()
	req, ae := decode(r)
	if ae != nil {
		writeErr(w, "", ae)
		return a, false
	}
	a.req, a.reqID = req, s.requestID(req.RequestID)
	a.sp = s.requestSpan(req.Tenant, a.reqID)
	a.fr = flightrec.Begin(a.reqID, req.Tenant)
	if a.t, ae = s.tenants.get(req.Tenant); ae != nil {
		s.requests.Inc()
		s.errorsAll.Inc()
		a.sp.End(0, trace.Attrs{Verdict: string(ae.Code)})
		a.fr.Finish(string(ae.Code), ae.Message, 0)
		writeErr(w, a.reqID, ae)
		return a, false
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
		s.finishRequest(w, &a, ae)
		return a, false
	}
	return a, true
}

// handleExec is compile-if-needed plus one sandboxed call.
func (s *Server) handleExec(w http.ResponseWriter, r *http.Request) {
	a, ok := s.begin(w, r)
	if !ok {
		return
	}
	er, ae := s.exec(r.Context(), a.fr, a.t, &a.cr, a.req)
	s.finishRequest(w, &a, ae)
	if ae != nil {
		return
	}
	res, typ := renderResult(er.value)
	writeJSON(w, http.StatusOK, execResponse{
		RequestID:  a.reqID,
		Key:        a.cr.key,
		Shard:      a.cr.shard.id,
		Cached:     a.cr.cached,
		Durable:    a.cr.durable,
		Result:     res,
		ResultType: typ,
		Cycles:     er.stats.Cycles,
		Insns:      er.stats.Insns,
		WallNS:     er.wall.Nanoseconds(),
	})
}

// handleCompile is compile-and-cache: the program becomes resident (and
// callable by key) without running it.
func (s *Server) handleCompile(w http.ResponseWriter, r *http.Request) {
	a, ok := s.begin(w, r)
	if !ok {
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
