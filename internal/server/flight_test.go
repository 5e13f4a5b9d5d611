package server

import (
	"archive/tar"
	"bytes"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"testing"

	"repro/internal/telemetry"
	"repro/internal/trace"
)

// withRecording turns the recorder on for one test, restoring the prior
// state (and clearing the ring) afterwards.
func withRecording(t *testing.T) {
	t.Helper()
	was := trace.Enabled()
	trace.Reset()
	trace.SetEnabled(true)
	t.Cleanup(func() {
		trace.SetEnabled(was)
		trace.Reset()
	})
}

// chainFor extracts the records carrying reqID from a ring snapshot, in
// ring order.
func chainFor(events []trace.Span, reqID string) []trace.Span {
	var out []trace.Span
	for _, e := range events {
		if e.ReqID == reqID {
			out = append(out, e)
		}
	}
	return out
}

// TestFlightChainDurableExec drives one journaled exec request and
// asserts the recorder captured the complete
// admit→cache→journal→exec→outcome chain, with the journal event
// carrying a nonzero LSN behind the durable ack.
func TestFlightChainDurableExec(t *testing.T) {
	withRecording(t)
	dir := t.TempDir()
	_, ts, _, rerr := newJournaledServer(t, 2, filepath.Join(dir, "snap"), filepath.Join(dir, "j.wal"))
	if rerr != nil {
		t.Fatalf("Recover: %v", rerr)
	}

	status, out := post(t, ts, "/v1/exec", map[string]any{
		"tenant": "alice", "lang": "tinyc", "source": fibTinyC,
		"args": []int{10}, "request_id": "flight-1",
	})
	if status != http.StatusOK {
		t.Fatalf("exec = %d %v", status, out)
	}
	if d, _ := out["durable"].(bool); !d {
		t.Fatalf("ack not durable: %v", out)
	}

	chain := chainFor(trace.Spans(), "flight-1")
	stages := make([]string, len(chain))
	for i, e := range chain {
		stages[i] = e.Kind.String() + ":" + e.Verdict
	}
	want := []string{"admit:ok", "journal:durable", "cache:compiled", "exec:ok", "outcome:ok"}
	if len(stages) != len(want) {
		t.Fatalf("chain = %v, want %v", stages, want)
	}
	for i := range want {
		if stages[i] != want[i] {
			t.Fatalf("chain = %v, want %v", stages, want)
		}
	}
	for _, e := range chain {
		if e.Tenant != "alice" {
			t.Fatalf("event tenant = %q, want alice: %+v", e.Tenant, e)
		}
	}
	if chain[1].LSN == 0 {
		t.Fatalf("journal event has no LSN: %+v", chain[1])
	}
	if chain[3].Name == "" || chain[3].Fuel == 0 {
		t.Fatalf("exec event missing engine/fuel: %+v", chain[3])
	}
	if chain[4].Dur <= 0 {
		t.Fatalf("outcome event missing duration: %+v", chain[4])
	}
}

// TestFlightErrorExemplar asserts an errored request retains its full
// chain as an exemplar.
func TestFlightErrorExemplar(t *testing.T) {
	withRecording(t)
	_, ts := newTestServer(t, nil)

	status, out := post(t, ts, "/v1/exec", map[string]any{
		"tenant": "bob", "key": "no-such-key", "request_id": "flight-miss",
	})
	if status != http.StatusNotFound {
		t.Fatalf("exec = %d %v", status, out)
	}

	var found []trace.Span
	for _, chain := range trace.Exemplars().Errored {
		if chain[0].ReqID == "flight-miss" {
			found = chain
		}
	}
	if len(found) < 2 {
		t.Fatalf("no errored exemplar chain for flight-miss: %+v", found)
	}
	if out := found[len(found)-1]; out.Kind != trace.KindOutcome || out.Verdict != string(CodeNotFound) {
		t.Fatalf("exemplar ends %+v, want a %s outcome", out, CodeNotFound)
	}
}

// readBundle parses a gzipped bundle archive into name -> contents.
func readBundle(t *testing.T, data []byte) map[string][]byte {
	t.Helper()
	gz, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("gzip: %v", err)
	}
	tr := tar.NewReader(gz)
	out := map[string][]byte{}
	for {
		hdr, err := tr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("tar: %v", err)
		}
		b, err := io.ReadAll(tr)
		if err != nil {
			t.Fatalf("tar read %s: %v", hdr.Name, err)
		}
		out[hdr.Name] = b
	}
	return out
}

// TestBundleEndpoint asserts /debug/bundle returns a well-formed
// archive whose one ring reconstructs a request chain by ID.
func TestBundleEndpoint(t *testing.T) {
	withRecording(t)
	srv, ts := newTestServer(t, nil)

	status, out := post(t, ts, "/v1/exec", map[string]any{
		"tenant": "alice", "lang": "vasm", "source": factVasm,
		"args": []int{5}, "request_id": "bundle-1",
	})
	if status != http.StatusOK {
		t.Fatalf("exec = %d %v", status, out)
	}

	resp, err := http.Get(ts.URL + "/debug/bundle")
	if err != nil {
		t.Fatalf("GET /debug/bundle: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("bundle status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/gzip" {
		t.Fatalf("content type = %q", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	files := readBundle(t, raw)
	for _, name := range []string{
		"meta.json", "events.json", "exemplars.json", "stats.json",
		"metrics.json", "metrics_summary.json",
		"slo.json", "positions.json", "goroutines.txt",
	} {
		if _, ok := files[name]; !ok {
			t.Fatalf("bundle missing %s (has %v)", name, keys(files))
		}
	}
	var events []trace.Span
	if err := json.Unmarshal(files["events.json"], &events); err != nil {
		t.Fatalf("events.json: %v", err)
	}
	chain := chainFor(events, "bundle-1")
	if len(chain) < 4 {
		t.Fatalf("bundle chain for bundle-1 too short: %+v", chain)
	}
	if chain[len(chain)-1].Kind != trace.KindOutcome || chain[len(chain)-1].Verdict != "ok" {
		t.Fatalf("bundle chain does not end ok: %+v", chain)
	}
	if !bytes.Contains(files["goroutines.txt"], []byte("goroutine")) {
		t.Fatal("goroutine dump empty")
	}
	var stats Stats
	if err := json.Unmarshal(files["stats.json"], &stats); err != nil {
		t.Fatalf("stats.json: %v", err)
	}
	if stats.SLO == nil {
		t.Fatal("stats.json missing slo snapshot")
	}

	// File-side writer: atomic, named by reason.
	path, err := srv.WriteBundleFile(t.TempDir(), "test")
	if err != nil {
		t.Fatalf("WriteBundleFile: %v", err)
	}
	if filepath.Ext(path) != ".gz" {
		t.Fatalf("bundle path = %q", path)
	}
}

func keys(m map[string][]byte) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

// TestExecReportsItsOwnWallTime: the machine keeps no clock on its call
// path, so the exec stage's time — the response's wall_ns, the request
// chain's exec record, the two call_ns histograms — comes from the server's
// own clock pair around the call, with telemetry off as well as on and for
// a call that fails.
func TestExecReportsItsOwnWallTime(t *testing.T) {
	withRecording(t)
	defer telemetry.SetEnabled(telemetry.Enabled())
	s, ts := newTestServer(t, nil)
	tn, ae := s.tenants.get("alice")
	if ae != nil {
		t.Fatal(ae)
	}
	exec := func(id string, body map[string]any) (int, map[string]any, trace.Span) {
		t.Helper()
		body["tenant"], body["request_id"] = "alice", id
		status, out := post(t, ts, "/v1/exec", body)
		for _, e := range chainFor(trace.Spans(), id) {
			if e.Kind == trace.KindExec {
				return status, out, e
			}
		}
		t.Fatalf("%s: no exec record on the request's chain (status %d %v)", id, status, out)
		return 0, nil, trace.Span{}
	}
	resident := map[string]any{"lang": "tinyc", "source": fibTinyC, "args": []int{10}}
	if status, out, _ := exec("warm-up", resident); status != http.StatusOK {
		t.Fatalf("warm-up = %d %v", status, out)
	}

	for _, on := range []bool{false, true} {
		telemetry.SetEnabled(on)
		global, perTenant := s.callNS.Count(), tn.callNS.Count()
		id := fmt.Sprintf("wall-telemetry-%v", on)
		status, out, ev := exec(id, resident)
		if status != http.StatusOK || out["cached"] != true {
			t.Fatalf("%s = %d %v, want a cached 200", id, status, out)
		}
		if wall, _ := out["wall_ns"].(json.Number).Int64(); wall <= 0 {
			t.Errorf("%s: wall_ns = %v, want > 0", id, out["wall_ns"])
		}
		if ev.Verdict != "ok" || ev.Dur <= 0 {
			t.Errorf("%s: exec record %+v, want ok with Dur > 0", id, ev)
		}
		var want uint64
		if on {
			want = 1
		}
		if g, p := s.callNS.Count()-global, tn.callNS.Count()-perTenant; g != want || p != want {
			t.Errorf("%s: call_ns histograms observed %d and %d samples, want %d each", id, g, p, want)
		}
	}

	status, out, ev := exec("wall-fuel", map[string]any{
		"lang": "vasm", "source": factVasm, "args": []int{1 << 20}, "fuel": 50})
	wantErrCode(t, status, out, http.StatusUnprocessableEntity, CodeFuelExhausted)
	if ev.Verdict != string(CodeFuelExhausted) || ev.Dur <= 0 {
		t.Errorf("failed exec record %+v, want %s with Dur > 0", ev, CodeFuelExhausted)
	}
}

// TestOneRecordClosesARequest: with the recorder on, one /v1/exec leaves
// exactly one outcome record and no other record that closes a request.
// The outcome's flow is the entry function's, and the ring holds that
// flow's install and call records, so the request joins its code's
// lifecycle.
func TestOneRecordClosesARequest(t *testing.T) {
	withRecording(t)
	s, ts := newTestServer(t, nil)
	status, out := post(t, ts, "/v1/exec", map[string]any{
		"tenant": "alice", "lang": "tinyc", "source": fibTinyC, "args": []int{10}, "request_id": "one-close",
	})
	if status != http.StatusOK {
		t.Fatalf("exec = %d %v", status, out)
	}
	key, _ := out["key"].(string)
	fn, ok := s.shards[shardOf(key, len(s.shards))].cache.Get(key)
	if !ok || fn.TraceFlow() == 0 {
		t.Fatalf("entry function for %s not resident or never traced", key)
	}
	var outcomes []trace.Span
	kinds := map[trace.Kind]int{}
	for _, sp := range trace.Spans() {
		if sp.Kind == trace.KindOutcome {
			outcomes = append(outcomes, sp)
		}
		if sp.Flow == fn.TraceFlow() {
			kinds[sp.Kind]++
		}
	}
	if len(outcomes) != 1 || outcomes[0].ReqID != "one-close" || outcomes[0].Verdict != "ok" {
		t.Fatalf("outcome records = %+v, want one ok outcome for one-close", outcomes)
	}
	if outcomes[0].Flow != fn.TraceFlow() {
		t.Fatalf("outcome flow = %d, entry function's flow = %d", outcomes[0].Flow, fn.TraceFlow())
	}
	if kinds[trace.KindInstall] == 0 || kinds[trace.KindCall] == 0 {
		t.Fatalf("flow %d holds %v, want its install and call records", fn.TraceFlow(), kinds)
	}
}
