package trace

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
	"unsafe"

	"repro/internal/telemetry"
)

// withTracing flips the global gate for one test and restores a clean
// ring afterwards.
func withTracing(t *testing.T, on bool) {
	t.Helper()
	Reset()
	SetEnabled(on)
	t.Cleanup(func() {
		SetEnabled(false)
		Reset()
	})
}

func TestSpanRingOrderAndReset(t *testing.T) {
	withTracing(t, true)
	flow := NextFlow()
	for i := 0; i < 5; i++ {
		Record(KindCall, "mips", "f", flow, time.Now(), time.Microsecond, Attrs{N: int64(i)})
	}
	spans := Spans()
	if len(spans) != 5 {
		t.Fatalf("got %d spans, want 5", len(spans))
	}
	for i, s := range spans {
		if s.Attrs.N != int64(i) {
			t.Fatalf("span %d out of order: N=%d", i, s.Attrs.N)
		}
		if s.Flow != flow || s.Kind != KindCall || s.Backend != "mips" {
			t.Fatalf("span %d corrupted: %+v", i, s)
		}
	}
	Reset()
	if len(Spans()) != 0 {
		t.Fatal("Reset did not clear the ring")
	}
}

func TestRingBounded(t *testing.T) {
	withTracing(t, true)
	for i := 0; i < ringCap+100; i++ {
		Record(KindCall, "mips", "f", 1, time.Now(), 0, Attrs{N: int64(i)})
	}
	spans := Spans()
	if len(spans) != ringCap {
		t.Fatalf("got %d spans, want ring capacity %d", len(spans), ringCap)
	}
	// Oldest retained span is the 100th recorded; newest is the last.
	if spans[0].Attrs.N != 100 || spans[len(spans)-1].Attrs.N != ringCap+99 {
		t.Fatalf("ring window wrong: first N=%d last N=%d", spans[0].Attrs.N, spans[len(spans)-1].Attrs.N)
	}
}

// TestDisabledSpanEmitZeroAlloc pins the acceptance criterion that the
// disabled record paths allocate nothing: Begin/End, Record and a request
// handle's whole life must be a single atomic load each when recording is
// off.
func TestDisabledSpanEmitZeroAlloc(t *testing.T) {
	withTracing(t, false)
	var start time.Time
	if n := testing.AllocsPerRun(1000, func() {
		a := Begin(KindEmit, "mips", "f")
		a.End(7, Attrs{Bytes: 64, N: 16})
		Record(KindCall, "mips", "f", 7, start, time.Microsecond, Attrs{Fuel: 100})
		r := BeginRequest("r1", "acme")
		r.Record(Span{Kind: KindAdmit, Attrs: Attrs{Verdict: "ok", Shard: 2, Priority: 5}})
		r.Record(Span{Kind: KindExec, Dur: 100, Attrs: Attrs{Verdict: "ok", Fuel: 100}})
		r.Finish(7, Attrs{Verdict: "ok"})
	}); n != 0 {
		t.Fatalf("disabled span emit allocates %v per op, want 0", n)
	}
}

// TestEnabledRecordZeroAlloc pins the record path itself: once the ring
// exists, recording a span copies into preallocated storage.
func TestEnabledRecordZeroAlloc(t *testing.T) {
	withTracing(t, true)
	Record(KindCall, "mips", "warm", 1, time.Now(), 0, Attrs{}) // allocate the ring
	start := time.Now()
	r := BeginRequest("r1", "acme")
	defer r.Finish(0, Attrs{Verdict: "ok"})
	if n := testing.AllocsPerRun(1000, func() {
		Record(KindCall, "mips", "f", 1, start, time.Microsecond, Attrs{N: 3})
		r.Record(Span{Kind: KindCache, Attrs: Attrs{Verdict: "hit", Key: "k", Shard: 1}})
	}); n != 0 {
		t.Fatalf("enabled Record allocates %v per op, want 0", n)
	}
}

// TestFoldConcurrent: writers folding events of backends telemetry has not
// seen yet race to register their instruments; each backend ends with one
// set, and every event lands in it.  Run under -race.
func TestFoldConcurrent(t *testing.T) {
	telemetry.SetEnabled(true)
	defer telemetry.SetEnabled(false)
	const writers, perWriter = 4, 300
	backends := []string{"fold-a", "fold-b", "fold-c"}
	calls := func(b string) uint64 { return telemetry.Default.Counter("machine." + b + ".calls").Load() }
	before := make([]uint64, len(backends))
	for i, b := range backends {
		before[i] = calls(b)
	}
	var wg sync.WaitGroup
	for wr := 0; wr < writers; wr++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				Record(KindCall, backends[i%len(backends)], "f", 0, time.Now(), time.Microsecond, Attrs{N: 2})
			}
		}()
	}
	wg.Wait()
	for i, b := range backends {
		if instrumentsFor(b) != instrumentsFor(b) {
			t.Errorf("%s: two sets of instruments", b)
		}
		if got, want := calls(b)-before[i], uint64(writers*perWriter/len(backends)); got != want {
			t.Errorf("%s: %d calls folded, want %d", b, got, want)
		}
	}
}

// TestSpanRingConcurrent hammers the ring from lifecycle and request
// writers while readers snapshot it and the exemplars, asserting bounded
// memory and no torn records (run under -race in CI).
func TestSpanRingConcurrent(t *testing.T) {
	withTracing(t, true)
	const writers, perWriter = 8, 1000
	var wg sync.WaitGroup
	stop := make(chan struct{})
	// Concurrent readers: snapshots must always be internally consistent.
	// Each takes a bounded number, so copying the full ring under its lock
	// cannot starve the writers (under -race a copy takes milliseconds).
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; n < 100; n++ {
				select {
				case <-stop:
					return
				default:
				}
				_ = Exemplars()
				spans := Spans()
				if len(spans) > ringCap {
					t.Error("snapshot exceeds ring capacity")
					return
				}
				for i := 1; i < len(spans); i++ {
					if spans[i].Seq != spans[i-1].Seq+1 {
						t.Errorf("torn snapshot: seq %d follows %d", spans[i].Seq, spans[i-1].Seq)
						return
					}
				}
			}
		}()
	}
	var wrs sync.WaitGroup
	for wr := 0; wr < writers; wr++ {
		wrs.Add(3)
		go func(wr int) {
			defer wrs.Done()
			name := fmt.Sprintf("w%d", wr)
			for i := 0; i < perWriter; i++ {
				a := Begin(KindCall, "mips", name)
				a.End(uint64(wr+1), Attrs{N: int64(i)})
			}
		}(wr)
		go func() {
			defer wrs.Done()
			for i := 0; i < perWriter; i++ {
				Record(KindLookup, "", "k", 0, time.Now(), 0, Attrs{Verdict: "hit"})
			}
		}()
		go func(wr int) {
			defer wrs.Done()
			id := fmt.Sprintf("r%d", wr)
			for i := 0; i < perWriter; i++ {
				r := BeginRequest(id, id)
				r.Record(Span{Kind: KindAdmit, Attrs: Attrs{Verdict: id, Shard: int32(wr)}})
				r.Finish(0, Attrs{Verdict: "ok"})
			}
		}(wr)
	}
	wrs.Wait()
	close(stop)
	wg.Wait()
	spans := Spans()
	if len(spans) != ringCap {
		t.Fatalf("ring holds %d records after %d, want full %d", len(spans), writers*perWriter*4, ringCap)
	}
	// Every retained record must be one of the shapes written — a torn
	// write would mix fields across them.
	for _, s := range spans {
		switch s.Kind {
		case KindCall:
			if !strings.HasPrefix(s.Name, "w") || s.Backend != "mips" || s.Flow == 0 {
				t.Fatalf("torn call span: %+v", s)
			}
		case KindLookup:
			if s.Name != "k" || s.Attrs.Verdict != "hit" || s.Flow != 0 {
				t.Fatalf("torn lookup span: %+v", s)
			}
		case KindAdmit:
			if s.Verdict != s.ReqID || s.Tenant != s.ReqID || s.Shard != int32(s.ReqID[1]-'0') {
				t.Fatalf("torn admit record: %+v", s)
			}
		case KindOutcome:
			if s.ReqID[0] != 'r' || s.Verdict != "ok" || s.Name != "" {
				t.Fatalf("torn outcome record: %+v", s)
			}
		default:
			t.Fatalf("unexpected span kind %v", s.Kind)
		}
	}
}

// recordLifecycle writes one complete compile→…→evict chain for a flow.
func recordLifecycle(flow uint64, name string) {
	base := time.Now()
	at := func(off time.Duration) time.Time { return base.Add(off) }
	Record(KindCompile, "mips", name, flow, at(0), 10*time.Microsecond, Attrs{N: 8})
	Record(KindRegalloc, "mips", name, flow, at(time.Microsecond), time.Microsecond, Attrs{N: 3})
	Record(KindEmit, "mips", name, flow, at(2*time.Microsecond), 5*time.Microsecond, Attrs{Bytes: 64, N: 8})
	Record(KindVerify, "mips", name, flow, at(11*time.Microsecond), 2*time.Microsecond, Attrs{Verdict: "ok"})
	Record(KindInstall, "mips", name, flow, at(13*time.Microsecond), time.Microsecond, Attrs{Bytes: 64})
	Record(KindCall, "mips", name, flow, at(15*time.Microsecond), 20*time.Microsecond, Attrs{N: 500, Fuel: 512})
	Record(KindEvict, "mips", name, flow, at(40*time.Microsecond), time.Microsecond, Attrs{Bytes: 64})
}

func TestWriteChromeTraceParsesWithLifecycleChain(t *testing.T) {
	withTracing(t, true)
	f1, f2 := NextFlow(), NextFlow()
	recordLifecycle(f1, "alpha_fn")
	recordLifecycle(f2, "beta_fn")
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var parsed struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Ts   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			Pid  int            `json:"pid"`
			Tid  uint64         `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &parsed); err != nil {
		t.Fatalf("Chrome trace JSON does not parse: %v", err)
	}
	chain := map[string]bool{}
	for _, ev := range parsed.TraceEvents {
		if ev.Ph == "X" && ev.Tid == f1 {
			chain[ev.Name] = true
			if ev.Dur <= 0 {
				t.Fatalf("span %q has non-positive dur %v", ev.Name, ev.Dur)
			}
		}
	}
	for _, phase := range []string{"compile", "regalloc", "emit", "verify", "install", "call", "evict"} {
		if !chain[phase] {
			t.Fatalf("flow %d missing lifecycle phase %q (got %v)", f1, phase, chain)
		}
	}
	// Track metadata must name the flow after the function.
	named := false
	for _, ev := range parsed.TraceEvents {
		if ev.Ph == "M" && ev.Name == "thread_name" && ev.Tid == f1 {
			if n, _ := ev.Args["name"].(string); strings.Contains(n, "alpha_fn") {
				named = true
			}
		}
	}
	if !named {
		t.Fatal("flow track not named after its function")
	}
}

func TestWriteTimeline(t *testing.T) {
	withTracing(t, true)
	reg := telemetry.NewRegistry()
	h := reg.Histogram("codegen.mips.emit_ns", nil)
	for _, v := range []uint64{500, 1500, 3000} {
		h.Observe(v)
	}
	flow := NextFlow()
	recordLifecycle(flow, "gamma_fn")
	r := BeginRequest("r1", "acme")
	r.Record(Span{Kind: KindAdmit, Attrs: Attrs{Verdict: "ok"}})
	r.Finish(flow, Attrs{Verdict: "ok"})
	var buf bytes.Buffer
	WriteTimeline(&buf, reg)
	out := buf.String()
	for _, want := range []string{"codegen.mips.emit_ns", "gamma_fn", "compile=", "evict=", "outcome=", "verdicts=ok"} {
		if !strings.Contains(out, want) {
			t.Fatalf("timeline missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "(no flow)") {
		t.Fatalf("a request stage with no flow got a timeline line:\n%s", out)
	}
}

// TestKindJSONNames: a record's kind renders by name and parses back.
func TestKindJSONNames(t *testing.T) {
	raw, err := json.Marshal(Span{Kind: KindJournal, Attrs: Attrs{Verdict: "durable", LSN: 9}})
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	if m["kind"] != "journal" || m["verdict"] != "durable" || m["lsn"] != 9.0 {
		t.Fatalf("record marshaled as %s, want kind \"journal\" beside its attributes", raw)
	}
	var back Span
	if err := json.Unmarshal(raw, &back); err != nil || back.Kind != KindJournal || back.LSN != 9 {
		t.Fatalf("round trip = %+v, %v", back, err)
	}
	if err := json.Unmarshal([]byte(`{"kind":"request"}`), &back); err == nil {
		t.Fatal("an unknown kind name parsed")
	}
}

// TestRingMemoryBound: the one ring takes no more memory than the two it
// replaced (8,192 lifecycle spans of 128 bytes and 16,384 request events
// of 144 bytes).
func TestRingMemoryBound(t *testing.T) {
	if got, was := unsafe.Sizeof(Span{})*ringCap, uintptr(8192*128+16384*144); got > was {
		t.Fatalf("ring is %d bytes, the two rings were %d", got, was)
	}
}

func TestExemplarErroredRetention(t *testing.T) {
	withTracing(t, true)
	for i := 0; i < errCap+5; i++ {
		r := BeginRequest(fmt.Sprintf("e%d", i), "t")
		r.Record(Span{Kind: KindAdmit, Attrs: Attrs{Verdict: "ok"}})
		r.Finish(0, Attrs{Verdict: "sim_panic", Err: "boom"})
	}
	set := Exemplars()
	if len(set.Errored) != errCap {
		t.Fatalf("got %d errored exemplars, want the %d most recent", len(set.Errored), errCap)
	}
	// Oldest first: the first 5 must have aged out.
	if id := set.Errored[0][0].ReqID; id != "e5" {
		t.Fatalf("oldest retained errored exemplar is %s, want e5", id)
	}
	last := set.Errored[len(set.Errored)-1]
	if len(last) != 2 || last[1].Kind != KindOutcome || last[1].Verdict != "sim_panic" || last[1].Err != "boom" {
		t.Fatalf("exemplar %+v, want the admit record and a sim_panic outcome", last)
	}
}

// TestFullChainKeepsOutcome: a request whose chain filled up (a program
// evicted between compile and call repeats admit, journal and cache)
// still ends its exemplar with the outcome, in place of the last record.
func TestFullChainKeepsOutcome(t *testing.T) {
	withTracing(t, true)
	r := BeginRequest("full", "t")
	for i := 0; i < chainCap; i++ {
		r.Record(Span{Kind: KindCache, Attrs: Attrs{Verdict: "compiled", N: int64(i)}})
	}
	r.Finish(0, Attrs{Verdict: "internal", Err: "boom"})
	set := Exemplars()
	if len(set.Errored) != 1 {
		t.Fatalf("got %d errored exemplars, want 1", len(set.Errored))
	}
	chain := set.Errored[0]
	if len(chain) != chainCap || chain[chainCap-1].Kind != KindOutcome || chain[chainCap-2].N != chainCap-2 {
		t.Fatalf("full chain = %+v, want its first %d records and the outcome", chain, chainCap-1)
	}
}

func TestExemplarSlowestWindow(t *testing.T) {
	withTracing(t, true)
	defer func(w int64) { exWindow = w }(exWindow)
	exWindow = int64(time.Hour) // no rotation during the test
	// More ok requests than slots: only the slowest survive.  Durations
	// are faked by backdating the start time.
	for i := 0; i < slowCap*3; i++ {
		r := BeginRequest(fmt.Sprintf("s%d", i), "t")
		r.start = time.Now().Add(-time.Duration(i+1) * time.Millisecond)
		r.Record(Span{Kind: KindAdmit, Attrs: Attrs{Verdict: "ok"}})
		r.Finish(uint64(i), Attrs{Verdict: "ok"})
	}
	set := Exemplars()
	if len(set.Slowest) != slowCap {
		t.Fatalf("got %d slowest exemplars, want %d", len(set.Slowest), slowCap)
	}
	for i := 1; i < len(set.Slowest); i++ {
		if outcome(set.Slowest[i]).Dur > outcome(set.Slowest[i-1]).Dur {
			t.Fatalf("slowest set unsorted at %d", i)
		}
	}
	// The slowest request was the last one submitted (largest backdate).
	slowest := outcome(set.Slowest[0])
	if want := fmt.Sprintf("s%d", slowCap*3-1); slowest.ReqID != want {
		t.Fatalf("slowest exemplar is %s, want %s", slowest.ReqID, want)
	}
	if slowest.Flow != uint64(slowCap*3-1) {
		t.Fatalf("exemplar lost its flow")
	}
}

func TestWindowRotation(t *testing.T) {
	withTracing(t, true)
	defer func(w int64) { exWindow = w }(exWindow)
	exWindow = 1 // every Finish rotates
	for i := 0; i < 4; i++ {
		BeginRequest(fmt.Sprintf("w%d", i), "t").Finish(0, Attrs{Verdict: "ok"})
	}
	set := Exemplars()
	// Current + previous window survive; older windows are discarded.
	if len(set.Slowest) == 0 || len(set.Slowest) > 2 {
		t.Fatalf("got %d slowest exemplars across rotating windows, want 1-2", len(set.Slowest))
	}
}
