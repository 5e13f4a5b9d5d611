package flightrec

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/trace"
)

// The bench measures request recording by this package's switch, so the
// forwards must switch and clear the one recorder.

func TestDisabledZeroAlloc(t *testing.T) {
	SetEnabled(false)
	if n := testing.AllocsPerRun(1000, func() {
		r := trace.BeginRequest("r1", "acme")
		r.Record(trace.Span{Kind: trace.KindAdmit, Attrs: trace.Attrs{Verdict: "ok", Shard: 2, Priority: 5}})
		r.Finish(0, trace.Attrs{Verdict: "ok"})
	}); n != 0 {
		t.Fatalf("disabled request recording allocated %v times per request, want 0", n)
	}
}

func TestChainRecorded(t *testing.T) {
	SetEnabled(true)
	Reset()
	t.Cleanup(func() { SetEnabled(false); Reset() })
	r := trace.BeginRequest("r42", "acme")
	r.Record(trace.Span{Kind: trace.KindAdmit, Attrs: trace.Attrs{Verdict: "ok"}})
	r.Finish(7, trace.Attrs{Verdict: "ok"})
	spans := trace.Spans()
	if len(spans) != 2 || spans[0].ReqID != "r42" || spans[1].Kind != trace.KindOutcome || spans[1].Flow != 7 {
		t.Fatalf("ring after one request = %+v, want its admit and outcome records", spans)
	}
	Reset()
	if n := len(trace.Spans()); n != 0 {
		t.Fatalf("Reset left %d records", n)
	}
}

// TestRingConcurrent runs request writers under this package's switch
// while readers snapshot the ring and the exemplars: every snapshot is
// contiguous, no record is torn, and a full ring stays full without
// growing (run under -race in CI).
func TestRingConcurrent(t *testing.T) {
	SetEnabled(true)
	Reset()
	t.Cleanup(func() { SetEnabled(false); Reset() })
	const writers, perWriter = 8, 2000
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			id := fmt.Sprintf("w%d", w)
			for i := 0; i < perWriter; i++ {
				r := trace.BeginRequest(id, id)
				r.Record(trace.Span{Kind: trace.KindAdmit, Attrs: trace.Attrs{Verdict: id, Shard: int32(w), Priority: int8(w)}})
				r.Finish(0, trace.Attrs{Verdict: "ok"})
			}
		}(w)
	}
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			// A bounded number of snapshots, so copying the ring under its
			// lock cannot starve the writers.
			for n := 0; n < 100; n++ {
				select {
				case <-stop:
					return
				default:
				}
				spans := trace.Spans()
				for i := 1; i < len(spans); i++ {
					if spans[i].Seq != spans[i-1].Seq+1 {
						t.Errorf("non-contiguous seq %d after %d", spans[i].Seq, spans[i-1].Seq)
						return
					}
				}
				for _, s := range spans {
					if s.Kind == trace.KindAdmit && s.Verdict != s.ReqID {
						t.Errorf("torn record: request %q verdict %q", s.ReqID, s.Verdict)
						return
					}
				}
				_ = trace.Exemplars()
			}
		}()
	}
	wg.Wait()
	close(stop)
	readers.Wait()
	full := len(trace.Spans())
	if full == 0 || full >= writers*perWriter*2 {
		t.Fatalf("ring holds %d records after %d, want a bounded, non-empty window", full, writers*perWriter*2)
	}
	r := trace.BeginRequest("last", "t")
	r.Finish(0, trace.Attrs{Verdict: "ok"})
	if n := len(trace.Spans()); n != full {
		t.Fatalf("full ring went from %d to %d records after one more request", full, n)
	}
}
