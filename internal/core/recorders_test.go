package core_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// recorders are the four settings of the two recording gates.
var recorders = []struct {
	name             string
	telemetry, trace bool
}{
	{"off", false, false},
	{"telemetry", true, false},
	{"trace", false, true},
	{"both", true, true},
}

// setRecorders sets both gates and returns what turns them off again and
// empties the span ring.
func setRecorders(tel, tr bool) func() {
	telemetry.SetEnabled(tel)
	trace.SetEnabled(tr)
	return func() {
		telemetry.SetEnabled(false)
		trace.SetEnabled(false)
		trace.Reset()
	}
}

// TestEachEventRecordedOnce: each of core's five lifecycle sites — emit,
// verify, install, call and evict — makes one recording call.  With trace
// on the ring holds exactly one span of the kind; with telemetry on each of
// the kind's per-backend instruments takes exactly one observation; with
// both off nothing moves.
func TestEachEventRecordedOnce(t *testing.T) {
	kinds := []struct {
		kind trace.Kind
		// hist is the kind's duration histogram and counter its event
		// count; "" where the kind has none.
		hist, counter string
	}{
		{trace.KindEmit, "codegen.mips.emit_ns", "codegen.mips.funcs"},
		{trace.KindVerify, "machine.mips.verify_ns", ""},
		{trace.KindInstall, "machine.mips.install_ns", "machine.mips.installs"},
		{trace.KindCall, "machine.mips.call_ns", "machine.mips.calls"},
		{trace.KindEvict, "", "machine.mips.uninstalls"},
	}
	observed := func(hist, counter string) (h, c uint64) {
		if hist != "" {
			h = telemetry.Default.Histogram(hist, nil).Count()
		}
		if counter != "" {
			c = telemetry.Default.Counter(counter).Load()
		}
		return h, c
	}
	for _, rc := range recorders {
		t.Run(rc.name, func(t *testing.T) {
			bk, m := newMips()
			type count struct{ h, c uint64 }
			before := make([]count, len(kinds))
			for i, k := range kinds {
				before[i].h, before[i].c = observed(k.hist, k.counter)
			}
			trace.Reset()
			off := setRecorders(rc.telemetry, rc.trace)
			fn := buildLeaf(t, bk, 1) // emit
			err := m.Install(fn)      // verify, install
			if err == nil {
				_, err = m.Call(fn, core.I(1), core.I(2))
			}
			if err == nil {
				err = m.Uninstall(fn) // evict
			}
			spans := trace.Spans()
			off()
			if err != nil {
				t.Fatal(err)
			}
			for i, k := range kinds {
				var n uint64
				for _, s := range spans {
					if s.Kind == k.kind {
						n++
					}
				}
				if want := b2u(rc.trace); n != want {
					t.Errorf("%s: %d spans, want %d", k.kind, n, want)
				}
				h, c := observed(k.hist, k.counter)
				want := b2u(rc.telemetry)
				if k.hist != "" && h-before[i].h != want {
					t.Errorf("%s: %s took %d observations, want %d", k.kind, k.hist, h-before[i].h, want)
				}
				if k.counter != "" && c-before[i].c != want {
					t.Errorf("%s: %s moved by %d, want %d", k.kind, k.counter, c-before[i].c, want)
				}
			}
		})
	}
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
