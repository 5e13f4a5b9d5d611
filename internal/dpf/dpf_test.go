package dpf

import (
	"testing"
	"testing/quick"

	"repro/internal/mem"
)

func TestFiltersMatchOwnPackets(t *testing.T) {
	w := NewWorkload(10)
	for i, f := range w.Filters {
		for j, pkt := range w.Packets {
			got := f.Match(pkt)
			want := i == j
			if got != want {
				t.Errorf("filter %d vs packet %d: match=%v, want %v", i, j, got, want)
			}
		}
	}
}

func TestEnginesAgree(t *testing.T) {
	w := NewWorkload(10)
	dpfEngine, err := NewDPF(mem.DEC5000)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range []Engine{NewMPF(), NewPathfinder(), dpfEngine} {
		if err := e.Install(w.Filters); err != nil {
			t.Fatalf("%s: install: %v", e.Name(), err)
		}
		if err := Verify(e, w); err != nil {
			t.Error(err)
		}
	}
}

// TestEnginesAgreeQuick fuzzes random port pairs through all three
// engines and checks they classify identically.
func TestEnginesAgreeQuick(t *testing.T) {
	w := NewWorkload(10)
	dpfEngine, err := NewDPF(mem.DEC5000)
	if err != nil {
		t.Fatal(err)
	}
	engines := []Engine{NewMPF(), NewPathfinder(), dpfEngine}
	for _, e := range engines {
		if err := e.Install(w.Filters); err != nil {
			t.Fatalf("%s: install: %v", e.Name(), err)
		}
	}
	ref := func(pkt []byte) int {
		for _, f := range w.Filters {
			if f.Match(pkt) {
				return f.ID
			}
		}
		return 0
	}
	f := func(sp, dp uint16, wrongIP bool) bool {
		src := uint32(0x0a000001)
		if wrongIP {
			src = 0x0b0b0b0b
		}
		pkt := MakeTCPPacket(src, 0x0a000002, sp, dp, 32)
		want := ref(pkt)
		for _, e := range engines {
			got, _, err := e.Classify(pkt)
			if err != nil || got != want {
				t.Logf("%s: got %d want %d err %v (sp=%d dp=%d wrong=%v)", e.Name(), got, want, err, sp, dp, wrongIP)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestShortPacketRejected checks the compiled classifier's length guard.
func TestShortPacketRejected(t *testing.T) {
	w := NewWorkload(4)
	d, err := NewDPF(mem.DEC5000)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Install(w.Filters); err != nil {
		t.Fatal(err)
	}
	id, _, err := d.Classify(w.Packets[0][:20])
	if err != nil {
		t.Fatal(err)
	}
	if id != 0 {
		t.Fatalf("truncated packet classified as %d, want 0", id)
	}
}

// TestDispatchStrategies exercises the three dispatch shapes: sequential
// (2 filters), binary (hash disabled), and hash.
func TestDispatchStrategies(t *testing.T) {
	for _, tc := range []struct {
		name    string
		n       int
		disable bool
	}{
		{"sequential", 2, false},
		{"binary", 10, true},
		{"hash", 10, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := NewWorkload(tc.n)
			d, err := NewDPF(mem.DEC5000)
			if err != nil {
				t.Fatal(err)
			}
			d.DisableHash = tc.disable
			if err := d.Install(w.Filters); err != nil {
				t.Fatal(err)
			}
			if err := Verify(d, w); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestDPFOnAllTargets retargets the filter compiler (the paper ran it on
// MIPS only) and checks identical classification on SPARC (big-endian:
// loads go through the byte-swap extension) and Alpha (halfword loads are
// synthesized sequences).
func TestDPFOnAllTargets(t *testing.T) {
	w := NewWorkload(10)
	for _, target := range []string{"mips", "sparc", "alpha"} {
		t.Run(target, func(t *testing.T) {
			d, err := NewDPFTarget(target, mem.Uncosted)
			if err != nil {
				t.Fatal(err)
			}
			if err := d.Install(w.Filters); err != nil {
				t.Fatal(err)
			}
			if err := Verify(d, w); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestScalingShape checks how cost grows with filter count: MPF is
// linear, DPF is flat once hash dispatch engages.
func TestScalingShape(t *testing.T) {
	pts, err := RunScaling([]int{5, 10, 40}, 100)
	if err != nil {
		t.Fatal(err)
	}
	first, last := pts[0], pts[len(pts)-1]
	if growth := last.Micros["MPF"] / first.Micros["MPF"]; growth < 4 {
		t.Errorf("MPF should grow ~linearly with filters: 5->40 grew only %.1fx", growth)
	}
	if growth := last.Micros["DPF"] / first.Micros["DPF"]; growth > 1.5 {
		t.Errorf("DPF should stay nearly flat: 5->40 grew %.1fx", growth)
	}
}

// TestTable3Shape checks the published ordering and rough magnitudes:
// DPF about an order of magnitude faster than PATHFINDER and about twice
// that again over MPF.
func TestTable3Shape(t *testing.T) {
	rows, err := RunTable3(10, 200)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]float64{}
	for _, r := range rows {
		byName[r.Engine] = r.Micros
	}
	mpf, pf, dpf := byName["MPF"], byName["PATHFINDER"], byName["DPF"]
	if !(dpf < pf && pf < mpf) {
		t.Fatalf("ordering wrong: MPF=%.2f PATHFINDER=%.2f DPF=%.2f", mpf, pf, dpf)
	}
	if pf/dpf < 4 {
		t.Errorf("DPF should be several times faster than PATHFINDER; got %.1fx", pf/dpf)
	}
	if mpf/dpf < 8 {
		t.Errorf("DPF should be roughly an order of magnitude over MPF; got %.1fx", mpf/dpf)
	}
}

// TestDPFClassifierCache checks that re-installing a previously seen
// filter set reuses its compiled classifier (no recompile), that a new
// set compiles exactly once, and that classification stays correct when
// flipping between cached sets.
func TestDPFClassifierCache(t *testing.T) {
	d, err := NewDPF(mem.DEC5000)
	if err != nil {
		t.Fatal(err)
	}
	wA := NewWorkload(10)
	wB := NewWorkload(4)

	check := func(w *Workload) {
		t.Helper()
		if err := d.Install(w.Filters); err != nil {
			t.Fatal(err)
		}
		if err := Verify(d, w); err != nil {
			t.Fatal(err)
		}
	}

	check(wA)
	if m := d.CacheMetrics(); m.Compiles != 1 {
		t.Fatalf("compiles = %d after first install, want 1", m.Compiles)
	}
	check(wA) // same spec: must be a pure cache hit
	if m := d.CacheMetrics(); m.Compiles != 1 || m.Hits == 0 {
		t.Fatalf("reinstall recompiled: %+v", m)
	}
	check(wB) // different spec: one more compile
	check(wA) // flip back: still no recompile of A
	if m := d.CacheMetrics(); m.Compiles != 2 {
		t.Fatalf("compiles = %d after A,A,B,A, want 2", m.Compiles)
	}
	// Knobs that change the generated code must change the key.
	d.DisableHash = true
	check(wA)
	if m := d.CacheMetrics(); m.Compiles != 3 {
		t.Fatalf("compiles = %d after knob change, want 3", m.Compiles)
	}
}

// TestEvictedClassifierReturnsItsTables cycles 24 filter sets through the
// default 8-entry cache, eight times over: a classifier is one unit with its
// hash dispatch tables, so evicting it returns them with its code.  The same
// eight classifiers are resident at the end of every pass, and the heap in
// use there is the same every time; the machine never holds a function the
// cache does not.
func TestEvictedClassifierReturnsItsTables(t *testing.T) {
	d, err := NewDPF(mem.DEC5000)
	if err != nil {
		t.Fatal(err)
	}
	const sets = 24
	var heapAfterFirst uint64
	for pass := 0; pass < 8; pass++ {
		for round := 0; round < sets; round++ {
			w := NewWorkload(7 + round%sets)
			if err := d.Install(w.Filters); err != nil {
				t.Fatal(err)
			}
			if err := Verify(d, w); err != nil {
				t.Fatal(err)
			}
		}
		st, m := d.Machine().ArenaStats(), d.CacheMetrics()
		if pass == 0 {
			heapAfterFirst = st.HeapBytesUsed
		}
		if st.HeapBytesUsed != heapAfterFirst || int64(st.Funcs) != m.Entries {
			t.Fatalf("pass %d: %d heap bytes in use (%d after the first pass), %d functions for %d cache entries",
				pass, st.HeapBytesUsed, heapAfterFirst, st.Funcs, m.Entries)
		}
	}
	if m := d.CacheMetrics(); m.Evictions != 8*sets-8 {
		t.Errorf("evictions = %d, want %d: every install past the first eight evicts", m.Evictions, 8*sets-8)
	}
}
