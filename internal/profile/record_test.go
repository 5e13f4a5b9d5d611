package profile

import (
	"strings"
	"testing"
)

// fakeResolver simulates a machine address map that can lose a function
// mid-profile (eviction between the sample firing and symbolization).
type fakeResolver struct {
	names  map[uint64]string
	arena  func(uint64) bool
	misses int
}

func (r *fakeResolver) resolve(pc uint64) (string, bool) {
	if name, ok := r.names[pc]; ok {
		return name, true
	}
	r.misses++
	return "", false
}

// TestRecordEvictionRegression pins the hardened sample-attribution
// contract: samples landing in a just-evicted function keep their
// last-known name when the PC was seen before, fresh unresolvable PCs
// inside the code arena count under "[evicted]", PCs outside it under
// "[unknown]" — and the total never silently drops a sample.
func TestRecordEvictionRegression(t *testing.T) {
	r := &fakeResolver{names: map[uint64]string{0x1000: "victim"}}
	inCode := func(pc uint64) bool { return pc >= 0x1000 && pc < 0x2000 }
	p := New(1)

	p.record(r.resolve, inCode, 0x1000) // resolves: seeds the bucket
	delete(r.names, 0x1000)             // evict between samples
	p.record(r.resolve, inCode, 0x1000) // seen PC, resolve now fails
	p.record(r.resolve, inCode, 0x1004) // fresh PC inside arena, unresolvable
	p.record(r.resolve, inCode, 0x9000) // fresh PC outside arena

	if got := p.TotalSamples(); got != 4 {
		t.Fatalf("TotalSamples = %d, want 4 (no sample may be dropped)", got)
	}
	rep := p.Snapshot(10)
	byName := make(map[string]uint64)
	for _, f := range rep.Funcs {
		byName[f.Name] += f.Count
	}
	if byName["victim"] != 2 {
		t.Errorf("victim samples = %d, want 2 (last-known attribution retained)\nfuncs: %+v",
			byName["victim"], rep.Funcs)
	}
	if byName["[evicted]"] != 1 {
		t.Errorf("[evicted] samples = %d, want 1\nfuncs: %+v", byName["[evicted]"], rep.Funcs)
	}
	if byName["[unknown]"] != 1 {
		t.Errorf("[unknown] samples = %d, want 1\nfuncs: %+v", byName["[unknown]"], rep.Funcs)
	}
}

// TestRecordReuseRebinds: a PC reused by a new function after eviction
// rebinds to the new owner, whose row starts at zero, while the function
// that had the address keeps its samples in the per-function rows.
func TestRecordReuseRebinds(t *testing.T) {
	r := &fakeResolver{names: map[uint64]string{0x1000: "A"}}
	inCode := func(uint64) bool { return true }
	p := New(1)
	for i := 0; i < 10; i++ {
		p.record(r.resolve, inCode, 0x1000)
	}
	r.names[0x1000] = "B"
	p.record(r.resolve, inCode, 0x1000)
	rep := p.Snapshot(10)
	if len(rep.TopPCs) != 1 || rep.TopPCs[0].Name != "B" || rep.TopPCs[0].Count != 1 {
		t.Errorf("reused PC = %+v, want name=B count=1", rep.TopPCs)
	}
	byName := make(map[string]uint64)
	for _, f := range rep.Funcs {
		byName[f.Name] = f.Count
	}
	if byName["A"] != 10 || byName["B"] != 1 || rep.TotalSamples != 11 {
		t.Errorf("per-function samples = %v of %d, want A=10 B=1 of 11", byName, rep.TotalSamples)
	}
}

// TestEdgeRecordEviction pins the same contract for the edge profiler,
// plus the address-reuse rule: counts restart under the new owner
// instead of blending two functions' branch statistics.
func TestEdgeRecordEviction(t *testing.T) {
	r := &fakeResolver{names: map[uint64]string{0x1000: "victim"}}
	inCode := func(pc uint64) bool { return pc >= 0x1000 && pc < 0x2000 }
	e := NewEdgeProfiler(1)

	e.record(r.resolve, inCode, 0x1000, true)
	delete(r.names, 0x1000)
	e.record(r.resolve, inCode, 0x1000, false) // seen PC keeps attribution
	e.record(r.resolve, inCode, 0x1004, true)  // fresh, in arena
	e.record(r.resolve, inCode, 0x9000, false) // fresh, outside arena

	if got := e.TotalEvents(); got != 4 {
		t.Fatalf("TotalEvents = %d, want 4", got)
	}
	if taken, not, ok := e.EdgeAt(0x1000); !ok || taken != 1 || not != 1 {
		t.Errorf("EdgeAt(0x1000) = %d/%d/%v, want 1/1/true", taken, not, ok)
	}
	rep := e.Snapshot(-1)
	byName := make(map[string]uint64)
	for _, s := range rep.Edges {
		byName[s.Name] += s.Taken + s.NotTaken
	}
	if byName["victim"] != 2 || byName["[evicted]"] != 1 || byName["[unknown]"] != 1 {
		t.Errorf("edge attribution = %v, want victim=2 [evicted]=1 [unknown]=1", byName)
	}

	// Address reuse: new owner resolves at the old PC.
	r.names[0x1000] = "heir"
	e.record(r.resolve, inCode, 0x1000, true)
	if taken, not, _ := e.EdgeAt(0x1000); taken != 1 || not != 0 {
		t.Errorf("after reuse EdgeAt = %d/%d, want counts restarted at 1/0", taken, not)
	}
	out := e.Snapshot(-1).String()
	if !strings.Contains(out, "heir") {
		t.Errorf("report after reuse missing new owner:\n%s", out)
	}
}

// TestEdgeHotCountsWeighted: each recorded event feeds stride (its
// estimated true branch-resolution count) into the linked HotCounts.
func TestEdgeHotCountsWeighted(t *testing.T) {
	r := &fakeResolver{names: map[uint64]string{0x1000: "loopy"}}
	e := NewEdgeProfiler(13)
	h := NewHotCounts()
	e.SetHotCounts(h)
	for i := 0; i < 5; i++ {
		e.record(r.resolve, nil, 0x1000, i%2 == 0)
	}
	if got := h.GetByName("loopy"); got != 5*13 {
		t.Errorf("block heat = %d, want %d (5 events x stride 13)", got, 5*13)
	}
	// Unresolvable events must not pollute the heat table.
	e.record(r.resolve, func(uint64) bool { return false }, 0x2000, true)
	if got := h.GetByName("[unknown]"); got != 0 {
		t.Errorf("[unknown] heat = %d, want 0", got)
	}
}
