package main

import "testing"

func TestSelfTimeNestedAndOverlappingChildren(t *testing.T) {
	spans := []span{
		{name: "root", start: 0, end: 100, parent: -1},         // 0
		{name: "a", start: 10, end: 40, parent: 0},             // 1: nested, has its own child
		{name: "a.inner", start: 15, end: 25, parent: 1},       // 2
		{name: "b", start: 30, end: 60, parent: 0},             // 3: overlaps a by 10
		{name: "c", start: 90, end: 130, parent: 0},            // 4: sticks out past the root
		{name: "late", start: 50, end: 55, parent: 0},          // 5: inside b's interval, listed out of order
		{name: "other root", start: 200, end: 260, parent: -1}, // 6
	}
	self := selfTimes(spans)
	want := []int64{
		100 - (50 + 10), // root: a∪b covers 10..60, c covers 90..100; late adds nothing
		30 - 10,         // a minus a.inner
		10,
		30,
		40,
		5,
		60,
	}
	for i := range want {
		if self[i] != want[i] {
			t.Errorf("self[%d] (%s) = %d, want %d", i, spans[i].name, self[i], want[i])
		}
	}
}

func TestTracerSlicesAndShares(t *testing.T) {
	tr := newTracer(3)
	root := tr.begin("op", layerBench, noSpan, 7, 1)
	child := tr.begin("core.Begin", layerCore, root, 0, 1)
	tr.end(child)
	tr.end(root)
	stale := tr.begin("unfinished", layerExec, noSpan, 0, 2)
	agg := tr.endSlice()
	if agg["op"].count != 1 || agg["core.Begin"].count != 1 || agg["unfinished"].count != 1 {
		t.Fatalf("aggregate counts wrong: %+v", agg)
	}
	if agg["op"].self != agg["op"].total-agg["core.Begin"].total {
		t.Errorf("root self %d, want total %d minus child %d", agg["op"].self, agg["op"].total, agg["core.Begin"].total)
	}
	if got := tr.kept[1].tid; got != 7 {
		t.Errorf("child lane = %d, want its root's lane 7", got)
	}
	// An end() that arrives after its slice closed must not touch the next
	// slice's buffer.
	next := tr.begin("next", layerCore, noSpan, 0, 3)
	tr.end(stale)
	if tr.spans[next.idx].end != 0 {
		t.Errorf("stale end() closed a span of the next slice")
	}
	tr.end(next)
	tr.endSlice()
	if len(tr.kept) != 3 {
		t.Errorf("kept %d spans, want the cap 3", len(tr.kept))
	}

	shares := layerShares([]map[string]*spanAgg{{
		"a": {layer: layerCore, self: 30},
		"b": {layer: layerExec, self: 10},
	}, {
		"a": {layer: layerCore, self: 50},
		"c": {layer: layerBench, self: 10},
	}})
	if shares[layerCore] != 0.8 || shares[layerExec] != 0.1 || shares[layerBench] != 0.1 {
		t.Errorf("shares = %v", shares)
	}

	// A nil tracer is the untraced pass.
	var off *tracer
	id := off.begin("x", layerCore, noSpan, 0, 0)
	off.end(id)
	off.record("y", layerExec, id, 5, 0)
	if off.endSlice() != nil {
		t.Errorf("nil tracer produced aggregates")
	}
}

func TestRecordedSpanHangsUnderItsParent(t *testing.T) {
	tr := newTracer(10)
	h := tr.begin("server.handler", layerServer, noSpan, 0, 0)
	tr.end(h)
	dur := tr.spans[h.idx].end - tr.spans[h.idx].start
	tr.record("server.exec_wall", layerExec, h, dur+1000, 0) // longer than the parent: clipped
	rec := tr.spans[len(tr.spans)-1]
	if rec.parent != h.idx || rec.start != tr.spans[h.idx].start || rec.end != tr.spans[h.idx].end {
		t.Errorf("recorded span %+v not clipped to parent %+v", rec, tr.spans[h.idx])
	}
}
