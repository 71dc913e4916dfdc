package main

import "testing"

func TestSelfTimeArithmetic(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		// Two real children overlapping in [30, 40]: the union covers 50.
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 60},
		// A real child that runs past the parent is clipped to it: 10.
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120},
		// A replay child lies outside the interval; its duration counts.
		{ID: 5, Parent: 1, Name: "r", Start: 200, End: 215, Replay: true},
		// Grandchildren subtract from their own parent only.
		{ID: 6, Parent: 2, Name: "aa", Start: 12, End: 20},
		{ID: 7, Parent: 5, Name: "rr", Start: 300, End: 304, Replay: true},
	}
	self := selfTimes(spans)
	want := map[int]int64{
		1: 100 - 50 - 10 - 15,
		2: 30 - 8,
		3: 30,
		4: 30,
		5: 15 - 4,
		6: 8,
		7: 4,
	}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self[%d] = %d, want %d", id, self[id], w)
		}
	}
}

func TestTracerRecordsNestingAndCounts(t *testing.T) {
	tr := newTracer()
	op := tr.newOp()
	root := tr.begin(op, 0, "root", false)
	kid := tr.begin(op, root, "kid", true)
	tr.end(kid, 7, 9)
	tr.end(root, 1, 0)
	if len(tr.spans) != 2 {
		t.Fatalf("%d spans, want 2", len(tr.spans))
	}
	k := tr.spans[kid-1]
	if k.Parent != root || k.Op != op || !k.Replay || k.Rows != 7 || k.Bytes != 9 || k.End < k.Start {
		t.Errorf("child span recorded as %+v", k)
	}
	agg := aggregate(tr.spans, "kid")
	if agg.calls != 1 || agg.rows != 7 || agg.bytes != 9 || len(agg.perOpMs) != 1 {
		t.Errorf("aggregate = %+v", agg)
	}

	var off *tracer // the untraced loop
	if id := off.begin(off.newOp(), 0, "x", false); id != 0 {
		t.Errorf("nil tracer returned span %d", id)
	}
	off.end(0, 1, 1)
}
