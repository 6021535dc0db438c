package main

import (
	"reflect"
	"testing"
)

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "op", Start: 100, End: 200, Parent: -1},  // 0
		{Name: "a", Start: 110, End: 130, Parent: 0},    // 1: sequential child
		{Name: "b", Start: 140, End: 160, Parent: 0},    // 2: sequential child
		{Name: "b1", Start: 145, End: 150, Parent: 2},   // 3: grandchild, not the root's business
		{Name: "op2", Start: 300, End: 400, Parent: -1}, // 4
		{Name: "p", Start: 310, End: 350, Parent: 4},    // 5: overlaps q
		{Name: "q", Start: 330, End: 370, Parent: 4},    // 6
		{Name: "r", Start: 390, End: 450, Parent: 4},    // 7: runs past its parent
		{Name: "leaf", Start: 0, End: 7, Parent: -1},    // 8: no children
	}
	want := []int64{
		100 - 20 - 20,
		20,
		20 - 5,
		5,
		100 - 60 - 10, // p∪q covers 310..370, r is clipped to 390..400
		40,
		40,
		60,
		7,
	}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

// For children that follow one another inside their parent — all the
// in-process workloads record — self time plus the children's durations
// is the parent's span exactly.
func TestSelfPlusChildrenIsSpan(t *testing.T) {
	tr := newTracer(4)
	tr.on.Store(true)
	tr.begin(opSubset, 1)
	for i := 0; i < 50; i++ {
		s := tr.now()
		tr.child("pagestore.read", s, tr.now())
	}
	tr.end()
	self := selfTimes(tr.spans)
	var children int64
	for _, s := range tr.spans[1:] {
		children += s.End - s.Start
	}
	root := tr.spans[0]
	if self[0]+children != root.End-root.Start {
		t.Errorf("self %d + children %d ≠ span %d", self[0], children, root.End-root.Start)
	}
	a := tr.agg[opSubset]
	if a.ops != 1 || a.spanNS != root.End-root.Start || a.children["pagestore.read"].ns != children || a.children["pagestore.read"].count != 50 {
		t.Errorf("aggregates %+v disagree with the raw spans", a)
	}
}

func TestTracerKeepsOnlyFirstOps(t *testing.T) {
	tr := newTracer(2)
	for i := 0; i < 5; i++ {
		tr.begin(opSuperset, int64(i))
		tr.child("x", tr.now(), tr.now())
		tr.end()
	}
	if len(tr.spans) != 4 {
		t.Errorf("kept %d spans, want 4 (two operations, one child each)", len(tr.spans))
	}
	if tr.agg[opSuperset].ops != 5 || tr.agg[opSuperset].children["x"].count != 5 {
		t.Errorf("aggregates must cover every operation: %+v", tr.agg[opSuperset])
	}
}
