package main

import "testing"

func TestSelfTimeNestedAndOverlapping(t *testing.T) {
	spans := []span{
		{Name: "root", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 40, Parent: 0},
		{Name: "a.inner", Start: 20, End: 30, Parent: 1},
		{Name: "b", Start: 30, End: 60, Parent: 0},     // overlaps a on [30,40]
		{Name: "late", Start: 90, End: 120, Parent: 0}, // runs past its parent
		{Name: "lone", Start: 200, End: 250, Parent: -1},
	}
	want := []int64{
		100 - (50 + 10), // children cover [10,60] ∪ [90,100]
		30 - 10,
		10,
		30,
		30,
		50,
	}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("%s: self time %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
}

func TestSelfMallocsSubtractsDirectChildren(t *testing.T) {
	spans := []span{
		{Name: "root", Parent: -1, Mallocs: 10},
		{Name: "kid", Parent: 0, Mallocs: 6},
		{Name: "grandkid", Parent: 1, Mallocs: 4},
	}
	got := selfMallocs(spans)
	for i, want := range []int64{4, 2, 4} {
		if got[i] != want {
			t.Errorf("%s: %d self allocations, want %d", spans[i].Name, got[i], want)
		}
	}
}

func TestTracerNestsAndNilIsSilent(t *testing.T) {
	var off *tracer
	off.end(off.begin("x", "")) // must not panic
	tr := newTracer(false)
	outer := tr.begin("outer", "op")
	inner := tr.beginN("inner", "op", 5)
	tr.end(inner)
	tr.end(outer)
	sibling := tr.begin("sibling", "")
	tr.end(sibling)
	if tr.spans[inner].Parent != outer || tr.spans[outer].Parent != -1 || tr.spans[sibling].Parent != -1 {
		t.Errorf("parents: %+v", tr.spans)
	}
	st := layerStats(tr.spans)
	if st["inner"].calls != 5 {
		t.Errorf("batch span counted %d calls, want 5", st["inner"].calls)
	}
}
