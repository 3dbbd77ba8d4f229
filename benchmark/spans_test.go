package main

import (
	"testing"

	"repro/internal/trace"
)

func TestSelfTimeMergesOverlappingChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "run", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "b", Start: 20, End: 50}, // overlaps a
		{ID: 4, Parent: 1, Name: "c", Start: 60, End: 70},
		{ID: 5, Parent: 1, Name: "d", Start: 90, End: 120}, // runs past its parent
		{ID: 6, Parent: 2, Name: "a.inner", Start: 12, End: 18},
		{ID: 7, Parent: 1, Name: "empty", Start: 75, End: 75},
	}
	self := selfTimes(spans)
	// run: 100 minus its children's union, [10,50] + [60,70] + [90,100].
	want := []int64{40, 14, 30, 10, 30, 6, 0}
	for i, w := range want {
		if self[i] != w {
			t.Errorf("self(%s) = %d, want %d", spans[i].Name, self[i], w)
		}
	}
}

func TestSummarizeAggregatesByName(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "trial", Start: 0, End: 10},
		{ID: 2, Parent: 1, Name: "step", Start: 0, End: 4},
		{ID: 3, Parent: 1, Name: "step", Start: 5, End: 8},
	}
	got := summarize(spans)
	if len(got) != 2 || got[0].Name != "trial" || got[1].Name != "step" {
		t.Fatalf("summarize order = %+v", got)
	}
	if got[0].SelfNs != 3 || got[1].Count != 2 || got[1].TotalNs != 7 || got[1].SelfNs != 7 {
		t.Errorf("summarize = %+v", got)
	}
}

func TestSpanRecorderNests(t *testing.T) {
	r := newSpanRecorder()
	outer := r.begin(7, 0, "outer")
	r.wrap(7, outer, "inner", func() {})
	r.end(outer)
	s := r.snapshot()
	if len(s) != 2 || s[1].Parent != s[0].ID || s[1].Trace != 7 {
		t.Fatalf("spans = %+v", s)
	}
	if s[1].Start < s[0].Start || s[1].End > s[0].End {
		t.Errorf("inner span %+v not inside outer %+v", s[1], s[0])
	}
}

func TestCSVKindCounterAcrossWrites(t *testing.T) {
	c := &csvKindCounter{counts: kindCounts{}}
	input := "at,kind,job,host,worker,value,detail\n" +
		"0.1,job_start,0,0,0,0,\n" +
		"# partial trace\n" +
		"0.2,barrier_release,0,0,0,1,x;y\n" +
		"0.3,barrier_release,1,0,0,1,\n"
	for i := 0; i < len(input); i += 7 { // split lines across writes
		end := min(i+7, len(input))
		if _, err := c.Write([]byte(input[i:end])); err != nil {
			t.Fatal(err)
		}
	}
	if c.counts[trace.KindJobStart] != 1 || c.counts[trace.KindBarrierRelease] != 2 || len(c.counts) != 2 {
		t.Errorf("counts = %v", c.counts)
	}
}
