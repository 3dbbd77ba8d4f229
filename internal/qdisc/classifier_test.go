package qdisc

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestMatchWildcards(t *testing.T) {
	all := MatchAll()
	c := mkChunk(1, 5000, 10)
	if !all.Matches(c) {
		t.Fatal("MatchAll must match everything")
	}
	m := MatchSrcPort(5000)
	if !m.Matches(c) {
		t.Fatal("sport match failed")
	}
	m = MatchSrcPort(5001)
	if m.Matches(c) {
		t.Fatal("sport mismatch matched")
	}
}

func TestMatchEachField(t *testing.T) {
	c := &Chunk{SrcPort: 10}
	cases := []struct {
		m    Match
		want bool
	}{
		{Match{SrcPort: 10}, true},
		{Match{SrcPort: AnyValue}, true},
		{Match{SrcPort: 11}, false},
		{Match{SrcPort: 0}, false},
	}
	for i, tc := range cases {
		if got := tc.m.Matches(c); got != tc.want {
			t.Fatalf("case %d: got %v want %v", i, got, tc.want)
		}
	}
}

func TestMatchString(t *testing.T) {
	if MatchAll().String() != "match all" {
		t.Fatalf("got %q", MatchAll().String())
	}
	s := MatchSrcPort(5000).String()
	if !strings.Contains(s, "sport 5000") {
		t.Fatalf("got %q", s)
	}
}

func TestClassifierFirstMatchWins(t *testing.T) {
	cl := NewClassifier(NoClass)
	cl.Add(Filter{Pref: 10, Match: MatchSrcPort(5000), Target: 1})
	cl.Add(Filter{Pref: 20, Match: MatchSrcPort(5000), Target: 2})
	if got := cl.Classify(mkChunk(1, 5000, 10)); got != 1 {
		t.Fatalf("classified to %d, want pref-10 target 1", got)
	}
}

func TestClassifierPrefOrdering(t *testing.T) {
	cl := NewClassifier(NoClass)
	cl.Add(Filter{Pref: 20, Match: MatchSrcPort(5000), Target: 2})
	cl.Add(Filter{Pref: 10, Match: MatchSrcPort(5000), Target: 1})
	if got := cl.Classify(mkChunk(1, 5000, 10)); got != 1 {
		t.Fatalf("lower pref must win, got target %d", got)
	}
	// Same pref: insertion order.
	cl2 := NewClassifier(NoClass)
	cl2.Add(Filter{Pref: 5, Match: MatchSrcPort(6000), Target: 7})
	cl2.Add(Filter{Pref: 5, Match: MatchSrcPort(6000), Target: 8})
	if got := cl2.Classify(mkChunk(1, 6000, 10)); got != 7 {
		t.Fatalf("insertion order tie-break failed, got %d", got)
	}
}

func TestClassifierDefault(t *testing.T) {
	cl := NewClassifier(9)
	if got := cl.Classify(mkChunk(1, 1234, 10)); got != 9 {
		t.Fatalf("default class %d, want 9", got)
	}
	if cl.Default() != 9 {
		t.Fatalf("Default() = %d, want 9", cl.Default())
	}
}

// A job can source traffic under several ports — its PS port and a
// collective all-reduce port — and the controller installs one filter
// per port targeting the job's single band. Interleaved chunks from
// both workload classes must land in that band, in any order.
func TestClassifierInterleavedPSAndCollective(t *testing.T) {
	const (
		jobABand = ClassID(0) // job A: PS port 5000 + collective port 7000
		jobBBand = ClassID(1) // job B: collective port 7100 only
		defBand  = ClassID(3)
	)
	cl := NewClassifier(defBand)
	cl.Add(Filter{Pref: 0, Match: MatchSrcPort(5000), Target: jobABand})
	cl.Add(Filter{Pref: 1, Match: MatchSrcPort(7000), Target: jobABand})
	cl.Add(Filter{Pref: 2, Match: MatchSrcPort(7100), Target: jobBBand})

	interleaved := []struct {
		sport int
		want  ClassID
	}{
		{5000, jobABand}, // PS gradient push
		{7100, jobBBand}, // ring segment, job B
		{7000, jobABand}, // ring segment, job A
		{5000, jobABand}, // PS model update
		{7000, jobABand},
		{7100, jobBBand},
		{30042, defBand}, // unmanaged worker traffic falls through
	}
	for i, tc := range interleaved {
		if got := cl.Classify(mkChunk(1, tc.sport, 10)); got != tc.want {
			t.Fatalf("chunk %d (sport %d): band %d, want %d", i, tc.sport, got, tc.want)
		}
	}
	// Job A departs: the controller clears the chain and re-adds job
	// B's filter, which must keep its band while job A's port falls
	// through to the default.
	cl.Clear()
	cl.Add(Filter{Pref: 0, Match: MatchSrcPort(7100), Target: jobBBand})
	if got := cl.Classify(mkChunk(1, 7000, 10)); got != defBand {
		t.Fatalf("departed job's collective port still classified to %d", got)
	}
	if got := cl.Classify(mkChunk(1, 7100, 10)); got != jobBBand {
		t.Fatalf("job B band lost: %d", got)
	}
}

// Property: classification is deterministic and always returns either a
// filter's target or the default.
func TestClassifierProperty(t *testing.T) {
	cl := NewClassifier(99)
	targets := map[ClassID]bool{99: true}
	for i := 0; i < 8; i++ {
		cl.Add(Filter{Pref: i % 3, Match: MatchSrcPort(5000 + i%4), Target: ClassID(i)})
		targets[ClassID(i)] = true
	}
	f := func(sport uint8) bool {
		c := mkChunk(1, 5000+int(sport%8), 10)
		got := cl.Classify(c)
		return targets[got] && got == cl.Classify(c)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
