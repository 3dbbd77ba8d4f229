package qdisc

import "testing"

func newTestPrio(bands int) *Prio {
	p := NewPrio(bands)
	for b := 0; b < bands; b++ {
		p.Classifier().Add(Filter{Pref: b, Match: MatchSrcPort(5000 + b), Target: ClassID(b)})
	}
	return p
}

func TestPrioStrictOrdering(t *testing.T) {
	p := newTestPrio(3)
	// Enqueue low priority first, then high.
	p.Enqueue(mkChunk(1, 5002, 10), 0) // band 2
	p.Enqueue(mkChunk(2, 5001, 10), 0) // band 1
	p.Enqueue(mkChunk(3, 5000, 10), 0) // band 0
	want := []uint64{3, 2, 1}
	for i, w := range want {
		c := p.Dequeue(1)
		if c == nil || c.FlowID != w {
			t.Fatalf("dequeue %d: got %+v, want flow %d", i, c, w)
		}
	}
}

func TestPrioHighBandPreempts(t *testing.T) {
	p := newTestPrio(2)
	p.Enqueue(mkChunk(1, 5001, 10), 0)
	p.Enqueue(mkChunk(2, 5001, 10), 0)
	if c := p.Dequeue(0); c.FlowID != 1 {
		t.Fatal("band1 head")
	}
	// A band-0 chunk arriving later jumps ahead of remaining band 1.
	p.Enqueue(mkChunk(3, 5000, 10), 0)
	if c := p.Dequeue(0); c.FlowID != 3 {
		t.Fatal("band 0 did not preempt band 1")
	}
	if c := p.Dequeue(0); c.FlowID != 2 {
		t.Fatal("band 1 remainder lost")
	}
}

func TestPrioUnmatchedGoesToLastBand(t *testing.T) {
	p := newTestPrio(3)
	p.Enqueue(mkChunk(1, 7777, 10), 0) // no filter matches
	if p.Band(2).Len() != 1 {
		t.Fatal("unmatched chunk not in last band")
	}
}

func TestPrioOutOfRangeTargetClamps(t *testing.T) {
	p := NewPrio(2)
	p.Classifier().Add(Filter{Pref: 0, Match: MatchSrcPort(5000), Target: 17})
	p.Enqueue(mkChunk(1, 5000, 10), 0)
	if p.Band(1).Len() != 1 {
		t.Fatal("out-of-range target must clamp to last band, not drop")
	}
}

func TestPrioFIFOWithinBand(t *testing.T) {
	p := newTestPrio(2)
	for i := 0; i < 5; i++ {
		p.Enqueue(mkChunk(uint64(i), 5000, 10), 0)
	}
	for i := 0; i < 5; i++ {
		if c := p.Dequeue(0); c.FlowID != uint64(i) {
			t.Fatalf("within-band order broken at %d", i)
		}
	}
}

func TestPrioReadyAtLenBacklog(t *testing.T) {
	p := newTestPrio(3)
	if p.ReadyAt(1) != Never {
		t.Fatal("empty prio should be Never")
	}
	p.Enqueue(mkChunk(1, 5001, 30), 2)
	p.Enqueue(mkChunk(2, 5002, 20), 2)
	if p.ReadyAt(3) != 3 {
		t.Fatal("non-empty prio must be ready")
	}
	if p.Len() != 2 || p.BacklogBytes() != 50 {
		t.Fatalf("len %d backlog %d", p.Len(), p.BacklogBytes())
	}
	if p.Kind() != "prio" || p.Bands() != 3 {
		t.Fatal("accessors")
	}
	st := p.Stats()
	if st.EnqueuedPackets != 2 {
		t.Fatalf("stats %+v", st)
	}
}

func TestPrioPanicsOnZeroBands(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewPrio(0) did not panic")
		}
	}()
	NewPrio(0)
}

// Work conservation: as long as any band holds chunks, Dequeue returns
// one — a prio qdisc never idles the link.
func TestPrioWorkConserving(t *testing.T) {
	p := newTestPrio(4)
	total := 0
	for b := 0; b < 4; b++ {
		for i := 0; i < 3; i++ {
			p.Enqueue(mkChunk(uint64(b*10+i), 5000+b, 10), 0)
			total++
		}
	}
	for i := 0; i < total; i++ {
		if p.Dequeue(0) == nil {
			t.Fatalf("prio idled with %d chunks queued", p.Len())
		}
	}
	if p.Len() != 0 {
		t.Fatal("leftover chunks")
	}
}
