package qdisc

import (
	"testing"
	"testing/quick"
)

func mkChunk(flow uint64, sport int, bytes int64) *Chunk {
	return &Chunk{FlowID: flow, SrcPort: sport, Bytes: bytes}
}

func TestPFIFOOrder(t *testing.T) {
	p := NewPFIFO()
	for i := 0; i < 10; i++ {
		p.Enqueue(mkChunk(uint64(i), 5000, 100), float64(i))
	}
	if p.Len() != 10 {
		t.Fatalf("len %d", p.Len())
	}
	for i := 0; i < 10; i++ {
		c := p.Dequeue(20)
		if c == nil || c.FlowID != uint64(i) {
			t.Fatalf("dequeue %d returned %+v", i, c)
		}
	}
	if p.Dequeue(20) != nil {
		t.Fatal("empty dequeue returned a chunk")
	}
}

func TestPFIFOReadyAt(t *testing.T) {
	p := NewPFIFO()
	if p.ReadyAt(5) != Never {
		t.Fatal("empty queue should be Never")
	}
	p.Enqueue(mkChunk(1, 5000, 100), 5)
	if p.ReadyAt(7) != 7 {
		t.Fatal("non-empty pfifo must be ready immediately")
	}
}

func TestPFIFOStatsAndBacklog(t *testing.T) {
	p := NewPFIFO()
	p.Enqueue(mkChunk(1, 5000, 100), 1)
	p.Enqueue(mkChunk(2, 5000, 250), 1)
	if p.BacklogBytes() != 350 {
		t.Fatalf("backlog %d", p.BacklogBytes())
	}
	c := p.Dequeue(2)
	if c.EnqueuedAt() != 1 {
		t.Fatalf("enqueuedAt %v", c.EnqueuedAt())
	}
	st := p.Stats()
	if st.EnqueuedPackets != 2 || st.DequeuedPackets != 1 {
		t.Fatalf("stats %+v", st)
	}
	if st.Backlog() != 250 {
		t.Fatalf("stats backlog %d", st.Backlog())
	}
	if p.Kind() != "pfifo" {
		t.Fatal("kind")
	}
}

// TestPFIFOConservationProperty: whatever goes in comes out, in order,
// with byte totals conserved.
func TestPFIFOConservationProperty(t *testing.T) {
	f := func(sizes []uint16) bool {
		p := NewPFIFO()
		var in int64
		for i, s := range sizes {
			b := int64(s%1000) + 1
			in += b
			p.Enqueue(mkChunk(uint64(i), 5000, b), 0)
		}
		var out int64
		prev := int64(-1)
		for {
			c := p.Dequeue(1)
			if c == nil {
				break
			}
			if int64(c.FlowID) <= prev {
				return false // order violated
			}
			prev = int64(c.FlowID)
			out += c.Bytes
		}
		return in == out && p.Len() == 0 && p.BacklogBytes() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestFifoQueueCompaction(t *testing.T) {
	// Exercise the internal ring compaction by cycling many chunks
	// through a queue that stays shallow.
	p := NewPFIFO()
	for round := 0; round < 100; round++ {
		for i := 0; i < 10; i++ {
			p.Enqueue(mkChunk(uint64(round*10+i), 5000, 10), 0)
		}
		for i := 0; i < 10; i++ {
			if p.Dequeue(1) == nil {
				t.Fatal("lost a chunk during compaction")
			}
		}
	}
	if p.Len() != 0 {
		t.Fatalf("len %d after drain", p.Len())
	}
}
