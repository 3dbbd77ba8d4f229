package qdisc

import (
	"testing"
)

// fuzzReader consumes a fuzz input as a stream of small integers.
type fuzzReader struct {
	data []byte
	pos  int
}

func (r *fuzzReader) done() bool { return r.pos >= len(r.data) }

func (r *fuzzReader) byte() byte {
	if r.done() {
		return 0
	}
	b := r.data[r.pos]
	r.pos++
	return b
}

// int31 returns a non-negative int derived from up to 4 bytes.
func (r *fuzzReader) int31() int {
	v := 0
	for i := 0; i < 4; i++ {
		v = v<<8 | int(r.byte())
	}
	if v < 0 {
		v = -v
	}
	return v
}

// key returns a classification key: mostly small non-negative ints, but
// also AnyValue and larger/negative values to stress wildcard handling.
func (r *fuzzReader) key() int {
	switch b := r.byte(); {
	case b < 32:
		return AnyValue
	case b < 64:
		return -int(b) // negative non-wildcard keys must not confuse matching
	default:
		return int(b) % 50
	}
}

// FuzzClassifier interprets the input as a program of filter-chain
// mutations (add with arbitrary source-port keys, clear) interleaved
// with classifications, and checks the chain's contract: Classify
// never panics, is deterministic, and only ever returns the default
// class or an installed filter's target.
func FuzzClassifier(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x80, 5, 200, 2, 0x40, 1, 0x90, 9})
	f.Add([]byte{
		1, 100, 100, 3, // add a filter
		1, 10, 10, 4, // and another
		2, 200, // classify
		3,    // clear
		2, 0, // classify again
	})
	f.Fuzz(func(t *testing.T, data []byte) {
		r := &fuzzReader{data: data}
		cl := NewClassifier(ClassID(r.byte() % 8))
		for !r.done() {
			switch r.byte() % 4 {
			case 0, 1: // add a filter
				cl.Add(Filter{
					Pref:   int(r.byte() % 10),
					Match:  Match{SrcPort: r.key()},
					Target: ClassID(r.byte() % 10),
				})
			case 2: // classify an arbitrary chunk
				c := &Chunk{SrcPort: r.key()}
				got := cl.Classify(c)
				if got2 := cl.Classify(c); got2 != got {
					t.Fatalf("classification not deterministic: %d then %d", got, got2)
				}
				if got != cl.Default() {
					found := false
					for _, fl := range cl.Filters() {
						if fl.Target == got {
							found = true
							break
						}
					}
					if !found {
						t.Fatalf("classified to %d, which no filter targets (default %d)",
							got, cl.Default())
					}
				}
			case 3:
				cl.Clear()
				if cl.Len() != 0 {
					t.Fatal("Clear left filters behind")
				}
			}
		}
		// The filter chain must be in (Pref, insertion) order.
		fs := cl.Filters()
		for i := 1; i < len(fs); i++ {
			if fs[i].Pref < fs[i-1].Pref {
				t.Fatalf("filter chain out of Pref order at %d", i)
			}
		}
	})
}

// checkHTBAccounting asserts the counters' conservation law: everything
// enqueued is either dequeued, dropped, or still queued.
func checkHTBAccounting(t *testing.T, h *HTB) {
	t.Helper()
	s := h.Stats()
	if got, want := h.BacklogBytes(), s.Backlog(); got != want {
		t.Fatalf("backlog accounting: queues hold %d bytes, stats imply %d", got, want)
	}
	if s.DequeuedBytes+s.DroppedBytes > s.EnqueuedBytes {
		t.Fatalf("conservation violated: out %d + dropped %d > in %d",
			s.DequeuedBytes, s.DroppedBytes, s.EnqueuedBytes)
	}
	if h.Len() < 0 || h.BacklogBytes() < 0 {
		t.Fatalf("negative backlog: len %d, bytes %d", h.Len(), h.BacklogBytes())
	}
}

// checkHTBClassOrder asserts the class list stays strictly ascending
// and that Len agrees with the direct queue plus every class's queue, so
// a stale class slice after AddClass shows immediately.
func checkHTBClassOrder(t *testing.T, h *HTB) {
	t.Helper()
	ids := h.Classes()
	n := h.direct.len()
	for i, id := range ids {
		if i > 0 && ids[i-1] >= id {
			t.Fatalf("Classes() not strictly ascending: %v", ids)
		}
		n += h.Class(id).Len()
	}
	if got := h.Len(); got != n {
		t.Fatalf("Len() = %d, but direct + per-class queues hold %d", got, n)
	}
}

// FuzzHTBDequeue interprets the input as a program of class additions,
// arbitrary-key enqueues and time-advancing dequeues against an HTB,
// checking it never panics and the drop/backlog accounting stays
// consistent and the class list ordered throughout.
func FuzzHTBDequeue(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 0, 0, 2, 50, 10, 3, 5, 2, 60, 20, 3, 9})
	f.Add([]byte{
		0, 1, 10, 1, // add class 1
		0, 2, 20, 0, // add class 2
		1, 30, 8, // enqueue
		1, 40, 8,
		2, 10, // dequeue
		3, // dequeue at ReadyAt
		2, 200,
		1, 99, 4,
		4, 255, // drain
	})
	f.Fuzz(func(t *testing.T, data []byte) {
		r := &fuzzReader{data: data}
		h := NewHTB(1+float64(r.int31()%1_000_000), ClassID(r.byte()%6))
		now := 0.0
		flow := uint64(0)
		for !r.done() {
			switch r.byte() % 5 {
			case 0: // add a class (invalid configs must error, not panic)
				id := ClassID(r.byte() % 6)
				rate := float64(r.int31()%2_000_000) - 500_000 // may be <= 0
				ceil := float64(r.int31() % 2_000_000)
				_ = h.AddClass(id, HTBClassConfig{
					Rate: rate,
					Ceil: ceil,
					Prio: int(r.byte()%4) - 1,
				})
			case 1: // enqueue a chunk with an arbitrary classification key
				flow++
				h.Enqueue(&Chunk{
					FlowID:  flow,
					SrcPort: r.key(),
					Bytes:   1 + int64(r.int31()%htbBurst),
				}, now)
			case 2: // advance time and dequeue
				now += float64(r.byte()) * 0.01
				before := h.BacklogBytes()
				if ch := h.Dequeue(now); ch != nil {
					if got := h.BacklogBytes(); got != before-ch.Bytes {
						t.Fatalf("dequeue of %d bytes moved backlog %d -> %d",
							ch.Bytes, before, got)
					}
				}
			case 3: // ReadyAt must never promise a time a Dequeue refuses
				at := h.ReadyAt(now)
				if h.Len() > 0 && at >= Never {
					t.Fatalf("backlogged htb (%d chunks) reports ReadyAt=Never", h.Len())
				}
				if at < Never && at >= now {
					if ch := h.Dequeue(at); ch == nil && h.Len() > 0 {
						t.Fatalf("Dequeue(%g) failed after ReadyAt promised it", at)
					}
					now = at
				}
			case 4: // drain a little
				now += 1 + float64(r.byte())
				for i := 0; i < 4; i++ {
					if h.Dequeue(now) == nil {
						break
					}
				}
			}
			checkHTBAccounting(t, h)
			checkHTBClassOrder(t, h)
		}
	})
}
