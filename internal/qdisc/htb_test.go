package qdisc

import (
	"testing"
	"testing/quick"
)

const linkRate = 1.25e9 // 10 Gbps in bytes/sec

// newTLsHTB builds the TensorLights-style tree: tiny guaranteed rates,
// full-link ceils, one class per band.
func newTLsHTB(bands int) *HTB {
	h := NewHTB(linkRate, ClassID(bands-1))
	for b := 0; b < bands; b++ {
		if err := h.AddClass(ClassID(b), HTBClassConfig{
			Rate: 125_000, Ceil: linkRate, Prio: b,
		}); err != nil {
			panic(err)
		}
		h.Classifier().Add(Filter{Pref: b, Match: MatchSrcPort(5000 + b), Target: ClassID(b)})
	}
	return h
}

// drainAll services the htb like a line-rate device, returning chunks in
// transmission order.
func drainAll(h *HTB, start float64) []*Chunk {
	var out []*Chunk
	now := start
	for h.Len() > 0 {
		c := h.Dequeue(now)
		if c == nil {
			at := h.ReadyAt(now)
			if at >= Never {
				break
			}
			now = at
			continue
		}
		out = append(out, c)
		now += float64(c.Bytes) / linkRate
	}
	return out
}

func TestHTBPriorityBorrowOrder(t *testing.T) {
	h := newTLsHTB(3)
	// Fill low-priority band first, then high: high must transmit first
	// once its own chunks arrive (after the tiny green burst is spent).
	for i := 0; i < 8; i++ {
		h.Enqueue(mkChunk(uint64(100+i), 5002, 256<<10), 0)
	}
	for i := 0; i < 8; i++ {
		h.Enqueue(mkChunk(uint64(i), 5000, 256<<10), 0)
	}
	got := drainAll(h, 0)
	if len(got) != 16 {
		t.Fatalf("drained %d of 16", len(got))
	}
	// Count how many band-0 chunks appear in the first 8 slots.
	band0First := 0
	lastBand0 := -1
	for i, c := range got {
		if c.SrcPort == 5000 {
			if i < 8 {
				band0First++
			}
			lastBand0 = i
		}
	}
	// The low band's guaranteed (green) burst legitimately leaks a few
	// chunks — that is htb's rate guarantee — but the high band must
	// dominate the head of the schedule and fully finish well before
	// the low band's tail.
	if band0First < 5 {
		t.Fatalf("only %d of first 8 transmissions were high priority", band0First)
	}
	if lastBand0 > 11 {
		t.Fatalf("high band finished at position %d of 16", lastBand0)
	}
}

func TestHTBWorkConserving(t *testing.T) {
	h := newTLsHTB(6)
	total := int64(0)
	for b := 0; b < 6; b++ {
		for i := 0; i < 4; i++ {
			h.Enqueue(mkChunk(uint64(b*10+i), 5000+b, 256<<10), 0)
			total += 256 << 10
		}
	}
	got := drainAll(h, 0)
	var bytes int64
	for _, c := range got {
		bytes += c.Bytes
	}
	if bytes != total {
		t.Fatalf("transmitted %d of %d bytes", bytes, total)
	}
}

func TestHTBGreenRateConformance(t *testing.T) {
	// A single class with rate R and ceil R (no borrowing headroom
	// beyond its bucket) must average ~R bytes/sec over a long drain.
	h := NewHTB(linkRate, 0)
	rate := 10e6 // 10 MB/s
	if err := h.AddClass(0, HTBClassConfig{Rate: rate, Ceil: rate}); err != nil {
		t.Fatal(err)
	}
	n := 40
	for i := 0; i < n; i++ {
		h.Enqueue(mkChunk(uint64(i), 5000, 256<<10), 0)
	}
	now := 0.0
	for h.Len() > 0 {
		c := h.Dequeue(now)
		if c == nil {
			now = h.ReadyAt(now)
			continue
		}
	}
	totalBytes := float64(n * (256 << 10))
	// now is when the last chunk became eligible; effective rate must be
	// within 20% of configured (bursts allow some slack).
	eff := totalBytes / now
	if eff < 0.8*rate || eff > 1.5*rate {
		t.Fatalf("effective rate %.0f, configured %.0f", eff, rate)
	}
}

func TestHTBCeilCapsBorrowing(t *testing.T) {
	// Class with ceil = rate = 10MB/s must not exceed it even when the
	// root has spare capacity.
	h := NewHTB(linkRate, 0)
	if err := h.AddClass(0, HTBClassConfig{Rate: 5e6, Ceil: 10e6}); err != nil {
		t.Fatal(err)
	}
	n := 40
	for i := 0; i < n; i++ {
		h.Enqueue(mkChunk(uint64(i), 5000, 256<<10), 0)
	}
	now := 0.0
	for h.Len() > 0 {
		c := h.Dequeue(now)
		if c == nil {
			now = h.ReadyAt(now)
			continue
		}
	}
	eff := float64(n*(256<<10)) / now
	if eff > 1.5*10e6 {
		t.Fatalf("class exceeded ceil: %.0f bytes/sec", eff)
	}
}

func TestHTBDRRQuantumSharing(t *testing.T) {
	// Two same-priority classes share the one DRR quantum, so they
	// split service evenly while both are backlogged.
	h := NewHTB(linkRate, 0)
	_ = h.AddClass(0, HTBClassConfig{Rate: 125_000, Ceil: linkRate, Prio: 0})
	_ = h.AddClass(1, HTBClassConfig{Rate: 125_000, Ceil: linkRate, Prio: 0})
	h.Classifier().Add(Filter{Pref: 0, Match: MatchSrcPort(5000), Target: 0})
	h.Classifier().Add(Filter{Pref: 1, Match: MatchSrcPort(5001), Target: 1})
	for i := 0; i < 40; i++ {
		h.Enqueue(mkChunk(uint64(i), 5000, 256<<10), 0)
		h.Enqueue(mkChunk(uint64(100+i), 5001, 256<<10), 0)
	}
	got := drainAll(h, 0)
	c0 := 0
	for _, c := range got[:32] {
		if c.SrcPort == 5000 {
			c0++
		}
	}
	if c0 < 14 || c0 > 18 {
		t.Fatalf("equal quanta gave class0 %d of first 32 (want ~16)", c0)
	}
}

func TestHTBDirectQueue(t *testing.T) {
	h := NewHTB(linkRate, 5) // default class doesn't exist
	h.Enqueue(mkChunk(1, 5000, 100), 0)
	if h.DirectPackets() != 1 {
		t.Fatalf("direct packets %d", h.DirectPackets())
	}
	if h.Len() != 1 {
		t.Fatal("direct chunk not counted in Len")
	}
	if h.ReadyAt(0) != 0 {
		t.Fatal("direct chunk must be ready immediately")
	}
	c := h.Dequeue(0)
	if c == nil || c.FlowID != 1 {
		t.Fatal("direct chunk not dequeued")
	}
	st := h.Stats()
	if st.DroppedPackets != 0 {
		t.Fatal("direct traffic must not be counted as dropped")
	}
}

func TestHTBDirectBeforeClasses(t *testing.T) {
	h := NewHTB(linkRate, 42) // default class is a hole
	for b := 0; b < 2; b++ {
		if err := h.AddClass(ClassID(b), HTBClassConfig{Rate: 125_000, Ceil: linkRate, Prio: b}); err != nil {
			t.Fatal(err)
		}
		h.Classifier().Add(Filter{Pref: b, Match: MatchSrcPort(5000 + b), Target: ClassID(b)})
	}
	h.Enqueue(mkChunk(1, 5000, 100), 0) // class 0
	h.Enqueue(mkChunk(2, 5001, 100), 0) // class 1
	h.Enqueue(mkChunk(3, 7777, 100), 0) // unmatched, no default class: direct
	c := h.Dequeue(0)
	if c.FlowID != 3 {
		t.Fatalf("direct chunk must transmit first, got flow %d", c.FlowID)
	}
}

func TestHTBClassManagement(t *testing.T) {
	h := NewHTB(linkRate, 0)
	if err := h.AddClass(0, HTBClassConfig{Rate: 1e6}); err != nil {
		t.Fatal(err)
	}
	if err := h.AddClass(0, HTBClassConfig{Rate: 1e6}); err == nil {
		t.Fatal("duplicate class accepted")
	}
	if err := h.AddClass(1, HTBClassConfig{}); err == nil {
		t.Fatal("class without rate accepted")
	}
	if err := h.AddClass(1, HTBClassConfig{Rate: 2e6, Ceil: 1e6}); err == nil {
		t.Fatal("ceil < rate accepted")
	}
	if err := h.AddClass(3, HTBClassConfig{Rate: 1e6, Prio: -2}); err != nil {
		t.Fatal(err)
	}
	if cfg := h.Class(3).Config(); cfg.Ceil != 1e6 || cfg.Prio != 0 {
		t.Fatalf("zero ceil must default to rate and negative prio to 0: %+v", cfg)
	}
	if ids := h.Classes(); len(ids) != 2 || ids[0] != 0 || ids[1] != 3 {
		t.Fatalf("classes %v, want [0 3]", ids)
	}
}

func TestHTBDefaultClassFallback(t *testing.T) {
	h := newTLsHTB(4)
	h.Enqueue(mkChunk(1, 9999, 64), 0) // unmatched -> default class 3
	if h.Class(3).Len() != 1 {
		t.Fatal("unmatched chunk not in default class")
	}
}

// Property: ReadyAt never promises a time at which Dequeue still fails
// (the invariant behind the device wake-up loop).
func TestHTBReadyAtDequeueAgreement(t *testing.T) {
	f := func(seed int64, sizes []uint8) bool {
		h := newTLsHTB(3)
		now := 0.0
		for i, s := range sizes {
			b := int64(s)*1024 + 512
			h.Enqueue(mkChunk(uint64(i), 5000+i%4, b), now)
		}
		for h.Len() > 0 {
			at := h.ReadyAt(now)
			if at >= Never {
				return false // non-empty qdisc must eventually be ready
			}
			c := h.Dequeue(at)
			if c == nil {
				return false // ReadyAt lied
			}
			now = at + float64(c.Bytes)/linkRate
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Byte conservation through arbitrary enqueue/dequeue interleaving.
func TestHTBConservationProperty(t *testing.T) {
	f := func(sizes []uint8) bool {
		h := newTLsHTB(6)
		var in, out int64
		now := 0.0
		for i, s := range sizes {
			b := int64(s)*100 + 1
			in += b
			h.Enqueue(mkChunk(uint64(i), 5000+i%8, b), now)
			if i%3 == 0 {
				if c := h.Dequeue(now); c != nil {
					out += c.Bytes
					now += float64(c.Bytes) / linkRate
				}
			}
		}
		for _, c := range drainAll(h, now) {
			out += c.Bytes
		}
		return in == out && h.BacklogBytes() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestHTBPanicsOnBadRate(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewHTB(0) did not panic")
		}
	}()
	NewHTB(0, 0)
}

func TestHTBKind(t *testing.T) {
	if newTLsHTB(2).Kind() != "htb" {
		t.Fatal("kind")
	}
}

// backloggedTLsHTB builds TensorLights' six-class tree (tiny rate, full
// ceil, prio = class) with four chunks queued in every class.
func backloggedTLsHTB() *HTB {
	const classes = 6
	h := newTLsHTB(classes)
	for c := 0; c < classes; c++ {
		for i := 0; i < 4; i++ {
			h.Enqueue(mkChunk(uint64(c*4+i), 5000+c, 256<<10), 0)
		}
	}
	return h
}

// TestHTBSteadyStateAllocs pins the per-chunk path as allocation-free:
// once every class is backlogged and the queues have reached their
// working size, an Enqueue→ReadyAt→Dequeue cycle must not allocate.
func TestHTBSteadyStateAllocs(t *testing.T) {
	h := backloggedTLsHTB()
	now := 0.0
	c := h.Dequeue(now)
	cycle := func() {
		h.Enqueue(c, now)
		now = h.ReadyAt(now)
		if c = h.Dequeue(now); c == nil {
			t.Fatalf("Dequeue(%g) failed after ReadyAt promised it", now)
		}
		now += float64(c.Bytes) / linkRate
	}
	for i := 0; i < 1000; i++ {
		cycle()
	}
	if allocs := testing.AllocsPerRun(1000, cycle); allocs != 0 {
		t.Fatalf("steady-state HTB cycle allocates %.2f times, want 0", allocs)
	}
}

// BenchmarkHTBDequeue services a backlogged six-class TensorLights HTB
// like a line-rate device, re-enqueueing every dequeued chunk into its
// class; one op is one transmitted chunk.
func BenchmarkHTBDequeue(b *testing.B) {
	h := backloggedTLsHTB()
	now := 0.0
	b.ReportAllocs()
	b.ResetTimer()
	for ops := 0; ops < b.N; {
		c := h.Dequeue(now)
		if c == nil {
			now = h.ReadyAt(now)
			continue
		}
		now += float64(c.Bytes) / linkRate
		h.Enqueue(c, now)
		ops++
	}
}
