package qdisc

import (
	"math/rand"
	"testing"
)

// TestHTBWorkConservingUnderBursts drives a TensorLights-shaped HTB (six
// leaves, tiny guaranteed rate, full ceil) with randomized burst
// arrivals through a simulated link server, and asserts the egress is
// work-conserving: whenever any class is backlogged, the next chunk is
// transmittable immediately — the link never idles against a backlog.
func TestHTBWorkConservingUnderBursts(t *testing.T) {
	const linkRate = 1e6 // bytes/sec
	for trial := 0; trial < 20; trial++ {
		rng := rand.New(rand.NewSource(int64(300 + trial)))
		h := NewHTB(linkRate, 0)
		bands := 2 + rng.Intn(5)
		for b := 0; b < bands; b++ {
			if err := h.AddClass(ClassID(b), HTBClassConfig{
				Rate: 1, // tiny guarantee: priority does the real scheduling
				Ceil: linkRate,
				Prio: b,
			}); err != nil {
				t.Fatal(err)
			}
			h.Classifier().Add(Filter{Match: MatchSrcPort(9000 + b), Target: ClassID(b)})
		}

		now := 0.0
		flow := uint64(0)
		var served int64
		for step := 0; step < 400; step++ {
			// Randomized burst arrival: a few chunks into a random band.
			if rng.Intn(3) > 0 {
				band := rng.Intn(bands)
				for i := 0; i < 1+rng.Intn(6); i++ {
					flow++
					h.Enqueue(&Chunk{
						FlowID:  flow,
						SrcPort: 9000 + band,
						Bytes:   1 + int64(rng.Intn(64*1024)),
					}, now)
				}
			}
			// Serve the link until idle or a handful of chunks went out.
			for i := 0; i < 3 && h.Len() > 0; i++ {
				at := h.ReadyAt(now)
				if at >= Never {
					t.Fatalf("trial %d t=%.3f: backlog of %d chunks but ReadyAt=Never",
						trial, now, h.Len())
				}
				// Work conservation: with every ceil at the link rate and
				// the server draining at the link rate, tokens refill as
				// fast as they are spent — the qdisc may never ask the
				// link to wait while backlogged.
				if at > now+1e-9 {
					t.Fatalf("trial %d t=%.3f: backlogged htb gated until %.3f (idle %.2gs)",
						trial, now, at, at-now)
				}
				ch := h.Dequeue(at)
				if ch == nil {
					t.Fatalf("trial %d t=%.3f: Dequeue failed at promised ReadyAt", trial, now)
				}
				served += ch.Bytes
				now = at + float64(ch.Bytes)/linkRate // transmission time
			}
			now += rng.Float64() * 0.01
		}
		s := h.Stats()
		if int64(s.DequeuedBytes) != served {
			t.Fatalf("trial %d: stats say %d bytes dequeued, server saw %d",
				trial, s.DequeuedBytes, served)
		}
		if s.Backlog() != h.BacklogBytes() {
			t.Fatalf("trial %d: backlog accounting mismatch", trial)
		}
	}
}

// TestHTBStrictPriorityAcrossBands keeps a high- and a low-priority band
// both continuously backlogged and asserts the egress realizes strict
// priority: the low band's service while the high band is backlogged is
// bounded by its green-token budget (guaranteed rate * time + the
// htbBurst bucket), which the TensorLights configuration makes small.
func TestHTBStrictPriorityAcrossBands(t *testing.T) {
	const linkRate = 1e6
	const tinyRate = 1 // bytes/sec guaranteed
	for trial := 0; trial < 10; trial++ {
		rng := rand.New(rand.NewSource(int64(900 + trial)))
		h := NewHTB(linkRate, 0)
		for b := 0; b < 2; b++ {
			if err := h.AddClass(ClassID(b), HTBClassConfig{
				Rate: tinyRate,
				Ceil: linkRate,
				Prio: b,
			}); err != nil {
				t.Fatal(err)
			}
			h.Classifier().Add(Filter{Match: MatchSrcPort(9000 + b), Target: ClassID(b)})
		}
		enqueue := func(band, n int, now float64) {
			for i := 0; i < n; i++ {
				h.Enqueue(&Chunk{
					FlowID:  uint64(band*100000 + i),
					SrcPort: 9000 + band,
					Bytes:   1 + int64(rng.Intn(32*1024)),
				}, now)
			}
		}
		now := 0.0
		enqueue(0, 200, now)
		enqueue(1, 200, now)

		var lowWhileHighBacklogged int64
		for h.Class(0).Len() > 0 {
			// Keep both bands backlogged so priority is always contested.
			if h.Class(1).Len() == 0 {
				enqueue(1, 50, now)
			}
			at := h.ReadyAt(now)
			ch := h.Dequeue(at)
			if ch == nil {
				t.Fatalf("trial %d: backlogged htb refused to dequeue", trial)
			}
			if ch.SrcPort == 9001 {
				lowWhileHighBacklogged += ch.Bytes
			}
			now = at + float64(ch.Bytes)/linkRate
		}
		// Green-token budget the low band could legitimately burn while
		// the high band was backlogged.
		budget := int64(htbBurst+tinyRate*now) + 32*1024 // + one max chunk of slop
		if lowWhileHighBacklogged > budget {
			t.Fatalf("trial %d: low band sent %d bytes while high band backlogged (budget %d over %.3fs)",
				trial, lowWhileHighBacklogged, budget, now)
		}
	}
}
