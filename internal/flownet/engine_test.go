package flownet

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/sim"
)

type doneRec struct {
	id FlowID
	at float64
}

type engineHarness struct {
	k    *sim.Kernel
	e    *Engine
	done []doneRec
}

func newHarness() *engineHarness {
	h := &engineHarness{k: sim.NewKernel()}
	h.e = NewEngine(h.k, func(id FlowID, tag any) {
		h.done = append(h.done, doneRec{id: id, at: h.k.Now()})
	})
	return h
}

func (h *engineHarness) run(t *testing.T) {
	t.Helper()
	h.k.Run(nil)
}

func (h *engineHarness) doneAt(t *testing.T, id FlowID) float64 {
	t.Helper()
	for _, d := range h.done {
		if d.id == id {
			return d.at
		}
	}
	t.Fatalf("flow %d never completed; done=%v", id, h.done)
	return 0
}

func TestEngineSingleFlowCompletion(t *testing.T) {
	h := newHarness()
	l := h.e.AddLink(100)
	h.e.AddFlow(1, []int{l}, -1, 0, 1, 1000, nil)
	h.run(t)
	approx(t, h.doneAt(t, 1), 10, 1e-9, "lone flow completion")
	approx(t, h.e.LinkServedBytes(l), 1000, completionEps+1e-6, "served bytes")
	approx(t, h.e.LinkBusySeconds(l), 10, 1e-6, "busy seconds")
	if h.e.ActiveFlows() != 0 {
		t.Fatalf("flows left active: %d", h.e.ActiveFlows())
	}
}

// Staggered sharing: f1 runs alone for 5s at 100 B/s, then shares at
// 50 B/s until it finishes at t=15; f2 then speeds back up and finishes
// at t=20. The textbook processor-sharing trajectory.
func TestEngineStaggeredSharing(t *testing.T) {
	h := newHarness()
	l := h.e.AddLink(100)
	h.e.AddFlow(1, []int{l}, -1, 0, 1, 1000, nil)
	h.k.Post(5, func() {
		h.e.AddFlow(2, []int{l}, -1, 0, 1, 1000, nil)
	})
	h.run(t)
	approx(t, h.doneAt(t, 1), 15, 1e-9, "first flow")
	approx(t, h.doneAt(t, 2), 20, 1e-9, "second flow")
}

// Priority preemption mid-flight: a yellow flow has the link until a
// green flow arrives and freezes it; when the green finishes the yellow
// resumes with its remaining demand intact.
func TestEnginePriorityPreemption(t *testing.T) {
	h := newHarness()
	l := h.e.AddLink(100)
	h.e.AddFlow(1, []int{l}, l, 1, 1, 1000, nil) // yellow
	h.k.Post(5, func() {
		h.e.AddFlow(2, []int{l}, l, 0, 1, 500, nil) // green
	})
	h.run(t)
	// Yellow serves 500 by t=5, stalls 5s while green runs, then
	// finishes its remaining 500: t = 5 + 5 + 5 = 15.
	approx(t, h.doneAt(t, 2), 10, 1e-9, "green flow")
	approx(t, h.doneAt(t, 1), 15, 1e-9, "yellow flow")
}

// Link fault mid-flight: capacity drops to zero (detach), the flow
// stalls, capacity returns scaled (degrade) and the flow finishes late
// by exactly the analytic amount.
func TestEngineLinkFaultRecompute(t *testing.T) {
	h := newHarness()
	l := h.e.AddLink(100)
	h.e.AddFlow(1, []int{l}, -1, 0, 1, 1000, nil)
	h.k.Post(2, func() { h.e.SetLinkCap(l, 0) })
	h.k.Post(6, func() { h.e.SetLinkCap(l, 50) })
	h.run(t)
	// 200 bytes by t=2, stalled to t=6, remaining 800 at 50 B/s → t=22.
	approx(t, h.doneAt(t, 1), 22, 1e-9, "faulted flow")
}

func TestEngineWeightedCompletionOrder(t *testing.T) {
	h := newHarness()
	l := h.e.AddLink(100)
	h.e.AddFlow(1, []int{l}, -1, 0, 3, 900, nil)
	h.e.AddFlow(2, []int{l}, -1, 0, 1, 900, nil)
	h.run(t)
	// Phase 1: rates 75/25 until f1 finishes at t=12 (900/75); f2 has
	// 600 left, then runs at 100 → t=18.
	approx(t, h.doneAt(t, 1), 12, 1e-9, "weight-3 flow")
	approx(t, h.doneAt(t, 2), 18, 1e-9, "weight-1 flow")
}

func TestEngineUpdateFlowReband(t *testing.T) {
	h := newHarness()
	l := h.e.AddLink(100)
	h.e.AddFlow(1, []int{l}, l, 0, 1, 1000, nil)
	f2 := h.e.AddFlow(2, []int{l}, l, 1, 1, 1000, nil)
	// At t=2, promote flow 2 to green: they split 50/50 from there.
	h.k.Post(2, func() {
		if !h.e.UpdateFlow(f2, []int{l}, l, 0, 1) {
			t.Error("UpdateFlow returned false")
		}
	})
	h.run(t)
	// f1: 200 by t=2, then 50 B/s → t=18. f2: 0 by t=2 then 50 B/s
	// until f1 finishes (800 served at t=18), then 100 B/s → t=20.
	approx(t, h.doneAt(t, 1), 18, 1e-9, "demoted-by-promotion flow")
	approx(t, h.doneAt(t, 2), 20, 1e-9, "promoted flow")
}

func TestEngineRemoveFlow(t *testing.T) {
	h := newHarness()
	l := h.e.AddLink(100)
	h.e.AddFlow(1, []int{l}, -1, 0, 1, 1000, nil)
	f2 := h.e.AddFlow(2, []int{l}, -1, 0, 1, 1000, nil)
	h.k.Post(4, func() {
		if !h.e.RemoveFlow(f2) {
			t.Error("RemoveFlow returned false")
		}
	})
	h.run(t)
	// 200 served by t=4, then full rate: t = 4 + 800/100 = 12.
	approx(t, h.doneAt(t, 1), 12, 1e-9, "surviving flow")
	if len(h.done) != 1 {
		t.Fatalf("removed flow must not fire onDone: %v", h.done)
	}
	if _, ok := h.e.Remaining(f2); ok {
		t.Fatal("removed flow still queryable")
	}
}

// Completion callbacks may chain new flows — the synchronous-training
// pattern. Each generation starts when the previous finishes.
func TestEngineChainedCompletions(t *testing.T) {
	h := &engineHarness{k: sim.NewKernel()}
	var gen int
	h.e = NewEngine(h.k, func(id FlowID, tag any) {
		h.done = append(h.done, doneRec{id: id, at: h.k.Now()})
		if gen < 3 {
			gen++
			h.e.AddFlow(FlowID(100+gen), []int{0}, -1, 0, 1, 500, nil)
		}
	})
	h.e.AddLink(100)
	h.e.AddFlow(100, []int{0}, -1, 0, 1, 500, nil)
	h.k.Run(nil)
	if len(h.done) != 4 {
		t.Fatalf("want 4 chained completions, got %v", h.done)
	}
	for i, d := range h.done {
		approx(t, d.at, float64(i+1)*5, 1e-9, "chained completion time")
	}
}

// Randomized engine soak: random arrivals/cap changes on a small mesh;
// checks byte conservation (every flow completes having served its
// demand; per-link served bytes equal the sum of demands routed over
// the link) and that the simulation drains.
func TestEngineRandomSoakConservation(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		h := newHarness()
		nLinks := 3 + rng.Intn(4)
		for i := 0; i < nLinks; i++ {
			h.e.AddLink(50 + float64(rng.Intn(200)))
		}
		expect := make([]float64, nLinks)
		nFlows := 5 + rng.Intn(20)
		for i := 0; i < nFlows; i++ {
			nl := 1 + rng.Intn(3)
			links := make([]int, 0, nl)
			seen := make(map[int]bool)
			for j := 0; j < nl; j++ {
				l := rng.Intn(nLinks)
				if !seen[l] {
					seen[l] = true
					links = append(links, l)
				}
			}
			bytes := float64(100 + rng.Intn(10000))
			for _, l := range links {
				expect[l] += bytes
			}
			id, band := FlowID(i+1), rng.Intn(2)
			at := rng.Float64() * 10
			lks := links
			h.k.Post(at, func() {
				h.e.AddFlow(id, lks, lks[0], band, 1+rng.Float64(), bytes, nil)
			})
		}
		// A couple of mid-run capacity wobbles (never to zero, so the
		// run always drains).
		for i := 0; i < 3; i++ {
			l := rng.Intn(nLinks)
			c := 20 + float64(rng.Intn(300))
			h.k.Post(rng.Float64()*20, func() { h.e.SetLinkCap(l, c) })
		}
		h.k.Run(nil)
		if len(h.done) != nFlows {
			t.Fatalf("seed %d: %d of %d flows completed", seed, len(h.done), nFlows)
		}
		h.e.Sync()
		for l := 0; l < nLinks; l++ {
			// completionEps truncation per flow bounds the deficit.
			slack := float64(nFlows)*completionEps + 1e-3
			if math.Abs(h.e.LinkServedBytes(l)-expect[l]) > slack {
				t.Fatalf("seed %d link %d: served %g, want %g (slack %g)",
					seed, l, h.e.LinkServedBytes(l), expect[l], slack)
			}
		}
	}
}

func TestEngineBacklogAndRateAccessors(t *testing.T) {
	h := newHarness()
	l := h.e.AddLink(100)
	f1 := h.e.AddFlow(1, []int{l}, -1, 0, 1, 1000, nil)
	if r, ok := h.e.Rate(f1); !ok || r != 100 {
		t.Fatalf("Rate = %g, %v", r, ok)
	}
	h.k.Post(3, func() {
		h.e.Sync()
		approx(t, h.e.LinkBacklogBytes(l), 700, 1e-6, "backlog at t=3")
		if rem, ok := h.e.Remaining(f1); !ok || math.Abs(rem-700) > 1e-6 {
			t.Fatalf("Remaining = %g, %v", rem, ok)
		}
	})
	h.run(t)
}

// A flow that has drained to within completionEps but has not been
// retired yet, and whose rate a same-instant re-solve then drops to 0,
// still completes at the next completion event, and its callback keeps
// insertion order there. Flow 1 (band 1) would finish at t=10; at
// t=9.9999, 0.01 bytes short, flow 2 arrives in band 0 on the same
// band link and takes the whole link, stalling flow 1. Flow 2 finishes
// at t=9.9999+5 and retires flow 1 with it, first.
func TestEngineRetiresDrainedStalledFlow(t *testing.T) {
	h := newHarness()
	l := h.e.AddLink(100)
	f1 := h.e.AddFlow(1, []int{l}, l, 1, 1, 1000, nil)
	h.k.Post(9.9999, func() {
		h.e.AddFlow(2, []int{l}, l, 0, 1, 500, nil)
		if r, ok := h.e.Rate(f1); !ok || r != 0 {
			t.Errorf("stalled flow: rate %v, active %v; want rate 0 while active", r, ok)
		}
		if rem, _ := h.e.Remaining(f1); rem <= 0 || rem > completionEps {
			t.Errorf("stalled flow has %v bytes left; want (0, %v]", rem, completionEps)
		}
	})
	h.run(t)
	if len(h.done) != 2 || h.done[0].id != 1 || h.done[1].id != 2 {
		t.Fatalf("completions %v, want flow 1 then flow 2", h.done)
	}
	approx(t, h.done[0].at, 9.9999+5, 1e-9, "stalled flow retired with flow 2")
	if h.done[0].at != h.done[1].at {
		t.Fatalf("flow 1 retired at %v, flow 2 at %v; want one completion event", h.done[0].at, h.done[1].at)
	}
}
