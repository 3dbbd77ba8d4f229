package flownet

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/sim"
)

// randomEngineRun drives an engine through random AddFlow, RemoveFlow,
// UpdateFlow, SetLinkCap and counter-read events, a mid-run AddLink,
// and completions that often start a replacement flow. The events sit
// at distinct instants, so the run logs well over settleLogLen advance
// intervals. before and after bracket every kernel step; after each
// step the engine's bookkeeping invariants are checked.
type randomEngineRun struct {
	tb  testing.TB
	k   *sim.Kernel
	e   *Engine
	rng *rand.Rand
	ids []FlowID // active flows, insertion order
	nid FlowID

	// reads holds the counters read inside the last step, and removed
	// the flow it cancelled (0 if none), for the caller to check once
	// the step returns.
	reads   []counterRead
	removed FlowID
}

// maxRandomFlows bounds the random run's population, so flows stalled
// on a zero-capacity link cannot pile up.
const maxRandomFlows = 40

type counterRead struct {
	link         int
	served, busy float64
}

func newRandomEngineRun(tb testing.TB, seed int64) *randomEngineRun {
	r := &randomEngineRun{tb: tb, k: sim.NewKernel(), rng: rand.New(rand.NewSource(seed))}
	r.e = NewEngine(r.k, func(id FlowID, _ any) {
		r.ids = slices.DeleteFunc(r.ids, func(x FlowID) bool { return x == id })
		if len(r.ids) < maxRandomFlows && r.rng.Intn(10) < 7 {
			r.addFlow()
		}
	})
	for i := 0; i < 10; i++ {
		r.e.AddLink(50 + float64(r.rng.Intn(250)))
	}
	return r
}

func (r *randomEngineRun) randomPath() []int {
	n := r.e.NumLinks()
	links := []int{r.rng.Intn(n)}
	for j := r.rng.Intn(3); j > 0; j-- {
		if l := r.rng.Intn(n); !slices.Contains(links, l) {
			links = append(links, l)
		}
	}
	return links
}

func (r *randomEngineRun) bandLink(links []int) int {
	if r.rng.Intn(4) == 0 {
		return -1
	}
	return links[0]
}

func (r *randomEngineRun) addFlow() {
	r.nid++
	links := r.randomPath()
	r.e.AddFlow(r.nid, links, r.bandLink(links), r.rng.Intn(3), 1+3*r.rng.Float64(), 5+400*r.rng.Float64(), nil)
	r.ids = append(r.ids, r.nid)
}

func (r *randomEngineRun) mutate() {
	switch op := r.rng.Intn(20); {
	case len(r.ids) == 0 || op < 8 && len(r.ids) < maxRandomFlows:
		r.addFlow()
	case op < 10:
		i := r.rng.Intn(len(r.ids))
		r.e.RemoveFlow(r.ids[i])
		r.removed = r.ids[i]
		r.ids = slices.Delete(r.ids, i, i+1)
	case op < 13:
		links := r.randomPath()
		r.e.UpdateFlow(r.ids[r.rng.Intn(len(r.ids))], links, r.bandLink(links), r.rng.Intn(3), 1+3*r.rng.Float64())
	case op < 16:
		c := 20 + 380*r.rng.Float64()
		if r.rng.Intn(10) == 0 {
			c = 0
		}
		r.e.SetLinkCap(r.rng.Intn(r.e.NumLinks()), c)
	default:
		if r.rng.Intn(2) == 0 {
			r.e.Sync()
		}
		l := r.rng.Intn(r.e.NumLinks())
		r.reads = append(r.reads, counterRead{l, r.e.LinkServedBytes(l), r.e.LinkBusySeconds(l)})
	}
}

// run posts the mutation schedule and steps the kernel to the end,
// returning how many steps advanced the fluid clock.
func (r *randomEngineRun) run(events int, before, after func()) int {
	for i := 0; i < events; i++ {
		at := 0.05*float64(i) + 0.01*r.rng.Float64()
		if i == events/2 {
			r.k.Post(at, func() {
				r.e.AddLink(50 + float64(r.rng.Intn(250)))
				r.e.AddLink(0)
			})
			continue
		}
		r.k.Post(at, r.mutate)
	}
	advances := 0
	for {
		t0, resolves := r.e.lastT, r.e.resolves
		before()
		r.reads, r.removed = r.reads[:0], 0
		if !r.k.Step() {
			return advances
		}
		if r.e.lastT != t0 {
			advances++
		}
		r.checkBookkeeping(r.e.resolves != resolves)
		after()
	}
}

// checkBookkeeping asserts the engine's index invariants: every flow
// knows its position in order, rem and rate run parallel to order, the
// component bitset is clear between resolves, and — when the step
// resolved — the component was handed to the solver in insertion order.
func (r *randomEngineRun) checkBookkeeping(resolved bool) {
	e := r.e
	if len(e.rem) != len(e.order) || len(e.rate) != len(e.order) {
		r.tb.Fatalf("t=%g: %d flows, %d rem, %d rate", r.k.Now(), len(e.order), len(e.rem), len(e.rate))
	}
	for i, fs := range e.order {
		if fs.pos != i {
			r.tb.Fatalf("t=%g: flow %d at order[%d] has pos %d", r.k.Now(), fs.id, i, fs.pos)
		}
	}
	for w, word := range e.compMark {
		if word != 0 {
			r.tb.Fatalf("t=%g: component bitset word %d is %#x after the resolve", r.k.Now(), w, word)
		}
	}
	if !resolved {
		return
	}
	for i, fs := range e.compFlows {
		if i > 0 && fs.pos <= e.compFlows[i-1].pos {
			r.tb.Fatalf("t=%g: component positions not increasing at %d: %d after %d",
				r.k.Now(), i, fs.pos, e.compFlows[i-1].pos)
		}
	}
}

// The lazily settled link counters must equal, bit for bit, what
// accumulating min(1, r/c)·dt and r·dt on every advance produces — the
// eager accounting the interval log replaces. An eager shadow is kept
// from each step's pre-step rates and capacities, and compared on every
// mid-run read and on every link at the end.
func TestEngineLazyCountersMatchEager(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		r := newRandomEngineRun(t, seed)
		var rates, caps, served, busy []float64
		var t0 float64
		before := func() {
			t0 = r.e.lastT
			rates = append(rates[:0], r.e.linkRate...)
			caps = append(caps[:0], r.e.caps...)
		}
		after := func() {
			if dt := r.e.lastT - t0; dt != 0 {
				for l, rt := range rates {
					if rt <= 0 {
						continue
					}
					served[l] += rt * dt
					if c := caps[l]; c > 0 {
						u := rt / c
						if u > 1 {
							u = 1
						}
						busy[l] += u * dt
					}
				}
			}
			for len(served) < r.e.NumLinks() {
				served = append(served, 0)
				busy = append(busy, 0)
			}
			for _, rd := range r.reads {
				if math.Float64bits(rd.served) != math.Float64bits(served[rd.link]) ||
					math.Float64bits(rd.busy) != math.Float64bits(busy[rd.link]) {
					t.Fatalf("seed %d t=%g link %d: read served %v busy %v, eager %v %v",
						seed, r.k.Now(), rd.link, rd.served, rd.busy, served[rd.link], busy[rd.link])
				}
			}
		}
		advances := r.run(9000, before, after)
		if advances <= 2*settleLogLen {
			t.Fatalf("seed %d: only %d advances; the run must cross the log reset twice", seed, advances)
		}
		var total float64
		for l := range served {
			if math.Float64bits(r.e.LinkServedBytes(l)) != math.Float64bits(served[l]) ||
				math.Float64bits(r.e.LinkBusySeconds(l)) != math.Float64bits(busy[l]) {
				t.Fatalf("seed %d link %d: served %v busy %v, eager %v %v",
					seed, l, r.e.LinkServedBytes(l), r.e.LinkBusySeconds(l), served[l], busy[l])
			}
			total += served[l]
		}
		if total == 0 {
			t.Fatalf("seed %d: no bytes served", seed)
		}
	}
}

// LinkBacklogBytes walks only the link's own flows; it must return the
// same bits as summing remaining demand over every active flow in
// insertion order.
func TestEngineLinkBacklogMatchesFullScan(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		r := newRandomEngineRun(t, seed)
		checked := 0
		after := func() {
			if r.rng.Intn(5) != 0 {
				return
			}
			for l := 0; l < r.e.NumLinks(); l++ {
				var want float64
				for _, fs := range r.e.order {
					if slices.Contains(fs.links, l) {
						want += r.e.rem[fs.pos]
					}
				}
				if got := r.e.LinkBacklogBytes(l); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("seed %d t=%g link %d: backlog %v, full scan %v", seed, r.k.Now(), l, got, want)
				}
				if want > 0 {
					checked++
				}
			}
		}
		r.run(1500, func() {}, after)
		if checked == 0 {
			t.Fatalf("seed %d: no nonzero backlog checked", seed)
		}
	}
}

// FuzzEngineOps runs a randomEngineRun seeded from the fuzz input,
// which checks the bookkeeping invariants after every step, and checks
// byte conservation on top: each step's advance takes exactly rate·dt
// (clamped at zero) off every flow's demand, a flow that left without
// RemoveFlow had drained to completionEps, and every link has served
// the bytes its flows lost while crossing it. Wired into `make fuzz`.
func FuzzEngineOps(f *testing.F) {
	f.Add(int64(1), uint16(300))
	f.Add(int64(2), uint16(1900))
	f.Fuzz(func(t *testing.T, seed int64, events uint16) {
		r := newRandomEngineRun(t, seed)
		type flowSnap struct {
			id        FlowID
			rem, rate float64
			links     []int
		}
		var snap []flowSnap
		var shadow []float64
		var t0 float64
		before := func() {
			t0 = r.e.lastT
			snap = snap[:0]
			for i, fs := range r.e.order {
				snap = append(snap, flowSnap{fs.id, r.e.rem[i], r.e.rate[i], slices.Clone(fs.links)})
			}
		}
		after := func() {
			dt := r.e.lastT - t0
			for _, s := range snap {
				want := s.rem
				if dt > 0 && s.rate > 0 {
					want -= s.rate * dt
					if want < 0 {
						want = 0
					}
					for _, l := range s.links {
						for len(shadow) <= l {
							shadow = append(shadow, 0)
						}
						shadow[l] += s.rem - want
					}
				}
				fs, active := r.e.flows[s.id]
				switch {
				case active && math.Float64bits(r.e.rem[fs.pos]) != math.Float64bits(want):
					t.Fatalf("t=%g flow %d: remaining %v, want %v - %v·%v = %v",
						r.k.Now(), s.id, r.e.rem[fs.pos], s.rem, s.rate, dt, want)
				case !active && s.id != r.removed && want > completionEps:
					t.Fatalf("t=%g flow %d completed with %v bytes left", r.k.Now(), s.id, want)
				}
			}
		}
		r.run(20+int(events%2000), before, after)
		for l := 0; l < r.e.NumLinks(); l++ {
			var want float64
			if l < len(shadow) {
				want = shadow[l]
			}
			got := r.e.LinkServedBytes(l)
			if math.Abs(got-want) > 1e-9*math.Max(got, want)+1e-6 {
				t.Fatalf("link %d: served %v bytes, its flows lost %v", l, got, want)
			}
		}
	})
}
