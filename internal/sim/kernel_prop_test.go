package sim

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// TestKernelFiringOrderProperty drives the kernel with random
// schedule/post/cancel/reschedule sequences and checks the ordering
// contract against a model: events fire in nondecreasing time, ties
// break by (priority, insertion seq), canceled events never fire, and
// nothing is lost or duplicated. Runs under -race in CI (make race).
func TestKernelFiringOrderProperty(t *testing.T) {
	type expect struct {
		at   float64
		prio int
		seq  int // model-side insertion counter
		// schedAfter is how many events had fired when this one was
		// scheduled: tie-break ordering is only a contract between
		// events pending in the queue together.
		schedAfter int
	}
	for trial := 0; trial < 50; trial++ {
		rng := rand.New(rand.NewSource(int64(1000 + trial)))
		k := NewKernel()

		var fired []expect
		live := map[int]*Event{} // model seq -> cancellable handle
		model := map[int]expect{}
		mustNotFire := map[int]bool{} // canceled while still pending
		nextSeq := 0

		cancelOne := func() {
			for seq, h := range live {
				if h.Pending() {
					mustNotFire[seq] = true
				}
				k.Cancel(h)
				delete(model, seq)
				delete(live, seq)
				return
			}
		}

		schedule := func(at float64, prio int, pooled bool) {
			seq := nextSeq
			nextSeq++
			e := expect{at: at, prio: prio, seq: seq, schedAfter: len(fired)}
			model[seq] = e
			fn := func() { fired = append(fired, e) }
			if pooled {
				switch {
				case prio != 0:
					k.PostPrio(at, prio, fn)
				case rng.Intn(2) == 0:
					k.Post(at, fn)
				default:
					k.PostAfter(at-k.Now(), fn)
				}
				return
			}
			var h *Event
			if prio != 0 {
				h = k.SchedulePrio(at, prio, fn)
			} else if rng.Intn(2) == 0 {
				h = k.Schedule(at, fn)
			} else {
				h = k.ScheduleAfter(at-k.Now(), fn)
			}
			live[seq] = h
		}

		ops := 300 + rng.Intn(300)
		for op := 0; op < ops; op++ {
			switch r := rng.Float64(); {
			case r < 0.45: // schedule at a random future (or present) time
				at := k.Now() + float64(rng.Intn(20))*0.5
				schedule(at, rng.Intn(5)-2, rng.Intn(2) == 0)
			case r < 0.6: // cancel a random live handle
				cancelOne()
			case r < 0.7: // reschedule: cancel + schedule a replacement
				cancelOne()
				schedule(k.Now()+float64(rng.Intn(10)), rng.Intn(3)-1, false)
			default: // fire a few events
				for i := 0; i < 1+rng.Intn(4); i++ {
					if !k.Step() {
						break
					}
				}
			}
		}
		for k.Step() {
		}

		// Every surviving model event fired exactly once; an event
		// canceled while pending never fired; nothing fired twice. (An
		// already-fired event may be "canceled" afterwards — the
		// documented no-op — which removes it from the model but must
		// not un-fire it, hence the three separate checks.)
		seen := map[int]int{}
		for _, f := range fired {
			seen[f.seq]++
		}
		for seq := range model {
			if seen[seq] != 1 {
				t.Fatalf("trial %d: event seq %d fired %d times, want 1", trial, seq, seen[seq])
			}
		}
		for seq := range mustNotFire {
			if seen[seq] != 0 {
				t.Fatalf("trial %d: canceled event seq %d fired", trial, seq)
			}
		}
		for seq, n := range seen {
			if n > 1 {
				t.Fatalf("trial %d: event seq %d fired %d times", trial, seq, n)
			}
		}

		// Firing order: nondecreasing time always; among events that
		// were pending together (b scheduled before a fired), same-time
		// ties ordered by (priority, insertion seq).
		for i := 1; i < len(fired); i++ {
			a, b := fired[i-1], fired[i]
			if b.at < a.at {
				t.Fatalf("trial %d: time went backwards: %v after %v", trial, b, a)
			}
			if b.at == a.at && b.schedAfter < i {
				if b.prio < a.prio || (b.prio == a.prio && b.seq < a.seq) {
					t.Fatalf("trial %d: tie-break violated: %v fired after %v", trial, b, a)
				}
			}
		}
	}
}

// TestKernelPoolReuseKeepsOrdering stresses the pooled Post path mixed
// with cancels so recycled Event structs are continually reused, and
// asserts the (time, priority, seq) order is unaffected by reuse.
func TestKernelPoolReuseKeepsOrdering(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	k := NewKernel()
	var fired []float64
	for round := 0; round < 200; round++ {
		n := 1 + rng.Intn(8)
		for i := 0; i < n; i++ {
			at := k.Now() + rng.Float64()*3
			k.Post(at, func() { fired = append(fired, k.Now()) })
		}
		if rng.Intn(3) == 0 {
			h := k.ScheduleAfter(rng.Float64(), func() { fired = append(fired, k.Now()) })
			if rng.Intn(2) == 0 {
				k.Cancel(h)
			}
		}
		for i := 0; i < rng.Intn(6); i++ {
			if !k.Step() {
				break
			}
		}
	}
	for k.Step() {
	}
	for i := 1; i < len(fired); i++ {
		if fired[i] < fired[i-1] {
			t.Fatalf("fire times went backwards: %g after %g", fired[i], fired[i-1])
		}
	}
	if k.EventAllocs() == 0 {
		t.Fatal("expected some heap-allocated events")
	}
	if k.EventAllocs() >= k.Fired() {
		t.Fatalf("pool never reused: %d allocs for %d fired", k.EventAllocs(), k.Fired())
	}
}

// orderKey is an event's place in the kernel's firing order.
type orderKey struct {
	at   float64
	prio int32
	seq  uint64
}

func (a orderKey) less(b orderKey) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.prio != b.prio {
		return a.prio < b.prio
	}
	return a.seq < b.seq
}

// orderDelays holds more distinct delays than the kernel has lanes, zero
// and the chunk fabric's three fixed delays among them.
var orderDelays = []float64{0, 2.62144e-4, 2e-5, 3.2992e-5, 0.1, 0.25, 1}

// orderWorkload is a random, callback-driven mix of every way to queue
// an event: PostArgAfter and PostAfter at more distinct delays than
// there are lanes (zero and random ones included), Post and PostArg,
// PostTicket with CancelTicket, Schedule with Cancel, PostPrio and
// SchedulePrio. Firing events perform further operations, same-time
// follow-ups among them, until the budget runs out. Every event is
// posted at or after the one firing, so the firing order must be the
// sorted list of everything posted and not canceled, whatever drives
// the kernel.
type orderWorkload struct {
	t        testing.TB
	k        *Kernel
	rng      *rand.Rand
	budget   int
	posted   []orderKey
	canceled map[uint64]bool // seq -> canceled while queued
	fired    []orderKey
	pending  []int // Pending() as each event fired
	tickets  []Ticket
	handles  []*Event
	fireArg  func(any)
}

func newOrderWorkload(t testing.TB, seed int64, ops int) *orderWorkload {
	w := &orderWorkload{
		t:        t,
		k:        NewKernel(),
		rng:      rand.New(rand.NewSource(seed)),
		budget:   ops,
		canceled: map[uint64]bool{},
	}
	w.fireArg = func(a any) { w.fire(a.(orderKey)) }
	// The initial operations run before anything fires, so any key may
	// follow them.
	top := orderKey{prio: math.MinInt32}
	for i := 0; i < 1+ops/8 && w.budget > 0; i++ {
		w.op(top)
	}
	return w
}

// op performs one random operation while the event cur is firing.
func (w *orderWorkload) op(cur orderKey) {
	w.budget--
	k := w.k
	d := orderDelays[w.rng.Intn(len(orderDelays))]
	if w.rng.Intn(8) == 0 {
		d = w.rng.Float64()
	}
	prio := int32(w.rng.Intn(5) - 2)
	if d == 0 {
		// A same-time event must sort after the one firing.
		prio = max(prio, cur.prio)
		if cur.prio > 0 {
			d = orderDelays[1]
		}
	}
	at := k.Now() + d
	key := orderKey{at: at, seq: k.seq + 1}
	fn := func() { w.fire(key) }
	switch w.rng.Intn(12) {
	case 0, 1, 2:
		k.PostArgAfter(d, w.fireArg, key)
	case 3, 4:
		k.PostAfter(d, fn)
	case 5:
		k.Post(at, fn)
	case 6:
		k.PostArg(at, w.fireArg, key)
	case 7:
		w.tickets = append(w.tickets, k.PostTicket(at, fn))
	case 8:
		w.handles = append(w.handles, k.Schedule(at, fn))
	case 9:
		key.prio = prio
		if w.rng.Intn(2) == 0 {
			k.PostPrio(at, int(prio), func() { w.fire(key) })
		} else {
			w.handles = append(w.handles, k.SchedulePrio(at, int(prio), func() { w.fire(key) }))
		}
	case 10: // cancel a ticket, which may be stale
		w.budget++
		if n := len(w.tickets); n > 0 {
			i := w.rng.Intn(n)
			tk := w.tickets[i]
			w.tickets[i] = w.tickets[n-1]
			w.tickets = w.tickets[:n-1]
			if tk.Active() {
				w.canceled[tk.seq] = true
			}
			k.CancelTicket(tk)
		}
		return
	case 11: // cancel a handle, which may have fired
		w.budget++
		if n := len(w.handles); n > 0 {
			i := w.rng.Intn(n)
			h := w.handles[i]
			w.handles[i] = w.handles[n-1]
			w.handles = w.handles[:n-1]
			if h.Pending() {
				w.canceled[h.seq] = true
			}
			k.Cancel(h)
		}
		return
	}
	if k.seq != key.seq {
		w.t.Fatalf("posted seq %d, want %d", k.seq, key.seq)
	}
	w.posted = append(w.posted, key)
}

func (w *orderWorkload) fire(key orderKey) {
	k := w.k
	if k.Now() != key.at {
		w.t.Fatalf("event %+v fired at clock %v", key, k.Now())
	}
	if w.canceled[key.seq] {
		w.t.Fatalf("canceled event %+v fired", key)
	}
	// Canceled events that sort before this one have been discarded;
	// later ones may still be queued.
	live := len(w.posted) - len(w.fired) - 1 - len(w.canceled)
	later := 0
	for _, p := range w.posted {
		if w.canceled[p.seq] && key.less(p) {
			later++
		}
	}
	if n := k.Pending(); n < live || n > live+later {
		w.t.Fatalf("at %+v: Pending() = %d, want %d live plus at most %d canceled", key, n, live, later)
	}
	w.fired = append(w.fired, key)
	w.pending = append(w.pending, k.Pending())
	for i := w.rng.Intn(4); i > 0 && w.budget > 0; i-- {
		w.op(key)
	}
}

// check asserts that the events fired are everything posted and not
// canceled, in (at, priority, seq) order, and that nothing is left.
func (w *orderWorkload) check() {
	var want []orderKey
	for _, p := range w.posted {
		if !w.canceled[p.seq] {
			want = append(want, p)
		}
	}
	slices.SortFunc(want, func(a, b orderKey) int {
		if a.less(b) {
			return -1
		}
		return 1
	})
	if !slices.Equal(w.fired, want) {
		for i := range min(len(w.fired), len(want)) {
			if w.fired[i] != want[i] {
				w.t.Fatalf("firing order diverges at %d: fired %+v, want %+v", i, w.fired[i], want[i])
			}
		}
		w.t.Fatalf("fired %d events, want %d", len(w.fired), len(want))
	}
	if n := w.k.Pending(); n != 0 {
		w.t.Fatalf("Pending() = %d after the queue drained", n)
	}
	if w.k.Fired() != uint64(len(w.fired)) {
		w.t.Fatalf("Fired() = %d, callbacks ran %d", w.k.Fired(), len(w.fired))
	}
}

// orderModes fire an orderWorkload's events to the end in different
// ways; the stop-and-resume mode also checks Run's stop clock.
var orderModes = []struct {
	name  string
	drive func(w *orderWorkload)
}{
	{"Run", func(w *orderWorkload) { w.k.Run(nil) }},
	{"Step", func(w *orderWorkload) {
		for w.k.Step() {
		}
	}},
	{"RunUntil", func(w *orderWorkload) {
		for deadline := 0.0; w.k.Pending() > 0; deadline += 0.3 {
			w.k.RunUntil(deadline)
		}
	}},
	{"RunStop", func(w *orderWorkload) {
		for w.k.Pending() > 0 {
			n := 0
			w.k.Run(func() bool { n++; return n > 7 })
			if w.k.Pending() == 0 {
				break
			}
			stoppedAt, fired := w.k.Now(), len(w.fired)
			if !w.k.Step() {
				// Only canceled events were left.
				continue
			}
			if w.fired[fired].at != stoppedAt {
				w.t.Fatalf("Run stopped with the clock at %v, next event fired at %v", stoppedAt, w.fired[fired].at)
			}
		}
	}},
}

// runOrderWorkload builds the (seed, ops) workload, drives it to the end
// in every mode, checks each against the sorted reference, and checks
// that all modes saw the same Pending() at every event.
func runOrderWorkload(t testing.TB, seed int64, ops int) {
	var ref *orderWorkload
	for _, m := range orderModes {
		w := newOrderWorkload(t, seed, ops)
		m.drive(w)
		w.check()
		if ref == nil {
			ref = w
			continue
		}
		if !slices.Equal(w.pending, ref.pending) {
			t.Fatalf("seed %d: %s and %s saw different Pending() sequences", seed, m.name, orderModes[0].name)
		}
	}
}

// TestKernelLaneOrderProperty checks, on random workloads that mix lane
// posts at more delays than there are lanes with heap-only posts and
// cancellations, that the kernel fires exactly the sorted list of
// everything posted and not canceled, under Run, Step and RunUntil.
func TestKernelLaneOrderProperty(t *testing.T) {
	for trial := 0; trial < 60; trial++ {
		runOrderWorkload(t, int64(7000+trial), 50+trial*20)
	}
}

// FuzzKernelOrder runs the lane-order property on a fuzzed (seed, ops).
func FuzzKernelOrder(f *testing.F) {
	f.Add(int64(1), uint16(300))
	f.Add(int64(2), uint16(2000))
	f.Fuzz(func(t *testing.T, seed int64, ops uint16) {
		runOrderWorkload(t, seed, int(ops%4000))
	})
}
