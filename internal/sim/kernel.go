// Package sim provides a deterministic discrete-event simulation kernel:
// a simulated clock, a cancellable event queue, and seeded random number
// streams. All simulations in this repository are single-threaded per run
// and therefore fully reproducible given a seed; parallelism is applied
// across independent runs by higher layers (see internal/sweep's Engine).
package sim

import (
	"fmt"
	"math"
)

// Time is simulated time in seconds since the start of the run.
type Time = float64

// Forever is a sentinel meaning "never" for schedule horizons.
const Forever Time = math.MaxFloat64

// Event is a scheduled callback. Events fire in (time, priority, seq)
// order: earlier time first, then lower priority value, then insertion
// order. The priority field lets callers order simultaneous events
// deterministically (e.g. "complete transfers before starting new ones").
type Event struct {
	at Time
	fn func()
	// fnA/arg is the allocation-free alternative to closing over a single
	// pointer: PostArg events carry the argument in the event struct, so
	// hot paths that would otherwise build a one-word closure per event
	// (chunk service completion, flow injection) allocate nothing.
	fnA      func(any)
	arg      any
	seq      uint64
	priority int32
	index    int32 // heap index; -1 when not queued
	canceled bool
	// pooled marks events scheduled through Post*: no handle was ever
	// handed out, so the kernel may recycle the struct after it fires or
	// is discarded. Handle-returning Schedule* events are never pooled —
	// callers may hold (and Cancel) their pointer long after the event
	// fired, and reuse would alias a live event.
	pooled bool
}

// At returns the time the event is scheduled to fire.
func (e *Event) At() Time { return e.at }

// Canceled reports whether the event has been canceled.
func (e *Event) Canceled() bool { return e.canceled }

// Pending reports whether the event is still queued and not canceled.
func (e *Event) Pending() bool { return !e.canceled && e.index >= 0 }

// before is the queue ordering: (at, priority, seq) ascending.
func (e *Event) before(o *Event) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	if e.priority != o.priority {
		return e.priority < o.priority
	}
	return e.seq < o.seq
}

// Kernel is the discrete-event engine. The zero value is not usable; use
// NewKernel. Kernels are single-threaded: one goroutine owns a kernel and
// everything scheduled on it for the whole run.
type Kernel struct {
	now    Time
	queue  eventHeap
	seq    uint64
	nFired uint64
	// free recycles pooled (handle-less) events; see Post.
	free []*Event
	// allocs counts Event structs allocated (not served from the pool).
	allocs uint64
	// batch is Run's scratch for draining same-(at, priority) event runs.
	batch []*Event
	// Hard safety cap on events fired in one Run; prevents runaway
	// simulations from spinning forever. Zero means no cap.
	MaxEvents uint64
}

// NewKernel returns a kernel with the clock at zero.
func NewKernel() *Kernel {
	return &Kernel{}
}

// nilFunc stands in for fn while newEvent validates a PostArg event;
// the caller replaces it with the fnA/arg pair.
func nilFunc() {}

// Now returns the current simulated time.
func (k *Kernel) Now() Time { return k.now }

// Fired returns the number of events fired so far.
func (k *Kernel) Fired() uint64 { return k.nFired }

// EventAllocs returns how many Event structs were heap-allocated, i.e.
// not served from the pooled free list. With Post-heavy workloads this
// stays far below Fired(); benchmarks report allocs/event from it.
func (k *Kernel) EventAllocs() uint64 { return k.allocs }

// Pending returns the number of events queued (including canceled events
// not yet discarded).
func (k *Kernel) Pending() int { return len(k.queue) }

// Schedule queues fn to run at absolute time at with priority 0.
// Scheduling in the past panics: it always indicates a model bug.
func (k *Kernel) Schedule(at Time, fn func()) *Event {
	return k.newEvent(at, 0, fn, false)
}

// ScheduleAfter queues fn to run delay seconds from now.
func (k *Kernel) ScheduleAfter(delay Time, fn func()) *Event {
	return k.newEvent(k.now+delay, 0, fn, false)
}

// SchedulePrio queues fn at time at with an explicit tie-break priority.
func (k *Kernel) SchedulePrio(at Time, priority int, fn func()) *Event {
	return k.newEvent(at, priority, fn, false)
}

// Post queues fn at absolute time at without returning a cancellation
// handle. Handle-less events are recycled through an internal pool, so
// hot paths that schedule once per chunk (service completion, wire
// propagation, delivery) run allocation-free. Use Schedule when the
// caller needs to Cancel or inspect the event later.
func (k *Kernel) Post(at Time, fn func()) {
	k.newEvent(at, 0, fn, true)
}

// PostAfter queues fn to run delay seconds from now, without a handle.
func (k *Kernel) PostAfter(delay Time, fn func()) {
	k.newEvent(k.now+delay, 0, fn, true)
}

// PostPrio queues fn at time at with a tie-break priority, no handle.
func (k *Kernel) PostPrio(at Time, priority int, fn func()) {
	k.newEvent(at, priority, fn, true)
}

// PostArg queues fn(arg) at absolute time at, without a handle. The
// argument rides in the pooled event struct, so callers that would
// otherwise close over one pointer per event (the per-chunk hot paths)
// schedule with zero allocations by reusing a long-lived fn.
func (k *Kernel) PostArg(at Time, fn func(any), arg any) {
	if fn == nil {
		panic("sim: schedule nil func")
	}
	e := k.newEvent(at, 0, nilFunc, true)
	e.fn = nil
	e.fnA = fn
	e.arg = arg
}

// PostArgAfter queues fn(arg) delay seconds from now, without a handle.
func (k *Kernel) PostArgAfter(delay Time, fn func(any), arg any) {
	k.PostArg(k.now+delay, fn, arg)
}

func (k *Kernel) newEvent(at Time, priority int, fn func(), pooled bool) *Event {
	if at < k.now {
		panic(fmt.Sprintf("sim: schedule at %.9f before now %.9f", at, k.now))
	}
	if fn == nil {
		panic("sim: schedule nil func")
	}
	k.seq++
	var e *Event
	if n := len(k.free); pooled && n > 0 {
		e = k.free[n-1]
		k.free[n-1] = nil
		k.free = k.free[:n-1]
	} else {
		e = &Event{}
		k.allocs++
	}
	e.at = at
	e.fn = fn
	e.seq = k.seq
	e.priority = int32(priority)
	e.index = -1
	e.canceled = false
	e.pooled = pooled
	k.queue.push(e)
	return e
}

// recycle returns a pooled event to the free list once no reference to
// it can remain (it fired, or it was canceled and discarded). Non-pooled
// events are left to the garbage collector: their handle may outlive the
// event arbitrarily.
func (k *Kernel) recycle(e *Event) {
	if !e.pooled {
		return
	}
	e.fn = nil
	e.fnA = nil
	e.arg = nil
	// Invalidate outstanding Tickets: seq 0 is never issued, so stale
	// tickets stop matching the moment the struct returns to the pool.
	e.seq = 0
	k.free = append(k.free, e)
}

// Cancel marks the event canceled; it will be discarded when it reaches
// the head of the queue. Cancelling nil or an already-fired event is a
// no-op, so callers may cancel unconditionally.
func (k *Kernel) Cancel(e *Event) {
	if e == nil {
		return
	}
	e.canceled = true
}

// A Ticket names one incarnation of a pooled event for best-effort
// cancellation. Pooled event structs are recycled the moment they fire,
// so a bare *Event pointer would be unsafe to hold: cancelling it later
// could cancel whatever unrelated event reused the struct. The ticket
// pairs the pointer with the event's unique sequence stamp; once the
// struct is reused the stamps disagree and the ticket degrades to a
// no-op. The zero Ticket is valid and cancels nothing.
type Ticket struct {
	ev  *Event
	seq uint64
}

// Active reports whether the ticket still names a live (queued,
// uncancelled) incarnation of its event.
func (t Ticket) Active() bool {
	return t.ev != nil && t.ev.seq == t.seq && !t.ev.canceled
}

// PostTicket queues fn at absolute time at as a pooled event — the
// allocation-free path of Post — and returns a Ticket for it. Use this
// over Schedule when a hot path needs to re-arm a single logical timer:
// the event struct recycles through the pool, and the stale ticket left
// behind after it fires is harmless.
func (k *Kernel) PostTicket(at Time, fn func()) Ticket {
	e := k.newEvent(at, 0, fn, true)
	return Ticket{ev: e, seq: e.seq}
}

// CancelTicket cancels the ticketed event if that incarnation is still
// queued; stale tickets (the event fired, and its struct may since have
// been reused) and the zero Ticket are no-ops.
func (k *Kernel) CancelTicket(t Ticket) {
	if t.ev != nil && t.ev.seq == t.seq {
		t.ev.canceled = true
	}
}

// Step fires the next pending event. It returns false when the queue is
// empty (after discarding canceled events).
func (k *Kernel) Step() bool {
	for len(k.queue) > 0 {
		e := k.queue.pop()
		if e.canceled {
			k.recycle(e)
			continue
		}
		if e.at < k.now {
			panic("sim: event queue time went backwards")
		}
		k.now = e.at
		k.nFired++
		fn, fnA, arg := e.fn, e.fnA, e.arg
		// Recycle before calling: the callback may schedule new events,
		// which can then reuse this struct — safe, as no handle exists.
		k.recycle(e)
		if fnA != nil {
			fnA(arg)
		} else {
			fn()
		}
		return true
	}
	return false
}

// Run fires events until the queue drains or until stop returns true
// (checked before each event). It returns the number of events fired.
//
// Run batch-drains the heap: all head events sharing the same
// (time, priority) are popped in one pass and dispatched without
// re-entering the heap per event, which skips one sift-down per
// simultaneous event — the common case in barrier-heavy workloads
// (window kicks, collective steps). Firing order is identical to the
// one-Step-at-a-time loop: batch members fire in seq order, and if a
// callback schedules an event that sorts before the rest of the batch,
// the tail is pushed back so the new event takes its proper turn.
func (k *Kernel) Run(stop func() bool) uint64 {
	start := k.nFired
	batch := k.batch[:0]
	defer func() {
		for i := range batch[:cap(batch)] {
			batch[:cap(batch)][i] = nil
		}
		k.batch = batch[:0]
	}()
	for {
		// Collect the run of head events sharing (at, priority).
		batch = batch[:0]
		for len(k.queue) > 0 {
			e := k.queue[0]
			if e.canceled {
				k.recycle(k.queue.pop())
				continue
			}
			if len(batch) > 0 && (e.at != batch[0].at || e.priority != batch[0].priority) {
				break
			}
			batch = append(batch, k.queue.pop())
		}
		if len(batch) == 0 {
			return k.nFired - start
		}
		if batch[0].at < k.now {
			panic("sim: event queue time went backwards")
		}
		k.now = batch[0].at
		for i := 0; i < len(batch); i++ {
			e := batch[i]
			if e.canceled { // canceled by an earlier batch member
				k.recycle(e)
				continue
			}
			if stop != nil && stop() {
				// Re-queue the unfired tail (including e) so the caller
				// can resume; push preserves seq, so order is unchanged.
				for _, r := range batch[i:] {
					k.queue.push(r)
				}
				return k.nFired - start
			}
			if k.MaxEvents > 0 && k.nFired-start >= k.MaxEvents {
				panic(fmt.Sprintf("sim: exceeded MaxEvents=%d (runaway simulation?)", k.MaxEvents))
			}
			k.nFired++
			fn, fnA, arg := e.fn, e.fnA, e.arg
			k.recycle(e)
			if fnA != nil {
				fnA(arg)
			} else {
				fn()
			}
			// The callback may have scheduled an event that sorts before
			// the rest of the batch; re-queue the tail so it fires in its
			// proper place.
			if i+1 < len(batch) && len(k.queue) > 0 && k.queue[0].before(batch[i+1]) {
				for _, r := range batch[i+1:] {
					k.queue.push(r)
				}
				break
			}
		}
	}
}

// RunUntil fires events with timestamps <= deadline, leaving later events
// queued and advancing the clock to deadline if it passed it.
func (k *Kernel) RunUntil(deadline Time) {
	for len(k.queue) > 0 {
		e := k.queue[0]
		if e.canceled {
			k.recycle(k.queue.pop())
			continue
		}
		if e.at > deadline {
			break
		}
		k.Step()
	}
	if k.now < deadline {
		k.now = deadline
	}
}

// eventHeap is a min-heap on (at, priority, seq). The heap is hand-rolled
// rather than built on container/heap: sift operations on the concrete
// type inline and skip the interface dispatch that container/heap pays on
// every comparison — the kernel's hottest loop.
type eventHeap []*Event

func (h *eventHeap) push(e *Event) {
	q := append(*h, e)
	*h = q
	i := len(q) - 1
	e.index = int32(i)
	for i > 0 {
		parent := (i - 1) / 2
		if !q[i].before(q[parent]) {
			break
		}
		q[i], q[parent] = q[parent], q[i]
		q[i].index = int32(i)
		q[parent].index = int32(parent)
		i = parent
	}
}

func (h *eventHeap) pop() *Event {
	q := *h
	n := len(q) - 1
	top := q[0]
	q[0] = q[n]
	q[0].index = 0
	q[n] = nil
	q = q[:n]
	*h = q
	if n > 1 {
		h.down(0)
	}
	top.index = -1
	return top
}

func (h *eventHeap) down(i int) {
	q := *h
	n := len(q)
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		small := l
		if r := l + 1; r < n && q[r].before(q[l]) {
			small = r
		}
		if !q[small].before(q[i]) {
			break
		}
		q[i], q[small] = q[small], q[i]
		q[i].index = int32(i)
		q[small].index = int32(small)
		i = small
	}
}
