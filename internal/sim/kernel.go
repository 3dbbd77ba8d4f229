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
	queued   bool
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
func (e *Event) Pending() bool { return !e.canceled && e.queued }

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

// maxLanes is how many fixed-delay lanes a kernel keeps beside its heap.
// The chunk fabric posts almost all of its events at three delays (full
// and last chunk service, propagation), so a few lanes take most of them.
const maxLanes = 4

// Kernel is the discrete-event engine. The zero value is not usable; use
// NewKernel. Kernels are single-threaded: one goroutine owns a kernel and
// everything scheduled on it for the whole run.
//
// Queued events live in a binary heap plus up to maxLanes FIFO lanes.
// A lane holds handle-less priority-0 events posted with one fixed delay
// (PostAfter, PostArgAfter). The clock never runs backwards, so such
// events arrive already in firing order, and each lane admits an event
// only if it sorts at or after the lane's tail. Every queued event is
// therefore in a sorted FIFO or in the heap, and the next event is the
// earliest of the heap top and the lane heads: the (at, priority, seq)
// order is exactly that of a heap-only queue.
type Kernel struct {
	now    Time
	queue  eventHeap
	lanes  [maxLanes]lane
	seq    uint64
	nFired uint64
	// free recycles pooled (handle-less) events; see Post.
	free []*Event
	// allocs counts Event structs allocated (not served from the pool).
	allocs uint64
	// Hard safety cap on events fired in one Run; prevents runaway
	// simulations from spinning forever. Zero means no cap.
	MaxEvents uint64
}

// NewKernel returns a kernel with the clock at zero.
func NewKernel() *Kernel {
	return &Kernel{}
}

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
func (k *Kernel) Pending() int {
	n := len(k.queue)
	for i := range k.lanes {
		n += k.lanes[i].n
	}
	return n
}

// Schedule queues fn to run at absolute time at with priority 0.
// Scheduling in the past (or at NaN) panics: it always indicates a model
// bug.
func (k *Kernel) Schedule(at Time, fn func()) *Event {
	return k.push(k.newEvent(at, 0, fn, nil, nil, false))
}

// ScheduleAfter queues fn to run delay seconds from now.
func (k *Kernel) ScheduleAfter(delay Time, fn func()) *Event {
	return k.push(k.newEvent(k.now+delay, 0, fn, nil, nil, false))
}

// SchedulePrio queues fn at time at with an explicit tie-break priority.
func (k *Kernel) SchedulePrio(at Time, priority int, fn func()) *Event {
	return k.push(k.newEvent(at, priority, fn, nil, nil, false))
}

// Post queues fn at absolute time at without returning a cancellation
// handle. Handle-less events are recycled through an internal pool, so
// hot paths that schedule once per chunk (service completion, wire
// propagation, delivery) run allocation-free. Use Schedule when the
// caller needs to Cancel or inspect the event later.
func (k *Kernel) Post(at Time, fn func()) {
	k.push(k.newEvent(at, 0, fn, nil, nil, true))
}

// PostAfter queues fn to run delay seconds from now, without a handle.
func (k *Kernel) PostAfter(delay Time, fn func()) {
	k.pushAfter(delay, k.newEvent(k.now+delay, 0, fn, nil, nil, true))
}

// PostPrio queues fn at time at with a tie-break priority, no handle.
func (k *Kernel) PostPrio(at Time, priority int, fn func()) {
	k.push(k.newEvent(at, priority, fn, nil, nil, true))
}

// PostArg queues fn(arg) at absolute time at, without a handle. The
// argument rides in the pooled event struct, so callers that would
// otherwise close over one pointer per event (the per-chunk hot paths)
// schedule with zero allocations by reusing a long-lived fn.
func (k *Kernel) PostArg(at Time, fn func(any), arg any) {
	k.push(k.newEvent(at, 0, nil, fn, arg, true))
}

// PostArgAfter queues fn(arg) delay seconds from now, without a handle.
func (k *Kernel) PostArgAfter(delay Time, fn func(any), arg any) {
	k.pushAfter(delay, k.newEvent(k.now+delay, 0, nil, fn, arg, true))
}

// newEvent validates and stamps an event; exactly one of fn and fnA is
// set by the caller. The caller queues it with push or pushAfter.
func (k *Kernel) newEvent(at Time, priority int, fn func(), fnA func(any), arg any, pooled bool) *Event {
	if !(at >= k.now) { // also rejects NaN, which compares false
		panic(fmt.Sprintf("sim: schedule at %.9f before now %.9f", at, k.now))
	}
	if fn == nil && fnA == nil {
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
	e.fnA = fnA
	e.arg = arg
	e.seq = k.seq
	e.priority = int32(priority)
	e.canceled = false
	e.pooled = pooled
	return e
}

// push queues e on the heap.
func (k *Kernel) push(e *Event) *Event {
	k.queue.push(e)
	return e
}

// pushAfter queues a handle-less priority-0 event posted delay seconds
// from now: on the lane keyed by delay if e sorts at or after its tail,
// else on an empty lane re-keyed to delay, else on the heap.
func (k *Kernel) pushAfter(delay Time, e *Event) {
	var empty *lane
	for i := range k.lanes {
		l := &k.lanes[i]
		if l.delay == delay && (l.n == 0 || l.tail().at <= e.at) {
			l.push(e)
			return
		}
		if l.n == 0 && empty == nil {
			empty = l
		}
	}
	if empty == nil {
		k.queue.push(e)
		return
	}
	empty.delay = delay
	empty.push(e)
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
	e := k.push(k.newEvent(at, 0, fn, nil, nil, true))
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

// next returns the earliest queued event and the lane holding it (nil
// for the heap), discarding canceled events at the heap top; nil when
// nothing is queued. Lane events have no handle, so none is canceled.
// The event is left queued for fire.
func (k *Kernel) next() (*Event, *lane) {
	var e *Event
	for len(k.queue) > 0 {
		if e = k.queue[0]; !e.canceled {
			break
		}
		k.recycle(k.queue.pop())
		e = nil
	}
	var src *lane
	for i := range k.lanes {
		l := &k.lanes[i]
		if l.n > 0 {
			if h := l.ring[l.head]; e == nil || h.before(e) {
				e, src = h, l
			}
		}
	}
	if e != nil && e.at < k.now {
		panic("sim: event queue time went backwards")
	}
	return e, src
}

// fire dequeues e, which next returned with src, advances the clock to
// it and runs its callback.
func (k *Kernel) fire(e *Event, src *lane) {
	if src == nil {
		k.queue.pop()
	} else {
		src.pop()
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
}

// Step fires the next pending event. It returns false when the queue is
// empty (after discarding canceled events).
func (k *Kernel) Step() bool {
	e, src := k.next()
	if e == nil {
		return false
	}
	k.fire(e, src)
	return true
}

// Run fires events in the order Step would until the queue drains or
// until stop returns true, and returns the number of events fired. stop
// is checked before each event, with the clock already moved to that
// event's time; so once stop returns true, Now() is the time of the
// first unfired event, which stays queued and fires first on resume.
// stop must not schedule events.
func (k *Kernel) Run(stop func() bool) uint64 {
	start := k.nFired
	for {
		e, src := k.next()
		if e == nil {
			return k.nFired - start
		}
		k.now = e.at
		if stop != nil && stop() {
			return k.nFired - start
		}
		if k.MaxEvents > 0 && k.nFired-start >= k.MaxEvents {
			panic(fmt.Sprintf("sim: exceeded MaxEvents=%d (runaway simulation?)", k.MaxEvents))
		}
		k.fire(e, src)
	}
}

// RunUntil fires events with timestamps <= deadline, leaving later events
// queued and advancing the clock to deadline if it passed it.
func (k *Kernel) RunUntil(deadline Time) {
	for {
		e, src := k.next()
		if e == nil || e.at > deadline {
			break
		}
		k.fire(e, src)
	}
	if k.now < deadline {
		k.now = deadline
	}
}

// lane is a FIFO ring of queued events that were posted with one fixed
// delay, in firing order by construction (see Kernel). Lane events are
// pooled and handle-less, so nothing reads their queued flag, and a
// popped slot may keep its stale pointer: the kernel's free list holds
// the struct anyway.
type lane struct {
	delay Time
	ring  []*Event // empty or a power-of-two length
	head  int
	n     int
}

func (l *lane) tail() *Event {
	return l.ring[(l.head+l.n-1)&(len(l.ring)-1)]
}

func (l *lane) push(e *Event) {
	if l.n == len(l.ring) {
		ring := make([]*Event, max(16, 2*len(l.ring)))
		for i := 0; i < l.n; i++ {
			ring[i] = l.ring[(l.head+i)&(len(l.ring)-1)]
		}
		l.ring, l.head = ring, 0
	}
	l.ring[(l.head+l.n)&(len(l.ring)-1)] = e
	l.n++
}

func (l *lane) pop() {
	l.head = (l.head + 1) & (len(l.ring) - 1)
	l.n--
}

// eventHeap is a min-heap on (at, priority, seq). The heap is hand-rolled
// rather than built on container/heap: sift operations on the concrete
// type inline and skip the interface dispatch that container/heap pays on
// every comparison — the kernel's hottest loop.
type eventHeap []*Event

func (h *eventHeap) push(e *Event) {
	q := append(*h, e)
	*h = q
	e.queued = true
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !q[i].before(q[parent]) {
			break
		}
		q[i], q[parent] = q[parent], q[i]
		i = parent
	}
}

func (h *eventHeap) pop() *Event {
	q := *h
	n := len(q) - 1
	top := q[0]
	q[0] = q[n]
	q[n] = nil
	q = q[:n]
	*h = q
	if n > 1 {
		h.down(0)
	}
	top.queued = false
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
		i = small
	}
}
