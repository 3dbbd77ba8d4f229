package sim

import (
	"math/rand"
	"testing"
)

// buildTieHeavyWorkload schedules a random workload with many exact
// (at, priority) ties onto k. Each event appends its model ID to *out;
// some events chain follow-ups, including same-time ones at any
// priority, and cancel earlier tickets and handles. Priority-0 events
// are often posted through the lanes (PostAfter, PostArgAfter) at more
// distinct delays than there are lanes, zero included.
func buildTieHeavyWorkload(k *Kernel, rng *rand.Rand, out *[]int) {
	next := 0
	var tickets []Ticket
	var handles []*Event
	var add func(at float64, prio int, depth int)
	add = func(at float64, prio int, depth int) {
		id := next
		next++
		fn := func() {
			*out = append(*out, id)
			if depth > 0 && rng.Intn(3) == 0 {
				// Same-time follow-up at a random priority: may sort
				// before events already queued at this time.
				add(k.Now(), rng.Intn(5)-2, depth-1)
			}
			if depth > 0 && rng.Intn(3) == 0 {
				add(k.Now()+float64(rng.Intn(3))*0.5, rng.Intn(3), depth-1)
			}
			if n := len(tickets); n > 0 && rng.Intn(4) == 0 {
				k.CancelTicket(tickets[rng.Intn(n)])
			}
			if n := len(handles); n > 0 && rng.Intn(4) == 0 {
				k.Cancel(handles[rng.Intn(n)])
			}
		}
		switch r := rng.Intn(6); {
		case prio == 0 && r == 0:
			k.PostAfter(at-k.Now(), fn)
		case prio == 0 && r == 1:
			k.PostArgAfter(at-k.Now(), func(any) { fn() }, nil)
		case prio == 0 && r == 2:
			tickets = append(tickets, k.PostTicket(at, fn))
		case r < 4:
			k.PostPrio(at, prio, fn)
		default:
			handles = append(handles, k.SchedulePrio(at, prio, fn))
		}
	}
	for i := 0; i < 150; i++ {
		// Coarse times and few priorities force large simultaneous runs.
		add(float64(rng.Intn(10)), rng.Intn(3), 2)
	}
}

// TestRunMatchesStepLoop pins Run and RunUntil to the one-Step-at-a-time
// loop: all three fire the exact same event sequence, including under
// same-time follow-ups, cancellations and lane posts.
func TestRunMatchesStepLoop(t *testing.T) {
	for trial := 0; trial < 40; trial++ {
		seed := int64(4000 + trial)

		var stepped []int
		ks := NewKernel()
		buildTieHeavyWorkload(ks, rand.New(rand.NewSource(seed)), &stepped)
		for ks.Step() {
		}

		var ran []int
		kr := NewKernel()
		buildTieHeavyWorkload(kr, rand.New(rand.NewSource(seed)), &ran)
		kr.Run(nil)

		var until []int
		ku := NewKernel()
		buildTieHeavyWorkload(ku, rand.New(rand.NewSource(seed)), &until)
		for deadline := 0.0; ku.Pending() > 0; deadline += 0.5 {
			ku.RunUntil(deadline)
		}

		for _, c := range []struct {
			name  string
			k     *Kernel
			fired []int
		}{{"Run", kr, ran}, {"RunUntil", ku, until}} {
			if len(c.fired) != len(stepped) {
				t.Fatalf("trial %d: %s fired %d events, Step loop %d", trial, c.name, len(c.fired), len(stepped))
			}
			for i := range c.fired {
				if c.fired[i] != stepped[i] {
					t.Fatalf("trial %d: order diverges at %d: %s=%v Step=%v", trial, i, c.name, c.fired[i], stepped[i])
				}
			}
			if c.k.Fired() != ks.Fired() || c.k.Pending() != 0 {
				t.Fatalf("trial %d: %s Fired/Pending %d/%d, Step loop %d/0",
					trial, c.name, c.k.Fired(), c.k.Pending(), ks.Fired())
			}
		}
		if kr.Now() != ks.Now() {
			t.Fatalf("trial %d: Run clock %g, Step loop %g", trial, kr.Now(), ks.Now())
		}
	}
}

// TestRunStopMidBatchResumes stops Run in the middle of a same-(at,prio)
// run of events and checks a later Run resumes with identical total
// order.
func TestRunStopMidBatchResumes(t *testing.T) {
	k := NewKernel()
	var fired []int
	for i := 0; i < 10; i++ {
		id := i
		k.Post(1, func() { fired = append(fired, id) })
	}
	n := 0
	stopAfter3 := func() bool { n++; return n > 3 }
	k.Run(stopAfter3)
	if len(fired) != 3 {
		t.Fatalf("stopped run fired %d events, want 3", len(fired))
	}
	if k.Pending() != 7 {
		t.Fatalf("pending after stop = %d, want 7", k.Pending())
	}
	k.Run(nil)
	if len(fired) != 10 {
		t.Fatalf("resumed run total %d events, want 10", len(fired))
	}
	for i, id := range fired {
		if id != i {
			t.Fatalf("order broken across stop/resume: %v", fired)
		}
	}
}

// TestRunCancelWithinBatch has an event cancel a later one queued at
// the same time.
func TestRunCancelWithinBatch(t *testing.T) {
	k := NewKernel()
	var fired []string
	var victim *Event
	k.Post(1, func() {
		fired = append(fired, "canceler")
		k.Cancel(victim)
	})
	victim = k.Schedule(1, func() { fired = append(fired, "victim") })
	k.Post(1, func() { fired = append(fired, "bystander") })
	k.Run(nil)
	if len(fired) != 2 || fired[0] != "canceler" || fired[1] != "bystander" {
		t.Fatalf("fired = %v, want [canceler bystander]", fired)
	}
}

func TestPostArgDeliversArgument(t *testing.T) {
	k := NewKernel()
	type payload struct{ v int }
	var got []int
	sink := func(a any) { got = append(got, a.(*payload).v) }
	p1, p2 := &payload{1}, &payload{2}
	k.PostArg(2, sink, p2)
	k.PostArgAfter(1, sink, p1)
	k.Run(nil)
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("got %v, want [1 2]", got)
	}
}

// TestPostArgPoolReuse checks PostArg events flow through the same free
// list as Post events: steady-state scheduling allocates no new Events.
func TestPostArgPoolReuse(t *testing.T) {
	k := NewKernel()
	// Ping-pong a counter through PostArg and assert the pool bounds
	// Event allocations.
	var pong func(a any)
	pong = func(a any) {
		n := a.(int)
		if n < 1000 {
			k.PostArgAfter(1, pong, n+1)
		}
	}
	k.PostArg(0, pong, 0)
	k.Run(nil)
	if k.Fired() != 1001 {
		t.Fatalf("fired %d, want 1001", k.Fired())
	}
	if k.EventAllocs() > 4 {
		t.Fatalf("PostArg not pooled: %d event allocs for %d fired", k.EventAllocs(), k.Fired())
	}
}

func TestPostArgNilFuncPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("PostArg(nil) did not panic")
		}
	}()
	NewKernel().PostArg(0, nil, 1)
}
