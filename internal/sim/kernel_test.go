package sim

import (
	"math"
	"strings"
	"testing"
)

func TestKernelFiresInTimeOrder(t *testing.T) {
	k := NewKernel()
	var got []int
	k.Schedule(3.0, func() { got = append(got, 3) })
	k.Schedule(1.0, func() { got = append(got, 1) })
	k.Schedule(2.0, func() { got = append(got, 2) })
	k.Run(nil)
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("fire order %v, want %v", got, want)
		}
	}
	if k.Now() != 3.0 {
		t.Fatalf("clock at %v, want 3.0", k.Now())
	}
}

func TestKernelTieBreakBySeq(t *testing.T) {
	k := NewKernel()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		k.Schedule(1.0, func() { got = append(got, i) })
	}
	k.Run(nil)
	for i := 0; i < 10; i++ {
		if got[i] != i {
			t.Fatalf("same-time events fired out of insertion order: %v", got)
		}
	}
}

func TestKernelTieBreakByPriority(t *testing.T) {
	k := NewKernel()
	var got []int
	k.SchedulePrio(1.0, 5, func() { got = append(got, 5) })
	k.SchedulePrio(1.0, 1, func() { got = append(got, 1) })
	k.SchedulePrio(1.0, 3, func() { got = append(got, 3) })
	k.Run(nil)
	want := []int{1, 3, 5}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("priority order %v, want %v", got, want)
		}
	}
}

func TestKernelCancel(t *testing.T) {
	k := NewKernel()
	fired := false
	e := k.Schedule(1.0, func() { fired = true })
	k.Cancel(e)
	k.Run(nil)
	if fired {
		t.Fatal("canceled event fired")
	}
	if !e.Canceled() {
		t.Fatal("event not marked canceled")
	}
	// Cancelling nil and double-cancel are no-ops.
	k.Cancel(nil)
	k.Cancel(e)
}

func TestKernelScheduleDuringEvent(t *testing.T) {
	k := NewKernel()
	var order []string
	k.Schedule(1.0, func() {
		order = append(order, "first")
		k.ScheduleAfter(0.5, func() { order = append(order, "second") })
	})
	k.Run(nil)
	if len(order) != 2 || order[0] != "first" || order[1] != "second" {
		t.Fatalf("nested scheduling order %v", order)
	}
	if k.Now() != 1.5 {
		t.Fatalf("clock %v, want 1.5", k.Now())
	}
}

func TestKernelSchedulePastPanics(t *testing.T) {
	k := NewKernel()
	k.Schedule(5.0, func() {})
	k.Run(nil)
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	k.Schedule(1.0, func() {})
}

func TestKernelScheduleNilFuncPanics(t *testing.T) {
	k := NewKernel()
	defer func() {
		if recover() == nil {
			t.Fatal("nil func did not panic")
		}
	}()
	k.Schedule(1.0, nil)
}

func TestKernelRunUntil(t *testing.T) {
	k := NewKernel()
	var fired []float64
	for _, at := range []float64{1, 2, 3, 4} {
		at := at
		k.Schedule(at, func() { fired = append(fired, at) })
	}
	k.RunUntil(2.5)
	if len(fired) != 2 {
		t.Fatalf("fired %v, want events at 1 and 2", fired)
	}
	if k.Now() != 2.5 {
		t.Fatalf("clock %v, want 2.5", k.Now())
	}
	k.Run(nil)
	if len(fired) != 4 {
		t.Fatalf("remaining events lost: %v", fired)
	}
}

func TestKernelRunUntilAdvancesIdleClock(t *testing.T) {
	k := NewKernel()
	k.RunUntil(10)
	if k.Now() != 10 {
		t.Fatalf("idle clock %v, want 10", k.Now())
	}
}

func TestKernelStop(t *testing.T) {
	k := NewKernel()
	count := 0
	for i := 1; i <= 100; i++ {
		k.Schedule(float64(i), func() { count++ })
	}
	k.Run(func() bool { return count >= 10 })
	if count != 10 {
		t.Fatalf("stop predicate ignored: fired %d", count)
	}
}

func TestKernelMaxEventsPanics(t *testing.T) {
	k := NewKernel()
	k.MaxEvents = 5
	var loop func()
	loop = func() { k.ScheduleAfter(1, loop) }
	k.ScheduleAfter(1, loop)
	defer func() {
		if recover() == nil {
			t.Fatal("runaway simulation did not panic")
		}
	}()
	k.Run(nil)
}

func TestKernelStepEmpty(t *testing.T) {
	k := NewKernel()
	if k.Step() {
		t.Fatal("Step on empty queue returned true")
	}
}

func TestEventAccessors(t *testing.T) {
	k := NewKernel()
	e := k.Schedule(2.5, func() {})
	if e.At() != 2.5 {
		t.Fatalf("At %v", e.At())
	}
	if !e.Pending() {
		t.Fatal("queued event not pending")
	}
	k.Run(nil)
	if e.Pending() {
		t.Fatal("fired event still pending")
	}
	if k.Fired() != 1 {
		t.Fatalf("Fired %d, want 1", k.Fired())
	}
}

func TestKernelManyEventsHeapStress(t *testing.T) {
	k := NewKernel()
	rng := NewRNG(99)
	n := 5000
	var last float64 = -1
	bad := false
	for i := 0; i < n; i++ {
		at := rng.Float64() * 100
		k.Schedule(at, func() {
			if k.Now() < last {
				bad = true
			}
			last = k.Now()
		})
	}
	k.Run(nil)
	if bad {
		t.Fatal("clock went backwards")
	}
	if k.Fired() != uint64(n) {
		t.Fatalf("fired %d of %d", k.Fired(), n)
	}
}

func TestKernelCancelInterleaved(t *testing.T) {
	k := NewKernel()
	rng := NewRNG(7)
	events := make([]*Event, 0, 1000)
	fired := 0
	for i := 0; i < 1000; i++ {
		events = append(events, k.Schedule(rng.Float64()*10, func() { fired++ }))
	}
	canceled := 0
	for i := 0; i < 1000; i += 3 {
		k.Cancel(events[i])
		canceled++
	}
	k.Run(nil)
	if fired != 1000-canceled {
		t.Fatalf("fired %d, want %d", fired, 1000-canceled)
	}
}

// TestKernelRejectsNaNTime checks every Post and Schedule form panics on
// a NaN time or delay, which compares false against the clock and would
// otherwise be queued and break the queue's order.
func TestKernelRejectsNaNTime(t *testing.T) {
	nan := math.NaN()
	fn := func() {}
	fnA := func(any) {}
	for _, c := range []struct {
		name string
		post func(k *Kernel)
	}{
		{"Schedule", func(k *Kernel) { k.Schedule(nan, fn) }},
		{"ScheduleAfter", func(k *Kernel) { k.ScheduleAfter(nan, fn) }},
		{"SchedulePrio", func(k *Kernel) { k.SchedulePrio(nan, 1, fn) }},
		{"Post", func(k *Kernel) { k.Post(nan, fn) }},
		{"PostAfter", func(k *Kernel) { k.PostAfter(nan, fn) }},
		{"PostPrio", func(k *Kernel) { k.PostPrio(nan, 1, fn) }},
		{"PostArg", func(k *Kernel) { k.PostArg(nan, fnA, nil) }},
		{"PostArgAfter", func(k *Kernel) { k.PostArgAfter(nan, fnA, nil) }},
		{"PostTicket", func(k *Kernel) { k.PostTicket(nan, fn) }},
	} {
		k := NewKernel()
		k.Post(1, fn)
		k.PostAfter(2, fn)
		k.Step()
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, "schedule at NaN before now") {
					t.Errorf("%s(NaN): panic %q, want a schedule-before-now panic", c.name, msg)
				}
			}()
			c.post(k)
		}()
		if k.Pending() != 1 {
			t.Errorf("%s(NaN): %d events pending, want the 1 queued before", c.name, k.Pending())
		}
	}
}

// TestKernelRunStopClock pins the clock Run leaves behind when stop ends
// it: stop runs with the clock already at the next event, so afterwards
// Now() is the first unfired event's time (canceled events skipped), and
// resuming fires that event first. Run results read this clock.
func TestKernelRunStopClock(t *testing.T) {
	k := NewKernel()
	var fired []string
	k.Post(1, func() { fired = append(fired, "a") })
	k.Cancel(k.Schedule(1.5, func() { fired = append(fired, "canceled") }))
	k.PostAfter(2, func() { fired = append(fired, "b") })
	k.Post(3, func() { fired = append(fired, "c") })
	k.Run(func() bool { return len(fired) == 1 })
	if len(fired) != 1 || k.Now() != 2 {
		t.Fatalf("stopped after %v with the clock at %v, want [a] at 2", fired, k.Now())
	}
	if !k.Step() || fired[1] != "b" || k.Now() != 2 {
		t.Fatalf("resume fired %v with the clock at %v, want b at 2", fired, k.Now())
	}
	k.Run(func() bool { return true })
	if len(fired) != 2 || k.Now() != 3 {
		t.Fatalf("stop before c: fired %v with the clock at %v, want [a b] at 3", fired, k.Now())
	}
}
