package cpusim

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func TestSingleTaskExactTiming(t *testing.T) {
	k := sim.NewKernel()
	c := NewCPU(k, 4)
	done := -1.0
	c.Submit(2.5, 1, func() { done = k.Now() })
	k.Run(nil)
	if math.Abs(done-2.5) > 1e-9 {
		t.Fatalf("finished at %v, want 2.5", done)
	}
	if c.Completed() != 1 {
		t.Fatal("completed count")
	}
}

func TestUndersubscribedRunsAtFullSpeed(t *testing.T) {
	k := sim.NewKernel()
	c := NewCPU(k, 4)
	var finish []float64
	for i := 0; i < 3; i++ {
		c.Submit(1.0, 1, func() { finish = append(finish, k.Now()) })
	}
	k.Run(nil)
	for _, f := range finish {
		if math.Abs(f-1.0) > 1e-9 {
			t.Fatalf("3 tasks on 4 threads must run unslowed, got %v", finish)
		}
	}
}

func TestOversubscribedProcessorSharing(t *testing.T) {
	k := sim.NewKernel()
	c := NewCPU(k, 2)
	var finish []float64
	for i := 0; i < 4; i++ {
		c.Submit(1.0, 1, func() { finish = append(finish, k.Now()) })
	}
	k.Run(nil)
	// 4 demand on 2 threads -> everyone at half speed -> 2.0 s.
	for _, f := range finish {
		if math.Abs(f-2.0) > 1e-9 {
			t.Fatalf("processor sharing wrong: %v", finish)
		}
	}
}

func TestSpeedupChangesOnCompletion(t *testing.T) {
	k := sim.NewKernel()
	c := NewCPU(k, 1)
	var longDone float64
	c.Submit(1.0, 1, nil)
	c.Submit(2.0, 1, func() { longDone = k.Now() })
	k.Run(nil)
	// Both share 1 thread: short finishes at 2 (each got 0.5 rate),
	// then long runs alone: 1 unit left at full speed -> 3.0.
	if math.Abs(longDone-3.0) > 1e-9 {
		t.Fatalf("long task finished at %v, want 3.0", longDone)
	}
}

func TestBusyTimeAccounting(t *testing.T) {
	k := sim.NewKernel()
	c := NewCPU(k, 2)
	c.Submit(1.0, 1, nil)
	c.Submit(1.0, 1, nil)
	c.Submit(1.0, 1, nil)
	k.Run(nil)
	// Total work = 3 thread-seconds regardless of sharing.
	if math.Abs(c.BusyTime()-3.0) > 1e-9 {
		t.Fatalf("busy time %v, want 3.0", c.BusyTime())
	}
}

func TestCancelPreventsCallback(t *testing.T) {
	k := sim.NewKernel()
	c := NewCPU(k, 1)
	fired := false
	task := c.Submit(1.0, 1, func() { fired = true })
	c.Cancel(task)
	k.Run(nil)
	if fired {
		t.Fatal("canceled task fired")
	}
	if c.Active() != 0 {
		t.Fatal("canceled task still active")
	}
	c.Cancel(task) // double cancel is a no-op
	c.Cancel(nil)
}

func TestCancelRestoresSpeed(t *testing.T) {
	k := sim.NewKernel()
	c := NewCPU(k, 1)
	var done float64
	keep := c.Submit(2.0, 1, func() { done = k.Now() })
	_ = keep
	drop := c.Submit(10.0, 1, nil)
	k.ScheduleAfter(1.0, func() { c.Cancel(drop) })
	k.Run(nil)
	// First second shared (0.5 done), then full speed for remaining 1.5.
	if math.Abs(done-2.5) > 1e-9 {
		t.Fatalf("finished at %v, want 2.5", done)
	}
}

func TestZeroWorkCompletes(t *testing.T) {
	k := sim.NewKernel()
	c := NewCPU(k, 1)
	fired := false
	c.Submit(0, 1, func() { fired = true })
	k.Run(nil)
	if !fired {
		t.Fatal("zero-work task never completed")
	}
}

func TestSubmitFromCallback(t *testing.T) {
	k := sim.NewKernel()
	c := NewCPU(k, 1)
	var second float64
	c.Submit(1.0, 1, func() {
		c.Submit(1.0, 1, func() { second = k.Now() })
	})
	k.Run(nil)
	if math.Abs(second-2.0) > 1e-9 {
		t.Fatalf("chained task finished at %v", second)
	}
}

func TestDemandClamping(t *testing.T) {
	k := sim.NewKernel()
	c := NewCPU(k, 4)
	var done float64
	c.Submit(1.0, 7, func() { done = k.Now() }) // demand clamps to 1
	k.Run(nil)
	if math.Abs(done-1.0) > 1e-9 {
		t.Fatalf("demand>1 not clamped: %v", done)
	}
	c.Submit(1.0, -1, nil) // demand defaults to 1, no panic
	k.Run(nil)
}

func TestFractionalDemand(t *testing.T) {
	k := sim.NewKernel()
	c := NewCPU(k, 1)
	var done float64
	c.Submit(1.0, 0.5, func() { done = k.Now() })
	k.Run(nil)
	// Demand 0.5 alone on 1 thread: rate 0.5 -> 2 s.
	if math.Abs(done-2.0) > 1e-9 {
		t.Fatalf("fractional demand timing %v", done)
	}
}

func TestNegativeWorkPanics(t *testing.T) {
	k := sim.NewKernel()
	c := NewCPU(k, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("negative work accepted")
		}
	}()
	c.Submit(-1, 1, nil)
}

func TestBadThreadsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero threads accepted")
		}
	}()
	NewCPU(sim.NewKernel(), 0)
}

// Property: total busy time equals total completed work for any batch of
// task sizes, and every task completes.
func TestWorkConservationProperty(t *testing.T) {
	f := func(sizes []uint8) bool {
		k := sim.NewKernel()
		c := NewCPU(k, 3)
		total := 0.0
		n := 0
		for _, s := range sizes {
			w := float64(s%50) / 10
			total += w
			n++
			c.Submit(w, 1, nil)
		}
		k.Run(nil)
		return math.Abs(c.BusyTime()-total) < 1e-6 && c.Completed() == uint64(n) && c.Active() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: staggered arrivals never finish before their work/speedup
// bound and never exceed the fully-serialized bound.
func TestTimingBoundsProperty(t *testing.T) {
	f := func(sizes []uint8, gaps []uint8) bool {
		k := sim.NewKernel()
		c := NewCPU(k, 2)
		at := 0.0
		total := 0.0
		ok := true
		for i, s := range sizes {
			w := float64(s%40)/10 + 0.1
			total += w
			if i < len(gaps) {
				at += float64(gaps[i]%5) / 10
			}
			submitAt, work := at, w
			k.Schedule(at, func() {
				start := k.Now()
				c.Submit(work, 1, func() {
					elapsed := k.Now() - start
					if elapsed < work-1e-9 {
						ok = false // finished faster than full speed
					}
					_ = submitAt
				})
			})
		}
		k.Run(nil)
		return ok && c.Active() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestSpeedFactor(t *testing.T) {
	k := sim.NewKernel()
	c := NewCPU(k, 4)
	c.SetSpeed(0.5)
	if c.Speed() != 0.5 {
		t.Fatal("speed accessor")
	}
	var done float64
	c.Submit(1.0, 1, func() { done = k.Now() })
	k.Run(nil)
	if math.Abs(done-2.0) > 1e-9 {
		t.Fatalf("half-speed task finished at %v, want 2.0", done)
	}
}

func TestSpeedChangeMidTask(t *testing.T) {
	k := sim.NewKernel()
	c := NewCPU(k, 1)
	var done float64
	c.Submit(2.0, 1, func() { done = k.Now() })
	// Full speed for 1s (1 unit done), then half speed for the rest.
	k.ScheduleAfter(1.0, func() { c.SetSpeed(0.5) })
	k.Run(nil)
	if math.Abs(done-3.0) > 1e-9 {
		t.Fatalf("task finished at %v, want 3.0", done)
	}
}

func TestSetSpeedPanicsOnZero(t *testing.T) {
	k := sim.NewKernel()
	c := NewCPU(k, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("zero speed accepted")
		}
	}()
	c.SetSpeed(0)
}

// TestTiedCompletionsFireInSubmissionOrder: tasks that finish at the
// same instant retire in one pass, and their callbacks must fire in the
// order the tasks were submitted. Callback order decides kernel
// sequence numbers downstream, so any other order would make identical
// seeds yield different traces.
func TestTiedCompletionsFireInSubmissionOrder(t *testing.T) {
	const tasks = 6
	for run := 0; run < 200; run++ {
		k := sim.NewKernel()
		c := NewCPU(k, 12)
		var order []int
		for i := 0; i < tasks; i++ {
			i := i
			c.Submit(1.0, 1, func() { order = append(order, i) })
		}
		k.Run(nil)
		if len(order) != tasks {
			t.Fatalf("run %d: %d of %d tasks completed", run, len(order), tasks)
		}
		for i, got := range order {
			if got != i {
				t.Fatalf("run %d: completion order %v, want submission order", run, order)
			}
		}
	}
}

// TestTaskAllocationAndRetainedHandle guards the per-host memory cost of
// a CPU: a fresh CPU that runs one task must allocate a few hundred
// bytes, not a block of tasks it never uses. A 10,240-host testbed
// submits about one task per CPU per trial, so any per-CPU block is
// paid on every host. It also pins the handle contract that rules out
// reusing tasks: a *Task kept past completion reads no remaining work,
// and cancelling it fires nothing.
func TestTaskAllocationAndRetainedHandle(t *testing.T) {
	const maxBytes = 512
	k := sim.NewKernel()
	res := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			c := NewCPU(k, 12)
			c.Submit(1.0, 1, nil)
			k.Run(nil)
		}
	})
	if got := res.AllocedBytesPerOp(); got > maxBytes {
		t.Errorf("NewCPU + one Submit + Run allocates %d B, want <= %d", got, maxBytes)
	}

	c := NewCPU(k, 12)
	fired := 0
	task := c.Submit(1.0, 1, func() { fired++ })
	k.Run(nil)
	if fired != 1 {
		t.Fatalf("callback fired %d times, want 1", fired)
	}
	if task.Remaining() != 0 {
		t.Fatalf("retained handle reads %v remaining, want 0", task.Remaining())
	}
	c.Cancel(task)
	k.Run(nil)
	if fired != 1 || c.Active() != 0 || c.Completed() != 1 {
		t.Fatalf("Cancel after completion: fired %d, active %d, completed %d; want 1, 0, 1",
			fired, c.Active(), c.Completed())
	}
}
