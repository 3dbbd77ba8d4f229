// Package cpusim models each host's CPU as a processor-sharing server.
// The paper's testbed runs ~21 worker tasks on 6 dual-hyperthreaded
// cores (12 hardware threads), so compute is oversubscribed: when some
// workers block on late model updates the host's cores idle, and when
// stragglers shrink the same cores do more useful work — the mechanism
// behind Table II's CPU-utilization improvements.
package cpusim

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/sim"
)

// CPU is a processor-sharing server with a fixed number of hardware
// threads. Tasks demand up to one thread each; while aggregate demand
// exceeds the thread count, every task slows down proportionally.
type CPU struct {
	k       *sim.Kernel
	threads float64
	speed   float64 // per-thread speed factor (1 = reference host)

	// tasks is in submission order: tied completions retire, and fire
	// their callbacks, in that order on every run.
	tasks          []*Task
	sumDemand      float64
	lastUpdate     float64
	busyTime       float64    // cumulative thread-seconds of work done
	done           sim.Ticket // armed completion event (zero when none)
	completedTasks uint64

	// onCompletionFn is bound once so rescheduling the (pooled)
	// completion event never allocates a closure; finishedBuf keeps the
	// retire pass off the allocator.
	onCompletionFn func()
	finishedBuf    []*Task
}

// Task is one unit of compute work in progress.
type Task struct {
	cpu       *CPU
	remaining float64 // single-thread seconds left
	demand    float64 // thread demand (usually 1)
	onDone    func()
	canceled  bool
}

// Remaining returns single-thread seconds of work left (advanced to the
// last CPU event, not necessarily to "now").
func (t *Task) Remaining() float64 { return t.remaining }

// NewCPU creates a CPU with the given hardware thread count.
func NewCPU(k *sim.Kernel, threads float64) *CPU {
	return NewCPUAtSpeed(k, threads, 1)
}

// NewCPUAtSpeed creates a CPU with the given thread count and per-
// thread speed factor — the constructor heterogeneous testbeds use, so
// a host is born at its hardware speed rather than mutated after the
// fact.
func NewCPUAtSpeed(k *sim.Kernel, threads, speed float64) *CPU {
	if threads <= 0 {
		panic(fmt.Sprintf("cpusim: threads must be positive, got %g", threads))
	}
	if speed <= 0 {
		panic(fmt.Sprintf("cpusim: speed must be positive, got %g", speed))
	}
	c := &CPU{k: k, threads: threads, speed: speed}
	c.onCompletionFn = c.onCompletion
	return c
}

// SetSpeed scales the host's per-thread speed (1 = the reference host
// the model zoo is calibrated on; 0.5 = half as fast). Heterogeneous
// speeds turn some hosts into compute-bound straggler sources, which
// NIC scheduling cannot fix — a useful negative control.
func (c *CPU) SetSpeed(speed float64) {
	if speed <= 0 {
		panic(fmt.Sprintf("cpusim: speed must be positive, got %g", speed))
	}
	c.advance()
	c.speed = speed
	c.reschedule()
}

// Speed returns the host speed factor.
func (c *CPU) Speed() float64 { return c.speed }

// Threads returns the hardware thread count.
func (c *CPU) Threads() float64 { return c.threads }

// Active returns the number of tasks currently computing.
func (c *CPU) Active() int { return len(c.tasks) }

// Completed returns the number of tasks finished so far.
func (c *CPU) Completed() uint64 { return c.completedTasks }

// BusyTime returns cumulative thread-seconds consumed, advanced to now.
// Divide by (threads × wall time) for utilization.
func (c *CPU) BusyTime() float64 {
	c.advance()
	return c.busyTime
}

// speedup is the per-unit-demand execution rate under processor sharing.
func (c *CPU) speedup() float64 {
	if c.sumDemand <= c.threads {
		return c.speed
	}
	return c.speed * c.threads / c.sumDemand
}

// advance applies elapsed work to all tasks.
func (c *CPU) advance() {
	now := c.k.Now()
	dt := now - c.lastUpdate
	if dt <= 0 {
		return
	}
	c.lastUpdate = now
	if len(c.tasks) == 0 {
		return
	}
	s := c.speedup()
	for _, t := range c.tasks {
		t.remaining -= dt * s * t.demand
		if t.remaining < 0 {
			t.remaining = 0
		}
	}
	c.busyTime += dt * math.Min(c.sumDemand, c.threads)
}

// reschedule points the completion event at the earliest finishing task.
func (c *CPU) reschedule() {
	c.k.CancelTicket(c.done)
	c.done = sim.Ticket{}
	if len(c.tasks) == 0 {
		return
	}
	s := c.speedup()
	earliest := sim.Forever
	for _, t := range c.tasks {
		eta := t.remaining / (s * t.demand)
		if eta < earliest {
			earliest = eta
		}
	}
	c.done = c.k.PostTicket(c.k.Now()+earliest, c.onCompletionFn)
}

// onCompletion retires every task that has reached zero work.
func (c *CPU) onCompletion() {
	c.done = sim.Ticket{}
	c.advance()
	const eps = 1e-12
	finished := c.finishedBuf[:0]
	live := c.tasks[:0]
	for _, t := range c.tasks {
		if t.remaining <= eps {
			finished = append(finished, t)
			c.sumDemand -= t.demand
		} else {
			live = append(live, t)
		}
	}
	clear(c.tasks[len(live):])
	c.tasks = live
	if c.sumDemand < 0 {
		c.sumDemand = 0
	}
	c.reschedule()
	for _, t := range finished {
		c.completedTasks++
		if t.onDone != nil && !t.canceled {
			t.onDone()
		}
	}
	// Callbacks only Submit/Cancel (they cannot re-enter onCompletion
	// synchronously), so the scratch buffer is ours for the whole pass.
	// Drop the callback and task references before parking it: callers
	// may keep a retired *Task, and a retained onDone would pin
	// everything the closure captured.
	for i, t := range finished {
		t.onDone = nil
		finished[i] = nil
	}
	c.finishedBuf = finished[:0]
}

// Submit adds a task needing `work` single-thread seconds with the given
// thread demand; onDone fires when it completes. Zero work completes on
// the next event tick without a callback race. Each task is its own
// allocation and is never reused: callers may hold the returned handle
// past completion, and Cancel on it is then a no-op.
func (c *CPU) Submit(work, demand float64, onDone func()) *Task {
	if work < 0 {
		panic("cpusim: negative work")
	}
	if demand <= 0 {
		demand = 1
	}
	if demand > 1 {
		demand = 1
	}
	c.advance()
	t := &Task{cpu: c, remaining: work, demand: demand, onDone: onDone}
	c.tasks = append(c.tasks, t)
	c.sumDemand += demand
	c.reschedule()
	return t
}

// Cancel removes a task before completion; its callback never fires.
func (c *CPU) Cancel(t *Task) {
	if t == nil || t.canceled {
		return
	}
	t.canceled = true
	t.onDone = nil
	i := slices.Index(c.tasks, t)
	if i < 0 {
		return
	}
	c.advance()
	c.tasks = slices.Delete(c.tasks, i, i+1)
	c.sumDemand -= t.demand
	if c.sumDemand < 0 {
		c.sumDemand = 0
	}
	c.reschedule()
}
