package sim

import "testing"

// BenchmarkKernelPost measures the pooled, handle-less schedule/fire
// path — the hot loop under simnet's per-chunk events. After warmup the
// free list serves every event, so allocs/op should be ~0.
func BenchmarkKernelPost(b *testing.B) {
	k := NewKernel()
	b.ReportAllocs()
	fn := func() {}
	for i := 0; i < b.N; i++ {
		k.PostAfter(1, fn)
		k.Step()
	}
	b.ReportMetric(float64(k.EventAllocs())/float64(b.N), "eventallocs/op")
}

// BenchmarkKernelSchedule measures the handle-returning path, which
// must allocate a fresh Event per call (handles may outlive the fire).
func BenchmarkKernelSchedule(b *testing.B) {
	k := NewKernel()
	b.ReportAllocs()
	fn := func() {}
	for i := 0; i < b.N; i++ {
		k.ScheduleAfter(1, fn)
		k.Step()
	}
}

// BenchmarkKernelHeapChurn keeps a deep queue (1024 pending events) so
// every push/pop pays full sift depth — the heap's worst case.
func BenchmarkKernelHeapChurn(b *testing.B) {
	k := NewKernel()
	fn := func() {}
	const depth = 1024
	// Seed the queue with a spread of deadlines.
	for i := 0; i < depth; i++ {
		k.Post(float64(i%37)+1, fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.Post(k.Now()+float64(i%37)+1, fn)
		k.Step()
	}
}

// BenchmarkKernelCancel measures scheduling plus cancellation plus the
// lazy discard when the canceled event surfaces.
func BenchmarkKernelCancel(b *testing.B) {
	k := NewKernel()
	fn := func() {}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := k.ScheduleAfter(1, fn)
		k.Cancel(e)
		k.PostAfter(2, fn)
		k.Step()
	}
}

// BenchmarkKernelFixedDelays reproduces a grid trial's event mix: 20
// chunk streams that re-post themselves through PostArgAfter at the
// chunk fabric's three fixed delays (full-chunk service, propagation and
// last-chunk service, 7:4:1 as in a grid trial), plus 21 cpusim-style
// tickets, each re-armed when it fires and every so often cancelled and
// re-armed early. About 45 events stay pending. After warm-up every
// event comes from the pool, so eventallocs/op should be 0.
func BenchmarkKernelFixedDelays(b *testing.B) {
	const (
		streams = 20
		timers  = 21
		full    = 262.144e-6
		prop    = 20e-6
		last    = 32.992e-6
	)
	delays := [12]float64{full, prop, full, prop, full, full, prop, full, full, prop, full, last}
	k := NewKernel()
	tickets := make([]Ticket, timers)
	arms := make([]func(), timers)
	for j := range arms {
		arms[j] = func() { tickets[j] = k.PostTicket(k.Now()+float64(1+j%7)*1e-3, arms[j]) }
		arms[j]()
	}
	n := 0
	var chunk func(any)
	chunk = func(any) {
		n++
		if n%96 == 0 {
			j := n / 96 % timers
			k.CancelTicket(tickets[j])
			arms[j]()
		}
		k.PostArgAfter(delays[n%len(delays)], chunk, nil)
	}
	for i := 0; i < streams; i++ {
		k.PostArgAfter(delays[i%len(delays)], chunk, nil)
	}
	for i := 0; i < 10000; i++ {
		k.Step()
	}
	allocs := k.EventAllocs()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.Step()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/event")
	b.ReportMetric(float64(k.EventAllocs()-allocs)/float64(b.N), "eventallocs/op")
	b.ReportMetric(float64(k.Pending()), "pending")
}
