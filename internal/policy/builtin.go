package policy

// Builtin adapters: the paper's policies, previously hard-coded in
// core.Controller, re-expressed against the Policy interface. Their
// ranking semantics (including tie-breaks and RNG draw order) are
// byte-for-byte compatible with the pre-registry controller; the sweep
// package's golden-trace regression test enforces that.

func init() {
	Register("FIFO", func(Params) Policy { return fifo{} })
	Register("TLs-One", func(p Params) Policy { return &static{p: p} })
	Register("TLs-RR", func(p Params) Policy { return &roundRobin{p: p} })
	Register("TLs-LPF", func(p Params) Policy { return &leastProgress{p: p} })
	Register("StaticRate", func(p Params) Policy { return &staticRate{p: p} })
}

// fifo is the paper's baseline: TensorLights disabled, NICs on their
// default qdisc. Rank is never consulted.
type fifo struct{}

func (fifo) Name() string { return "FIFO" }

func (fifo) Rank(int, []Job, *Feedback) []int { return nil }

func (fifo) NoOp() {}

// static is TLs-One: one ranking per membership change, in the
// configured static order.
type static struct{ p Params }

func (s *static) Name() string { return "TLs-One" }

func (s *static) Rank(host int, jobs []Job, _ *Feedback) []int {
	orderJobs(jobs, s.p.Order, s.p.RNG)
	return SpreadBands(len(jobs), s.p.Bands, 0)
}

// roundRobin is TLs-RR: the static order with a rotation offset that
// advances every interval — the paper's green/yellow light change.
type roundRobin struct {
	p        Params
	rotation int
}

func (r *roundRobin) Name() string { return "TLs-RR" }

func (r *roundRobin) Rank(host int, jobs []Job, _ *Feedback) []int {
	orderJobs(jobs, r.p.Order, r.p.RNG)
	return SpreadBands(len(jobs), r.p.Bands, r.rotation)
}

func (r *roundRobin) RotateInterval() float64 { return r.p.IntervalSec }

func (r *roundRobin) Advance(float64) { r.rotation++ }

// leastProgress is TLs-LPF: every interval, jobs are re-ranked
// least-progress-first so whichever job has fallen behind gets the
// green light next — TLs-RR's fairness goal with feedback instead of
// blind rotation. The progress signal rides on Job (the controller
// records it from barrier callbacks), so LPF needs no Feedback
// collector.
type leastProgress struct{ p Params }

func (l *leastProgress) Name() string { return "TLs-LPF" }

func (l *leastProgress) Rank(host int, jobs []Job, _ *Feedback) []int {
	sortBy(jobs, func(a, b Job) bool {
		if a.Progress != b.Progress {
			return a.Progress < b.Progress
		}
		return a.ArrivalSeq < b.ArrivalSeq
	})
	return SpreadBands(len(jobs), l.p.Bands, 0)
}

func (l *leastProgress) RotateInterval() float64 { return l.p.IntervalSec }

func (l *leastProgress) Advance(float64) {}

// staticRate is the paper's §VII transmission-layer alternative: each
// contending job pinned to an equal static rate share. The returned
// bands are per-job class indices (rank order), which the controller
// realizes as rate = ceil = link/N classes.
type staticRate struct{ p Params }

func (s *staticRate) Name() string { return "StaticRate" }

func (s *staticRate) Rank(host int, jobs []Job, _ *Feedback) []int {
	orderJobs(jobs, s.p.Order, s.p.RNG)
	out := make([]int, len(jobs))
	for i := range out {
		out[i] = i
	}
	return out
}

func (s *staticRate) StaticRate() {}
