// Package policy is TensorLights' pluggable priority-assignment engine.
// A Policy ranks the jobs contending on one host's egress into priority
// bands; the core controller delegates every ranking and rotation
// decision here and keeps only the actuation machinery (tc command
// synthesis, retry, reconcile). Policies are registered by name, so new
// scheduling disciplines land as plain registry entries instead of
// surgery on the controller.
//
// Beyond the paper's static assignments (TLs-One) and blind rotation
// (TLs-RR), the package ships telemetry-driven policies fed by a
// Feedback collector: TLs-LAS (least-attained-service first with
// Tiresias-style aging), TLs-SRSF (shortest-remaining-service first,
// using declared target steps and observed bytes/iteration), and
// TLs-Interleave (CASSINI-inspired phase interleaving of the jobs'
// communication bursts).
package policy

import (
	"sort"

	"repro/internal/sim"
)

// Order selects how static policies rank contending jobs into bands.
// Values mirror core.Order (the paper deliberately leaves this choice
// open, §IV-B).
type Order int

const (
	// OrderArrival ranks by job arrival sequence.
	OrderArrival Order = iota
	// OrderRandom shuffles ranks once per (re)configuration.
	OrderRandom
	// OrderSmallestUpdate gives smaller model updates higher priority.
	OrderSmallestUpdate
)

// Job is the policy-visible view of one contending job — everything
// observable from outside the application, as the paper requires.
type Job struct {
	ID          int
	ArrivalSeq  int   // global arrival order (dense, 0-based)
	UpdateBytes int64 // bytes of one model-update transfer
	TargetSteps int   // declared training length in iterations; 0 = undeclared
	Progress    int   // completed iterations reported so far
}

// Params parameterizes policy construction. The controller fills it
// from its Config so registry factories see one uniform shape.
type Params struct {
	// Bands is the number of priority bands ranks spread across.
	Bands int
	// IntervalSec is the re-ranking period for rotating policies.
	IntervalSec float64
	// Order is the static ranking order (One/RR/StaticRate).
	Order Order
	// RNG is the seeded stream used by stochastic orders.
	RNG *sim.RNG
}

// Policy ranks a host's contending jobs into priority bands.
//
// Rank may reorder jobs in place — the resulting slice order is the
// rank order, which the controller also uses as the tc filter
// installation order — and returns bands[i] ∈ [0, Params.Bands) for
// jobs[i]. The controller clamps bands to the host's effective band
// count (min(Bands, len(jobs))), mirroring the paper's limited-band
// deployment. fb is nil unless the policy declared FeedbackDriven.
type Policy interface {
	Name() string
	Rank(host int, jobs []Job, fb *Feedback) []int
}

// Rotator is implemented by policies that re-rank on a timer. The
// controller calls Advance once per period before re-ranking hosts.
type Rotator interface {
	Policy
	// RotateInterval returns the period in seconds; <= 0 disables the
	// timer.
	RotateInterval() float64
	// Advance moves the policy to its next phase (e.g. the round-robin
	// offset).
	Advance(now float64)
}

// NoOp is implemented by policies under which the controller leaves
// every NIC on its default FIFO qdisc (the paper's baseline).
type NoOp interface {
	Policy
	NoOp()
}

// StaticRater is implemented by policies realized as static per-job
// rate shares (rate = ceil = link/N) instead of priority bands — the
// paper's §VII non-work-conserving alternative. Rank's bands are then
// per-job class indices.
type StaticRater interface {
	Policy
	StaticRate()
}

// FeedbackDriven is implemented by policies that need a Feedback
// collector; the cluster wires one up at launch and the controller
// passes it to Rank.
type FeedbackDriven interface {
	Policy
	FeedbackDriven()
}

// Interval returns the policy's rotation period, or 0 for non-rotating
// policies.
func Interval(p Policy) float64 {
	if r, ok := p.(Rotator); ok {
		return r.RotateInterval()
	}
	return 0
}

// Advance advances a rotating policy; a no-op otherwise.
func Advance(p Policy, now float64) {
	if r, ok := p.(Rotator); ok {
		r.Advance(now)
	}
}

// IsNoOp reports whether the policy leaves NICs unmanaged.
func IsNoOp(p Policy) bool {
	_, ok := p.(NoOp)
	return ok
}

// WantsStaticRate reports whether the policy is realized as static
// rate shares rather than priority bands.
func WantsStaticRate(p Policy) bool {
	_, ok := p.(StaticRater)
	return ok
}

// NeedsFeedback reports whether the policy requires a Feedback
// collector.
func NeedsFeedback(p Policy) bool {
	_, ok := p.(FeedbackDriven)
	return ok
}

// SortByArrival orders jobs by arrival sequence — the deterministic
// base order every policy starts from.
func SortByArrival(jobs []Job) {
	sort.Slice(jobs, func(i, k int) bool { return jobs[i].ArrivalSeq < jobs[k].ArrivalSeq })
}

// orderJobs applies the configured static Order in place, reproducing
// the controller's historical ranking exactly (including the RNG draw
// sequence for OrderRandom).
func orderJobs(jobs []Job, o Order, rng *sim.RNG) {
	switch o {
	case OrderRandom:
		SortByArrival(jobs)
		if rng != nil {
			rng.Shuffle(len(jobs), func(i, k int) { jobs[i], jobs[k] = jobs[k], jobs[i] })
		}
	case OrderSmallestUpdate:
		sort.Slice(jobs, func(i, k int) bool {
			if jobs[i].UpdateBytes != jobs[k].UpdateBytes {
				return jobs[i].UpdateBytes < jobs[k].UpdateBytes
			}
			return jobs[i].ArrivalSeq < jobs[k].ArrivalSeq
		})
	default: // OrderArrival
		SortByArrival(jobs)
	}
}

// sortBy orders jobs by the less comparator. Comparators must break
// ties on ArrivalSeq so the sort is deterministic without stability.
func sortBy(jobs []Job, less func(a, b Job) bool) {
	sort.Slice(jobs, func(i, k int) bool { return less(jobs[i], jobs[k]) })
}

// SpreadBands maps n rank positions onto bands priority bands with an
// optional rotation offset: position i gets band ((i+rot)%n)*bands/n.
// With more jobs than bands, consecutive ranks share bands in
// contiguous groups, as the paper's limited-band deployment does.
func SpreadBands(n, bands, rot int) []int {
	out := make([]int, n)
	for i := range out {
		r := i
		if rot != 0 {
			r = (i + rot) % n
		}
		out[i] = r * bands / n
	}
	return out
}
