// Package collective models synchronous all-reduce training jobs — the
// parameter-server-free communication pattern that dominates today's
// distributed deep learning — over the same sim kernel, network fabric
// and CPU model the parameter-server workload uses. Two algorithms are
// provided: bucketized ring all-reduce (reduce-scatter + all-gather,
// 2·(N−1) segment transfers per rank per bucket) and a binomial tree
// all-reduce (reduce up the tree, broadcast down). Gradients are split
// into buckets that become communicable as backprop produces them, so
// communication overlaps compute, as in NCCL/Horovod.
//
// TensorLights is workload-agnostic: it keys a job's priority off a TCP
// source port. Every flow a collective job puts on the wire is sent
// from the job's Port, so a single `match sport` filter per host
// classifies the whole ring, exactly like a PS job's model-update
// traffic. The question this subsystem answers: do green/yellow NIC
// priorities still tame stragglers when every host is simultaneously a
// sender and a receiver?
package collective

import (
	"fmt"

	"repro/internal/cpusim"
	"repro/internal/dl"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/trace"
)

// Algorithm selects the all-reduce communication schedule.
type Algorithm string

const (
	// Ring is bucketized ring all-reduce: each bucket is cut into N
	// segments and every rank relays segments around the ring for
	// 2·(N−1) steps (N−1 reduce-scatter + N−1 all-gather).
	Ring Algorithm = "ring"
	// Tree is binomial tree all-reduce: gradients reduce up a binomial
	// tree rooted at rank 0, then the result broadcasts back down. Each
	// message carries the full bucket, so trees trade bandwidth for
	// latency — the classic small-tensor regime.
	Tree Algorithm = "tree"
)

// Validate reports whether the algorithm is known.
func (a Algorithm) Validate() error {
	switch a {
	case Ring, Tree:
		return nil
	}
	return fmt.Errorf("collective: unknown algorithm %q", a)
}

// JobSpec is the static description of one all-reduce training job.
type JobSpec struct {
	ID    int
	Name  string
	Model dl.Model
	// Algorithm picks the all-reduce schedule (default Ring).
	Algorithm Algorithm
	// Hosts lists each rank's host in ring order; len(Hosts) is the
	// world size N (>= 2). Rank k's ring successor is rank (k+1)%N.
	Hosts []int
	// LocalBatch is samples per rank per iteration.
	LocalBatch int
	// TargetIterations ends the job after this many completed
	// all-reduce iterations.
	TargetIterations int
	// Port is the TCP source port every rank sends collective traffic
	// from — the single observable TensorLights filters on, playing the
	// role the PS port plays for parameter-server jobs.
	Port int
	// Buckets is how many gradient buckets backprop emits per iteration
	// (default 4). Bucket b's transfers start as soon as its share of
	// the compute finishes, overlapping communication with compute.
	Buckets int
	// ComputeJitterSigma is the lognormal sigma on per-chunk compute
	// time (default 0.15, matching the PS workload).
	ComputeJitterSigma float64
	// Recovery reuses the PS workload's detection/restart/budget knobs,
	// but with collective semantics: a crashed peer stalls the whole
	// ring, recovery restarts the current iteration from the last
	// checkpoint, and an exhausted restart budget fails the job — a
	// ring, unlike a PS barrier, cannot degrade to fewer members.
	Recovery dl.RecoveryConfig
}

// Validate reports spec errors.
func (s JobSpec) Validate() error {
	if err := s.Model.Validate(); err != nil {
		return err
	}
	if err := s.Algorithm.Validate(); err != nil && s.Algorithm != "" {
		return err
	}
	if len(s.Hosts) < 2 {
		return fmt.Errorf("collective: job %d needs >=2 ranks, got %d", s.ID, len(s.Hosts))
	}
	if s.TargetIterations < 1 {
		return fmt.Errorf("collective: job %d needs a positive iteration target", s.ID)
	}
	if s.LocalBatch < 1 {
		return fmt.Errorf("collective: job %d needs a positive local batch", s.ID)
	}
	if s.Port <= 0 {
		return fmt.Errorf("collective: job %d needs a positive port", s.ID)
	}
	if s.Buckets < 0 {
		return fmt.Errorf("collective: job %d has negative bucket count %d", s.ID, s.Buckets)
	}
	if err := s.Recovery.Validate(); err != nil {
		return fmt.Errorf("collective: job %d: %w", s.ID, err)
	}
	return nil
}

// rank is the runtime state of one collective worker.
type rank struct {
	idx     int
	host    int
	port    int // receive port (cosmetic; classification keys on SrcPort)
	compute *cpusim.Task

	dead     bool
	restarts int
}

// bucketState tracks one gradient bucket through the current iteration.
// Ring and tree use disjoint subsets of the fields.
type bucketState struct {
	ready []bool // rank's local gradient chunk finished backprop

	// Ring state. sent[i] is the next step rank i will transmit;
	// recvd[i][s] marks step s received at rank i (arrivals can reorder
	// under qdisc scheduling, so a bitmap, not a counter). stepRecv[s]
	// counts ranks holding step s, for the ring_step trace event.
	sent     []int
	recvd    [][]bool
	stepRecv []int

	// Tree state. reduceRecv[i] counts child contributions received at
	// rank i; reduceSent[i] marks its own contribution passed upward.
	reduceRecv []int
	reduceSent []bool

	done     int // ranks holding the fully reduced bucket
	complete bool
}

// reset clears the state for a new iteration, keeping the allocations.
func (st *bucketState) reset() {
	clear(st.ready)
	clear(st.sent)
	for _, r := range st.recvd {
		clear(r)
	}
	clear(st.stepRecv)
	clear(st.reduceRecv)
	clear(st.reduceSent)
	st.done = 0
	st.complete = false
}

// Job is the runtime state of one all-reduce training job.
type Job struct {
	Spec JobSpec
	env  *dl.Env
	rng  *sim.RNG

	StartedAt  float64
	FinishedAt float64 // -1 while running
	FailedAt   float64 // -1 unless the restart budget was exhausted

	iteration int // completed iterations
	buckets   []*bucketState
	bktBytes  []int64
	ranks     []*rank

	// gen is the recovery generation. Every flow and compute callback
	// captures it at scheduling time; a restart bumps it, so stale
	// deliveries from the abandoned iteration are ignored instead of
	// corrupting the re-run's bucket state.
	gen int

	restarts int // rank restarts performed
	stalls   int // detected whole-ring stalls

	// OnFinish fires once when the job reaches its iteration target.
	OnFinish func(*Job)
	// OnFail fires once if the restart budget is exhausted.
	OnFail func(*Job)
	// OnIteration fires after each completed all-reduce iteration;
	// controllers use it to track progress (TLs-LPF ranking).
	OnIteration func(*Job, int)
}

// NewJob builds a job in the environment. Call Start to launch it.
func NewJob(env *dl.Env, spec JobSpec) (*Job, error) {
	if spec.Algorithm == "" {
		spec.Algorithm = Ring
	}
	if spec.Buckets == 0 {
		spec.Buckets = 4
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if spec.ComputeJitterSigma == 0 {
		spec.ComputeJitterSigma = 0.15
	}
	j := &Job{
		Spec:       spec,
		env:        env,
		rng:        env.RNG.Stream(fmt.Sprintf("collective-%d", spec.ID)),
		StartedAt:  -1,
		FinishedAt: -1,
		FailedAt:   -1,
	}
	for i, h := range spec.Hosts {
		j.ranks = append(j.ranks, &rank{idx: i, host: h, port: spec.Port + 1 + i})
	}
	// Bucket b gets an equal share of the update; the last bucket
	// absorbs the rounding remainder.
	total := spec.Model.UpdateBytes()
	per := total / int64(spec.Buckets)
	if per < 1 {
		per = 1
	}
	for b := 0; b < spec.Buckets; b++ {
		bytes := per
		if b == spec.Buckets-1 {
			if rem := total - per*int64(spec.Buckets-1); rem > 0 {
				bytes = rem
			}
		}
		j.bktBytes = append(j.bktBytes, bytes)
	}
	return j, nil
}

// N returns the world size.
func (j *Job) N() int { return len(j.ranks) }

// Running reports whether the job has started and neither finished nor
// failed.
func (j *Job) Running() bool {
	return j.StartedAt >= 0 && j.FinishedAt < 0 && j.FailedAt < 0
}

// Done reports whether the job reached its iteration target.
func (j *Job) Done() bool { return j.FinishedAt >= 0 }

// Failed reports whether the job exhausted its restart budget.
func (j *Job) Failed() bool { return j.FailedAt >= 0 }

func (j *Job) halted() bool { return j.FinishedAt >= 0 || j.FailedAt >= 0 }

// Iterations returns completed all-reduce iterations.
func (j *Job) Iterations() int { return j.iteration }

// Restarts returns rank restarts performed so far.
func (j *Job) Restarts() int { return j.restarts }

// Stalls returns how many whole-ring stalls the failure detector saw.
func (j *Job) Stalls() int { return j.stalls }

// JCT returns the job completion time, or -1 if unfinished.
func (j *Job) JCT() float64 {
	if !j.Done() {
		return -1
	}
	return j.FinishedAt - j.StartedAt
}

func (j *Job) emit(ev trace.Event) {
	if j.env.Tracer != nil {
		j.env.Tracer.Emit(ev)
	}
}

// Start launches the job now.
func (j *Job) Start() {
	if j.StartedAt >= 0 {
		panic(fmt.Sprintf("collective: job %d started twice", j.Spec.ID))
	}
	j.StartedAt = j.env.K.Now()
	j.emit(trace.Event{
		At: j.StartedAt, Kind: trace.KindJobStart,
		Job: j.Spec.ID, Host: j.Spec.Hosts[0], Worker: -1,
		Detail: string(j.Spec.Algorithm),
	})
	j.startIteration()
}

// lastStep is the final ring step index: N−1 reduce-scatter steps then
// N−1 all-gather steps, numbered 0..2N−3.
func (j *Job) lastStep() int { return 2*j.N() - 3 }

// segBytes is the ring segment size for bucket b (bucket/N, rounded up).
func (j *Job) segBytes(b int) int64 {
	n := int64(j.N())
	s := (j.bktBytes[b] + n - 1) / n
	if s < 1 {
		s = 1
	}
	return s
}

// startIteration resets per-bucket state and submits every rank's
// backprop as Buckets sequential compute chunks on its host CPU.
func (j *Job) startIteration() {
	n := j.N()
	// Reuse last iteration's bucket state when the shape is unchanged
	// (the common case — it only shifts when a rank dies); iterations
	// are frequent enough that reallocating every slice each time shows
	// up in the trial profile.
	if len(j.buckets) == j.Spec.Buckets && len(j.buckets) > 0 && len(j.buckets[0].ready) == n {
		for _, st := range j.buckets {
			st.reset()
		}
	} else {
		j.buckets = j.buckets[:0]
		for b := 0; b < j.Spec.Buckets; b++ {
			st := &bucketState{
				ready:      make([]bool, n),
				sent:       make([]int, n),
				recvd:      make([][]bool, n),
				stepRecv:   make([]int, 2*n-2),
				reduceRecv: make([]int, n),
				reduceSent: make([]bool, n),
			}
			for i := range st.recvd {
				st.recvd[i] = make([]bool, 2*n-2)
			}
			j.buckets = append(j.buckets, st)
		}
	}
	gen := j.gen
	for _, r := range j.ranks {
		if r.dead {
			continue
		}
		j.submitCompute(r, 0, gen)
	}
}

// submitCompute runs bucket chunk b of the rank's backprop; when it
// finishes, bucket b becomes communicable and chunk b+1 starts.
func (j *Job) submitCompute(r *rank, b, gen int) {
	work := j.Spec.Model.StepComputeSec(j.Spec.LocalBatch) / float64(j.Spec.Buckets) *
		j.rng.LogNormalFactor(j.Spec.ComputeJitterSigma)
	r.compute = j.env.CPUs[r.host].Submit(work, 1, func() {
		r.compute = nil
		if j.halted() || gen != j.gen || r.dead {
			return
		}
		j.buckets[b].ready[r.idx] = true
		j.advance(b, r.idx, gen)
		if b+1 < j.Spec.Buckets {
			j.submitCompute(r, b+1, gen)
		}
	})
}

// advance pushes rank i's bucket-b protocol as far as it can go.
func (j *Job) advance(b, i, gen int) {
	if j.Spec.Algorithm == Tree {
		j.treeAdvance(b, i, gen)
		return
	}
	j.ringAdvance(b, i, gen)
}

// send puts one collective message on the wire. Every message is sent
// from the job's Port — the classification key — to the destination
// rank's receive port. onArrive is installed as the flow's OnComplete
// directly (one closure per message, not a wrapper pair); the delivered
// *Flow is ignored by every caller.
func (j *Job) send(src, dst *rank, bytes int64, onArrive func(*simnet.Flow)) {
	j.env.Fabric.Send(simnet.FlowSpec{
		Src:        src.host,
		Dst:        dst.host,
		SrcPort:    j.Spec.Port,
		DstPort:    dst.port,
		JobID:      j.Spec.ID,
		Bytes:      bytes,
		OnComplete: onArrive,
		Transient:  true, // nothing retains the flow past OnComplete
	})
}

// ringAdvance transmits every step rank i is eligible for: its own
// bucket must be ready, and step s > 0 additionally needs step s−1 from
// the predecessor (the segment it just reduced or copied).
func (j *Job) ringAdvance(b, i, gen int) {
	st := j.buckets[b]
	r := j.ranks[i]
	for !r.dead && st.sent[i] <= j.lastStep() && st.ready[i] &&
		(st.sent[i] == 0 || st.recvd[i][st.sent[i]-1]) {
		s := st.sent[i]
		st.sent[i]++
		succ := j.ranks[(i+1)%j.N()]
		j.send(r, succ, j.segBytes(b), func(*simnet.Flow) {
			if j.halted() || gen != j.gen || succ.dead {
				return
			}
			j.ringRecv(b, succ.idx, s, gen)
		})
	}
}

// ringRecv records step s arriving at rank i and advances the protocol.
func (j *Job) ringRecv(b, i, s, gen int) {
	st := j.buckets[b]
	if st.recvd[i][s] {
		return
	}
	st.recvd[i][s] = true
	st.stepRecv[s]++
	// Guard on the tracer before building the event: this fires once per
	// completed ring step, and the Sprintf would otherwise allocate even
	// on untraced runs.
	if st.stepRecv[s] == j.N() && j.env.Tracer != nil {
		j.emit(trace.Event{
			At: j.env.K.Now(), Kind: trace.KindRingStep,
			Job: j.Spec.ID, Host: -1, Worker: -1,
			Value: float64(s), Detail: fmt.Sprintf("bucket=%d", b),
		})
	}
	if s == j.lastStep() {
		j.bucketDoneAt(b, gen)
	}
	j.ringAdvance(b, i, gen)
}

// parent returns rank i's binomial-tree parent (clear the lowest set
// bit); only valid for i > 0.
func parent(i int) int { return i - (i & -i) }

// children returns rank i's binomial-tree children in ascending order:
// i + 2^k for every 2^k below i's lowest set bit (all powers for the
// root), bounded by the world size.
func (j *Job) children(i int) []int {
	var out []int
	for bit := 1; i+bit < j.N(); bit <<= 1 {
		if i != 0 && bit >= i&-i {
			break
		}
		out = append(out, i+bit)
	}
	return out
}

// treeAdvance sends rank i's reduced contribution to its parent once
// its local gradient and every child subtree have arrived. At the root
// the reduce phase ends and the broadcast phase begins.
func (j *Job) treeAdvance(b, i, gen int) {
	st := j.buckets[b]
	r := j.ranks[i]
	if r.dead || st.reduceSent[i] || !st.ready[i] || st.reduceRecv[i] < len(j.children(i)) {
		return
	}
	st.reduceSent[i] = true
	if i == 0 {
		j.emit(trace.Event{
			At: j.env.K.Now(), Kind: trace.KindRingStep,
			Job: j.Spec.ID, Host: r.host, Worker: 0,
			Value: float64(b), Detail: "tree_reduce_root",
		})
		j.treeDeliver(b, 0, gen)
		return
	}
	p := j.ranks[parent(i)]
	j.send(r, p, j.bktBytes[b], func(*simnet.Flow) {
		if j.halted() || gen != j.gen || p.dead {
			return
		}
		st.reduceRecv[p.idx]++
		j.treeAdvance(b, p.idx, gen)
	})
}

// treeDeliver marks the fully reduced bucket available at rank i and
// broadcasts it down to i's children.
func (j *Job) treeDeliver(b, i, gen int) {
	r := j.ranks[i]
	if r.dead {
		return
	}
	j.bucketDoneAt(b, gen)
	for _, ci := range j.children(i) {
		c := j.ranks[ci]
		j.send(r, c, j.bktBytes[b], func(*simnet.Flow) {
			if j.halted() || gen != j.gen || c.dead {
				return
			}
			j.treeDeliver(b, c.idx, gen)
		})
	}
}

// bucketDoneAt counts one rank completing bucket b; when all N hold the
// reduced bucket, the bucket is complete.
func (j *Job) bucketDoneAt(b, gen int) {
	st := j.buckets[b]
	st.done++
	if st.done < j.N() {
		return
	}
	st.complete = true
	j.emit(trace.Event{
		At: j.env.K.Now(), Kind: trace.KindBucketDone,
		Job: j.Spec.ID, Host: -1, Worker: -1,
		Value: float64(b), Detail: fmt.Sprintf("iter=%d", j.iteration),
	})
	j.maybeFinishIteration(gen)
}

// maybeFinishIteration closes the iteration once every bucket is fully
// reduced at every rank — the collective's barrier.
func (j *Job) maybeFinishIteration(gen int) {
	for _, st := range j.buckets {
		if !st.complete {
			return
		}
	}
	j.iteration++
	now := j.env.K.Now()
	j.emit(trace.Event{
		At: now, Kind: trace.KindBarrierRelease,
		Job: j.Spec.ID, Host: -1, Worker: -1,
		Value: float64(j.iteration),
	})
	if j.OnIteration != nil {
		j.OnIteration(j, j.iteration)
	}
	if j.iteration >= j.Spec.TargetIterations {
		j.finish(now)
		return
	}
	if gen != j.gen || j.halted() {
		return
	}
	j.startIteration()
}

// finish marks the job done and cancels in-flight compute.
func (j *Job) finish(now float64) {
	j.FinishedAt = now
	j.emit(trace.Event{
		At: now, Kind: trace.KindJobFinish,
		Job: j.Spec.ID, Host: j.Spec.Hosts[0], Worker: -1,
		Value: now - j.StartedAt,
	})
	j.cancelCompute()
	if j.OnFinish != nil {
		j.OnFinish(j)
	}
}

func (j *Job) cancelCompute() {
	for _, r := range j.ranks {
		if r.compute != nil {
			j.env.CPUs[r.host].Cancel(r.compute)
			r.compute = nil
		}
	}
}

// CrashPeer kills rank idx now. Unlike a PS worker crash, the blast
// radius is the whole job: every surviving rank's protocol wedges
// within one ring step, because each depends transitively on the dead
// peer. With Recovery.DetectTimeoutSec > 0 the stall is detected after
// that timeout (emitting ring_stall); the peer restarts after
// RestartBackoffSec and the whole iteration re-runs from the last
// checkpoint. Past MaxRestarts the job fails — a ring cannot shrink.
func (j *Job) CrashPeer(idx int) {
	if idx < 0 || idx >= j.N() {
		panic(fmt.Sprintf("collective: job %d has no rank %d", j.Spec.ID, idx))
	}
	r := j.ranks[idx]
	if j.halted() || r.dead {
		return
	}
	r.dead = true
	if r.compute != nil {
		j.env.CPUs[r.host].Cancel(r.compute)
		r.compute = nil
	}
	j.emit(trace.Event{
		At: j.env.K.Now(), Kind: trace.KindWorkerCrash,
		Job: j.Spec.ID, Host: r.host, Worker: r.idx,
	})
	if d := j.Spec.Recovery.DetectTimeoutSec; d > 0 {
		j.env.K.PostAfter(d, func() { j.stallDetected(r) })
	}
}

// stallDetected is the collective's failure detector firing: the ring
// has been wedged for the detection timeout. Restart the peer if budget
// remains, otherwise fail the job.
func (j *Job) stallDetected(r *rank) {
	if j.halted() || !r.dead {
		return
	}
	j.stalls++
	j.emit(trace.Event{
		At: j.env.K.Now(), Kind: trace.KindRingStall,
		Job: j.Spec.ID, Host: r.host, Worker: r.idx,
		Value: float64(j.iteration), Detail: "peer down, collective wedged",
	})
	if r.restarts >= j.Spec.Recovery.MaxRestarts {
		j.fail(j.env.K.Now())
		return
	}
	j.env.K.PostAfter(j.Spec.Recovery.RestartBackoffSec, func() {
		j.restartPeer(r)
	})
}

// restartPeer revives the crashed rank and re-runs the current
// iteration from scratch at every rank (checkpoint-restore semantics:
// partially reduced buckets from the aborted attempt are discarded).
// Bumping the generation makes every stale in-flight flow and compute
// callback a no-op.
func (j *Job) restartPeer(r *rank) {
	if j.halted() || !r.dead {
		return
	}
	r.dead = false
	r.restarts++
	j.restarts++
	j.gen++
	j.cancelCompute()
	j.emit(trace.Event{
		At: j.env.K.Now(), Kind: trace.KindWorkerRestart,
		Job: j.Spec.ID, Host: r.host, Worker: r.idx,
		Value: float64(r.restarts),
	})
	j.startIteration()
}

// fail marks the job permanently failed.
func (j *Job) fail(now float64) {
	j.FailedAt = now
	j.emit(trace.Event{
		At: now, Kind: trace.KindJobFail,
		Job: j.Spec.ID, Host: j.Spec.Hosts[0], Worker: -1,
		Value: now - j.StartedAt,
	})
	j.cancelCompute()
	if j.OnFail != nil {
		j.OnFail(j)
	}
}
