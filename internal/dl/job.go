package dl

import (
	"fmt"

	"repro/internal/cpusim"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/trace"
)

// Env is the substrate a job runs on: the shared kernel, network fabric
// and per-host CPUs built by internal/cluster.
type Env struct {
	K      *sim.Kernel
	Fabric *simnet.Fabric
	CPUs   []*cpusim.CPU
	RNG    *sim.RNG
	// Tracer, when non-nil, receives job lifecycle and barrier events.
	Tracer trace.Tracer

	// burst is broadcastModel's flow-spec scratch, shared by every job
	// on the testbed: SendBurst copies the specs and never calls back
	// before it returns.
	burst []simnet.FlowSpec
}

// emit sends a trace event if tracing is enabled.
func (e *Env) emit(ev trace.Event) {
	if e.Tracer != nil {
		e.Tracer.Emit(ev)
	}
}

// JobSpec is the static description of one distributed training job.
type JobSpec struct {
	ID    int
	Name  string
	Model Model
	// NumWorkers is the number of remote worker tasks.
	NumWorkers int
	// LocalBatch is samples per worker per local step (the paper's
	// "local batch size", its contention-intensity knob).
	LocalBatch int
	// TargetGlobalSteps ends the job once the sum of all workers'
	// local steps reaches it (30 000 in the paper).
	TargetGlobalSteps int
	// Async selects asynchronous training (no barrier).
	Async bool
	// PSHost and PSPort place and identify the parameter server; the
	// paper keys a job's priority off its PS's TCP port.
	PSHost int
	PSPort int
	// WorkerHosts lists each worker's host (length NumWorkers).
	WorkerHosts []int
	// ComputeJitterSigma is the lognormal sigma on per-step compute
	// time (default 0.15 when zero, reflecting the heavy CPU
	// oversubscription of the paper's testbed).
	ComputeJitterSigma float64
	// ProgressEvery records a progress point each time the global step
	// crosses a multiple of this value (0 disables).
	ProgressEvery int
	// GradCompression divides the gradient-update size (worker -> PS),
	// modelling QSGD/TernGrad-style compressed gradients, which the
	// paper's related work positions as complementary to TensorLights.
	// 1 (or 0) means uncompressed; must be >= 1.
	GradCompression float64
	// Recovery configures crash detection and handling for worker
	// tasks (see Job.CrashWorker). The zero value disables detection:
	// a crashed worker's barrier peers block until the simulation's
	// event queue drains.
	Recovery RecoveryConfig
}

// RecoveryConfig tunes how a job reacts to a crashed worker task. The
// PS runs a failure detector (in a real deployment: a heartbeat or
// barrier watchdog); DetectTimeoutSec after a worker dies, the job
// either restarts it or degrades to continuing without it.
type RecoveryConfig struct {
	// DetectTimeoutSec is how long a crashed worker goes unnoticed
	// while its barrier peers block. 0 disables detection entirely.
	DetectTimeoutSec float64
	// RestartBackoffSec delays the restart after detection (task
	// rescheduling + process start). Only meaningful with MaxRestarts
	// greater than zero.
	RestartBackoffSec float64
	// MaxRestarts bounds restarts per worker. A worker that crashes
	// more than MaxRestarts times is abandoned and the job degrades,
	// continuing the barrier with the remaining workers.
	MaxRestarts int
}

// Validate reports recovery configuration errors.
func (r RecoveryConfig) Validate() error {
	if r.DetectTimeoutSec < 0 {
		return fmt.Errorf("dl: negative DetectTimeoutSec %g", r.DetectTimeoutSec)
	}
	if r.RestartBackoffSec < 0 {
		return fmt.Errorf("dl: negative RestartBackoffSec %g", r.RestartBackoffSec)
	}
	if r.MaxRestarts < 0 {
		return fmt.Errorf("dl: negative MaxRestarts %d", r.MaxRestarts)
	}
	return nil
}

// Validate reports spec errors.
func (s JobSpec) Validate() error {
	if err := s.Model.Validate(); err != nil {
		return err
	}
	if s.NumWorkers < 1 {
		return fmt.Errorf("dl: job %d needs >=1 worker", s.ID)
	}
	if len(s.WorkerHosts) != s.NumWorkers {
		return fmt.Errorf("dl: job %d has %d worker hosts for %d workers",
			s.ID, len(s.WorkerHosts), s.NumWorkers)
	}
	if s.TargetGlobalSteps < 1 {
		return fmt.Errorf("dl: job %d needs a positive step target", s.ID)
	}
	if s.LocalBatch < 1 {
		return fmt.Errorf("dl: job %d needs a positive local batch", s.ID)
	}
	for _, h := range s.WorkerHosts {
		if h == s.PSHost {
			return fmt.Errorf("dl: job %d places a worker on its PS host %d", s.ID, h)
		}
	}
	if s.GradCompression != 0 && s.GradCompression < 1 {
		return fmt.Errorf("dl: job %d gradient compression %.2f < 1", s.ID, s.GradCompression)
	}
	if err := s.Recovery.Validate(); err != nil {
		return fmt.Errorf("dl: job %d: %w", s.ID, err)
	}
	return nil
}

// gradBytes is the (possibly compressed) gradient update size.
func (s JobSpec) gradBytes() int64 {
	b := s.Model.UpdateBytes()
	if s.GradCompression > 1 {
		b = int64(float64(b) / s.GradCompression)
		if b < 1 {
			b = 1
		}
	}
	return b
}

// ProgressPoint is one (time, global step) sample.
type ProgressPoint struct {
	At   float64
	Step int
}

// Job is the runtime state of one training job.
type Job struct {
	Spec JobSpec
	env  *Env
	rng  *sim.RNG

	StartedAt  float64
	FinishedAt float64 // -1 while running
	FailedAt   float64 // -1 unless every worker was lost

	globalStep int
	iteration  int // barrier index for the PS
	applied    int // gradients applied in the current iteration
	// barrierSize is how many workers the synchronous barrier waits
	// for; it shrinks when a worker is permanently degraded away.
	barrierSize int

	restarts      int // total worker restarts performed
	degradedCount int // workers permanently removed from the job

	workers []*worker

	// waits[iteration*NumWorkers+workerIdx] is the barrier wait time;
	// -1 = unset.
	waits []float64

	progress []ProgressPoint

	// OnFinish fires once when the job reaches its step target.
	OnFinish func(*Job)
	// OnFail fires once if the job loses every worker and stops short of
	// its target.
	OnFail func(*Job)
	// OnBarrier fires at each synchronous barrier release with the
	// just-completed iteration index; controllers use it to track job
	// progress without touching application internals.
	OnBarrier func(*Job, int)

	// Callbacks bound once in NewJob, so a training step allocates
	// nothing but its cpusim tasks: the flow completions find their
	// worker by port (see workerOnPort), and broadcast is the PS's
	// serialize-then-send continuation.
	modelArrived    func(*simnet.Flow)
	gradientArrived func(*simnet.Flow)
	broadcast       func()
}

// worker tracks one worker task. Its host and port derive from its
// index (see host and port).
type worker struct {
	job       *Job
	idx       int
	localStep int
	// enterAt is the time this worker's gradient reached the PS for
	// the current barrier; -1 when not waiting.
	enterAt   float64
	enterIter int
	compute   *cpusim.Task
	// The worker's cpusim callbacks: its local step finishing, the PS
	// applying its gradient, and the PS re-serializing the model for it
	// alone (async jobs and restarts only). Each is bound on first use,
	// so building a job allocates none and a step allocates only its
	// tasks.
	onComputed, onApplied, onResend func()

	// Failure state. A dead worker may come back via restart; a
	// degraded worker is out of the job for good.
	dead     bool
	degraded bool
	restarts int
	// lastAppliedIter is the barrier iteration this worker's gradient
	// was last applied in; -1 before the first. It tells recovery
	// whether the worker already contributed to the open barrier.
	lastAppliedIter int
}

// active reports whether the worker currently participates in the job.
func (w *worker) active() bool { return !w.dead && !w.degraded }

// host returns the worker's host.
func (w *worker) host() int { return w.job.Spec.WorkerHosts[w.idx] }

// port returns the worker's TCP port: worker i of job ID listens on
// 30000 + 100*ID + i.
func (w *worker) port() int { return w.job.workerPort0() + w.idx }

// workerPort0 is worker 0's TCP port.
func (j *Job) workerPort0() int { return 30000 + j.Spec.ID*100 }

// workerOnPort returns the worker listening on port.
func (j *Job) workerOnPort(port int) *worker { return j.workers[port-j.workerPort0()] }

// computedFn, appliedFn and resendFn return the worker's cpusim
// callbacks, binding each on first use.
func (w *worker) computedFn() func() {
	if w.onComputed == nil {
		w.onComputed = func() {
			w.compute = nil
			w.job.computeDone(w)
		}
	}
	return w.onComputed
}

func (w *worker) appliedFn() func() {
	if w.onApplied == nil {
		w.onApplied = func() { w.job.gradientApplied(w) }
	}
	return w.onApplied
}

func (w *worker) resendFn() func() {
	if w.onResend == nil {
		w.onResend = func() {
			if w.job.halted() || !w.active() {
				return
			}
			w.job.sendModelTo(w)
		}
	}
	return w.onResend
}

// NewJob builds a job in the environment. Call Start to launch it.
func NewJob(env *Env, spec JobSpec) (*Job, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if spec.ComputeJitterSigma == 0 {
		spec.ComputeJitterSigma = 0.15
	}
	j := &Job{
		Spec:        spec,
		env:         env,
		rng:         env.RNG.Stream(fmt.Sprintf("job-%d", spec.ID)),
		StartedAt:   -1,
		FinishedAt:  -1,
		FailedAt:    -1,
		barrierSize: spec.NumWorkers,
	}
	j.modelArrived = func(fl *simnet.Flow) { j.workerGotModel(j.workerOnPort(fl.Spec.DstPort)) }
	j.gradientArrived = func(fl *simnet.Flow) { j.psGotGradient(j.workerOnPort(fl.Spec.SrcPort)) }
	j.broadcast = func() {
		if j.halted() {
			return
		}
		j.broadcastModel()
	}
	ws := make([]worker, spec.NumWorkers)
	j.workers = make([]*worker, spec.NumWorkers)
	for i := range ws {
		ws[i] = worker{job: j, idx: i, enterAt: -1, lastAppliedIter: -1}
		j.workers[i] = &ws[i]
	}
	return j, nil
}

// Running reports whether the job has started and neither finished nor
// failed.
func (j *Job) Running() bool {
	return j.StartedAt >= 0 && j.FinishedAt < 0 && j.FailedAt < 0
}

// Done reports whether the job reached its step target.
func (j *Job) Done() bool { return j.FinishedAt >= 0 }

// Failed reports whether the job lost every worker and stopped.
func (j *Job) Failed() bool { return j.FailedAt >= 0 }

// halted reports whether the job stopped for any reason; event callbacks
// landing after this point are ignored.
func (j *Job) halted() bool { return j.FinishedAt >= 0 || j.FailedAt >= 0 }

// Restarts returns the total worker restarts performed so far.
func (j *Job) Restarts() int { return j.restarts }

// DegradedWorkers returns how many workers were permanently removed.
func (j *Job) DegradedWorkers() int { return j.degradedCount }

// AliveWorkers counts workers currently participating in the job.
func (j *Job) AliveWorkers() int {
	n := 0
	for _, w := range j.workers {
		if w.active() {
			n++
		}
	}
	return n
}

// GlobalStep returns the current global step.
func (j *Job) GlobalStep() int { return j.globalStep }

// JCT returns the job completion time, or -1 if unfinished.
func (j *Job) JCT() float64 {
	if !j.Done() {
		return -1
	}
	return j.FinishedAt - j.StartedAt
}

// Progress returns recorded progress points.
func (j *Job) Progress() []ProgressPoint { return j.progress }

// Start launches the job now: the PS marshals and distributes the
// initial model.
func (j *Job) Start() {
	if j.StartedAt >= 0 {
		panic(fmt.Sprintf("dl: job %d started twice", j.Spec.ID))
	}
	j.StartedAt = j.env.K.Now()
	j.env.emit(trace.Event{
		At: j.StartedAt, Kind: trace.KindJobStart,
		Job: j.Spec.ID, Host: j.Spec.PSHost, Worker: -1,
	})
	j.serializeAndBroadcast()
}

// serializeAndBroadcast runs the PS's outbound marshalling on the PS
// host CPU, then sends the model to every worker. The marshalling cost
// scales with fan-out and colocation: on a host packed with parameter
// servers it is a contended-CPU floor that no NIC scheduling removes.
func (j *Job) serializeAndBroadcast() {
	work := float64(j.AliveWorkers()) * j.Spec.Model.SerializeSec()
	j.env.CPUs[j.Spec.PSHost].Submit(work, 1, j.broadcast)
}

// broadcastModel sends the current model to every worker in one burst —
// the bursty, high-fan-out traffic at the heart of the paper.
func (j *Job) broadcastModel() {
	specs := j.env.burst[:0]
	for _, w := range j.workers {
		if !w.active() {
			// A dead worker rejoins via restartWorker; a degraded one
			// never does.
			continue
		}
		specs = append(specs, j.modelSpec(w))
	}
	j.env.burst = specs
	if len(specs) == 0 {
		return
	}
	j.env.Fabric.SendBurst(j.Spec.PSHost, specs)
}

// sendModelTo unicasts the model to one worker (async mode).
func (j *Job) sendModelTo(w *worker) {
	j.env.Fabric.Send(j.modelSpec(w))
}

// modelSpec is the PS-to-worker model transfer.
func (j *Job) modelSpec(w *worker) simnet.FlowSpec {
	return simnet.FlowSpec{
		Src:        j.Spec.PSHost,
		Dst:        w.host(),
		SrcPort:    j.Spec.PSPort,
		DstPort:    w.port(),
		JobID:      j.Spec.ID,
		Bytes:      j.Spec.Model.UpdateBytes(),
		OnComplete: j.modelArrived,
		Transient:  true, // nothing retains the flow past OnComplete
	}
}

// workerGotModel fires when a model update fully arrives at a worker:
// the worker exits the barrier (recording its wait) and starts computing
// its next local batch.
func (j *Job) workerGotModel(w *worker) {
	now := j.env.K.Now()
	if w.enterAt >= 0 {
		j.recordWait(w.enterIter, w.idx, now-w.enterAt)
		w.enterAt = -1
	}
	if j.halted() || !w.active() || w.compute != nil {
		// A model copy may land on a crashed worker (it was in flight
		// at the crash) or race a restart's re-send; never double-start
		// the local computation.
		return
	}
	j.startCompute(w)
}

// startCompute runs one local step on the worker host's shared CPU.
func (j *Job) startCompute(w *worker) {
	work := j.Spec.Model.StepComputeSec(j.Spec.LocalBatch) *
		j.rng.LogNormalFactor(j.Spec.ComputeJitterSigma)
	w.compute = j.env.CPUs[w.host()].Submit(work, 1, w.computedFn())
}

// computeDone pushes the worker's gradient update to the PS.
func (j *Job) computeDone(w *worker) {
	if j.halted() || !w.active() {
		return
	}
	w.localStep++
	j.env.Fabric.Send(simnet.FlowSpec{
		Src:        w.host(),
		Dst:        j.Spec.PSHost,
		SrcPort:    w.port(),
		DstPort:    j.Spec.PSPort,
		JobID:      j.Spec.ID,
		Bytes:      j.Spec.gradBytes(),
		OnComplete: j.gradientArrived,
		Transient:  true, // nothing retains the flow past OnComplete
	})
}

// psGotGradient fires when a gradient update fully arrives at the PS.
// The worker is now waiting at the barrier; the PS applies the gradient
// on its host CPU and, in synchronous mode, releases the barrier once
// every worker's gradient has been applied.
func (j *Job) psGotGradient(w *worker) {
	if j.halted() || w.degraded {
		// A degraded worker's in-flight gradient is discarded; one from
		// a merely dead worker still applies — the bytes reached the PS
		// before the crash took effect.
		return
	}
	now := j.env.K.Now()
	j.globalStep++
	j.recordProgress(now)
	if j.globalStep >= j.Spec.TargetGlobalSteps {
		j.finish(now)
		return
	}
	w.enterAt = now
	w.enterIter = j.iteration
	j.env.CPUs[j.Spec.PSHost].Submit(j.Spec.Model.PSApplySecPerGrad, 1, w.appliedFn())
}

// gradientApplied advances the barrier (sync) or answers the worker
// immediately (async).
func (j *Job) gradientApplied(w *worker) {
	if j.halted() || w.degraded {
		return
	}
	if j.Spec.Async {
		j.env.CPUs[j.Spec.PSHost].Submit(j.Spec.Model.SerializeSec(), 1, w.resendFn())
		return
	}
	if w.lastAppliedIter == j.iteration {
		// Duplicate contribution: a restarted worker raced its own
		// in-flight gradient. The barrier counts each worker once.
		return
	}
	w.lastAppliedIter = j.iteration
	j.applied++
	j.maybeReleaseBarrier()
}

// maybeReleaseBarrier ends the iteration once every participating
// worker's gradient has been applied. The barrier size tracks live
// membership: it shrinks when a worker is degraded away.
func (j *Job) maybeReleaseBarrier() {
	if j.applied < j.barrierSize {
		return
	}
	j.applied = 0
	j.iteration++
	j.env.emit(trace.Event{
		At: j.env.K.Now(), Kind: trace.KindBarrierRelease,
		Job: j.Spec.ID, Host: j.Spec.PSHost, Worker: -1,
		Value: float64(j.iteration),
	})
	if j.OnBarrier != nil {
		j.OnBarrier(j, j.iteration)
	}
	j.serializeAndBroadcast()
}

// finish marks the job done, cancels in-flight compute and reports.
func (j *Job) finish(now float64) {
	j.FinishedAt = now
	j.env.emit(trace.Event{
		At: now, Kind: trace.KindJobFinish,
		Job: j.Spec.ID, Host: j.Spec.PSHost, Worker: -1,
		Value: now - j.StartedAt,
	})
	for _, w := range j.workers {
		if w.compute != nil {
			j.env.CPUs[w.host()].Cancel(w.compute)
			w.compute = nil
		}
	}
	if j.OnFinish != nil {
		j.OnFinish(j)
	}
}

// CrashWorker kills worker idx now: its in-flight local computation is
// lost and it stops participating until restarted. Bytes already handed
// to the network still arrive (TCP delivers what reached the wire).
// With Recovery.DetectTimeoutSec > 0 the PS's failure detector notices
// the crash after that timeout and either restarts the worker (after
// RestartBackoffSec) or, past MaxRestarts, degrades the job to continue
// without it. With detection disabled, a synchronous job's surviving
// workers block at the barrier indefinitely.
func (j *Job) CrashWorker(idx int) {
	if idx < 0 || idx >= len(j.workers) {
		panic(fmt.Sprintf("dl: job %d has no worker %d", j.Spec.ID, idx))
	}
	w := j.workers[idx]
	if j.halted() || !w.active() {
		return
	}
	now := j.env.K.Now()
	w.dead = true
	if w.compute != nil {
		j.env.CPUs[w.host()].Cancel(w.compute)
		w.compute = nil
	}
	j.env.emit(trace.Event{
		At: now, Kind: trace.KindWorkerCrash,
		Job: j.Spec.ID, Host: w.host(), Worker: w.idx,
	})
	if d := j.Spec.Recovery.DetectTimeoutSec; d > 0 {
		j.env.K.PostAfter(d, func() { j.workerFailureDetected(w) })
	}
}

// workerFailureDetected is the PS's failure detector firing: restart
// the worker if it has restart budget left, otherwise abandon it.
func (j *Job) workerFailureDetected(w *worker) {
	if j.halted() || !w.dead || w.degraded {
		return
	}
	if w.restarts >= j.Spec.Recovery.MaxRestarts {
		j.degradeWorker(w)
		return
	}
	j.env.K.PostAfter(j.Spec.Recovery.RestartBackoffSec, func() {
		j.restartWorker(w)
	})
}

// restartWorker brings a crashed worker back. If its gradient already
// counts toward the open barrier it simply rejoins and receives the
// model at the next release like any waiting worker; otherwise the PS
// re-serializes and resends the current model so it can resume.
func (j *Job) restartWorker(w *worker) {
	if j.halted() || !w.dead || w.degraded {
		return
	}
	w.dead = false
	w.restarts++
	j.restarts++
	j.env.emit(trace.Event{
		At: j.env.K.Now(), Kind: trace.KindWorkerRestart,
		Job: j.Spec.ID, Host: w.host(), Worker: w.idx,
		Value: float64(w.restarts),
	})
	if !j.Spec.Async && w.lastAppliedIter == j.iteration {
		return
	}
	j.env.CPUs[j.Spec.PSHost].Submit(j.Spec.Model.SerializeSec(), 1, w.resendFn())
}

// degradeWorker permanently removes a worker that exhausted its restart
// budget; the barrier shrinks to the survivors. A job whose last worker
// is removed fails.
func (j *Job) degradeWorker(w *worker) {
	if j.halted() || w.degraded {
		return
	}
	w.degraded = true
	j.degradedCount++
	j.barrierSize--
	now := j.env.K.Now()
	j.env.emit(trace.Event{
		At: now, Kind: trace.KindWorkerDegrade,
		Job: j.Spec.ID, Host: w.host(), Worker: w.idx,
		Value: float64(j.barrierSize),
	})
	if j.barrierSize <= 0 {
		j.fail(now)
		return
	}
	if !j.Spec.Async {
		if w.lastAppliedIter == j.iteration && j.applied > 0 {
			// Its gradient counted toward the open barrier; the count
			// now tracks survivors only.
			j.applied--
		}
		// The departed worker may have been the last one the barrier
		// was waiting for.
		j.maybeReleaseBarrier()
	}
}

// fail marks the job permanently failed: every worker was lost.
func (j *Job) fail(now float64) {
	j.FailedAt = now
	j.env.emit(trace.Event{
		At: now, Kind: trace.KindJobFail,
		Job: j.Spec.ID, Host: j.Spec.PSHost, Worker: -1,
		Value: now - j.StartedAt,
	})
	for _, w := range j.workers {
		if w.compute != nil {
			j.env.CPUs[w.host()].Cancel(w.compute)
			w.compute = nil
		}
	}
	if j.OnFail != nil {
		j.OnFail(j)
	}
}

func (j *Job) recordProgress(now float64) {
	pe := j.Spec.ProgressEvery
	if pe <= 0 {
		return
	}
	if j.globalStep%pe == 0 || j.globalStep >= j.Spec.TargetGlobalSteps {
		j.progress = append(j.progress, ProgressPoint{At: now, Step: j.globalStep})
	}
}

// recordWait stores one worker's barrier wait sample.
func (j *Job) recordWait(iter, workerIdx int, wait float64) {
	n := j.Spec.NumWorkers
	if j.waits == nil {
		// Size the log for the whole run in one allocation: a
		// synchronous job records ceil(target/workers) barriers (more
		// only if workers degrade away, and then appends), an
		// asynchronous one only iteration 0.
		iters := 1
		if !j.Spec.Async {
			iters = (j.Spec.TargetGlobalSteps + n - 1) / n
		}
		j.waits = make([]float64, 0, iters*n)
	}
	for len(j.waits) < (iter+1)*n {
		j.waits = append(j.waits, -1)
	}
	j.waits[iter*n+workerIdx] = wait
}

// BarrierStat summarizes one barrier's wait times across the job's
// workers — the unit of measurement behind the paper's Figures 3 and 6.
type BarrierStat struct {
	Iteration int
	Mean      float64
	Variance  float64 // population variance of waits across workers
	Min, Max  float64
}

// BarrierStats returns per-barrier wait statistics for every barrier at
// which all workers recorded a wait (the trailing partial barrier at job
// completion is excluded, as in the paper's methodology).
func (j *Job) BarrierStats() []BarrierStat {
	var out []BarrierStat
	for iter := 0; iter*j.Spec.NumWorkers < len(j.waits); iter++ {
		row := j.waits[iter*j.Spec.NumWorkers:][:j.Spec.NumWorkers]
		n := 0
		sum := 0.0
		for _, v := range row {
			if v >= 0 {
				n++
				sum += v
			}
		}
		if n != j.Spec.NumWorkers {
			continue
		}
		mean := sum / float64(n)
		va := 0.0
		mn, mx := row[0], row[0]
		for _, v := range row {
			d := v - mean
			va += d * d
			if v < mn {
				mn = v
			}
			if v > mx {
				mx = v
			}
		}
		va /= float64(n)
		out = append(out, BarrierStat{
			Iteration: iter, Mean: mean, Variance: va, Min: mn, Max: mx,
		})
	}
	return out
}
