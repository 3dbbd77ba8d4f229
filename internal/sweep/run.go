// Package sweep is the experiment harness: it defines one runnable
// experiment per table and figure in the paper's evaluation, drives the
// simulator across the required parameter sweeps (placements, policies,
// local batch sizes, seeds), and renders the same rows and series the
// paper reports. Independent runs execute in parallel on a worker pool;
// each run is internally single-threaded and deterministic.
package sweep

import (
	"context"
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/collective"
	"repro/internal/core"
	"repro/internal/dl"
	"repro/internal/faults"
	"repro/internal/metrics"
	"repro/internal/policy"
	"repro/internal/trace"
)

// RunConfig fully describes one simulation run.
type RunConfig struct {
	Label       string
	Cluster     cluster.Config
	Model       dl.Model
	NumJobs     int
	LocalBatch  int
	TargetSteps int
	Placement   cluster.Placement
	TLs         core.Config
	StaggerSec  float64
	Async       bool
	// SampleUtilEvery enables utilization sampling at this interval
	// (seconds); 0 disables.
	SampleUtilEvery float64
	// ProgressEvery records job progress points (global steps).
	ProgressEvery int
	// ComputeJitterSigma overrides the default per-step jitter.
	ComputeJitterSigma float64
	// GradCompression divides gradient-update bytes (1/0 = none).
	GradCompression float64
	// Tracer, when non-nil, receives job, barrier, flow and tc events
	// from all layers of the run.
	Tracer trace.Tracer
	// Faults, when Active, is expanded into scheduled fault injections
	// before the run starts (PS-host flaps target this run's PS hosts).
	Faults faults.Plan
	// Recovery is copied onto every job spec; the zero value disables
	// failure detection, so a crashed worker wedges its job's barrier.
	Recovery dl.RecoveryConfig
	// CollectiveSpecs, when non-empty, launches these all-reduce jobs
	// alongside the PS workload (same kernel, same fabric, same stagger)
	// and registers them with TensorLights by their collective port. With
	// NumJobs == 0 the run is all-reduce-only.
	CollectiveSpecs []collective.JobSpec
	// PSSpecs, when non-empty, replaces the generated grid-search
	// workload with these exact PS job specs; NumJobs and Placement are
	// then ignored. Benchmarks and the flow-equivalence suite use it to
	// pin an exact job placement.
	PSSpecs []dl.JobSpec
}

func (rc *RunConfig) fillDefaults() {
	if rc.NumJobs <= 0 && len(rc.CollectiveSpecs) == 0 && len(rc.PSSpecs) == 0 {
		rc.NumJobs = 21
	}
	if rc.NumJobs < 0 {
		rc.NumJobs = 0
	}
	if rc.LocalBatch <= 0 {
		rc.LocalBatch = 4
	}
	if rc.TargetSteps <= 0 {
		rc.TargetSteps = 30_000
	}
	if rc.Model.Params == 0 {
		rc.Model = dl.ResNet32
	}
	if rc.StaggerSec <= 0 {
		rc.StaggerSec = 0.1
	}
	if rc.NumJobs > 0 && len(rc.Placement.Groups) == 0 {
		rc.Placement, _ = cluster.PlacementByIndex(1)
	}
}

// RunResult aggregates everything the paper's figures need from one run.
type RunResult struct {
	Config RunConfig

	JCTs         []float64 // per job, in job-id order
	BarrierMeans []float64 // per-barrier mean wait, all jobs pooled
	BarrierVars  []float64 // per-barrier wait variance, all jobs pooled

	SimTime float64
	Events  uint64
	// EventAllocs is how many kernel Event structs were heap-allocated
	// (as opposed to recycled from the pool); see sim.Kernel.EventAllocs.
	EventAllocs uint64
	Wall        time.Duration
	Reconfigs   int

	// Utilization over the active window (when sampling was enabled).
	Utils      []metrics.HostUtil
	UtilWindow [2]float64

	// Progress[jobID] holds (time, step) points when ProgressEvery > 0.
	Progress map[int][]dl.ProgressPoint

	// PSHosts is the set of hosts running at least one PS.
	PSHosts []int

	// Fault-injection and recovery accounting (zero without Faults).
	FaultCounts     faults.Counts
	Restarts        int   // worker restarts summed over all jobs
	DegradedWorkers int   // workers permanently abandoned, all jobs
	FailedJobs      []int // jobs that lost every worker (no JCT recorded)
	DroppedChunks   uint64
	TcRecovery      core.RecoveryStats

	// Collective workload accounting (empty without CollectiveSpecs).
	CollectiveJCTs   []float64 // per all-reduce job, in spec order
	CollectiveStalls int       // ring stalls observed across all jobs

	// Topology accounting: per-core-link totals over the whole run
	// (empty on the flat topology) and the total bytes all host NICs
	// transmitted, for cross-rack traffic ratios.
	LinkStats   []LinkStat
	EgressBytes int64
}

// LinkStat summarizes one fabric core link over a whole run.
type LinkStat struct {
	Link  int
	Name  string
	Bytes int64
	// Util is the link's busy fraction of the full simulated time.
	Util float64
}

// AvgJCT returns the mean job completion time.
func (r *RunResult) AvgJCT() float64 { return metrics.Mean(r.JCTs) }

// Run executes one simulation to completion.
func Run(rc RunConfig) (*RunResult, error) {
	return RunContext(context.Background(), rc)
}

// RunContext is Run with cancellation: when ctx is cancelled (or its
// deadline passes) the simulation stops between events and the context
// error is returned wrapped, so long runs are abortable mid-flight —
// the tlsimd service layer uses this to enforce per-job deadlines and
// tlsim wires SIGINT to it. A background ctx reproduces Run exactly.
func RunContext(ctx context.Context, rc RunConfig) (*RunResult, error) {
	rc.fillDefaults()
	start := time.Now()
	tb := cluster.NewTestbed(rc.Cluster)
	var specs []dl.JobSpec
	var err error
	if len(rc.PSSpecs) > 0 {
		specs = append([]dl.JobSpec(nil), rc.PSSpecs...)
	} else if rc.NumJobs > 0 {
		specs, err = cluster.GridSearchSpecs(rc.Cluster, rc.Model, rc.NumJobs,
			rc.LocalBatch, rc.TargetSteps, rc.Placement)
		if err != nil {
			return nil, err
		}
	}
	for i := range specs {
		specs[i].Async = rc.Async
		specs[i].ProgressEvery = rc.ProgressEvery
		specs[i].ComputeJitterSigma = rc.ComputeJitterSigma
		specs[i].GradCompression = rc.GradCompression
		specs[i].Recovery = rc.Recovery
	}
	if err := rc.TLs.Validate(); err != nil {
		return nil, err
	}
	ctl := core.New(tb.K, tb.TC, tb.RNG, rc.TLs)
	if rc.Tracer != nil {
		tb.Env.Tracer = rc.Tracer
		tb.Fabric.Tracer = rc.Tracer
		ctl.Tracer = rc.Tracer
	}
	if ctl.NeedsFeedback() {
		// Feedback-driven policies get a telemetry collector wired to
		// the fabric. Legacy policies run without one, so their kernel
		// event counts (and hence traces and CSVs) stay untouched.
		fb := policy.NewFeedback(tb.K, policy.FeedbackConfig{
			SampleIntervalSec: rc.TLs.FeedbackIntervalSec,
		})
		fb.Probe = cluster.NewQdiscProbe(tb.Fabric)
		fb.Tracer = rc.Tracer
		ctl.AttachFeedback(fb)
	}
	jobs, err := tb.Launch(specs, rc.StaggerSec, func(j *dl.Job) {
		ctl.JobArrived(core.JobInfo{
			ID:          j.Spec.ID,
			PSHost:      j.Spec.PSHost,
			PSPort:      j.Spec.PSPort,
			UpdateBytes: j.Spec.Model.UpdateBytes(),
			// TargetSteps is in iteration units to match the progress
			// reported at each barrier: every synchronous iteration
			// advances the global step count by one step per worker.
			TargetSteps: (j.Spec.TargetGlobalSteps + j.Spec.NumWorkers - 1) / j.Spec.NumWorkers,
		})
		j.OnFinish = func(j *dl.Job) { ctl.JobDeparted(j.Spec.ID) }
		j.OnFail = func(j *dl.Job) { ctl.JobDeparted(j.Spec.ID) }
		j.OnBarrier = func(j *dl.Job, iter int) { ctl.JobProgress(j.Spec.ID, iter) }
	})
	if err != nil {
		return nil, err
	}
	var cjobs []*collective.Job
	if len(rc.CollectiveSpecs) > 0 {
		cspecs := make([]collective.JobSpec, len(rc.CollectiveSpecs))
		copy(cspecs, rc.CollectiveSpecs)
		for i := range cspecs {
			if cspecs[i].ComputeJitterSigma == 0 {
				cspecs[i].ComputeJitterSigma = rc.ComputeJitterSigma
			}
			if cspecs[i].Recovery == (dl.RecoveryConfig{}) {
				cspecs[i].Recovery = rc.Recovery
			}
		}
		// Every rank's flows carry the job's collective port as source
		// port, so one JobInfo with SenderHosts = the ring keys the whole
		// job into a single priority band on each of its hosts.
		cjobs, err = tb.LaunchCollective(cspecs, rc.StaggerSec, func(j *collective.Job) {
			ctl.JobArrived(core.JobInfo{
				ID:          j.Spec.ID,
				PSHost:      j.Spec.Hosts[0],
				PSPort:      j.Spec.Port,
				UpdateBytes: j.Spec.Model.UpdateBytes(),
				SenderHosts: j.Spec.Hosts,
				Ports:       []int{j.Spec.Port},
				TargetSteps: j.Spec.TargetIterations,
			})
			j.OnFinish = func(j *collective.Job) { ctl.JobDeparted(j.Spec.ID) }
			j.OnFail = func(j *collective.Job) { ctl.JobDeparted(j.Spec.ID) }
			j.OnIteration = func(j *collective.Job, iter int) { ctl.JobProgress(j.Spec.ID, iter) }
		})
		if err != nil {
			return nil, err
		}
	}
	var inj *faults.Injector
	if rc.Faults.Active() {
		tcc := tb.TC
		if !rc.Faults.TCOutage && len(rc.Faults.TCOutages) == 0 {
			tcc = nil // don't install the exec hook unless tc faults are wanted
		}
		inj = faults.New(tb.K, tb.RNG, tb.Fabric, tcc)
		inj.Tracer = rc.Tracer
		var psHosts []int
		seen := map[int]bool{}
		for _, s := range specs {
			if !seen[s.PSHost] {
				seen[s.PSHost] = true
				psHosts = append(psHosts, s.PSHost)
			}
		}
		jobByID := make(map[int]*dl.Job, len(jobs))
		for _, j := range jobs {
			jobByID[j.Spec.ID] = j
		}
		cjobByID := make(map[int]*collective.Job, len(cjobs))
		for _, j := range cjobs {
			cjobByID[j.Spec.ID] = j
		}
		if err := inj.Apply(rc.Faults, psHosts, jobByID, cjobByID); err != nil {
			return nil, err
		}
	}
	var sampler *metrics.UtilizationSampler
	if rc.SampleUtilEvery > 0 {
		sampler = metrics.NewUtilizationSampler(tb.K, tb.Fabric, tb.CPUs, rc.SampleUtilEvery)
		sampler.Tracer = rc.Tracer
		sampler.Start()
	}
	runErr := tb.RunMixedToCompletionCtx(ctx, jobs, cjobs, 0)
	if sampler != nil {
		sampler.Stop()
	}
	if runErr != nil {
		return nil, fmt.Errorf("sweep: run %q cancelled at sim time %.3f s: %w",
			rc.Label, tb.K.Now(), runErr)
	}

	res := &RunResult{
		Config:      rc,
		SimTime:     tb.K.Now(),
		Events:      tb.K.Fired(),
		EventAllocs: tb.K.EventAllocs(),
		Wall:        time.Since(start),
		Reconfigs:   ctl.Reconfigs(),
		Progress:    map[int][]dl.ProgressPoint{},
	}
	psSet := map[int]bool{}
	for _, j := range jobs {
		if j.Failed() {
			// Under fault injection a job may legitimately lose every
			// worker; record it instead of failing the whole run.
			res.FailedJobs = append(res.FailedJobs, j.Spec.ID)
			res.Restarts += j.Restarts()
			res.DegradedWorkers += j.DegradedWorkers()
			continue
		}
		if !j.Done() {
			return nil, fmt.Errorf("sweep: job %d did not finish (step %d/%d)",
				j.Spec.ID, j.GlobalStep(), j.Spec.TargetGlobalSteps)
		}
		res.JCTs = append(res.JCTs, j.JCT())
		res.Restarts += j.Restarts()
		res.DegradedWorkers += j.DegradedWorkers()
		for _, bs := range j.BarrierStats() {
			res.BarrierMeans = append(res.BarrierMeans, bs.Mean)
			res.BarrierVars = append(res.BarrierVars, bs.Variance)
		}
		if rc.ProgressEvery > 0 {
			res.Progress[j.Spec.ID] = j.Progress()
		}
		psSet[j.Spec.PSHost] = true
	}
	for _, j := range cjobs {
		res.Restarts += j.Restarts()
		res.CollectiveStalls += j.Stalls()
		if j.Failed() {
			res.FailedJobs = append(res.FailedJobs, j.Spec.ID)
			continue
		}
		if !j.Done() {
			return nil, fmt.Errorf("sweep: collective job %d did not finish (iteration %d/%d)",
				j.Spec.ID, j.Iterations(), j.Spec.TargetIterations)
		}
		res.CollectiveJCTs = append(res.CollectiveJCTs, j.JCT())
	}
	if inj != nil {
		res.FaultCounts = inj.Counts()
	}
	res.DroppedChunks = tb.Fabric.DroppedChunks()
	res.TcRecovery = ctl.Stats()
	for _, l := range tb.Fabric.CoreLinks() {
		util := 0.0
		if res.SimTime > 0 {
			util = l.Port().BusyTime() / res.SimTime
		}
		res.LinkStats = append(res.LinkStats, LinkStat{
			Link: l.ID, Name: l.Name, Bytes: l.Port().Bytes(), Util: util,
		})
	}
	for _, h := range tb.Fabric.Hosts() {
		res.EgressBytes += h.Egress.Bytes()
	}
	for h := 0; h < tb.Fabric.NumHosts(); h++ {
		if psSet[h] {
			res.PSHosts = append(res.PSHosts, h)
		}
	}
	if sampler != nil && len(res.JCTs) > 0 {
		// Active window: the paper uses [100 s, 1250 s] after launch,
		// a period when all jobs are running. Scale it to the actual
		// run length so short (test-sized) runs still measure steady
		// state: [10%, 90%] of the earliest job finish, capped at the
		// paper's window.
		earliest := res.JCTs[0]
		for _, j := range res.JCTs {
			if j < earliest {
				earliest = j
			}
		}
		wStart, wEnd := 0.1*earliest, 0.9*earliest
		if wStart > 100 {
			wStart = 100
		}
		if wEnd > 1250 {
			wEnd = 1250
		}
		utils, err := sampler.Window(wStart, wEnd)
		if err != nil {
			return nil, err
		}
		res.Utils = utils
		res.UtilWindow = [2]float64{wStart, wEnd}
	}
	return res, nil
}

// RunMany executes runs on the parallel Engine (each run is internally
// single-threaded) and returns results in input order. parallelism <= 0
// uses GOMAXPROCS; 1 runs the legacy sequential path.
func RunMany(rcs []RunConfig, parallelism int) ([]*RunResult, error) {
	return RunManyContext(context.Background(), rcs, parallelism)
}

// RunManyContext is RunMany with cancellation threaded through the
// Engine into every trial: once ctx is done, no new trial starts and
// in-flight simulations stop between events, so a long grid can be
// abandoned mid-sweep (SIGINT in tlsim, drain/deadline in tlsimd).
func RunManyContext(ctx context.Context, rcs []RunConfig, parallelism int) ([]*RunResult, error) {
	results := make([]*RunResult, len(rcs))
	err := Engine{Parallelism: parallelism}.ForEachContext(ctx, len(rcs), func(ctx context.Context, i int) error {
		r, err := RunContext(ctx, rcs[i])
		if err != nil {
			return fmt.Errorf("sweep: run %d (%s): %w", i, rcs[i].Label, err)
		}
		results[i] = r
		return nil
	})
	if err != nil {
		return nil, err
	}
	return results, nil
}
