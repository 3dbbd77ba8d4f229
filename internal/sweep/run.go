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
	"slices"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/collective"
	"repro/internal/core"
	"repro/internal/dl"
	"repro/internal/faults"
	"repro/internal/metrics"
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

// linkTally summarizes every fabric core link over a run of simTime
// seconds (empty on the flat topology) and sums the bytes all host
// NICs transmitted.
func linkTally(tb *cluster.Testbed, simTime float64) (links []LinkStat, egress int64) {
	for _, l := range tb.Fabric.CoreLinks() {
		util := 0.0
		if simTime > 0 {
			util = l.Port().BusyTime() / simTime
		}
		links = append(links, LinkStat{
			Link: l.ID, Name: l.Name, Bytes: l.Port().Bytes(), Util: util,
		})
	}
	for _, h := range tb.Fabric.Hosts() {
		egress += h.Egress.Bytes()
	}
	return links, egress
}

// coreLoad returns the leaf-uplink bytes over the NIC egress bytes
// (the cross-rack ratio) and the busiest core link's utilization.
func coreLoad(links []LinkStat, egress int64) (crossRack, maxUtil float64) {
	var upBytes int64
	for _, l := range links {
		if strings.HasPrefix(l.Name, "leaf") {
			upBytes += l.Bytes
		}
		maxUtil = max(maxUtil, l.Util)
	}
	if egress > 0 {
		crossRack = float64(upBytes) / float64(egress)
	}
	return crossRack, maxUtil
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
	// PS jobs, then collective jobs, each staggered from t = 0.
	cspecs := append([]collective.JobSpec(nil), rc.CollectiveSpecs...)
	arrs := make([]arrival, 0, len(specs)+len(cspecs))
	for i := range specs {
		specs[i].Async = rc.Async
		specs[i].ProgressEvery = rc.ProgressEvery
		specs[i].ComputeJitterSigma = rc.ComputeJitterSigma
		specs[i].GradCompression = rc.GradCompression
		specs[i].Recovery = rc.Recovery
		arrs = append(arrs, arrival{At: float64(i) * rc.StaggerSec, PS: &specs[i]})
	}
	for i := range cspecs {
		if cspecs[i].ComputeJitterSigma == 0 {
			cspecs[i].ComputeJitterSigma = rc.ComputeJitterSigma
		}
		if cspecs[i].Recovery == (dl.RecoveryConfig{}) {
			cspecs[i].Recovery = rc.Recovery
		}
		arrs = append(arrs, arrival{At: float64(i) * rc.StaggerSec, Collective: &cspecs[i]})
	}
	ctl, fb, err := newController(tb, rc.TLs, rc.Tracer, false)
	if err != nil {
		return nil, err
	}
	r, err := newRunner(tb, ctl, fb, nil, arrs)
	if err != nil {
		return nil, err
	}
	var inj *faults.Injector
	if rc.Faults.Active() {
		tcc := tb.TC
		if !rc.Faults.TCOutage && len(rc.Faults.TCOutages) == 0 {
			tcc = nil // don't install the exec hook unless tc faults are wanted
		}
		inj = faults.New(tb.K, tb.RNG, tb.Fabric, tcc)
		inj.Tracer = rc.Tracer
		if err := inj.Apply(rc.Faults, specs, cspecs, r); err != nil {
			return nil, err
		}
	}
	var sampler *metrics.UtilizationSampler
	if rc.SampleUtilEvery > 0 {
		sampler = metrics.NewUtilizationSampler(tb.K, tb.Fabric, tb.CPUs, rc.SampleUtilEvery)
		sampler.Tracer = rc.Tracer
		sampler.Start()
	}
	runErr := r.run(ctx)
	if sampler != nil {
		sampler.Stop()
	}
	if runErr != nil {
		return nil, fmt.Errorf("sweep: run %q: %w", rc.Label, runErr)
	}
	jobs, cjobs := r.ps[:len(specs)], r.coll[len(specs):]

	res := &RunResult{
		Config:      rc,
		SimTime:     tb.K.Now(),
		Events:      tb.K.Fired(),
		EventAllocs: tb.K.EventAllocs(),
		Wall:        time.Since(start),
		Reconfigs:   ctl.Reconfigs(),
		Progress:    map[int][]dl.ProgressPoint{},
	}
	for i, j := range jobs {
		res.Restarts += j.Restarts()
		res.DegradedWorkers += j.DegradedWorkers()
		if j.Failed() {
			// Under fault injection a job may legitimately lose every
			// worker; record it instead of failing the whole run.
			res.FailedJobs = append(res.FailedJobs, j.Spec.ID)
			continue
		}
		res.JCTs = append(res.JCTs, r.jct[i])
		for _, bs := range j.BarrierStats() {
			res.BarrierMeans = append(res.BarrierMeans, bs.Mean)
			res.BarrierVars = append(res.BarrierVars, bs.Variance)
		}
		if rc.ProgressEvery > 0 {
			res.Progress[j.Spec.ID] = j.Progress()
		}
		res.PSHosts = append(res.PSHosts, j.Spec.PSHost)
	}
	slices.Sort(res.PSHosts)
	res.PSHosts = slices.Compact(res.PSHosts)
	for i, j := range cjobs {
		res.Restarts += j.Restarts()
		res.CollectiveStalls += j.Stalls()
		if j.Failed() {
			res.FailedJobs = append(res.FailedJobs, j.Spec.ID)
			continue
		}
		res.CollectiveJCTs = append(res.CollectiveJCTs, r.jct[len(specs)+i])
	}
	if inj != nil {
		res.FaultCounts = inj.Counts()
	}
	res.DroppedChunks = tb.Fabric.DroppedChunks()
	res.TcRecovery = ctl.Stats()
	res.LinkStats, res.EgressBytes = linkTally(tb, res.SimTime)
	if sampler != nil && len(res.JCTs) > 0 {
		// Active window: the paper uses [100 s, 1250 s] after launch,
		// a period when all jobs are running. Scale it to the actual
		// run length so short (test-sized) runs still measure steady
		// state: [10%, 90%] of the earliest job finish, capped at the
		// paper's window.
		earliest := slices.Min(res.JCTs)
		wStart, wEnd := min(0.1*earliest, 100), min(0.9*earliest, 1250)
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
	return GatherContext(ctx, Engine{Parallelism: parallelism}, rcs, RunContext)
}
