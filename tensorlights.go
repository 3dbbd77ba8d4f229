// Package tensorlights reproduces "Green, Yellow, Yield: End-Host
// Traffic Scheduling for Distributed Deep Learning with TensorLights"
// (Huang, Chen & Ng, IPDPS 2019) as a discrete-event simulation study.
//
// The package is a façade over the internal engine:
//
//   - internal/sim      — deterministic discrete-event kernel
//   - internal/qdisc    — pfifo / prio / htb / tbf / sfq disciplines
//   - internal/tc       — Linux-tc-style configuration layer
//   - internal/simnet   — host NICs, routed fabric topologies, chunked transfers
//   - internal/cpusim   — processor-sharing host CPUs
//   - internal/dl       — parameter-server training jobs
//   - internal/cluster  — testbed, Table I placements, scheduler
//   - internal/core     — the TensorLights controller (TLs-One, TLs-RR)
//   - internal/sweep    — per-figure experiment harness
//
// Quick start:
//
//	res, err := tensorlights.RunExperiment(tensorlights.ExperimentConfig{
//	    Policy:         tensorlights.TLsOne,
//	    PlacementIndex: 1,
//	    Steps:          3000,
//	})
//	fmt.Println(res.AvgJCT)
package tensorlights

import (
	"context"
	"fmt"
	"io"

	"repro/internal/cluster"
	"repro/internal/collective"
	"repro/internal/core"
	"repro/internal/dl"
	"repro/internal/faults"
	"repro/internal/metrics"
	"repro/internal/scheduler"
	"repro/internal/simnet"
	"repro/internal/sweep"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Version identifies the reproduction release.
const Version = "1.0.0"

// Policy selects the end-host traffic scheduling policy.
type Policy int

// The three policies evaluated in the paper.
const (
	// FIFO is the kernel default: first-come-first-serve at the NIC.
	FIFO Policy = iota
	// TLsOne assigns each contending job a static priority.
	TLsOne
	// TLsRR rotates priorities every RotateIntervalSec for fairness.
	TLsRR
	// TLsLPF re-ranks contending jobs least-progress-first every
	// RotateIntervalSec (an adaptive fairness extension beyond the
	// paper).
	TLsLPF
	// StaticRate pins each contending job to an equal static rate
	// share — the paper's §VII rate-control alternative, which is not
	// work-conserving.
	StaticRate
	// TLsLAS re-ranks least-attained-service first using measured
	// per-band dequeue bytes with Tiresias-style aging (adaptive,
	// telemetry-driven; beyond the paper).
	TLsLAS
	// TLsSRSF re-ranks shortest-remaining-service first from declared
	// target steps and observed bytes per iteration (adaptive).
	TLsSRSF
	// TLsInterleave offsets colocated jobs' priorities so their
	// communication bursts interleave instead of collide (adaptive,
	// CASSINI-inspired).
	TLsInterleave
)

// String names the policy as the paper does.
func (p Policy) String() string {
	if n := p.adaptiveName(); n != "" {
		return n
	}
	return p.core().String()
}

// adaptiveName returns the registry name for telemetry-driven policies
// that have no core.Policy enum value, "" otherwise.
func (p Policy) adaptiveName() string {
	switch p {
	case TLsLAS:
		return "TLs-LAS"
	case TLsSRSF:
		return "TLs-SRSF"
	case TLsInterleave:
		return "TLs-Interleave"
	default:
		return ""
	}
}

func (p Policy) core() core.Policy {
	switch p {
	case TLsOne:
		return core.PolicyOne
	case TLsRR:
		return core.PolicyRR
	case TLsLPF:
		return core.PolicyLPF
	case StaticRate:
		return core.PolicyStaticRate
	default:
		return core.PolicyFIFO
	}
}

// ExperimentConfig describes one grid-search experiment: NumJobs
// identical synchronous training jobs on a 21-host cluster, PSes placed
// per Table I's placement index.
type ExperimentConfig struct {
	// Policy is the end-host scheduling policy (default FIFO).
	Policy Policy
	// PlacementIndex selects Table I's placement #1..#8 (default 1,
	// all PSes colocated — the heaviest contention).
	PlacementIndex int
	// Placement, when non-empty (e.g. "5, 16"), overrides the index.
	Placement string
	// Model names a model from the zoo (default "resnet32").
	Model string
	// NumJobs, LocalBatch and Steps default to the paper's 21, 4 and
	// 30000. Tests should pass smaller Steps.
	NumJobs    int
	LocalBatch int
	Steps      int
	// Bands is the number of priority bands (default 6).
	Bands int
	// RotateIntervalSec is the re-ranking interval T for TLs-RR and the
	// adaptive policies (default 20 s).
	RotateIntervalSec float64
	// FeedbackIntervalSec is the telemetry sampling period for the
	// adaptive policies (default 5 s); ignored by the paper's static
	// policies.
	FeedbackIntervalSec float64
	// Topology selects the fabric behind the NIC ports: "" or "flat"
	// keeps the paper's single non-blocking switch; "leafspine" routes
	// cross-rack flows over a two-tier fabric whose core links are
	// contended, rate-limited ports.
	Topology string
	// FabricMode selects the fabric engine: "" or "chunk" simulates
	// every chunk hop-by-hop; "flow" runs the analytic flow-level model
	// (internal/flownet) — max-min fair bandwidth sharing under the
	// TensorLights priority bands, typically 10-100x fewer events with
	// matching per-job completion times on uncontended paths (DESIGN.md
	// §13).
	FabricMode string
	// Racks partitions the hosts into racks on the leafspine topology
	// (default 3 — the 21-host testbed divides into 3 racks of 7).
	Racks int
	// UplinksPerLeaf is each rack's ECMP spine fan-out (default 2).
	UplinksPerLeaf int
	// Oversubscription is rack host bandwidth over rack core bandwidth
	// (default 1, non-blocking; 2 halves cross-rack capacity).
	Oversubscription float64
	// PlacementStrategy maps PS groups and collective rings onto racks:
	// "pack", "spread" or "network-aware" ("" = spread). Ignored on the
	// flat topology.
	PlacementStrategy string
	// Async selects asynchronous training.
	Async bool
	// Seed makes the run reproducible.
	Seed int64
	// MeasureUtilization enables CPU/NIC sampling.
	MeasureUtilization bool
	// TraceCSV, when non-nil, receives a CSV dump of all simulation
	// events (job lifecycle, barriers, flows, tc reconfigurations)
	// after the run.
	TraceCSV io.Writer
	// Faults enables deterministic fault injection for the run.
	Faults FaultConfig
	// Collective, when non-nil, adds synchronous all-reduce jobs to the
	// run. With NumJobs == 0 the cluster is all-reduce-only; with
	// NumJobs > 0 the PS and collective workloads share hosts and
	// TensorLights schedules both uniformly.
	Collective *CollectiveConfig
	// Scheduler, when non-nil, replaces the static grid workload with
	// the online cluster-scheduler experiment: Poisson arrivals of
	// mixed PS + all-reduce jobs on an oversubscribed leaf-spine
	// fabric, placed per arrival by the cluster-scheduler tier
	// (internal/scheduler) under the configured end-host Policy. The
	// placement-related fields above (PlacementIndex, Placement,
	// Topology, Racks, PlacementStrategy, Collective) are ignored —
	// the scheduler tier owns placement.
	Scheduler *SchedulerConfig
	// OpenWorld, when non-nil, replaces the static grid workload with
	// the open-world experiment: a unified stream of PS, ring and tree
	// jobs drawn from a pluggable arrival process (Poisson, bursty or
	// trace replay), placed per arrival by the cluster-scheduler tier
	// on an oversubscribed leaf-spine fabric, optionally over
	// heterogeneous hosts. The placement-related fields above are
	// ignored — the scheduler tier owns placement. Incompatible with
	// Scheduler.
	OpenWorld *OpenWorldConfig
}

// SchedulerConfig describes the online cluster-scheduler experiment.
type SchedulerConfig struct {
	// Placement names the cluster-scheduler placement policy: random,
	// pack, spread, network-aware, contention-aware or phase-aware
	// (default contention-aware).
	Placement string
	// Oversubscription is the leaf-spine core oversubscription ratio
	// (default 2).
	Oversubscription float64
	// Jobs is the number of arrivals (default 9).
	Jobs int
	// ArrivalRatePerSec is the Poisson arrival rate (default 1/s).
	ArrivalRatePerSec float64
}

// OpenWorldConfig describes the open-world experiment: one arrival
// stream mixing PS and collective jobs through the unified workload
// layer (internal/workload), placed online by the cluster-scheduler
// tier.
type OpenWorldConfig struct {
	// Arrivals names the arrival process: "poisson" (default),
	// "bursty" (Markov-modulated on/off) or "trace" (CSV replay).
	Arrivals string
	// Trace optionally supplies the replay CSV for Arrivals ==
	// "trace" in the workload.ParseTrace schema
	// (at_sec,kind,model,tasks,local_batch,iterations). When nil the
	// built-in demo trace is replayed.
	Trace io.Reader
	// Mix selects the job mix for stochastic arrivals: "mixed"
	// (default), "ps" or "collective". Ignored for trace replay —
	// the trace names each job's kind and model.
	Mix string
	// Heterogeneous slows every third host to 60% reference speed.
	Heterogeneous bool
	// Placement names the cluster-scheduler placement policy: random,
	// pack, spread, network-aware, contention-aware or phase-aware
	// (default contention-aware).
	Placement string
	// Oversubscription is the leaf-spine core oversubscription ratio
	// (default 2).
	Oversubscription float64
	// Jobs is the number of arrivals (default 9; trace replay always
	// runs the whole trace).
	Jobs int
	// ArrivalRatePerSec scales the stochastic arrival processes
	// (default 1/s).
	ArrivalRatePerSec float64
}

// CollectiveJobIDBase is the ID of the first collective job: ring i is
// job CollectiveJobIDBase+i, disjoint from PS job IDs (0..NumJobs-1).
// Fault plans target a ring peer by naming a job at or above this base.
const CollectiveJobIDBase = cluster.CollectiveIDBase

// CollectiveConfig describes an all-reduce workload: Jobs rings of
// Ranks ranks each, placed by ring order over the cluster's hosts.
type CollectiveConfig struct {
	// Jobs is the number of all-reduce jobs (default 3).
	Jobs int
	// Ranks is the ring size — ranks per job, one per host (default 4).
	Ranks int
	// Stride offsets ring i's first host by i*Stride. The default 0
	// aligns every ring on the same hosts: maximal NIC contention, the
	// collective analogue of placement #1.
	Stride int
	// Algorithm is "ring" (bucketized ring all-reduce, the default) or
	// "tree" (binomial tree reduce + broadcast).
	Algorithm string
	// Model names the trained model (default "alexnet", whose 244 MB
	// updates make the rings communication-bound).
	Model string
	// LocalBatch is the per-rank batch size (default 1).
	LocalBatch int
	// Iterations is the training length (default Steps/30, min 2).
	Iterations int
	// Buckets is the gradient-bucket count per iteration (default 4).
	Buckets int
}

// WorkerCrash schedules one worker-task crash.
type WorkerCrash struct {
	Job    int     // job ID
	Worker int     // worker index within the job
	AtSec  float64 // crash time (simulated seconds)
}

// FaultConfig enables deterministic fault injection: the schedule is
// derived from the experiment seed, so the same config reproduces the
// same faults — and the same results — on every run. The zero value
// injects nothing.
type FaultConfig struct {
	// FlapPSHosts takes every parameter-server host's NIC down for
	// FlapDurationSec every FlapEverySec, starting at FlapFirstAtSec,
	// until HorizonSec. FlapJitterSec adds a seeded per-window offset.
	FlapPSHosts     bool
	FlapFirstAtSec  float64
	FlapEverySec    float64
	FlapDurationSec float64
	FlapJitterSec   float64
	// HorizonSec bounds the flap schedule (required when flapping).
	HorizonSec float64
	// DropProb, when positive, adds a chunk-loss window of the same
	// duration right after each flap (lossy post-flap recovery).
	DropProb float64
	// TCOutage also fails tc actuation on the host during each flap,
	// exercising the controller's retry/fallback/reconcile paths.
	TCOutage bool
	// Crashes lists worker crashes to schedule.
	Crashes []WorkerCrash
	// PeerCrashes lists collective-rank crashes (Worker = rank index;
	// Job must be a collective job's ID). A crashed peer stalls its
	// whole ring until detection restarts the iteration.
	PeerCrashes []WorkerCrash
	// DetectTimeoutSec, RestartBackoffSec and MaxRestarts tune each
	// job's crashed-worker recovery (see dl.RecoveryConfig). With
	// DetectTimeoutSec zero, a crashed worker wedges its job's barrier.
	DetectTimeoutSec  float64
	RestartBackoffSec float64
	MaxRestarts       int
}

func (f FaultConfig) plan() faults.Plan {
	p := faults.Plan{
		FlapPSHosts:     f.FlapPSHosts,
		FlapFirstAtSec:  f.FlapFirstAtSec,
		FlapEverySec:    f.FlapEverySec,
		FlapDurationSec: f.FlapDurationSec,
		FlapJitterSec:   f.FlapJitterSec,
		HorizonSec:      f.HorizonSec,
		DropProb:        f.DropProb,
		TCOutage:        f.TCOutage,
	}
	for _, c := range f.Crashes {
		p.Crashes = append(p.Crashes, faults.CrashPlan{
			Job: c.Job, Worker: c.Worker, AtSec: c.AtSec,
		})
	}
	for _, c := range f.PeerCrashes {
		p.PeerCrashes = append(p.PeerCrashes, faults.CrashPlan{
			Job: c.Job, Worker: c.Worker, AtSec: c.AtSec,
		})
	}
	return p
}

// Result summarizes one experiment.
type Result struct {
	// JCTs holds each job's completion time in seconds.
	JCTs []float64
	// AvgJCT is the mean of JCTs — the paper's headline metric.
	AvgJCT float64
	// BarrierWaitMean and BarrierWaitVariance summarize the pooled
	// per-barrier wait distributions (straggler indicators).
	BarrierWaitMean     float64
	BarrierWaitVariance float64
	// Utilization holds per-host active-window utilization when
	// MeasureUtilization was set.
	Utilization []HostUtilization
	// SimulatedSeconds is the simulated makespan.
	SimulatedSeconds float64
	// Events is the number of discrete events fired.
	Events uint64
	// TcReconfigurations counts TensorLights host reconfigurations.
	TcReconfigurations int

	// Fault-injection accounting (all zero when Faults was inactive).
	WorkerRestarts  int
	DegradedWorkers int
	// FailedJobs lists jobs that lost every worker; they have no JCT.
	FailedJobs    []int
	DroppedChunks uint64
	// TcRetries/TcFallbacks/TcRepairs count the controller's reactions
	// to failed tc actuation: backoff retries, FIFO fallbacks, and
	// reconcile-loop repairs that restored the priority bands.
	TcRetries   int
	TcFallbacks int
	TcRepairs   int

	// Collective-workload accounting (empty without Collective).
	CollectiveJCTs   []float64
	CollectiveAvgJCT float64
	// RingStalls counts whole-ring stalls caused by crashed peers.
	RingStalls int
}

// HostUtilization is one host's active-window utilization in [0,1].
type HostUtilization struct {
	Host   int
	CPU    float64
	NetIn  float64
	NetOut float64
}

// RunExperiment executes one experiment to completion.
func RunExperiment(cfg ExperimentConfig) (*Result, error) {
	return RunExperimentContext(context.Background(), cfg)
}

// RunExperimentContext is RunExperiment with cancellation: when ctx is
// cancelled (SIGINT in tlsim, a per-job deadline in tlsimd) the
// simulation stops between events and the context error is returned
// wrapped. If TraceCSV was set, the events collected so far are still
// written, preceded by a "# partial trace" comment line so a truncated
// dump can never be mistaken for a complete run.
func RunExperimentContext(ctx context.Context, cfg ExperimentConfig) (*Result, error) {
	switch cfg.FabricMode {
	case "", simnet.ModeChunk, simnet.ModeFlow:
	default:
		return nil, fmt.Errorf("tensorlights: unknown fabric mode %q (want %q or %q)",
			cfg.FabricMode, simnet.ModeChunk, simnet.ModeFlow)
	}
	if cfg.Scheduler != nil {
		if cfg.OpenWorld != nil {
			return nil, fmt.Errorf("tensorlights: OpenWorld is incompatible with Scheduler (set exactly one)")
		}
		return runSchedulerExperiment(ctx, cfg)
	}
	if cfg.OpenWorld != nil {
		return runOpenWorldExperiment(ctx, cfg)
	}
	rc, err := toRunConfig(cfg)
	if err != nil {
		return nil, err
	}
	var buf *trace.Buffer
	if cfg.TraceCSV != nil {
		buf = &trace.Buffer{}
		rc.Tracer = buf
	}
	res, err := sweep.RunContext(ctx, rc)
	if err != nil {
		if buf != nil && ctx.Err() != nil {
			// Best effort: the run was cancelled, not broken — dump what
			// we have, clearly marked. A dump error cannot outrank the
			// cancellation itself.
			fmt.Fprintf(cfg.TraceCSV, "# partial trace: experiment cancelled before completion (%v)\n", ctx.Err())
			_ = buf.WriteCSV(cfg.TraceCSV)
		}
		return nil, err
	}
	if buf != nil {
		if err := buf.WriteCSV(cfg.TraceCSV); err != nil {
			return nil, fmt.Errorf("tensorlights: trace dump: %w", err)
		}
	}
	out := &Result{
		JCTs:                res.JCTs,
		AvgJCT:              res.AvgJCT(),
		BarrierWaitMean:     metrics.Mean(res.BarrierMeans),
		BarrierWaitVariance: metrics.Mean(res.BarrierVars),
		SimulatedSeconds:    res.SimTime,
		Events:              res.Events,
		TcReconfigurations:  res.Reconfigs,
		WorkerRestarts:      res.Restarts,
		DegradedWorkers:     res.DegradedWorkers,
		FailedJobs:          res.FailedJobs,
		DroppedChunks:       res.DroppedChunks,
		TcRetries:           res.TcRecovery.Retries,
		TcFallbacks:         res.TcRecovery.Fallbacks,
		TcRepairs:           res.TcRecovery.Repairs,
		CollectiveJCTs:      res.CollectiveJCTs,
		CollectiveAvgJCT:    metrics.Mean(res.CollectiveJCTs),
		RingStalls:          res.CollectiveStalls,
	}
	for _, u := range res.Utils {
		out.Utilization = append(out.Utilization, HostUtilization{
			Host: u.Host, CPU: u.CPU, NetIn: u.NetIn, NetOut: u.NetOut,
		})
	}
	return out, nil
}

// runSchedulerExperiment maps an ExperimentConfig with Scheduler set
// onto one online cluster-scheduler trial.
func runSchedulerExperiment(ctx context.Context, cfg ExperimentConfig) (*Result, error) {
	place, err := scheduler.ParsePolicy(cfg.Scheduler.Placement)
	if err != nil {
		return nil, err
	}
	if cfg.Scheduler.Placement == "" {
		place = scheduler.PolicyContentionAware
	}
	tc := sweep.SchedulerTrialConfig{
		Steps:             cfg.Steps,
		Seed:              cfg.Seed,
		Oversub:           cfg.Scheduler.Oversubscription,
		Placement:         place,
		PolicyName:        cfg.Policy.String(),
		Jobs:              cfg.Scheduler.Jobs,
		ArrivalRatePerSec: cfg.Scheduler.ArrivalRatePerSec,
		FabricMode:        cfg.FabricMode,
	}
	var buf *trace.Buffer
	if cfg.TraceCSV != nil {
		buf = &trace.Buffer{}
		tc.Tracer = buf
	}
	res, err := sweep.SchedulerTrial(ctx, tc)
	if err != nil {
		if buf != nil && ctx.Err() != nil {
			fmt.Fprintf(cfg.TraceCSV, "# partial trace: experiment cancelled before completion (%v)\n", ctx.Err())
			_ = buf.WriteCSV(cfg.TraceCSV)
		}
		return nil, err
	}
	if buf != nil {
		if err := buf.WriteCSV(cfg.TraceCSV); err != nil {
			return nil, fmt.Errorf("tensorlights: trace dump: %w", err)
		}
	}
	return &Result{
		JCTs:               res.JCTs,
		AvgJCT:             res.AvgJCT,
		SimulatedSeconds:   res.MakespanSec,
		Events:             res.Events,
		TcReconfigurations: res.Reconfigs,
	}, nil
}

// runOpenWorldExperiment maps an ExperimentConfig with OpenWorld set
// onto one open-world trial.
func runOpenWorldExperiment(ctx context.Context, cfg ExperimentConfig) (*Result, error) {
	place, err := scheduler.ParsePolicy(cfg.OpenWorld.Placement)
	if err != nil {
		return nil, err
	}
	if cfg.OpenWorld.Placement == "" {
		place = scheduler.PolicyContentionAware
	}
	tc := sweep.OpenWorldTrialConfig{
		Steps:             cfg.Steps,
		Seed:              cfg.Seed,
		Arrivals:          cfg.OpenWorld.Arrivals,
		Heterogeneous:     cfg.OpenWorld.Heterogeneous,
		Oversub:           cfg.OpenWorld.Oversubscription,
		Placement:         place,
		PolicyName:        cfg.Policy.String(),
		Jobs:              cfg.OpenWorld.Jobs,
		ArrivalRatePerSec: cfg.OpenWorld.ArrivalRatePerSec,
		MixName:           cfg.OpenWorld.Mix,
		FabricMode:        cfg.FabricMode,
	}
	if cfg.OpenWorld.Trace != nil {
		tr, err := workload.ParseTrace(cfg.OpenWorld.Trace)
		if err != nil {
			return nil, err
		}
		tc.Trace = tr
	}
	var buf *trace.Buffer
	if cfg.TraceCSV != nil {
		buf = &trace.Buffer{}
		tc.Tracer = buf
	}
	res, err := sweep.OpenWorldTrial(ctx, tc)
	if err != nil {
		if buf != nil && ctx.Err() != nil {
			fmt.Fprintf(cfg.TraceCSV, "# partial trace: experiment cancelled before completion (%v)\n", ctx.Err())
			_ = buf.WriteCSV(cfg.TraceCSV)
		}
		return nil, err
	}
	if buf != nil {
		if err := buf.WriteCSV(cfg.TraceCSV); err != nil {
			return nil, fmt.Errorf("tensorlights: trace dump: %w", err)
		}
	}
	return &Result{
		JCTs:               res.JCTs,
		AvgJCT:             res.AvgJCT,
		SimulatedSeconds:   res.MakespanSec,
		Events:             res.Events,
		TcReconfigurations: res.Reconfigs,
	}, nil
}

func toRunConfig(cfg ExperimentConfig) (sweep.RunConfig, error) {
	var zero sweep.RunConfig
	if cfg.PlacementIndex == 0 {
		cfg.PlacementIndex = 1
	}
	placement, err := cluster.PlacementByIndex(cfg.PlacementIndex)
	if err != nil {
		return zero, err
	}
	if cfg.Placement != "" {
		placement, err = cluster.ParsePlacement(cfg.Placement)
		if err != nil {
			return zero, err
		}
	}
	model := dl.ResNet32
	if cfg.Model != "" {
		model, err = dl.ModelByName(cfg.Model)
		if err != nil {
			return zero, err
		}
	}
	topo, strat, err := cfg.topology()
	if err != nil {
		return zero, err
	}
	if topo.Kind == simnet.TopologyLeafSpine {
		placement, err = cluster.RackAwarePlacement(placement, testbedHosts, topo, strat)
		if err != nil {
			return zero, err
		}
	}
	rc := sweep.RunConfig{
		Label:       fmt.Sprintf("%s-p%d", cfg.Policy, cfg.PlacementIndex),
		Cluster:     cluster.Config{Seed: cfg.Seed, Net: simnet.Config{Topology: topo, Mode: cfg.FabricMode}},
		Model:       model,
		NumJobs:     cfg.NumJobs,
		LocalBatch:  cfg.LocalBatch,
		TargetSteps: cfg.Steps,
		Placement:   placement,
		Async:       cfg.Async,
		TLs: core.Config{
			Policy:              cfg.Policy.core(),
			Bands:               cfg.Bands,
			IntervalSec:         cfg.RotateIntervalSec,
			FeedbackIntervalSec: cfg.FeedbackIntervalSec,
		},
	}
	// Adaptive policies have no core.Policy enum value; they resolve by
	// registry name. The sweep layer attaches their Feedback collector.
	if name := cfg.Policy.adaptiveName(); name != "" {
		rc.TLs.PolicyName = name
	}
	if cfg.MeasureUtilization {
		rc.SampleUtilEvery = 1
	}
	rc.Faults = cfg.Faults.plan()
	rc.Recovery = dl.RecoveryConfig{
		DetectTimeoutSec:  cfg.Faults.DetectTimeoutSec,
		RestartBackoffSec: cfg.Faults.RestartBackoffSec,
		MaxRestarts:       cfg.Faults.MaxRestarts,
	}
	if cfg.Collective != nil {
		specs, err := collectiveSpecs(cfg, topo, strat)
		if err != nil {
			return zero, err
		}
		rc.CollectiveSpecs = specs
	}
	return rc, nil
}

// testbedHosts is the paper's cluster size; the façade always runs it.
const testbedHosts = 21

// topology resolves the experiment's fabric config and rack-placement
// strategy, applying the façade-level leafspine defaults.
func (cfg ExperimentConfig) topology() (simnet.TopologyConfig, cluster.Strategy, error) {
	strat, err := cluster.ParseStrategy(cfg.PlacementStrategy)
	if err != nil {
		return simnet.TopologyConfig{}, "", err
	}
	kind := simnet.TopologyKind(cfg.Topology)
	if kind == "" {
		kind = simnet.TopologyFlat
	}
	topo := simnet.TopologyConfig{Kind: kind}
	if kind != simnet.TopologyFlat {
		topo.Racks = cfg.Racks
		if topo.Racks == 0 {
			topo.Racks = 3
		}
		topo.UplinksPerLeaf = cfg.UplinksPerLeaf
		topo.Oversubscription = cfg.Oversubscription
	}
	if err := topo.ValidateFor(testbedHosts); err != nil {
		return simnet.TopologyConfig{}, "", err
	}
	return topo, strat, nil
}

// collectiveSpecs expands CollectiveConfig into per-job specs. On a
// leafspine topology the rings are placed rack-aware per the strategy
// (Stride only applies on flat, where ring layout is host-arithmetic).
func collectiveSpecs(cfg ExperimentConfig, topo simnet.TopologyConfig, strat cluster.Strategy) ([]collective.JobSpec, error) {
	cc := *cfg.Collective
	if cc.Jobs <= 0 {
		cc.Jobs = 3
	}
	if cc.Ranks <= 0 {
		cc.Ranks = 4
	}
	if cc.Model == "" {
		cc.Model = "alexnet"
	}
	if cc.LocalBatch <= 0 {
		cc.LocalBatch = 1
	}
	if cc.Iterations <= 0 {
		steps := cfg.Steps
		if steps <= 0 {
			steps = 30_000
		}
		cc.Iterations = steps / 30
		if cc.Iterations < 2 {
			cc.Iterations = 2
		}
	}
	alg := collective.Ring
	if cc.Algorithm != "" {
		alg = collective.Algorithm(cc.Algorithm)
		if err := alg.Validate(); err != nil {
			return nil, err
		}
	}
	model, err := dl.ModelByName(cc.Model)
	if err != nil {
		return nil, err
	}
	var rings [][]int
	if topo.Kind == simnet.TopologyLeafSpine {
		rings, err = cluster.RackRingPlacement(cc.Jobs, cc.Ranks, testbedHosts, topo, strat)
	} else {
		rings, err = cluster.RingPlacement(cc.Jobs, cc.Ranks, testbedHosts, cc.Stride)
	}
	if err != nil {
		return nil, err
	}
	specs := cluster.CollectiveSpecs(model, rings, alg, cc.LocalBatch, cc.Iterations)
	for i := range specs {
		specs[i].Buckets = cc.Buckets
	}
	return specs, nil
}

// ReproOptions scales the per-figure reproduction runs. Zero values run
// the paper's full scale (30 000 global steps).
type ReproOptions struct {
	Steps       int
	Seed        int64
	Parallelism int
}

func (o ReproOptions) sweep() sweep.Options {
	return sweep.Options{Steps: o.Steps, Seed: o.Seed, Parallelism: o.Parallelism}
}

// ReproduceFigure2 regenerates Figure 2 (JCT vs placement under FIFO)
// and returns its rendered table.
func ReproduceFigure2(o ReproOptions) (string, error) {
	r, err := sweep.Figure2(o.sweep())
	if err != nil {
		return "", err
	}
	return r.Render(), nil
}

// ReproduceFigure3 regenerates Figure 3 (barrier wait distributions,
// placements #1 vs #8).
func ReproduceFigure3(o ReproOptions) (string, error) {
	r, err := sweep.Figure3(o.sweep())
	if err != nil {
		return "", err
	}
	return r.Render(), nil
}

// ReproduceFigure5a regenerates Figure 5a (normalized JCT by placement).
func ReproduceFigure5a(o ReproOptions) (string, error) {
	r, err := sweep.Figure5a(o.sweep())
	if err != nil {
		return "", err
	}
	return r.Render(), nil
}

// ReproduceFigure5b regenerates Figure 5b (normalized JCT by batch).
func ReproduceFigure5b(o ReproOptions) (string, error) {
	r, err := sweep.Figure5b(o.sweep())
	if err != nil {
		return "", err
	}
	return r.Render(), nil
}

// ReproduceFigure6 regenerates Figure 6 (wait distributions by policy).
func ReproduceFigure6(o ReproOptions) (string, error) {
	r, err := sweep.Figure6(o.sweep())
	if err != nil {
		return "", err
	}
	return r.Render(), nil
}

// ReproduceTableII regenerates Table II (normalized utilization).
func ReproduceTableII(o ReproOptions) (string, error) {
	r, err := sweep.TableII(o.sweep())
	if err != nil {
		return "", err
	}
	return r.Render(), nil
}

// ReproduceCollective runs the collective-workload comparison: ring
// all-reduce jobs — scheduled by TensorLights exactly like PS jobs,
// one priority band per job keyed by the job's collective port — under
// FIFO, TLs-One and TLs-RR, on an all-reduce-only cluster and on a
// mixed PS + all-reduce cluster where the PS host carries both traffic
// classes.
func ReproduceCollective(o ReproOptions) (string, error) {
	r, err := sweep.Collective(o.sweep())
	if err != nil {
		return "", err
	}
	return r.Render(), nil
}

// ReproduceFaultRecovery runs the fault-injection experiment: the
// placement #1 workload fault-free and under a seeded fault schedule
// (PS-host flaps, tc outages, worker crashes) for FIFO, TLs-One and
// TLs-RR, showing each layer's recovery path and the reconcile loop
// restoring priority bands after every fault.
func ReproduceFaultRecovery(o ReproOptions) (string, error) {
	r, err := sweep.FaultRecovery(o.sweep())
	if err != nil {
		return "", err
	}
	return r.Render(), nil
}

// ReproducePolicyComparison runs every scheduling policy — FIFO, the
// paper's TLs-One/TLs-RR, and the telemetry-driven TLs-LAS, TLs-SRSF
// and TLs-Interleave — on the headline 21-job colocated-PS scenario and
// reports avg/p95/max JCT per policy plus the best adaptive policy's
// tail improvement over blind rotation.
func ReproducePolicyComparison(o ReproOptions) (string, error) {
	r, err := sweep.PolicySweep(o.sweep())
	if err != nil {
		return "", err
	}
	return r.Render(), nil
}

// ReproduceTopology runs the leaf-spine fabric experiment: the
// collective AlexNet rings swept across core oversubscription ratios
// (1:1, 2:1, 4:1), placement strategies (naive spread vs CASSINI-style
// network-aware packing) and scheduling policies, reporting per-cell
// JCTs, cross-rack traffic ratios, peak core-link utilization and the
// headline placement gaps — the in-network-contention axis the paper's
// single-switch testbed cannot explore.
func ReproduceTopology(o ReproOptions) (string, error) {
	r, err := sweep.TopologySweep(o.sweep())
	if err != nil {
		return "", err
	}
	return r.Render(), nil
}

// ReproduceScheduler runs the cluster-scheduler experiment: an online
// stream of mixed PS + all-reduce arrivals on an oversubscribed
// leaf-spine fabric, swept across cluster-scheduler placement policies
// (random, pack, spread, network-aware, contention-aware, phase-aware)
// crossed with end-host TensorLights policies, reporting per-cell
// avg/p95 JCT, cross-rack traffic, phase shifts and the headline
// spread-vs-smart placement gaps — how much of the contention fight a
// smarter cluster tier wins before the end-host bands see a packet.
func ReproduceScheduler(o ReproOptions) (string, error) {
	r, err := sweep.SchedulerSweep(o.sweep())
	if err != nil {
		return "", err
	}
	return r.Render(), nil
}

// ReproduceOpenWorld runs the open-world sweep: one unified stream of
// PS, ring and tree jobs per cell, crossed over arrival processes
// (Poisson, bursty, trace replay) × host fleets (homogeneous vs every
// third host at 60% speed) × end-host policies (FIFO, TLs-RR, TLs-LAS,
// TLs-SRSF) on the oversubscribed leaf-spine fabric with online
// contention-aware placement, reporting per-cell avg/p95 JCT, job-kind
// counts, cross-rack traffic and the headline heterogeneity tax.
func ReproduceOpenWorld(o ReproOptions) (string, error) {
	r, err := sweep.OpenWorldSweep(o.sweep())
	if err != nil {
		return "", err
	}
	return r.Render(), nil
}

// ReproduceReplicate runs the replicate sweep: placement #1 under FIFO,
// TLs-One and TLs-RR across consecutive seeds, reporting the average JCT
// per policy with error bars.
func ReproduceReplicate(o ReproOptions) (string, error) {
	r, err := sweep.ReplicateSweep(o.sweep())
	if err != nil {
		return "", err
	}
	return r.Render(), nil
}

// ReproduceChurn runs the arrival/departure comparison: a Poisson stream
// of mixed-model jobs bin-packed onto the testbed, under FIFO, TLs-One
// and TLs-RR.
func ReproduceChurn(o ReproOptions) (string, error) {
	r, err := sweep.ChurnSweep(o.sweep())
	if err != nil {
		return "", err
	}
	return r.Render(), nil
}

// ReplicateStats aggregates one headline metric across replicate seeds.
type ReplicateStats struct {
	N    int
	Mean float64
	Std  float64
	Min  float64
	Max  float64
}

// String renders mean ± std.
func (r ReplicateStats) String() string {
	return fmt.Sprintf("%.4g ± %.2g (n=%d)", r.Mean, r.Std, r.N)
}

// ReplicateExperiment runs cfg for n consecutive seeds starting at
// cfg.Seed — fanned across parallelism concurrent trials (0 uses
// GOMAXPROCS, 1 runs sequentially) — and aggregates the average JCT.
// Each trial owns an isolated simulation, so results are independent of
// the parallelism level. TraceCSV is rejected: one writer cannot serve
// concurrent trials.
func ReplicateExperiment(cfg ExperimentConfig, n, parallelism int) (ReplicateStats, error) {
	return ReplicateExperimentContext(context.Background(), cfg, n, parallelism)
}

// ReplicateExperimentContext is ReplicateExperiment with cancellation:
// once ctx is done no further seed starts and in-flight trials stop
// between events (no stats are returned for an interrupted sweep — a
// partial mean would be silently biased toward fast seeds).
func ReplicateExperimentContext(ctx context.Context, cfg ExperimentConfig, n, parallelism int) (ReplicateStats, error) {
	if cfg.TraceCSV != nil {
		return ReplicateStats{}, fmt.Errorf("tensorlights: ReplicateExperiment does not support TraceCSV; trace a single RunExperiment instead")
	}
	s, err := sweep.ReplicateParallelContext(ctx, n, cfg.Seed, parallelism, func(ctx context.Context, seed int64) (float64, error) {
		c := cfg
		c.Seed = seed
		res, err := RunExperimentContext(ctx, c)
		if err != nil {
			return 0, err
		}
		return res.AvgJCT, nil
	})
	if err != nil {
		return ReplicateStats{}, err
	}
	return ReplicateStats{N: s.N, Mean: s.Mean, Std: s.Std, Min: s.Min, Max: s.Max}, nil
}

// Models lists the built-in model zoo names.
func Models() []string {
	var names []string
	for _, m := range dl.Zoo() {
		names = append(names, m.Name)
	}
	return names
}

// Placements renders Table I: the studied PS placements.
func Placements() string {
	t := ""
	for _, p := range cluster.Placements21() {
		t += fmt.Sprintf("#%d: %s\n", p.Index, p.String())
	}
	return t
}
