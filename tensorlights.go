// Package tensorlights reproduces "Green, Yellow, Yield: End-Host
// Traffic Scheduling for Distributed Deep Learning with TensorLights"
// (Huang, Chen & Ng, IPDPS 2019) as a discrete-event simulation study.
//
// The package is a façade over the internal engine:
//
//   - internal/sim      — deterministic discrete-event kernel
//   - internal/qdisc    — pfifo / prio / htb disciplines
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
	"math"
	"reflect"
	"strings"

	"repro/internal/cluster"
	"repro/internal/collective"
	"repro/internal/core"
	"repro/internal/dl"
	"repro/internal/faults"
	"repro/internal/metrics"
	"repro/internal/policy"
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

// policyNames maps each Policy to its internal/policy registry name,
// the only identity a policy has below this package. The int values are
// kept only because they are tlsimd's JSON, journal and config-hash
// encoding.
var policyNames = [...]string{
	FIFO:          "FIFO",
	TLsOne:        "TLs-One",
	TLsRR:         "TLs-RR",
	TLsLPF:        "TLs-LPF",
	StaticRate:    "StaticRate",
	TLsLAS:        "TLs-LAS",
	TLsSRSF:       "TLs-SRSF",
	TLsInterleave: "TLs-Interleave",
}

// String names the policy as the paper does (its registry name).
func (p Policy) String() string {
	if p.Validate() != nil {
		return fmt.Sprintf("Policy(%d)", int(p))
	}
	return policyNames[p]
}

// Validate rejects values outside the Policy constants above, such as
// a submitted JSON config with "Policy": 42.
func (p Policy) Validate() error {
	if p < 0 || int(p) >= len(policyNames) {
		return fmt.Errorf("tensorlights: unknown policy %d (want 0..%d)", int(p), len(policyNames)-1)
	}
	return nil
}

// PolicyUsage describes the names ParsePolicy accepts, for flag help.
func PolicyUsage() string {
	return `case-insensitive, "tls-" optional: ` + strings.Join(policyNames[:], " | ")
}

// ParsePolicy resolves a policy name through the registry's normaliser,
// so lookup is case-insensitive and the "tls-" prefix is optional:
// "TLs-RR", "tls-rr" and "rr" all give TLsRR. "rate" is accepted as a
// short spelling of StaticRate.
func ParsePolicy(s string) (Policy, error) {
	if strings.EqualFold(s, "rate") {
		s = "StaticRate"
	}
	if name := policy.Canonical(s); name != "" {
		for p, n := range policyNames {
			if n == name {
				return Policy(p), nil
			}
		}
	}
	return 0, fmt.Errorf("unknown policy %q (%s)", s, PolicyUsage())
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
	// the scheduler tier owns placement. Faults, MeasureUtilization and
	// Async are not supported and fail Validate.
	Scheduler *SchedulerConfig
	// OpenWorld, when non-nil, replaces the static grid workload with
	// the open-world experiment: a unified stream of PS, ring and tree
	// jobs drawn from a pluggable arrival process (Poisson, bursty or
	// trace replay), placed per arrival by the cluster-scheduler tier
	// on an oversubscribed leaf-spine fabric, optionally over
	// heterogeneous hosts. The placement-related fields above are
	// ignored — the scheduler tier owns placement. Incompatible with
	// Scheduler; like it, fails Validate with Faults,
	// MeasureUtilization or Async.
	OpenWorld *OpenWorldConfig
}

// Validate rejects a config the run would otherwise misread: an
// unknown Policy or FabricMode; both Scheduler and OpenWorld set; an
// online (Scheduler or OpenWorld) run with Faults, MeasureUtilization
// or Async, which the online trials do not support; or a negative, NaN
// or infinite count, interval or rate, which would silently fall back
// to the (full-scale) default. Zero still means "use the default".
// Fields a lower layer already checks (buckets, ring stride, topology,
// placement) are left to it.
func (cfg ExperimentConfig) Validate() error {
	if err := cfg.Policy.Validate(); err != nil {
		return err
	}
	switch cfg.FabricMode {
	case "", simnet.ModeChunk, simnet.ModeFlow:
	default:
		return fmt.Errorf("tensorlights: unknown fabric mode %q (want %q or %q)",
			cfg.FabricMode, simnet.ModeChunk, simnet.ModeFlow)
	}
	if cfg.Scheduler != nil && cfg.OpenWorld != nil {
		return fmt.Errorf("tensorlights: OpenWorld is incompatible with Scheduler (set exactly one)")
	}
	if cfg.Scheduler != nil || cfg.OpenWorld != nil {
		switch {
		case !reflect.ValueOf(cfg.Faults).IsZero():
			return fmt.Errorf("tensorlights: Faults are not supported by Scheduler or OpenWorld runs")
		case cfg.MeasureUtilization:
			return fmt.Errorf("tensorlights: MeasureUtilization is not supported by Scheduler or OpenWorld runs")
		case cfg.Async:
			return fmt.Errorf("tensorlights: Async is not supported by Scheduler or OpenWorld runs")
		}
	}
	type field struct {
		name string
		v    float64
	}
	fields := []field{
		{"NumJobs", float64(cfg.NumJobs)},
		{"LocalBatch", float64(cfg.LocalBatch)},
		{"Steps", float64(cfg.Steps)},
		{"Bands", float64(cfg.Bands)},
		{"RotateIntervalSec", cfg.RotateIntervalSec},
		{"FeedbackIntervalSec", cfg.FeedbackIntervalSec},
	}
	if c := cfg.Collective; c != nil {
		fields = append(fields,
			field{"Collective.Jobs", float64(c.Jobs)},
			field{"Collective.Ranks", float64(c.Ranks)},
			field{"Collective.LocalBatch", float64(c.LocalBatch)},
			field{"Collective.Iterations", float64(c.Iterations)})
	}
	if s := cfg.Scheduler; s != nil {
		fields = append(fields,
			field{"Scheduler.Jobs", float64(s.Jobs)},
			field{"Scheduler.ArrivalRatePerSec", s.ArrivalRatePerSec})
	}
	if o := cfg.OpenWorld; o != nil {
		fields = append(fields,
			field{"OpenWorld.Jobs", float64(o.Jobs)},
			field{"OpenWorld.ArrivalRatePerSec", o.ArrivalRatePerSec})
	}
	for _, f := range fields {
		if f.v < 0 || math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("tensorlights: %s = %v: want a finite value >= 0 (0 = default)", f.name, f.v)
		}
	}
	return nil
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
	// Crashes lists worker crashes to schedule. A crash timed before
	// its job arrives (the grid starts job i at i × 0.1 s) is rejected
	// before the run; one after the job finished is skipped.
	Crashes []WorkerCrash
	// PeerCrashes lists collective-rank crashes (Worker = rank index;
	// Job must be a collective job's ID), timed like Crashes. A crashed
	// peer stalls its whole ring until detection restarts the
	// iteration.
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
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Scheduler != nil || cfg.OpenWorld != nil {
		return runOnlineExperiment(ctx, cfg)
	}
	rc, err := toRunConfig(cfg)
	if err != nil {
		return nil, err
	}
	res, err := withTrace(ctx, cfg.TraceCSV, func(tr trace.Tracer) (*sweep.RunResult, error) {
		rc.Tracer = tr
		return sweep.RunContext(ctx, rc)
	})
	if err != nil {
		return nil, err
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

// withTrace runs one experiment, handing it a trace buffer when w is
// non-nil and dumping the buffer to w as CSV afterwards.
func withTrace[R any](ctx context.Context, w io.Writer, run func(trace.Tracer) (*R, error)) (*R, error) {
	if w == nil {
		return run(nil)
	}
	buf := &trace.Buffer{}
	res, err := run(buf)
	if err != nil {
		if ctx.Err() != nil {
			// Best effort: the run was cancelled, not broken — dump what
			// we have, clearly marked. A dump error cannot outrank the
			// cancellation itself.
			fmt.Fprintf(w, "# partial trace: experiment cancelled before completion (%v)\n", ctx.Err())
			_ = buf.WriteCSV(w)
		}
		return nil, err
	}
	if err := buf.WriteCSV(w); err != nil {
		return nil, fmt.Errorf("tensorlights: trace dump: %w", err)
	}
	return res, nil
}

// onlinePlacement parses a cluster-scheduler placement name; "" keeps
// the online experiments' contention-aware default.
func onlinePlacement(name string) (scheduler.Policy, error) {
	if name == "" {
		return scheduler.PolicyContentionAware, nil
	}
	return scheduler.ParsePolicy(name)
}

// runOnlineExperiment maps an ExperimentConfig with Scheduler or
// OpenWorld set onto one online trial.
func runOnlineExperiment(ctx context.Context, cfg ExperimentConfig) (*Result, error) {
	var trial func(trace.Tracer) (*sweep.OpenWorldTrialResult, error)
	if s := cfg.Scheduler; s != nil {
		place, err := onlinePlacement(s.Placement)
		if err != nil {
			return nil, err
		}
		trial = func(tr trace.Tracer) (*sweep.OpenWorldTrialResult, error) {
			return sweep.SchedulerTrial(ctx, sweep.SchedulerTrialConfig{
				Steps:             cfg.Steps,
				Seed:              cfg.Seed,
				Oversub:           s.Oversubscription,
				Placement:         place,
				PolicyName:        cfg.Policy.String(),
				Jobs:              s.Jobs,
				ArrivalRatePerSec: s.ArrivalRatePerSec,
				FabricMode:        cfg.FabricMode,
				Tracer:            tr,
			})
		}
	} else {
		ow := cfg.OpenWorld
		place, err := onlinePlacement(ow.Placement)
		if err != nil {
			return nil, err
		}
		tc := sweep.OpenWorldTrialConfig{
			Steps:             cfg.Steps,
			Seed:              cfg.Seed,
			Arrivals:          ow.Arrivals,
			Heterogeneous:     ow.Heterogeneous,
			Oversub:           ow.Oversubscription,
			Placement:         place,
			PolicyName:        cfg.Policy.String(),
			Jobs:              ow.Jobs,
			ArrivalRatePerSec: ow.ArrivalRatePerSec,
			MixName:           ow.Mix,
			FabricMode:        cfg.FabricMode,
		}
		if ow.Trace != nil {
			if tc.Trace, err = workload.ParseTrace(ow.Trace); err != nil {
				return nil, err
			}
		}
		trial = func(tr trace.Tracer) (*sweep.OpenWorldTrialResult, error) {
			tc.Tracer = tr
			return sweep.OpenWorldTrial(ctx, tc)
		}
	}
	res, err := withTrace(ctx, cfg.TraceCSV, trial)
	if err != nil {
		return nil, err
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
			Policy:              cfg.Policy.String(),
			Bands:               cfg.Bands,
			IntervalSec:         cfg.RotateIntervalSec,
			FeedbackIntervalSec: cfg.FeedbackIntervalSec,
		},
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

// ReproOptions scales the Reproduce runs. Zero values run the paper's
// full scale (30 000 global steps).
type ReproOptions struct {
	Steps       int
	Seed        int64
	Parallelism int
}

// Experiments lists the names Reproduce accepts, in suite order: the
// paper's Figures 2, 3, 5a, 5b, 6 and Table II (fig2 … table2), then
// the extension sweeps.
func Experiments() []string { return sweep.ExperimentNames() }

// Reproduce runs the named experiment (matched case-insensitively; see
// Experiments) and returns its rendered table.
func Reproduce(name string, o ReproOptions) (string, error) {
	e, err := sweep.FindExperiment(name)
	if err != nil {
		return "", fmt.Errorf("tensorlights: %w", err)
	}
	r, err := e.Run(sweep.Options{Steps: o.Steps, Seed: o.Seed, Parallelism: o.Parallelism})
	if err != nil {
		return "", err
	}
	return r.Render(), nil
}

// ReplicateStats aggregates one headline metric across replicate seeds.
type ReplicateStats = sweep.ReplicateStats

// ReplicateExperimentContext runs cfg for n consecutive seeds starting
// at cfg.Seed — fanned across parallelism concurrent trials (0 uses
// GOMAXPROCS, 1 runs sequentially) — and aggregates the average JCT.
// Each trial owns an isolated simulation, so results are independent of
// the parallelism level. Once ctx is done no further seed starts and
// in-flight trials stop between events (no stats are returned for an
// interrupted sweep — a partial mean would be silently biased toward
// fast seeds). TraceCSV is rejected: one writer cannot serve
// concurrent trials.
func ReplicateExperimentContext(ctx context.Context, cfg ExperimentConfig, n, parallelism int) (ReplicateStats, error) {
	if cfg.TraceCSV != nil {
		return ReplicateStats{}, fmt.Errorf("tensorlights: ReplicateExperimentContext does not support TraceCSV; trace a single RunExperiment instead")
	}
	return sweep.Replicate(ctx, n, cfg.Seed, parallelism, func(ctx context.Context, seed int64) (float64, error) {
		c := cfg
		c.Seed = seed
		res, err := RunExperimentContext(ctx, c)
		if err != nil {
			return 0, err
		}
		return res.AvgJCT, nil
	})
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
