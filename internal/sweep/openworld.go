package sweep

import (
	"context"
	"fmt"

	"repro/internal/cluster"
	"repro/internal/metrics"
	"repro/internal/scheduler"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/trace"
	"repro/internal/workload"
)

// The open-world experiment: ROADMAP item 4's regime. Jobs are drawn
// from the unified workload layer — one arrival stream mixing PS and
// collective jobs, arrival times from a pluggable process (Poisson,
// Markov-modulated bursty, trace replay), placement by the online
// cluster-scheduler tier on the leaf-spine topology — and the cluster
// is optionally heterogeneous, with a deterministic subset of hosts
// running at a fractional CPU speed so stragglers arise from hardware,
// not just contention or faults.

// OpenWorldArrivals are the arrival-process axis values the sweep
// crosses.
var OpenWorldArrivals = []string{"poisson", "bursty", "trace"}

// OpenWorldPolicyNames are the end-host TensorLights policies crossed
// with the arrival and heterogeneity axes.
var OpenWorldPolicyNames = []string{"FIFO", "TLs-RR", "TLs-LAS", "TLs-SRSF"}

// openWorldSlowEvery / openWorldSlowFactor define the heterogeneous
// tier: every third host (ids 2, 5, 8, 11 on the 12-host cluster) runs
// at 60% of reference speed. Deterministic, so the heterogeneous and
// homogeneous cells differ only in hardware.
const (
	openWorldSlowEvery  = 3
	openWorldSlowFactor = 0.6
)

// OpenWorldTrialConfig describes one open-world run.
type OpenWorldTrialConfig struct {
	// Steps scales per-job iteration counts exactly like the other
	// sweeps (iterations = Steps/30, min 2).
	Steps int
	Seed  int64
	// Arrivals names the arrival process: "poisson" (default),
	// "bursty" or "trace".
	Arrivals string
	// Trace optionally overrides the built-in workload.DemoTrace for
	// Arrivals == "trace" (e.g. a CSV loaded from disk).
	Trace *workload.Trace
	// Heterogeneous slows every third host to 60% reference speed.
	Heterogeneous bool
	// Oversub is the leaf-spine core oversubscription ratio (default 2).
	Oversub float64
	// Placement is the cluster-scheduler placement policy (default
	// contention-aware).
	Placement scheduler.Policy
	// PolicyName is the end-host TensorLights policy (default FIFO).
	PolicyName string
	// Jobs is the number of arrivals (default 9; trace replay runs the
	// whole trace).
	Jobs int
	// ArrivalRatePerSec scales the stochastic processes (default 1/s).
	ArrivalRatePerSec float64
	// MixName selects the job mix for stochastic arrivals: "mixed"
	// (default), "ps" or "collective".
	MixName string
	// FabricMode selects the network engine ("" or simnet.ModeChunk for
	// the per-chunk fabric, simnet.ModeFlow for the analytic model).
	FabricMode string
	// Tracer, when non-nil, receives events from every layer.
	Tracer trace.Tracer
}

func (c *OpenWorldTrialConfig) fillDefaults() {
	if c.Steps <= 0 {
		c.Steps = 30_000
	}
	if c.Oversub <= 0 {
		c.Oversub = 2
	}
	if c.Placement == "" {
		c.Placement = scheduler.PolicyContentionAware
	}
	if c.PolicyName == "" {
		c.PolicyName = "FIFO"
	}
	if c.Jobs <= 0 {
		c.Jobs = 9
	}
	if c.ArrivalRatePerSec <= 0 {
		c.ArrivalRatePerSec = 1.0
	}
}

// OpenWorldTrialResult aggregates one online run (open-world or
// scheduler trial). JCTs are measured from arrival to finish, so
// scheduler start shifts pay their own delay.
type OpenWorldTrialResult struct {
	JCTs           []float64 // per arrival, in arrival order
	AvgJCT         float64
	P95JCT         float64
	PSJobs         int
	CollectiveJobs int
	CrossRackRatio float64
	MaxLinkUtil    float64
	ShiftedJobs    int
	TotalShiftSec  float64
	Reconfigs      int
	MakespanSec    float64
	Events         uint64
}

// openWorldProcess resolves the configured arrival process and mix.
func openWorldProcess(cfg OpenWorldTrialConfig, iters int) (workload.OpenConfig, error) {
	mix, err := workload.NamedMix(cfg.MixName, iters)
	if err != nil {
		return workload.OpenConfig{}, err
	}
	switch cfg.Arrivals {
	case "trace":
		tr := cfg.Trace
		if tr == nil {
			tr = workload.DemoTrace(iters)
		}
		if err := tr.Validate(); err != nil {
			return workload.OpenConfig{}, err
		}
		// Replay the whole trace (entry count wins over cfg.Jobs so the
		// trace axis is self-describing).
		return workload.OpenConfig{Jobs: len(tr.Entries), Arrivals: tr, Mix: mix}, nil
	default:
		proc, err := workload.ParseProcess(cfg.Arrivals, cfg.ArrivalRatePerSec)
		if err != nil {
			return workload.OpenConfig{}, err
		}
		return workload.OpenConfig{Jobs: cfg.Jobs, Arrivals: proc, Mix: mix}, nil
	}
}

// OpenWorldTrial runs one open-world simulation: arrivals from the
// unified workload generator, each placed by the cluster-scheduler
// tier at its arrival instant and lowered to its runtime (dl.Job or
// collective.Job), running under the configured end-host TensorLights
// policy until every job finishes.
func OpenWorldTrial(ctx context.Context, cfg OpenWorldTrialConfig) (*OpenWorldTrialResult, error) {
	return runOnline(ctx, cfg, func(rng *sim.RNG, iters int) ([]workload.OpenArrival, error) {
		openCfg, err := openWorldProcess(cfg, iters)
		if err != nil {
			return nil, err
		}
		return workload.GenerateOpen(openCfg, rng)
	})
}

// runOnline is the scenario runner's online front end, under
// OpenWorldTrial and SchedulerTrial. It builds the leaf-spine testbed,
// the controller, a feedback collector and the cluster-scheduler tier,
// and hands the runner the arrivals, drawn from the testbed RNG given
// the per-job iteration count, to place as they come.
func runOnline(ctx context.Context, cfg OpenWorldTrialConfig,
	arrivals func(rng *sim.RNG, iters int) ([]workload.OpenArrival, error)) (*OpenWorldTrialResult, error) {
	cfg.fillDefaults()
	iters := max(cfg.Steps/30, 2)
	topo := simnet.TopologyConfig{
		Kind:             simnet.TopologyLeafSpine,
		Racks:            schedRacks,
		UplinksPerLeaf:   schedUplinks,
		Oversubscription: cfg.Oversub,
	}
	var speeds []float64
	if cfg.Heterogeneous {
		speeds = workload.TwoTierSpeeds(schedHosts, openWorldSlowEvery, openWorldSlowFactor)
	}
	tb := cluster.NewTestbed(cluster.Config{
		Hosts:            schedHosts,
		Seed:             cfg.Seed,
		HostSpeedFactors: speeds,
		Net:              simnet.Config{Topology: topo, Mode: cfg.FabricMode},
	})
	// The trial always builds a Feedback collector: the phase-aware
	// scheduler consumes its period EWMA even under end-host policies
	// that do not need telemetry themselves.
	ctl, fb, err := newController(tb, topologyTLs(cfg.PolicyName, cfg.Steps), cfg.Tracer, true)
	if err != nil {
		return nil, err
	}
	sched, err := scheduler.New(scheduler.Config{
		Hosts:    schedHosts,
		Topo:     topo,
		Policy:   cfg.Placement,
		RNG:      tb.RNG,
		Feedback: fb,
		Tracer:   cfg.Tracer,
	})
	if err != nil {
		return nil, err
	}
	open, err := arrivals(tb.RNG, iters)
	if err != nil {
		return nil, err
	}
	arrs := make([]arrival, len(open))
	for i := range open {
		arrs[i] = arrival{At: open[i].At, Place: &open[i].Spec}
	}
	r, err := newRunner(tb, ctl, fb, sched, arrs)
	if err != nil {
		return nil, err
	}
	if err := r.run(ctx); err != nil {
		return nil, fmt.Errorf("sweep: online trial: %w", err)
	}
	if r.failed > 0 {
		return nil, fmt.Errorf("sweep: online trial: %d of %d jobs failed", r.failed, len(arrs))
	}
	res := &OpenWorldTrialResult{JCTs: r.jct}
	for i := range arrs {
		if r.ps[i] != nil {
			res.PSJobs++
		} else {
			res.CollectiveJobs++
		}
	}

	res.AvgJCT = metrics.Mean(res.JCTs)
	res.P95JCT = metrics.Percentile(res.JCTs, 0.95)
	res.Reconfigs = ctl.Reconfigs()
	res.MakespanSec = tb.K.Now()
	res.Events = tb.K.Fired()
	res.ShiftedJobs, res.TotalShiftSec = sched.Shifts()
	res.CrossRackRatio, res.MaxLinkUtil = coreLoad(linkTally(tb, res.MakespanSec))
	return res, nil
}

// OpenWorldRow is one (arrivals, hosts, policy) cell.
type OpenWorldRow struct {
	Arrivals string
	Hosts    string // "hom" or "het"
	Policy   string

	AvgJCT         float64
	P95JCT         float64
	PSJobs         int
	CollectiveJobs int
	CrossRackRatio float64
	MaxLinkUtil    float64
	Reconfigs      int
	MakespanSec    float64
}

// OpenWorldResult is the open-world experiment: the unified arrival
// stream swept across arrival processes, host heterogeneity and
// end-host TensorLights policies, with placement fixed to the
// contention-aware scheduler tier.
type OpenWorldResult struct {
	Rows []OpenWorldRow
}

// hostsLabel names the heterogeneity axis value.
func hostsLabel(hetero bool) string {
	if hetero {
		return "het"
	}
	return "hom"
}

// Row returns the (arrivals, hosts, policy) cell.
func (r *OpenWorldResult) Row(arrivals string, hetero bool, policy string) (OpenWorldRow, bool) {
	hosts := hostsLabel(hetero)
	for _, row := range r.Rows {
		if row.Arrivals == arrivals && row.Hosts == hosts && row.Policy == policy {
			return row, true
		}
	}
	return OpenWorldRow{}, false
}

// HeteroSlowdown is the pooled heterogeneous-over-homogeneous average
// JCT ratio for one arrival process (> 1 means slow hosts cost JCT).
func (r *OpenWorldResult) HeteroSlowdown(arrivals string) float64 {
	var hom, het []float64
	for _, row := range r.Rows {
		if row.Arrivals != arrivals {
			continue
		}
		switch row.Hosts {
		case "hom":
			hom = append(hom, row.AvgJCT)
		case "het":
			het = append(het, row.AvgJCT)
		}
	}
	h := metrics.Mean(hom)
	if h <= 0 {
		return 0
	}
	return metrics.Mean(het) / h
}

func (r *OpenWorldResult) report() report {
	rep := report{
		title: "Open world: arrival process x host heterogeneity x end-host policy (unified PS+collective stream)",
		sections: []section{{len(r.Rows), []column{
			{"arrivals", "arrivals", "", func(i int) any { return r.Rows[i].Arrivals }},
			{"hosts", "hosts", "", func(i int) any { return r.Rows[i].Hosts }},
			{"policy", "policy", "", func(i int) any { return r.Rows[i].Policy }},
			{"avg_jct_s", "avg JCT (s)", "", func(i int) any { return r.Rows[i].AvgJCT }},
			{"p95_jct_s", "p95 JCT (s)", "", func(i int) any { return r.Rows[i].P95JCT }},
			{"ps_jobs", "ps", "", func(i int) any { return r.Rows[i].PSJobs }},
			{"collective_jobs", "coll", "", func(i int) any { return r.Rows[i].CollectiveJobs }},
			{"cross_rack_ratio", "cross-rack", "%.2f", func(i int) any { return r.Rows[i].CrossRackRatio }},
			{"max_link_util", "max link util", "%.2f", func(i int) any { return r.Rows[i].MaxLinkUtil }},
			{"reconfigs", "reconfigs", "", func(i int) any { return r.Rows[i].Reconfigs }},
			{"makespan_s", "", "", func(i int) any { return r.Rows[i].MakespanSec }},
		}}},
	}
	for _, arr := range OpenWorldArrivals {
		if s := r.HeteroSlowdown(arr); s > 0 {
			rep.footer += fmt.Sprintf("%s arrivals: heterogeneous hosts cost %.2fx the homogeneous avg JCT\n",
				arr, s)
		}
	}
	return rep
}

// OpenWorldSweep runs the full arrivals x heterogeneity x policy grid.
func OpenWorldSweep(o Options) (*OpenWorldResult, error) {
	o.fillDefaults()
	type cell struct {
		arrivals string
		hetero   bool
		pol      string
	}
	var cells []cell
	for _, arr := range OpenWorldArrivals {
		for _, hetero := range []bool{false, true} {
			for _, pol := range OpenWorldPolicyNames {
				cells = append(cells, cell{arr, hetero, pol})
			}
		}
	}
	results, err := Gather(Engine{Parallelism: o.Parallelism}, cells, func(c cell) (*OpenWorldTrialResult, error) {
		r, err := OpenWorldTrial(context.Background(), OpenWorldTrialConfig{
			Steps:         o.Steps,
			Seed:          o.Seed,
			Arrivals:      c.arrivals,
			Heterogeneous: c.hetero,
			PolicyName:    c.pol,
		})
		if err != nil {
			return nil, fmt.Errorf("sweep: open-world cell (%s, %s, %s): %w",
				c.arrivals, hostsLabel(c.hetero), c.pol, err)
		}
		return r, nil
	})
	if err != nil {
		return nil, err
	}
	out := &OpenWorldResult{}
	for i, c := range cells {
		r := results[i]
		out.Rows = append(out.Rows, OpenWorldRow{
			Arrivals:       c.arrivals,
			Hosts:          hostsLabel(c.hetero),
			Policy:         c.pol,
			AvgJCT:         r.AvgJCT,
			P95JCT:         r.P95JCT,
			PSJobs:         r.PSJobs,
			CollectiveJobs: r.CollectiveJobs,
			CrossRackRatio: r.CrossRackRatio,
			MaxLinkUtil:    r.MaxLinkUtil,
			Reconfigs:      r.Reconfigs,
			MakespanSec:    r.MakespanSec,
		})
	}
	return out, nil
}
