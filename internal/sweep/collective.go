package sweep

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/collective"
	"repro/internal/core"
	"repro/internal/dl"
	"repro/internal/metrics"
	"repro/internal/policy"
)

// Scenario labels for the collective-workload experiment.
const (
	ScenarioAllReduce = "allreduce" // ring all-reduce jobs only
	ScenarioMixed     = "mixed"     // PS jobs + rings sharing hosts
)

// Collective-experiment scale: a small cluster where contention is
// engineered rather than inherited from Table I. All rings are aligned
// (stride 0) so their ranks share NICs, and in the mixed scenario the
// PS host is also every ring's rank-0 host — its egress carries both
// traffic classes, the collective analogue of placement #1.
const (
	collectiveHosts  = 8
	collectiveRanks  = 4
	collectiveRings  = 3
	collectivePSJobs = 3
)

// CollectiveRow is one (scenario, policy) cell of the comparison.
type CollectiveRow struct {
	Scenario string
	Policy   string

	// AvgJCT and P95JCT pool every job in the scenario (PS and
	// all-reduce alike): the paper's scheduling gains are cluster-wide,
	// not per-workload-class.
	AvgJCT float64
	P95JCT float64

	// Per-class means (PSAvg is 0 in the all-reduce-only scenario).
	PSAvg        float64
	AllReduceAvg float64

	Reconfigs int
}

// CollectiveResult is the collective-workload experiment: ring
// all-reduce jobs scheduled by TensorLights exactly like PS jobs — one
// priority band per job, keyed by the job's collective source port —
// compared under FIFO, TLs-One and TLs-RR on an all-reduce-only
// cluster and on a mixed PS + all-reduce cluster.
type CollectiveResult struct {
	Rows []CollectiveRow
}

// Row returns the (scenario, policy) cell.
func (r *CollectiveResult) Row(scenario, policy string) (CollectiveRow, bool) {
	for _, row := range r.Rows {
		if row.Scenario == scenario && row.Policy == policy {
			return row, true
		}
	}
	return CollectiveRow{}, false
}

func (r *CollectiveResult) report() report {
	rep := report{
		title: "Collective workloads: ring all-reduce under TensorLights (aligned rings)",
		sections: []section{{len(r.Rows), []column{
			{"scenario", "scenario", "", func(i int) any { return r.Rows[i].Scenario }},
			{"policy", "policy", "", func(i int) any { return r.Rows[i].Policy }},
			{"avg_jct_s", "avg JCT (s)", "", func(i int) any { return r.Rows[i].AvgJCT }},
			{"p95_jct_s", "p95 JCT (s)", "", func(i int) any { return r.Rows[i].P95JCT }},
			{"ps_avg_jct_s", "PS avg (s)", orDash, func(i int) any { return r.Rows[i].PSAvg }},
			{"allreduce_avg_jct_s", "all-reduce avg (s)", "", func(i int) any { return r.Rows[i].AllReduceAvg }},
			{"reconfigs", "reconfigs", "", func(i int) any { return r.Rows[i].Reconfigs }},
		}}},
	}
	if rr, ok1 := r.Row(ScenarioMixed, core.PolicyRR); ok1 {
		if base, ok2 := r.Row(ScenarioMixed, core.PolicyFIFO); ok2 && base.P95JCT > 0 {
			rep.footer = fmt.Sprintf("mixed cluster: TLs-RR p95 JCT %.4g s vs FIFO %.4g s (%.0f%% reduction)\n",
				rr.P95JCT, base.P95JCT, 100*(1-rr.P95JCT/base.P95JCT))
		}
	}
	return rep
}

// collectiveRunConfigs builds the experiment's 2 scenarios x 3 policies.
func collectiveRunConfigs(o Options) ([]RunConfig, error) {
	// The all-reduce jobs train AlexNet at local batch 1: 244 MB of ring
	// traffic per rank per iteration against ~0.7 s of compute, so the
	// shared NICs — not the CPUs — are the bottleneck and scheduling can
	// matter. (ResNet-32 rings move ~2.8 MB per iteration and are purely
	// compute-bound at any placement.) The PS side of the mixed scenario
	// keeps the paper's ResNet-32 workload.
	iters := o.Steps / 30
	if iters < 2 {
		iters = 2
	}
	// TLs runs rank smallest-update-first, so the PS mice are never
	// stuck behind collective elephants, and TLs-RR rotates fast enough
	// (relative to the scaled-down job length; the paper's 20 s assumes
	// hour-long jobs) that every ring sees high-priority windows.
	tls := func(pol string) core.Config {
		cfg := core.Config{Policy: pol, Order: policy.OrderSmallestUpdate}
		if pol == core.PolicyRR {
			cfg.IntervalSec = float64(o.Steps) / 200
		}
		return cfg
	}
	var rcs []RunConfig
	for _, pol := range paperPolicies {
		rings, err := cluster.RingPlacement(collectiveRings+1, collectiveRanks, collectiveHosts, 0)
		if err != nil {
			return nil, err
		}
		rcs = append(rcs, RunConfig{
			Label:           fmt.Sprintf("%s-%s", ScenarioAllReduce, pol),
			Cluster:         cluster.Config{Hosts: collectiveHosts, Seed: o.Seed},
			TLs:             tls(pol),
			CollectiveSpecs: cluster.CollectiveSpecs(dl.AlexNet, rings, collective.Ring, 1, iters),
		})
	}
	for _, pol := range paperPolicies {
		rings, err := cluster.RingPlacement(collectiveRings, collectiveRanks, collectiveHosts, 0)
		if err != nil {
			return nil, err
		}
		rcs = append(rcs, RunConfig{
			Label:       fmt.Sprintf("%s-%s", ScenarioMixed, pol),
			Cluster:     cluster.Config{Hosts: collectiveHosts, Seed: o.Seed},
			NumJobs:     collectivePSJobs,
			LocalBatch:  o.LocalBatch,
			TargetSteps: o.Steps,
			Placement:   cluster.Placement{Index: 1, Groups: []int{collectivePSJobs}},
			TLs:         tls(pol),
			// Twice the iterations: the rings outlast the PS jobs, so the
			// cluster's JCT tail is the contended collective workload.
			CollectiveSpecs: cluster.CollectiveSpecs(dl.AlexNet, rings, collective.Ring, 1, 2*iters),
		})
	}
	return rcs, nil
}

// Collective runs the collective-workload comparison.
func Collective(o Options) (*CollectiveResult, error) {
	o.fillDefaults()
	rcs, err := collectiveRunConfigs(o)
	if err != nil {
		return nil, err
	}
	results, err := RunMany(rcs, o.Parallelism)
	if err != nil {
		return nil, err
	}
	out := &CollectiveResult{}
	for i, res := range results {
		scenario := ScenarioAllReduce
		if i >= len(paperPolicies) {
			scenario = ScenarioMixed
		}
		pooled := append(append([]float64(nil), res.JCTs...), res.CollectiveJCTs...)
		out.Rows = append(out.Rows, CollectiveRow{
			Scenario:     scenario,
			Policy:       paperPolicies[i%len(paperPolicies)],
			AvgJCT:       metrics.Mean(pooled),
			P95JCT:       metrics.Percentile(pooled, 0.95),
			PSAvg:        metrics.Mean(res.JCTs),
			AllReduceAvg: metrics.Mean(res.CollectiveJCTs),
			Reconfigs:    res.Reconfigs,
		})
	}
	return out, nil
}
