package sweep

import (
	"context"
	"fmt"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/policy"
	"repro/internal/workload"
)

// ChurnOptions configures an arrival/departure experiment: jobs arrive
// as a Poisson process, TensorLights reconfigures on each arrival and
// departure, and the schedule's PS-agnosticism produces natural
// colocation.
type ChurnOptions struct {
	Jobs              int
	ArrivalRatePerSec float64
	Steps             int // per-job global step target
	Seed              int64
	Policy            string // registry name; "" runs FIFO
	// Order selects the priority assignment order for TLs policies
	// (OrderSmallestUpdate avoids head-of-line blocking in mixes).
	Order       policy.Order
	SchedPolicy workload.SchedPolicy
	Templates   []workload.JobTemplate
	Cluster     cluster.Config
}

// ChurnResult summarizes a churn run.
type ChurnResult struct {
	JCTs           []float64
	AvgJCT         float64
	P95JCT         float64
	MakespanSec    float64
	Reconfigs      int
	MaxColocation  int
	PerModelAvgJCT map[string]float64
	Events         uint64
}

// Churn runs the arrival/departure workload to completion.
func Churn(o ChurnOptions) (*ChurnResult, error) {
	if o.Jobs <= 0 {
		o.Jobs = 21
	}
	if o.Steps <= 0 {
		o.Steps = 6000
	}
	o.Cluster.Seed = o.Seed
	tb := cluster.NewTestbed(o.Cluster)
	wl := workload.ChurnConfig{
		NumJobs:           o.Jobs,
		ArrivalRatePerSec: o.ArrivalRatePerSec,
		Templates:         o.Templates,
		Hosts:             tb.Cfg.Hosts,
		SchedPolicy:       o.SchedPolicy,
	}
	if len(wl.Templates) == 0 {
		wl.Templates = workload.GridSearchMix(o.Steps)
	}
	generated, err := workload.Generate(wl, tb.RNG)
	if err != nil {
		return nil, err
	}
	ctl, fb, err := newController(tb, core.Config{Policy: o.Policy, Order: o.Order}, nil, false)
	if err != nil {
		return nil, err
	}
	arrs := make([]arrival, len(generated))
	psPerHost := map[int]int{}
	maxColoc := 0
	for i := range generated {
		spec := &generated[i].Spec
		arrs[i] = arrival{At: generated[i].At, PS: spec}
		psPerHost[spec.PSHost]++
		maxColoc = max(maxColoc, psPerHost[spec.PSHost])
	}
	r, err := newRunner(tb, ctl, fb, nil, arrs)
	if err != nil {
		return nil, fmt.Errorf("churn: %w", err)
	}
	if err := r.run(context.Background()); err != nil {
		return nil, fmt.Errorf("churn: %w", err)
	}

	res := &ChurnResult{
		JCTs:           r.jct,
		Reconfigs:      ctl.Reconfigs(),
		MaxColocation:  maxColoc,
		MakespanSec:    tb.K.Now(),
		Events:         tb.K.Fired(),
		PerModelAvgJCT: map[string]float64{},
	}
	perModel := map[string][]float64{}
	for i, a := range generated {
		perModel[a.Spec.Model.Name] = append(perModel[a.Spec.Model.Name], r.jct[i])
	}
	res.AvgJCT = metrics.Mean(res.JCTs)
	res.P95JCT = metrics.Percentile(res.JCTs, 0.95)
	for name, xs := range perModel {
		res.PerModelAvgJCT[name] = metrics.Mean(xs)
	}
	return res, nil
}

// --- Churn sweep (first-class experiment) ---------------------------

// ChurnSweepRow is one policy's churn outcome.
type ChurnSweepRow struct {
	Policy        string
	AvgJCT        float64
	P95JCT        float64
	MakespanSec   float64
	Reconfigs     int
	MaxColocation int
}

// ChurnSweepResult compares scheduling policies on the arrival/departure
// workload: a Poisson stream of mixed-model jobs bin-packed onto the
// testbed, so TensorLights reconfigures under natural colocation.
type ChurnSweepResult struct {
	Rows []ChurnSweepRow
}

func (r *ChurnSweepResult) report() report {
	return report{
		title: "Churn: Poisson arrivals of mixed jobs, bin-packed PSes",
		sections: []section{{len(r.Rows), []column{
			{"policy", "policy", "", func(i int) any { return r.Rows[i].Policy }},
			{"avg_jct_s", "avg JCT (s)", "", func(i int) any { return r.Rows[i].AvgJCT }},
			{"p95_jct_s", "p95 JCT (s)", "", func(i int) any { return r.Rows[i].P95JCT }},
			{"makespan_s", "makespan (s)", "", func(i int) any { return r.Rows[i].MakespanSec }},
			{"reconfigs", "reconfigs", "", func(i int) any { return r.Rows[i].Reconfigs }},
			{"max_colocation", "max coloc", "", func(i int) any { return r.Rows[i].MaxColocation }},
		}}},
	}
}

// churnSweepOptions derives the per-policy ChurnOptions from the suite
// options. Churn's grid-search mix steps per job are a fifth of the
// PS sweeps' target (its jobs run concurrently from staggered Poisson
// arrivals, so the workload is already long).
func churnSweepOptions(o Options, pol string) ChurnOptions {
	return ChurnOptions{
		Jobs:              12,
		ArrivalRatePerSec: 1,
		Steps:             o.Steps / 5,
		Seed:              o.Seed,
		Policy:            pol,
		Order:             policy.OrderSmallestUpdate,
		SchedPolicy:       workload.PolicyBinpack,
		Cluster:           o.Cluster,
	}
}

// ChurnSweep runs the churn workload under each policy on the parallel
// Engine (one trial per policy, each with its own kernel and RNG).
func ChurnSweep(o Options) (*ChurnSweepResult, error) {
	o.fillDefaults()
	results, err := Gather(Engine{Parallelism: o.Parallelism}, paperPolicies,
		func(pol string) (*ChurnResult, error) {
			return Churn(churnSweepOptions(o, pol))
		})
	if err != nil {
		return nil, err
	}
	out := &ChurnSweepResult{}
	for i, pol := range paperPolicies {
		out.Rows = append(out.Rows, ChurnSweepRow{
			Policy:        pol,
			AvgJCT:        results[i].AvgJCT,
			P95JCT:        results[i].P95JCT,
			MakespanSec:   results[i].MakespanSec,
			Reconfigs:     results[i].Reconfigs,
			MaxColocation: results[i].MaxColocation,
		})
	}
	return out, nil
}
