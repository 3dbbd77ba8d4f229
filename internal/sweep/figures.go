package sweep

import (
	"fmt"
	"slices"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/metrics"
)

// Options scales an experiment. The zero value reproduces the paper's
// full configuration (21 jobs, local batch 4, 30 000 global steps);
// tests and benchmarks pass smaller step counts — the reproduction
// target is the shape of each result, not wall-clock time.
type Options struct {
	Steps       int
	NumJobs     int
	LocalBatch  int
	Seed        int64
	Parallelism int
	Cluster     cluster.Config
}

func (o *Options) fillDefaults() {
	if o.Steps <= 0 {
		o.Steps = 30_000
	}
	if o.NumJobs <= 0 {
		o.NumJobs = 21
	}
	if o.LocalBatch <= 0 {
		o.LocalBatch = 4
	}
	o.Cluster.Seed = o.Seed
}

// paperPolicies are the three policies the paper evaluates, in the
// order every paper-figure experiment runs and reports them.
var paperPolicies = []string{core.PolicyFIFO, core.PolicyOne, core.PolicyRR}

func (o Options) baseRun(p cluster.Placement, policy string) RunConfig {
	return RunConfig{
		Label:       fmt.Sprintf("%s-p%d", policy, p.Index),
		Cluster:     o.Cluster,
		NumJobs:     o.NumJobs,
		LocalBatch:  o.LocalBatch,
		TargetSteps: o.Steps,
		Placement:   p,
		TLs:         core.Config{Policy: policy},
	}
}

// --- Figure 2 -------------------------------------------------------

// Figure2Row is one placement's JCT statistics under FIFO.
type Figure2Row struct {
	Placement cluster.Placement
	JCTs      []float64
	Avg       float64
	Min, Max  float64
}

// Figure2Result reproduces Figure 2: job completion time of 21
// concurrent DL jobs under Table I placements, default FIFO scheduling.
type Figure2Result struct {
	Rows []Figure2Row
}

// PerformanceGap returns the paper's metric: the percentage difference
// between the best and worst average JCT across placements (~75%).
func (r *Figure2Result) PerformanceGap() float64 {
	if len(r.Rows) == 0 {
		return 0
	}
	best, worst := r.Rows[0].Avg, r.Rows[0].Avg
	for _, row := range r.Rows {
		if row.Avg < best {
			best = row.Avg
		}
		if row.Avg > worst {
			worst = row.Avg
		}
	}
	return 100 * (worst - best) / best
}

func (r *Figure2Result) report() report {
	return report{
		title: "Figure 2: JCT of concurrent DL jobs under various PS placements (FIFO)",
		sections: []section{{len(r.Rows), []column{
			{"placement", "placement", "#%d", func(i int) any { return r.Rows[i].Placement.Index }},
			{"groups", "groups", "", func(i int) any { return r.Rows[i].Placement.String() }},
			{"avg_jct_s", "avg JCT (s)", "", func(i int) any { return r.Rows[i].Avg }},
			{"min_jct_s", "min (s)", "", func(i int) any { return r.Rows[i].Min }},
			{"max_jct_s", "max (s)", "", func(i int) any { return r.Rows[i].Max }},
		}}},
		footer: fmt.Sprintf("performance gap (worst vs best avg JCT): %.0f%%\n", r.PerformanceGap()),
	}
}

// Figure2 runs FIFO across all Table I placements.
func Figure2(o Options) (*Figure2Result, error) {
	o.fillDefaults()
	placements := cluster.Placements21()
	rcs := make([]RunConfig, len(placements))
	for i, p := range placements {
		rcs[i] = o.baseRun(p, core.PolicyFIFO)
	}
	results, err := RunMany(rcs, o.Parallelism)
	if err != nil {
		return nil, err
	}
	out := &Figure2Result{}
	for i, res := range results {
		s := metrics.Summarize(res.JCTs)
		out.Rows = append(out.Rows, Figure2Row{
			Placement: placements[i],
			JCTs:      res.JCTs,
			Avg:       s.Mean,
			Min:       s.Min,
			Max:       s.Max,
		})
	}
	return out, nil
}

// --- Figure 3 -------------------------------------------------------

// WaitDist summarizes a barrier-wait distribution (one CDF in the
// paper's Figure 3/6).
type WaitDist struct {
	Label   string
	Samples []float64
	Summary metrics.Summary
}

func waitDist(label string, samples []float64) WaitDist {
	return WaitDist{Label: label, Samples: samples, Summary: metrics.Summarize(samples)}
}

// Figure3Result reproduces Figure 3: distributions of per-barrier wait
// time average (a) and variance (b) under placements #1 and #8, FIFO.
type Figure3Result struct {
	MeanP1, MeanP8 WaitDist
	VarP1, VarP8   WaitDist
}

// MeanRatio is the paper's 3.71x: average barrier wait under placement
// #1 over placement #8.
func (r *Figure3Result) MeanRatio() float64 {
	return metrics.Ratio(r.MeanP1.Summary.Mean, r.MeanP8.Summary.Mean)
}

// VarRatio is the paper's 4.37x: wait variance under #1 over #8.
func (r *Figure3Result) VarRatio() float64 {
	return metrics.Ratio(r.VarP1.Summary.Mean, r.VarP8.Summary.Mean)
}

func (r *Figure3Result) report() report {
	dists := []WaitDist{r.MeanP1, r.MeanP8, r.VarP1, r.VarP8}
	series := []string{r.MeanP1.Label, r.MeanP8.Label, r.VarP1.Label, r.VarP8.Label}
	return report{
		title:    "Figure 3: barrier wait time under placements #1 and #8 (FIFO)",
		sections: waitSections(dists, series),
		footer: fmt.Sprintf("avg wait ratio #1/#8: %.2fx (paper: 3.71x)\nvariance ratio #1/#8: %.2fx (paper: 4.37x)\n",
			r.MeanRatio(), r.VarRatio()),
	}
}

// cdfPoints is the resolution of exported CDFs.
const cdfPoints = 200

// waitSections are Figures 3 and 6's sections: a table-only summary row
// per distribution, titled by its label, and a CSV-only section of each
// distribution's CDF as (series, x, p) points.
func waitSections(dists []WaitDist, series []string) []section {
	var names []string
	var pts [][2]float64
	for i, d := range dists {
		for _, pt := range metrics.NewCDF(d.Samples).Points(cdfPoints) {
			names = append(names, series[i])
			pts = append(pts, pt)
		}
	}
	return []section{
		{len(dists), []column{
			{"", "series", "", func(i int) any { return dists[i].Label }},
			{"", "n", "", func(i int) any { return dists[i].Summary.Count }},
			{"", "mean", "", func(i int) any { return dists[i].Summary.Mean }},
			{"", "median", "", func(i int) any { return dists[i].Summary.Median }},
			{"", "p90", "", func(i int) any { return dists[i].Summary.P90 }},
			{"", "max", "", func(i int) any { return dists[i].Summary.Max }},
		}},
		{len(pts), []column{
			{"series", "", "", func(i int) any { return names[i] }},
			{"x", "", "", func(i int) any { return pts[i][0] }},
			{"p", "", "", func(i int) any { return pts[i][1] }},
		}},
	}
}

// Figure3 runs FIFO on placements #1 and #8 and collects wait stats.
func Figure3(o Options) (*Figure3Result, error) {
	o.fillDefaults()
	p1, _ := cluster.PlacementByIndex(1)
	p8, _ := cluster.PlacementByIndex(8)
	results, err := RunMany([]RunConfig{
		o.baseRun(p1, core.PolicyFIFO),
		o.baseRun(p8, core.PolicyFIFO),
	}, o.Parallelism)
	if err != nil {
		return nil, err
	}
	return &Figure3Result{
		MeanP1: waitDist("avg wait, placement #1", results[0].BarrierMeans),
		MeanP8: waitDist("avg wait, placement #8", results[1].BarrierMeans),
		VarP1:  waitDist("wait variance, placement #1", results[0].BarrierVars),
		VarP8:  waitDist("wait variance, placement #8", results[1].BarrierVars),
	}, nil
}

// --- Figure 5a ------------------------------------------------------

// Figure5aRow holds one placement's normalized average JCT per policy.
type Figure5aRow struct {
	Placement cluster.Placement
	FIFOAvg   float64
	// NormOne and NormRR are average per-job JCTs normalized over the
	// same job's JCT under FIFO (the paper's normalization).
	NormOne float64
	NormRR  float64
}

// Figure5aResult reproduces Figure 5a: normalized JCT for TLs-One and
// TLs-RR across placements, local batch 4.
type Figure5aResult struct {
	Rows []Figure5aRow
}

// BestImprovement returns the largest percentage JCT reduction for a
// policy across placements (paper: 27% One, 16% RR).
func (r *Figure5aResult) BestImprovement() (one, rr float64) {
	for _, row := range r.Rows {
		if imp := 100 * (1 - row.NormOne); imp > one {
			one = imp
		}
		if imp := 100 * (1 - row.NormRR); imp > rr {
			rr = imp
		}
	}
	return one, rr
}

func (r *Figure5aResult) report() report {
	one, rr := r.BestImprovement()
	return report{
		title: "Figure 5a: normalized JCT vs placement (local batch 4; lower is better)",
		sections: []section{{len(r.Rows), []column{
			{"placement", "placement", "#%d", func(i int) any { return r.Rows[i].Placement.Index }},
			{"fifo_avg_jct_s", "FIFO avg JCT (s)", "", func(i int) any { return r.Rows[i].FIFOAvg }},
			{"tls_one_norm", "TLs-One (norm)", "", func(i int) any { return r.Rows[i].NormOne }},
			{"tls_rr_norm", "TLs-RR (norm)", "", func(i int) any { return r.Rows[i].NormRR }},
		}}},
		footer: fmt.Sprintf("best improvement: TLs-One %.0f%% (paper: up to 27%%), TLs-RR %.0f%% (paper: up to 16%%)\n",
			one, rr),
	}
}

// normalizeJCT averages per-job JCT ratios versus the FIFO baseline.
func normalizeJCT(policy, fifo []float64) float64 {
	normed, err := metrics.NormalizeBy(policy, fifo)
	if err != nil {
		return 0
	}
	return metrics.Mean(normed)
}

// Figure5a runs all three policies across all placements.
func Figure5a(o Options) (*Figure5aResult, error) {
	o.fillDefaults()
	placements := cluster.Placements21()
	var rcs []RunConfig
	for _, p := range placements {
		rcs = append(rcs,
			o.baseRun(p, core.PolicyFIFO),
			o.baseRun(p, core.PolicyOne),
			o.baseRun(p, core.PolicyRR))
	}
	results, err := RunMany(rcs, o.Parallelism)
	if err != nil {
		return nil, err
	}
	out := &Figure5aResult{}
	for i, p := range placements {
		fifo := results[3*i].JCTs
		out.Rows = append(out.Rows, Figure5aRow{
			Placement: p,
			FIFOAvg:   metrics.Mean(fifo),
			NormOne:   normalizeJCT(results[3*i+1].JCTs, fifo),
			NormRR:    normalizeJCT(results[3*i+2].JCTs, fifo),
		})
	}
	return out, nil
}

// --- Figure 5b ------------------------------------------------------

// Figure5bRow holds one local batch size's normalized JCTs, placement #1.
type Figure5bRow struct {
	LocalBatch int
	FIFOAvg    float64
	NormOne    float64
	NormRR     float64
}

// Figure5bResult reproduces Figure 5b: normalized JCT versus local
// batch size under placement #1 — smaller batches mean more frequent
// updates and heavier traffic contention.
type Figure5bResult struct {
	Rows []Figure5bRow
}

// BestImprovement returns the largest percentage reductions (paper: 31%
// One / 17% RR at the smallest batch).
func (r *Figure5bResult) BestImprovement() (one, rr float64) {
	for _, row := range r.Rows {
		if imp := 100 * (1 - row.NormOne); imp > one {
			one = imp
		}
		if imp := 100 * (1 - row.NormRR); imp > rr {
			rr = imp
		}
	}
	return one, rr
}

func (r *Figure5bResult) report() report {
	one, rr := r.BestImprovement()
	return report{
		title: "Figure 5b: normalized JCT vs local batch size (placement #1; lower is better)",
		sections: []section{{len(r.Rows), []column{
			{"local_batch", "local batch", "", func(i int) any { return r.Rows[i].LocalBatch }},
			{"fifo_avg_jct_s", "FIFO avg JCT (s)", "", func(i int) any { return r.Rows[i].FIFOAvg }},
			{"tls_one_norm", "TLs-One (norm)", "", func(i int) any { return r.Rows[i].NormOne }},
			{"tls_rr_norm", "TLs-RR (norm)", "", func(i int) any { return r.Rows[i].NormRR }},
		}}},
		footer: fmt.Sprintf("best improvement: TLs-One %.0f%% (paper: up to 31%%), TLs-RR %.0f%% (paper: up to 17%%)\n",
			one, rr),
	}
}

// Figure5bBatches is the default batch-size sweep.
var Figure5bBatches = []int{1, 2, 4, 8, 16}

// Figure5b sweeps local batch sizes on placement #1.
func Figure5b(o Options) (*Figure5bResult, error) {
	o.fillDefaults()
	p1, _ := cluster.PlacementByIndex(1)
	var rcs []RunConfig
	for _, b := range Figure5bBatches {
		for _, pol := range paperPolicies {
			rc := o.baseRun(p1, pol)
			rc.LocalBatch = b
			rc.Label = fmt.Sprintf("%s-batch%d", pol, b)
			rcs = append(rcs, rc)
		}
	}
	results, err := RunMany(rcs, o.Parallelism)
	if err != nil {
		return nil, err
	}
	out := &Figure5bResult{}
	for i, b := range Figure5bBatches {
		fifo := results[3*i].JCTs
		out.Rows = append(out.Rows, Figure5bRow{
			LocalBatch: b,
			FIFOAvg:    metrics.Mean(fifo),
			NormOne:    normalizeJCT(results[3*i+1].JCTs, fifo),
			NormRR:     normalizeJCT(results[3*i+2].JCTs, fifo),
		})
	}
	return out, nil
}

// --- Figure 6 -------------------------------------------------------

// Figure6Result reproduces Figure 6: barrier-wait average and variance
// distributions under placement #1 for FIFO, TLs-One and TLs-RR.
type Figure6Result struct {
	Means map[string]WaitDist // keyed by policy name
	Vars  map[string]WaitDist
}

// VarReduction returns mean and median variance reduction of a policy
// versus FIFO in percent (paper: One 26/40, RR 15/30).
func (r *Figure6Result) VarReduction(policy string) (mean, median float64) {
	f := r.Vars["FIFO"].Summary
	p := r.Vars[policy].Summary
	return 100 * (1 - metrics.Ratio(p.Mean, f.Mean)),
		100 * (1 - metrics.Ratio(p.Median, f.Median))
}

func (r *Figure6Result) report() report {
	var dists []WaitDist
	var series []string
	for _, pol := range paperPolicies {
		dists = append(dists, r.Means[pol])
		series = append(series, "avg_wait_"+pol)
	}
	for _, pol := range paperPolicies {
		dists = append(dists, r.Vars[pol])
		series = append(series, "wait_variance_"+pol)
	}
	om, omed := r.VarReduction("TLs-One")
	rm, rmed := r.VarReduction("TLs-RR")
	return report{
		title:    "Figure 6: barrier wait time under placement #1 by scheduling policy",
		sections: waitSections(dists, series),
		footer: fmt.Sprintf("variance reduction vs FIFO: TLs-One mean %.0f%%/median %.0f%% (paper: 26%%/40%%), TLs-RR mean %.0f%%/median %.0f%% (paper: 15%%/30%%)\n",
			om, omed, rm, rmed),
	}
}

// Figure6 runs the three policies on placement #1.
func Figure6(o Options) (*Figure6Result, error) {
	o.fillDefaults()
	p1, _ := cluster.PlacementByIndex(1)
	var rcs []RunConfig
	for _, pol := range paperPolicies {
		rcs = append(rcs, o.baseRun(p1, pol))
	}
	results, err := RunMany(rcs, o.Parallelism)
	if err != nil {
		return nil, err
	}
	out := &Figure6Result{Means: map[string]WaitDist{}, Vars: map[string]WaitDist{}}
	for i, name := range paperPolicies {
		out.Means[name] = waitDist("avg wait, "+name, results[i].BarrierMeans)
		out.Vars[name] = waitDist("wait variance, "+name, results[i].BarrierVars)
	}
	return out, nil
}

// --- Table II -------------------------------------------------------

// TableIIRow is one (resource, host type) normalized utilization pair.
type TableIIRow struct {
	Resource string
	HostType string
	One      float64 // normalized over FIFO
	RR       float64
}

// TableIIResult reproduces Table II: normalized CPU and NIC utilization
// during the active window under placement #1. Values are utilization
// under a TensorLights policy divided by utilization under FIFO; larger
// is better.
type TableIIResult struct {
	Rows   []TableIIRow
	Window [2]float64
}

func (r *TableIIResult) report() report {
	return report{
		title: fmt.Sprintf("Table II: normalized utilization, placement #1 (active window %.0f-%.0f s)",
			r.Window[0], r.Window[1]),
		sections: []section{{len(r.Rows), []column{
			{"resource", "resource", "", func(i int) any { return r.Rows[i].Resource }},
			{"host_type", "host type", "", func(i int) any { return r.Rows[i].HostType }},
			{"tls_one_x", "TLs-One", "%.2fx", func(i int) any { return r.Rows[i].One }},
			{"tls_rr_x", "TLs-RR", "%.2fx", func(i int) any { return r.Rows[i].RR }},
		}}},
	}
}

// TableII measures utilization for FIFO, TLs-One and TLs-RR on
// placement #1 and normalizes by FIFO.
func TableII(o Options) (*TableIIResult, error) {
	o.fillDefaults()
	p1, _ := cluster.PlacementByIndex(1)
	var rcs []RunConfig
	for _, pol := range paperPolicies {
		rc := o.baseRun(p1, pol)
		rc.SampleUtilEvery = 1
		rcs = append(rcs, rc)
	}
	results, err := RunMany(rcs, o.Parallelism)
	if err != nil {
		return nil, err
	}
	fifo, one, rr := results[0], results[1], results[2]
	psHosts := fifo.PSHosts
	var workerHosts, allHosts []int
	for h := range fifo.Utils {
		allHosts = append(allHosts, h)
		if !slices.Contains(psHosts, h) {
			workerHosts = append(workerHosts, h)
		}
	}
	norm := func(res *RunResult, hosts []int, get func(metrics.HostUtil) float64) float64 {
		return metrics.Ratio(
			get(metrics.AverageUtil(res.Utils, hosts)),
			get(metrics.AverageUtil(fifo.Utils, hosts)))
	}
	cpu := func(u metrics.HostUtil) float64 { return u.CPU }
	in := func(u metrics.HostUtil) float64 { return u.NetIn }
	outF := func(u metrics.HostUtil) float64 { return u.NetOut }
	out := &TableIIResult{Window: fifo.UtilWindow}
	out.Rows = []TableIIRow{
		{"CPU", "PS", norm(one, psHosts, cpu), norm(rr, psHosts, cpu)},
		{"CPU", "Worker", norm(one, workerHosts, cpu), norm(rr, workerHosts, cpu)},
		{"Network Inbound", "All", norm(one, allHosts, in), norm(rr, allHosts, in)},
		{"Network Outbound", "All", norm(one, allHosts, outF), norm(rr, allHosts, outF)},
	}
	return out, nil
}
