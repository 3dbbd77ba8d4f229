package tensorlights

// Benchmark harness: one benchmark per table and figure in the paper's
// evaluation (Section V), plus ablations for the design choices called
// out in DESIGN.md. Each benchmark runs the corresponding experiment at
// a reduced step count (shape, not wall-clock, is the reproduction
// target) and reports the paper's headline quantities as custom metrics
// next to the usual ns/op. `cmd/experiments` runs the same code at full
// scale.

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/policy"
	"repro/internal/sweep"
	"repro/internal/workload"
)

// benchSteps trades fidelity for benchmark runtime; ~60 iterations per
// job is enough for stable shapes.
const benchSteps = 1200

func benchOptions() sweep.Options {
	return sweep.Options{Steps: benchSteps, Seed: 42}
}

// BenchmarkFigure2PlacementJCT regenerates Figure 2: average JCT of 21
// concurrent jobs under each Table I placement, FIFO scheduling. The
// paper reports a performance gap of up to 75% between the worst and
// best placements.
func BenchmarkFigure2PlacementJCT(b *testing.B) {
	var gap float64
	for i := 0; i < b.N; i++ {
		r, err := sweep.Figure2(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		gap = r.PerformanceGap()
	}
	b.ReportMetric(gap, "gap_%")
}

// BenchmarkFigure3BarrierWaitFIFO regenerates Figure 3: the ratio of
// average barrier wait (paper: 3.71x) and wait variance (paper: 4.37x)
// between placements #1 and #8 under FIFO.
func BenchmarkFigure3BarrierWaitFIFO(b *testing.B) {
	var meanRatio, varRatio float64
	for i := 0; i < b.N; i++ {
		r, err := sweep.Figure3(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		meanRatio, varRatio = r.MeanRatio(), r.VarRatio()
	}
	b.ReportMetric(meanRatio, "mean_ratio_x")
	b.ReportMetric(varRatio, "var_ratio_x")
}

// BenchmarkFigure5aNormalizedJCT regenerates Figure 5a: normalized JCT
// of TLs-One and TLs-RR versus FIFO across placements (paper: up to 27%
// and 16% improvement).
func BenchmarkFigure5aNormalizedJCT(b *testing.B) {
	var one, rr float64
	for i := 0; i < b.N; i++ {
		r, err := sweep.Figure5a(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		one, rr = r.BestImprovement()
	}
	b.ReportMetric(one, "tls_one_improvement_%")
	b.ReportMetric(rr, "tls_rr_improvement_%")
}

// BenchmarkFigure5bBatchSweep regenerates Figure 5b: normalized JCT
// versus local batch size at placement #1 (paper: up to 31% and 17%
// improvement at the smallest batch).
func BenchmarkFigure5bBatchSweep(b *testing.B) {
	var one, rr float64
	for i := 0; i < b.N; i++ {
		r, err := sweep.Figure5b(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		one, rr = r.BestImprovement()
	}
	b.ReportMetric(one, "tls_one_improvement_%")
	b.ReportMetric(rr, "tls_rr_improvement_%")
}

// BenchmarkFigure6BarrierWaitPolicies regenerates Figure 6: barrier
// wait variance reduction versus FIFO at placement #1 (paper: TLs-One
// 26% mean / 40% median, TLs-RR 15% / 30%).
func BenchmarkFigure6BarrierWaitPolicies(b *testing.B) {
	var oneMean, oneMedian, rrMean float64
	for i := 0; i < b.N; i++ {
		r, err := sweep.Figure6(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		oneMean, oneMedian = r.VarReduction("TLs-One")
		rrMean, _ = r.VarReduction("TLs-RR")
	}
	b.ReportMetric(oneMean, "one_var_reduction_%")
	b.ReportMetric(oneMedian, "one_median_var_reduction_%")
	b.ReportMetric(rrMean, "rr_var_reduction_%")
}

// BenchmarkTableIIUtilization regenerates Table II: normalized CPU and
// NIC utilization over the active window at placement #1 (paper: CPU
// 1.04-1.13x, network 1.20-1.21x).
func BenchmarkTableIIUtilization(b *testing.B) {
	var cpuPS, cpuWorker, netIn float64
	for i := 0; i < b.N; i++ {
		r, err := sweep.TableII(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		cpuPS = r.Rows[0].One
		cpuWorker = r.Rows[1].One
		netIn = r.Rows[2].One
	}
	b.ReportMetric(cpuPS, "cpu_ps_x")
	b.ReportMetric(cpuWorker, "cpu_worker_x")
	b.ReportMetric(netIn, "net_in_x")
}

// --- ablations -------------------------------------------------------

func ablationRun(b *testing.B, tls core.Config) float64 {
	b.Helper()
	p1, _ := cluster.PlacementByIndex(1)
	res, err := sweep.Run(sweep.RunConfig{
		Placement:   p1,
		TargetSteps: benchSteps,
		TLs:         tls,
		Cluster:     cluster.Config{Seed: 42},
	})
	if err != nil {
		b.Fatal(err)
	}
	return res.AvgJCT()
}

// BenchmarkAblationPrioVsHTB compares the paper's htb implementation
// against a plain prio qdisc: the mechanism is the priority order, not
// the specific discipline, so both should perform similarly.
func BenchmarkAblationPrioVsHTB(b *testing.B) {
	var htb, prio float64
	for i := 0; i < b.N; i++ {
		htb = ablationRun(b, core.Config{Policy: core.PolicyOne})
		prio = ablationRun(b, core.Config{Policy: core.PolicyOne, UsePrioQdisc: true})
	}
	b.ReportMetric(htb, "htb_avg_jct_s")
	b.ReportMetric(prio, "prio_avg_jct_s")
}

// BenchmarkAblationBands varies the number of priority bands: with only
// one band TensorLights degenerates to FIFO; more bands give finer
// discrimination among the 21 contending jobs.
func BenchmarkAblationBands(b *testing.B) {
	var jct1, jct3, jct6 float64
	for i := 0; i < b.N; i++ {
		jct1 = ablationRun(b, core.Config{Policy: core.PolicyOne, Bands: 1})
		jct3 = ablationRun(b, core.Config{Policy: core.PolicyOne, Bands: 3})
		jct6 = ablationRun(b, core.Config{Policy: core.PolicyOne, Bands: 6})
	}
	b.ReportMetric(jct1, "bands1_avg_jct_s")
	b.ReportMetric(jct3, "bands3_avg_jct_s")
	b.ReportMetric(jct6, "bands6_avg_jct_s")
}

// BenchmarkAblationRotationInterval varies TLs-RR's interval T: shorter
// intervals are fairer but reconfigure more often.
func BenchmarkAblationRotationInterval(b *testing.B) {
	var t5, t20, t60 float64
	for i := 0; i < b.N; i++ {
		t5 = ablationRun(b, core.Config{Policy: core.PolicyRR, IntervalSec: 5})
		t20 = ablationRun(b, core.Config{Policy: core.PolicyRR, IntervalSec: 20})
		t60 = ablationRun(b, core.Config{Policy: core.PolicyRR, IntervalSec: 60})
	}
	b.ReportMetric(t5, "T5_avg_jct_s")
	b.ReportMetric(t20, "T20_avg_jct_s")
	b.ReportMetric(t60, "T60_avg_jct_s")
}

// BenchmarkAblationOrderPolicies compares priority assignment orders
// (paper §IV-B leaves this unconstrained; with identical grid-search
// jobs the choice should barely matter).
func BenchmarkAblationOrderPolicies(b *testing.B) {
	var arrival, random float64
	for i := 0; i < b.N; i++ {
		arrival = ablationRun(b, core.Config{Policy: core.PolicyOne, Order: policy.OrderArrival})
		random = ablationRun(b, core.Config{Policy: core.PolicyOne, Order: policy.OrderRandom})
	}
	b.ReportMetric(arrival, "arrival_avg_jct_s")
	b.ReportMetric(random, "random_avg_jct_s")
}

// BenchmarkAblationPSAwarePlacement is the paper's §VII direction 1: a
// PS-aware cluster scheduler avoids colocation up front, making the
// end-host scheduler unnecessary. Compares FIFO on placement #1 against
// FIFO on the placement a PS-aware scheduler produces (#8).
func BenchmarkAblationPSAwarePlacement(b *testing.B) {
	var colocated, psAware float64
	for i := 0; i < b.N; i++ {
		p1, _ := cluster.PlacementByIndex(1)
		r1, err := sweep.Run(sweep.RunConfig{
			Placement: p1, TargetSteps: benchSteps, Cluster: cluster.Config{Seed: 42},
		})
		if err != nil {
			b.Fatal(err)
		}
		colocated = r1.AvgJCT()
		// A PS-aware scheduler spreads the 21 PSes uniformly: Table I's
		// #8 (workload's TestGenerateSpreadIsPlacement8).
		placement, _ := cluster.PlacementByIndex(8)
		r8, err := sweep.Run(sweep.RunConfig{
			Placement: placement, TargetSteps: benchSteps, Cluster: cluster.Config{Seed: 42},
		})
		if err != nil {
			b.Fatal(err)
		}
		psAware = r8.AvgJCT()
	}
	b.ReportMetric(colocated, "colocated_avg_jct_s")
	b.ReportMetric(psAware, "ps_aware_avg_jct_s")
}

// BenchmarkAblationPolicySpectrum compares every scheduling policy in
// the repository on the heaviest-contention placement: FIFO (baseline),
// the paper's TLs-One and TLs-RR, the adaptive TLs-LPF extension, and
// the non-work-conserving StaticRate alternative the paper's §VII warns
// about.
func BenchmarkAblationPolicySpectrum(b *testing.B) {
	policies := []string{
		core.PolicyFIFO, core.PolicyOne, core.PolicyRR,
		core.PolicyLPF, core.PolicyStaticRate,
	}
	jcts := make([]float64, len(policies))
	for i := 0; i < b.N; i++ {
		for pi, pol := range policies {
			jcts[pi] = ablationRun(b, core.Config{Policy: pol})
		}
	}
	names := []string{"fifo", "tls_one", "tls_rr", "tls_lpf", "static_rate"}
	for pi, name := range names {
		b.ReportMetric(jcts[pi], name+"_avg_jct_s")
	}
}

// BenchmarkAblationSyncVsAsync compares synchronous training (the
// paper's focus) against asynchronous mode, where stragglers do not
// block peers but model staleness grows.
func BenchmarkAblationSyncVsAsync(b *testing.B) {
	p1, _ := cluster.PlacementByIndex(1)
	var syncJCT, asyncJCT float64
	for i := 0; i < b.N; i++ {
		rs, err := sweep.Run(sweep.RunConfig{
			Placement: p1, TargetSteps: benchSteps, Cluster: cluster.Config{Seed: 42},
		})
		if err != nil {
			b.Fatal(err)
		}
		ra, err := sweep.Run(sweep.RunConfig{
			Placement: p1, TargetSteps: benchSteps, Async: true, Cluster: cluster.Config{Seed: 42},
		})
		if err != nil {
			b.Fatal(err)
		}
		syncJCT, asyncJCT = rs.AvgJCT(), ra.AvgJCT()
	}
	b.ReportMetric(syncJCT, "sync_avg_jct_s")
	b.ReportMetric(asyncJCT, "async_avg_jct_s")
}

// BenchmarkEngineThroughput measures raw simulator speed: discrete
// events per second for the full 21-host, 21-job workload.
func BenchmarkEngineThroughput(b *testing.B) {
	p1, _ := cluster.PlacementByIndex(1)
	var events uint64
	for i := 0; i < b.N; i++ {
		res, err := sweep.Run(sweep.RunConfig{
			Placement: p1, TargetSteps: 400, Cluster: cluster.Config{Seed: int64(i)},
		})
		if err != nil {
			b.Fatal(err)
		}
		events += res.Events
	}
	b.ReportMetric(float64(events)/float64(b.N), "events/run")
}

// BenchmarkNormalizationHelpers exercises the metric aggregation used
// by every figure, to keep the analysis path fast.
func BenchmarkNormalizationHelpers(b *testing.B) {
	xs := make([]float64, 4096)
	for i := range xs {
		xs[i] = float64(i%97) + 0.5
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = metrics.Summarize(xs)
	}
}

// BenchmarkChurnArrivalDeparture exercises the paper's batch-processing
// mode: Poisson job arrivals onto a PS-agnostic (binpacking) scheduler,
// TensorLights reconfiguring on every arrival and departure.
func BenchmarkChurnArrivalDeparture(b *testing.B) {
	var fifo, one float64
	for i := 0; i < b.N; i++ {
		base := sweep.ChurnOptions{
			Jobs:              12,
			ArrivalRatePerSec: 1,
			Steps:             benchSteps,
			Seed:              42,
			SchedPolicy:       workload.PolicyBinpack,
		}
		fifoOpts := base
		fifoOpts.Policy = core.PolicyFIFO
		rf, err := sweep.Churn(fifoOpts)
		if err != nil {
			b.Fatal(err)
		}
		fifo = rf.AvgJCT
		oneOpts := base
		oneOpts.Policy = core.PolicyOne
		ro, err := sweep.Churn(oneOpts)
		if err != nil {
			b.Fatal(err)
		}
		one = ro.AvgJCT
	}
	b.ReportMetric(fifo, "fifo_avg_jct_s")
	b.ReportMetric(one, "tls_one_avg_jct_s")
}

// BenchmarkAblationSmallestUpdateFirst runs a heterogeneous model mix
// where the paper's §IV-B suggestion — prioritize jobs with smaller
// model updates — avoids head-of-line blocking behind large updates.
func BenchmarkAblationSmallestUpdateFirst(b *testing.B) {
	run := func(order policy.Order) float64 {
		res, err := sweep.Churn(sweep.ChurnOptions{
			Jobs:              8,
			ArrivalRatePerSec: 2,
			Seed:              42,
			Policy:            core.PolicyOne,
			Order:             order,
			SchedPolicy:       workload.PolicyBinpack,
			Templates:         workload.HeterogeneousMix(benchSteps),
		})
		if err != nil {
			b.Fatal(err)
		}
		return res.AvgJCT
	}
	var arrival, smallest float64
	for i := 0; i < b.N; i++ {
		arrival = run(policy.OrderArrival)
		smallest = run(policy.OrderSmallestUpdate)
	}
	b.ReportMetric(arrival, "arrival_avg_jct_s")
	b.ReportMetric(smallest, "smallest_first_avg_jct_s")
}

// BenchmarkAblationGradientCompression compares QSGD/TernGrad-style
// compressed gradients (related work the paper calls complementary)
// against and combined with TensorLights at the heaviest placement:
// compression relieves the ingress, priorities fix the egress bursts,
// and the combination wins.
func BenchmarkAblationGradientCompression(b *testing.B) {
	p1, _ := cluster.PlacementByIndex(1)
	run := func(pol string, compression float64) float64 {
		res, err := sweep.Run(sweep.RunConfig{
			Placement:       p1,
			TargetSteps:     benchSteps,
			TLs:             core.Config{Policy: pol},
			GradCompression: compression,
			Cluster:         cluster.Config{Seed: 42},
		})
		if err != nil {
			b.Fatal(err)
		}
		return res.AvgJCT()
	}
	var plain, comp, tls, both float64
	for i := 0; i < b.N; i++ {
		plain = run(core.PolicyFIFO, 1)
		comp = run(core.PolicyFIFO, 4)
		tls = run(core.PolicyOne, 1)
		both = run(core.PolicyOne, 4)
	}
	b.ReportMetric(plain, "fifo_avg_jct_s")
	b.ReportMetric(comp, "fifo_compressed_avg_jct_s")
	b.ReportMetric(tls, "tls_one_avg_jct_s")
	b.ReportMetric(both, "tls_one_compressed_avg_jct_s")
}
