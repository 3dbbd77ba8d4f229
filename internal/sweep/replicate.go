package sweep

import (
	"context"
	"fmt"
	"math"

	"repro/internal/cluster"
	"repro/internal/metrics"
)

// ReplicateStats aggregates one headline scalar across seeds.
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

// Replicate evaluates metric for n consecutive seeds starting at
// baseSeed and aggregates the results. Use it to put error bars on any
// headline number (performance gap, improvement percentage, ratio):
//
//	stats, err := sweep.Replicate(ctx, 3, 1, 0, func(ctx context.Context, seed int64) (float64, error) {
//	    r, err := sweep.Figure2(sweep.Options{Steps: 3000, Seed: seed})
//	    if err != nil {
//	        return 0, err
//	    }
//	    return r.PerformanceGap(), nil
//	})
//
// The seeds fan out over the parallel Engine (parallelism <= 0 uses
// GOMAXPROCS, 1 runs sequentially); their values are gathered in seed
// order and folded sequentially, so the stats are bit-identical at
// every parallelism. The ctx handed to each evaluation is the one to
// thread into RunContext/RunExperimentContext: once ctx is done, queued
// seeds are abandoned and in-flight simulations stop mid-run.
func Replicate(ctx context.Context, n int, baseSeed int64, parallelism int, metric func(ctx context.Context, seed int64) (float64, error)) (ReplicateStats, error) {
	if n < 1 {
		return ReplicateStats{}, fmt.Errorf("sweep: replicate needs n >= 1")
	}
	vals := make([]float64, n)
	err := Engine{Parallelism: parallelism}.ForEachContext(ctx, n, func(ctx context.Context, i int) error {
		seed := baseSeed + int64(i)
		v, err := metric(ctx, seed)
		if err != nil {
			return fmt.Errorf("sweep: replicate seed %d: %w", seed, err)
		}
		vals[i] = v
		return nil
	})
	if err != nil {
		return ReplicateStats{}, err
	}
	return replicateStatsOf(vals), nil
}

// replicateStatsOf folds vals (in order) into summary stats.
func replicateStatsOf(vals []float64) ReplicateStats {
	n := len(vals)
	stats := ReplicateStats{N: n, Min: vals[0], Max: vals[0]}
	sum := 0.0
	for _, v := range vals {
		sum += v
		if v < stats.Min {
			stats.Min = v
		}
		if v > stats.Max {
			stats.Max = v
		}
	}
	stats.Mean = sum / float64(n)
	if n > 1 {
		ss := 0.0
		for _, v := range vals {
			d := v - stats.Mean
			ss += d * d
		}
		stats.Std = math.Sqrt(ss / float64(n-1)) // sample std
	}
	return stats
}

// --- Replicate sweep (first-class experiment) -----------------------

// ReplicateSeeds is how many consecutive seeds the replicate sweep
// runs per policy.
const ReplicateSeeds = 3

// ReplicateRow is one (policy, seed) trial of the replicate sweep.
type ReplicateRow struct {
	Policy          string
	Seed            int64
	AvgJCT          float64
	P95JCT          float64
	BarrierWaitMean float64
	Events          uint64
}

// ReplicateResult reproduces the paper's headline JCT comparison with
// error bars: placement #1, all three policies, ReplicateSeeds seeds
// each. Rows are in canonical grid order (policy-major, seed-minor);
// Stats[i] aggregates average JCT across seeds for Policies[i].
type ReplicateResult struct {
	Policies []string
	Rows     []ReplicateRow
	Stats    []ReplicateStats
}

// report lists the per-trial rows, then the per-policy aggregates: as
// footer lines in the table, as a second section in the CSV.
func (r *ReplicateResult) report() report {
	rep := report{
		title: "Replicate sweep: avg JCT by policy across seeds (placement #1)",
		sections: []section{{len(r.Rows), []column{
			{"policy", "policy", "", func(i int) any { return r.Rows[i].Policy }},
			{"seed", "seed", "", func(i int) any { return r.Rows[i].Seed }},
			{"avg_jct_s", "avg JCT (s)", "", func(i int) any { return r.Rows[i].AvgJCT }},
			{"p95_jct_s", "p95 JCT (s)", "", func(i int) any { return r.Rows[i].P95JCT }},
			{"barrier_wait_mean_s", "barrier wait (s)", "", func(i int) any { return r.Rows[i].BarrierWaitMean }},
			{"events", "", "", func(i int) any { return r.Rows[i].Events }},
		}}, {len(r.Policies), []column{
			{"policy", "", "", func(i int) any { return r.Policies[i] }},
			{"n", "", "", func(i int) any { return r.Stats[i].N }},
			{"mean_avg_jct_s", "", "", func(i int) any { return r.Stats[i].Mean }},
			{"std_s", "", "", func(i int) any { return r.Stats[i].Std }},
			{"min_s", "", "", func(i int) any { return r.Stats[i].Min }},
			{"max_s", "", "", func(i int) any { return r.Stats[i].Max }},
		}}},
	}
	for i, pol := range r.Policies {
		rep.footer += fmt.Sprintf("%s avg JCT: %s\n", pol, r.Stats[i])
	}
	return rep
}

// ReplicateSweep runs the (policy, seed) grid on the parallel Engine.
func ReplicateSweep(o Options) (*ReplicateResult, error) {
	o.fillDefaults()
	p1, _ := cluster.PlacementByIndex(1)
	trials := GridTrials(nil, paperPolicies, o.Seed, ReplicateSeeds)
	results, err := Gather(Engine{Parallelism: o.Parallelism}, trials, func(t Trial) (*RunResult, error) {
		rc := o.baseRun(p1, t.Policy)
		rc.Cluster.Seed = t.Seed
		rc.Label = fmt.Sprintf("%s-seed%d", t.Policy, t.Seed)
		return Run(rc)
	})
	if err != nil {
		return nil, err
	}
	out := &ReplicateResult{Policies: append([]string(nil), paperPolicies...)}
	for i, t := range trials {
		out.Rows = append(out.Rows, ReplicateRow{
			Policy:          t.Policy,
			Seed:            t.Seed,
			AvgJCT:          results[i].AvgJCT(),
			P95JCT:          metrics.Percentile(results[i].JCTs, 0.95),
			BarrierWaitMean: metrics.Mean(results[i].BarrierMeans),
			Events:          results[i].Events,
		})
	}
	for pi := range paperPolicies {
		vals := make([]float64, ReplicateSeeds)
		for s := 0; s < ReplicateSeeds; s++ {
			vals[s] = out.Rows[pi*ReplicateSeeds+s].AvgJCT
		}
		out.Stats = append(out.Stats, replicateStatsOf(vals))
	}
	return out, nil
}
