package sweep

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/metrics"
)

// PolicySweepNames are the policies the comparison runs, in table
// order: the paper's baseline and static/rotating assignments, then
// the three telemetry-driven policies from internal/policy.
var PolicySweepNames = []string{
	"FIFO", "TLs-One", "TLs-RR", "TLs-LAS", "TLs-SRSF", "TLs-Interleave",
}

// PolicyRow is one policy's cell of the comparison.
type PolicyRow struct {
	Policy          string
	AvgJCT          float64
	P95JCT          float64
	MaxJCT          float64
	BarrierWaitMean float64
	Reconfigs       int
}

// PolicySweepResult compares every registered scheduling policy on the
// paper's headline scenario: 21 grid-search jobs, all parameter
// servers colocated (placement #1), the strongest contention case. The
// adaptive policies rank with measured telemetry instead of arrival
// order or a blind timer; the experiment quantifies what that buys on
// the JCT tail.
type PolicySweepResult struct {
	Rows []PolicyRow
}

// Row returns the named policy's cell.
func (r *PolicySweepResult) Row(policy string) (PolicyRow, bool) {
	for _, row := range r.Rows {
		if row.Policy == policy {
			return row, true
		}
	}
	return PolicyRow{}, false
}

// BestAdaptive returns the adaptive row with the lowest p95 JCT.
func (r *PolicySweepResult) BestAdaptive() (PolicyRow, bool) {
	var best PolicyRow
	found := false
	for _, name := range []string{"TLs-LAS", "TLs-SRSF", "TLs-Interleave"} {
		row, ok := r.Row(name)
		if !ok {
			continue
		}
		if !found || row.P95JCT < best.P95JCT {
			best, found = row, true
		}
	}
	return best, found
}

func (r *PolicySweepResult) report() report {
	rep := report{
		title: "Policy comparison: 21 colocated-PS jobs (placement #1)",
		sections: []section{{len(r.Rows), []column{
			{"policy", "policy", "", func(i int) any { return r.Rows[i].Policy }},
			{"avg_jct_s", "avg JCT (s)", "", func(i int) any { return r.Rows[i].AvgJCT }},
			{"p95_jct_s", "p95 JCT (s)", "", func(i int) any { return r.Rows[i].P95JCT }},
			{"max_jct_s", "max JCT (s)", "", func(i int) any { return r.Rows[i].MaxJCT }},
			{"barrier_wait_mean_s", "barrier wait (s)", "", func(i int) any { return r.Rows[i].BarrierWaitMean }},
			{"reconfigs", "reconfigs", "", func(i int) any { return r.Rows[i].Reconfigs }},
		}}},
	}
	if best, ok := r.BestAdaptive(); ok {
		if rr, ok2 := r.Row("TLs-RR"); ok2 && rr.P95JCT > 0 {
			rep.footer = fmt.Sprintf("best adaptive (%s) p95 JCT %.4g s vs TLs-RR %.4g s (%.1f%% reduction)\n",
				best.Policy, best.P95JCT, rr.P95JCT, 100*(1-best.P95JCT/rr.P95JCT))
		}
	}
	return rep
}

// policyRunConfigs builds one headline run per policy. Rotation and
// telemetry periods scale with the run length the same way the
// collective experiment scales them: the paper's 20 s assumes
// hour-long jobs, while test-sized runs finish in seconds.
func policyRunConfigs(o Options) []RunConfig {
	p1, _ := cluster.PlacementByIndex(1)
	interval := float64(o.Steps) / 200
	var rcs []RunConfig
	for _, name := range PolicySweepNames {
		rcs = append(rcs, RunConfig{
			Label:       "policy-" + name,
			Cluster:     o.Cluster,
			NumJobs:     o.NumJobs,
			LocalBatch:  o.LocalBatch,
			TargetSteps: o.Steps,
			Placement:   p1,
			TLs: core.Config{
				Policy:      name,
				IntervalSec: interval,
				// Sample telemetry twice per re-ranking so every Rank
				// call sees fresh attained-service and phase estimates.
				FeedbackIntervalSec: interval / 2,
			},
		})
	}
	return rcs
}

// PolicySweep runs the all-policy comparison on the headline scenario.
func PolicySweep(o Options) (*PolicySweepResult, error) {
	o.fillDefaults()
	rcs := policyRunConfigs(o)
	results, err := RunMany(rcs, o.Parallelism)
	if err != nil {
		return nil, err
	}
	out := &PolicySweepResult{}
	for i, res := range results {
		out.Rows = append(out.Rows, PolicyRow{
			Policy:          PolicySweepNames[i],
			AvgJCT:          metrics.Mean(res.JCTs),
			P95JCT:          metrics.Percentile(res.JCTs, 0.95),
			MaxJCT:          metrics.Max(res.JCTs),
			BarrierWaitMean: metrics.Mean(res.BarrierMeans),
			Reconfigs:       res.Reconfigs,
		})
	}
	return out, nil
}
