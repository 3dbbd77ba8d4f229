package sweep

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dl"
	"repro/internal/faults"
)

// TestPolicySweepAdaptiveBeatsRR pins the headline claim of the policy
// engine: on the 21-job colocated-PS scenario, at least one
// telemetry-driven policy improves the p95 JCT over the blind TLs-RR
// rotation. At Steps=300/Seed=42 the measured margin is ~8% (and 3-14%
// across other seeds), so asserting a 1% improvement leaves room for
// benign numeric drift while still failing on a real regression.
func TestPolicySweepAdaptiveBeatsRR(t *testing.T) {
	if testing.Short() {
		t.Skip("full policy sweep")
	}
	res, err := PolicySweep(Options{Steps: 300, Seed: 42, Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != len(PolicySweepNames) {
		t.Fatalf("got %d rows, want %d", len(res.Rows), len(PolicySweepNames))
	}
	for _, row := range res.Rows {
		if row.AvgJCT <= 0 || row.P95JCT <= 0 || row.MaxJCT < row.P95JCT {
			t.Fatalf("%s: implausible JCTs %+v", row.Policy, row)
		}
	}
	rr, ok := res.Row("TLs-RR")
	if !ok {
		t.Fatal("missing TLs-RR row")
	}
	if rr.Reconfigs == 0 {
		t.Fatal("TLs-RR never rotated; interval scaling broken")
	}
	best, ok := res.BestAdaptive()
	if !ok {
		t.Fatal("no adaptive rows")
	}
	if best.P95JCT >= rr.P95JCT*0.99 {
		t.Fatalf("best adaptive %s p95 %.4f s does not beat TLs-RR %.4f s by >=1%%",
			best.Policy, best.P95JCT, rr.P95JCT)
	}
}

// TestAdaptivePolicySurvivesCrashes runs TLs-LAS under the fault
// injector's worker crashes: the Feedback collector must keep its
// accounting consistent when tracked jobs crash out (departure drops
// their telemetry) and the run must stay deterministic. Crashed
// workers restart, so all jobs still finish.
func TestAdaptivePolicySurvivesCrashes(t *testing.T) {
	if testing.Short() {
		t.Skip("full faulted runs")
	}
	run := func() *RunResult {
		t.Helper()
		p, err := cluster.ParsePlacement("8") // all 8 PSes colocated
		if err != nil {
			t.Fatal(err)
		}
		rc := RunConfig{
			Label:       "las-crashes",
			Cluster:     cluster.Config{Seed: 42},
			NumJobs:     8,
			LocalBatch:  4,
			TargetSteps: 300,
			Placement:   p,
			TLs: core.Config{
				Policy:              "TLs-LAS",
				IntervalSec:         1.5,
				FeedbackIntervalSec: 0.75,
			},
			Faults: faults.Plan{Crashes: []faults.CrashPlan{
				{Job: 0, Worker: 1, AtSec: 3},
				{Job: 2, Worker: 0, AtSec: 5},
			}},
			Recovery: dl.RecoveryConfig{
				DetectTimeoutSec:  0.5,
				RestartBackoffSec: 0.25,
				MaxRestarts:       2,
			},
		}
		res, err := Run(rc)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a := run()
	if a.FaultCounts.Crashes != 2 {
		t.Fatalf("injected %d crashes, want 2", a.FaultCounts.Crashes)
	}
	if a.Restarts == 0 {
		t.Fatal("no worker restarts recorded")
	}
	if len(a.FailedJobs) != 0 {
		t.Fatalf("jobs failed despite restart budget: %v", a.FailedJobs)
	}
	if len(a.JCTs) != 8 {
		t.Fatalf("%d JCTs, want 8", len(a.JCTs))
	}
	b := run()
	for i := range a.JCTs {
		if a.JCTs[i] != b.JCTs[i] {
			t.Fatalf("faulted adaptive run not deterministic: JCT[%d] %.9g vs %.9g",
				i, a.JCTs[i], b.JCTs[i])
		}
	}
}

// TestPolicySweepCSV checks the export shape: header plus one row per
// policy, in table order.
func TestPolicySweepCSV(t *testing.T) {
	r := &PolicySweepResult{Rows: []PolicyRow{
		{Policy: "FIFO", AvgJCT: 2, P95JCT: 3, MaxJCT: 4, BarrierWaitMean: 0.5, Reconfigs: 0},
		{Policy: "TLs-LAS", AvgJCT: 1, P95JCT: 2, MaxJCT: 3, BarrierWaitMean: 0.25, Reconfigs: 7},
	}}
	var buf bytes.Buffer
	if err := r.report().WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("got %d lines, want 3:\n%s", len(lines), buf.String())
	}
	if lines[0] != "policy,avg_jct_s,p95_jct_s,max_jct_s,barrier_wait_mean_s,reconfigs" {
		t.Fatalf("bad header: %s", lines[0])
	}
	if lines[2] != "TLs-LAS,1,2,3,0.25,7" {
		t.Fatalf("bad row: %s", lines[2])
	}
}
