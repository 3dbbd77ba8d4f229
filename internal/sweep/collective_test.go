package sweep

import (
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/collective"
	"repro/internal/core"
	"repro/internal/dl"
	"repro/internal/faults"
)

func TestRunCollectiveOnly(t *testing.T) {
	rings, err := cluster.RingPlacement(2, 3, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(RunConfig{
		Cluster:         cluster.Config{Hosts: 4, Seed: 3},
		CollectiveSpecs: cluster.CollectiveSpecs(dl.ResNet32, rings, collective.Ring, 4, 3),
	})
	if err != nil {
		t.Fatal(err)
	}
	// No PS workload was implied: NumJobs must not default to 21.
	if len(res.JCTs) != 0 {
		t.Fatalf("phantom PS jobs: %d JCTs", len(res.JCTs))
	}
	if len(res.CollectiveJCTs) != 2 {
		t.Fatalf("collective JCTs %d", len(res.CollectiveJCTs))
	}
	for _, jct := range res.CollectiveJCTs {
		if jct <= 0 {
			t.Fatalf("degenerate collective JCT %g", jct)
		}
	}
}

func TestRunCollectivePeerCrashRecovery(t *testing.T) {
	rings, err := cluster.RingPlacement(1, 3, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	specs := cluster.CollectiveSpecs(dl.ResNet32, rings, collective.Ring, 4, 4)
	res, err := Run(RunConfig{
		Cluster:         cluster.Config{Hosts: 4, Seed: 3},
		CollectiveSpecs: specs,
		Recovery: dl.RecoveryConfig{
			DetectTimeoutSec:  1,
			RestartBackoffSec: 0.5,
			MaxRestarts:       2,
		},
		Faults: faults.Plan{
			PeerCrashes: []faults.CrashPlan{{Job: specs[0].ID, Worker: 1, AtSec: 0.2}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.FaultCounts.PeerCrashes != 1 {
		t.Fatalf("peer crashes %d", res.FaultCounts.PeerCrashes)
	}
	if res.Restarts == 0 || res.CollectiveStalls == 0 {
		t.Fatalf("recovery did not engage: restarts %d stalls %d",
			res.Restarts, res.CollectiveStalls)
	}
	if len(res.CollectiveJCTs) != 1 {
		t.Fatalf("job did not recover: %d JCTs, failed %v",
			len(res.CollectiveJCTs), res.FailedJobs)
	}
}

func TestCollectiveShape(t *testing.T) {
	r, err := Collective(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 6 {
		t.Fatalf("rows %d", len(r.Rows))
	}
	for _, row := range r.Rows {
		if row.AvgJCT <= 0 || row.P95JCT < row.AvgJCT*0.5 {
			t.Fatalf("degenerate row %+v", row)
		}
		if row.Policy == core.PolicyFIFO {
			if row.Reconfigs != 0 {
				t.Fatalf("FIFO reconfigured tc: %+v", row)
			}
		} else if row.Reconfigs == 0 {
			t.Fatalf("TLs never reconfigured: %+v", row)
		}
		if row.Scenario == ScenarioMixed && row.PSAvg <= 0 {
			t.Fatalf("mixed row lost its PS jobs: %+v", row)
		}
	}
	// On the all-reduce-only cluster prioritization pipelines the rings:
	// TLs-One must beat FIFO's average JCT clearly.
	fifoAR, _ := r.Row(ScenarioAllReduce, core.PolicyFIFO)
	oneAR, _ := r.Row(ScenarioAllReduce, core.PolicyOne)
	if oneAR.AvgJCT >= fifoAR.AvgJCT*0.95 {
		t.Fatalf("TLs-One avg %.2f vs FIFO %.2f on all-reduce cluster",
			oneAR.AvgJCT, fifoAR.AvgJCT)
	}
	// The headline acceptance criterion: on the mixed PS + all-reduce
	// contention scenario TLs-RR reduces the p95 JCT below FIFO's.
	fifoMix, ok1 := r.Row(ScenarioMixed, core.PolicyFIFO)
	rrMix, ok2 := r.Row(ScenarioMixed, core.PolicyRR)
	if !ok1 || !ok2 {
		t.Fatal("missing mixed rows")
	}
	if rrMix.P95JCT >= fifoMix.P95JCT {
		t.Fatalf("TLs-RR p95 %.2f did not beat FIFO p95 %.2f on the mixed cluster",
			rrMix.P95JCT, fifoMix.P95JCT)
	}
	out := r.report().Render()
	for _, want := range []string{"mixed", "allreduce", "TLs-RR", "reduction"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

func TestCollectiveDeterministic(t *testing.T) {
	o := Options{Steps: 300, Seed: 7}
	render := func() (string, string) {
		r, err := Collective(o)
		if err != nil {
			t.Fatal(err)
		}
		var csv strings.Builder
		if err := r.report().WriteCSV(&csv); err != nil {
			t.Fatal(err)
		}
		return r.report().Render(), csv.String()
	}
	table1, csv1 := render()
	table2, csv2 := render()
	if table1 != table2 {
		t.Fatal("same seed produced different tables")
	}
	if csv1 != csv2 {
		t.Fatal("same seed produced different CSV bytes")
	}
	lines := strings.Split(strings.TrimSpace(csv1), "\n")
	if lines[0] != "scenario,policy,avg_jct_s,p95_jct_s,ps_avg_jct_s,allreduce_avg_jct_s,reconfigs" {
		t.Fatalf("csv header %q", lines[0])
	}
	if len(lines) != 7 {
		t.Fatalf("csv lines %d", len(lines))
	}
	for _, line := range lines[1:] {
		if strings.Count(line, ",") != 6 {
			t.Fatalf("row %q has wrong field count", line)
		}
	}
}
