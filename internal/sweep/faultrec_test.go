package sweep

import (
	"fmt"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dl"
	"repro/internal/faults"
)

// faultyRunConfig is a small fully-colocated workload (3 jobs, PS on
// host 0, 4 workers each) with a fault plan spanning the run.
func faultyRunConfig(seed int64) RunConfig {
	return RunConfig{
		Label:       "faulty",
		Cluster:     cluster.Config{Hosts: 5, Seed: seed},
		NumJobs:     3,
		TargetSteps: 200,
		Placement:   cluster.Placement{Groups: []int{3}},
		TLs: core.Config{
			Policy:               core.PolicyRR,
			IntervalSec:          1,
			MaxExecRetries:       2,
			RetryBackoffSec:      0.05,
			ReconcileIntervalSec: 0.5,
		},
		Faults: faults.Plan{
			FlapPSHosts:     true,
			FlapFirstAtSec:  1,
			FlapEverySec:    3,
			FlapDurationSec: 0.4,
			FlapJitterSec:   0.2,
			DropProb:        0.1,
			TCOutage:        true,
			// Outage outlives the flap by 0.8 s, longer than the 1 s RR
			// rotation period, so every outage eats at least one rotation's
			// tc commands.
			TCOutageExtraSec: 0.8,
			HorizonSec:       10,
			Crashes:          []faults.CrashPlan{{Job: 1, Worker: 2, AtSec: 2}},
		},
		Recovery: dl.RecoveryConfig{
			DetectTimeoutSec:  0.1,
			RestartBackoffSec: 0.05,
			MaxRestarts:       2,
		},
	}
}

// runFingerprint flattens everything fault-relevant about a result into
// one comparable string, with floats in full-precision hex.
func runFingerprint(r *RunResult) string {
	return fmt.Sprintf("jcts=%x events=%d faults=%+v tc=%+v dropped=%d restarts=%d degraded=%d failed=%v",
		r.JCTs, r.Events, r.FaultCounts, r.TcRecovery, r.DroppedChunks,
		r.Restarts, r.DegradedWorkers, r.FailedJobs)
}

func TestRunWithFaultsRecordsRecovery(t *testing.T) {
	res, err := Run(faultyRunConfig(11))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.JCTs) != 3 || len(res.FailedJobs) != 0 {
		t.Fatalf("jobs did not all complete: %d JCTs, failed %v", len(res.JCTs), res.FailedJobs)
	}
	if res.FaultCounts.LinkFlaps == 0 || res.FaultCounts.DropWindows == 0 ||
		res.FaultCounts.TCOutages == 0 || res.FaultCounts.Crashes != 1 {
		t.Fatalf("fault schedule did not fire: %+v", res.FaultCounts)
	}
	if res.Restarts != 1 {
		t.Fatalf("crashed worker restarted %d times, want 1", res.Restarts)
	}
	if res.DroppedChunks == 0 {
		t.Fatal("drop windows lost no chunks")
	}
	if res.TcRecovery.Retries == 0 {
		t.Fatalf("tc outages triggered no retries: %+v", res.TcRecovery)
	}
	// Same-seed reproducibility across the whole fault/recovery surface
	// — the determinism regression for the quickstart-with-faults path.
	again, err := Run(faultyRunConfig(11))
	if err != nil {
		t.Fatal(err)
	}
	if a, b := runFingerprint(res), runFingerprint(again); a != b {
		t.Fatalf("same seed diverged:\n  %s\n  %s", a, b)
	}
	// A different seed must shift the jittered fault schedule.
	other, err := Run(faultyRunConfig(12))
	if err != nil {
		t.Fatal(err)
	}
	if runFingerprint(res) == runFingerprint(other) {
		t.Fatal("different seeds produced identical runs")
	}
}

func TestRunToleratesFullyFailedJob(t *testing.T) {
	rc := faultyRunConfig(3)
	// Exhaust job 1: no restart budget, crash every one of its 4 workers.
	rc.Recovery.MaxRestarts = 0
	rc.Faults.Crashes = nil
	for w := 0; w < 4; w++ {
		rc.Faults.Crashes = append(rc.Faults.Crashes,
			faults.CrashPlan{Job: 1, Worker: w, AtSec: 1})
	}
	res, err := Run(rc)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.FailedJobs) != 1 || res.FailedJobs[0] != 1 {
		t.Fatalf("failed jobs %v, want [1]", res.FailedJobs)
	}
	if len(res.JCTs) != 2 {
		t.Fatalf("survivors %d, want 2", len(res.JCTs))
	}
	if res.DegradedWorkers != 4 {
		t.Fatalf("degraded workers %d, want 4", res.DegradedWorkers)
	}
}

func TestRunRejectsInvalidFaultPlan(t *testing.T) {
	rc := faultyRunConfig(1)
	rc.Faults.HorizonSec = 0 // flapping without a horizon
	if _, err := Run(rc); err == nil {
		t.Fatal("invalid fault plan accepted")
	}
}

func TestFaultRecoveryExperiment(t *testing.T) {
	r, err := FaultRecovery(Options{Steps: 300, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 3 {
		t.Fatalf("rows %d, want 3", len(r.Rows))
	}
	for _, row := range r.Rows {
		if row.FaultedAvgJCT <= row.CleanAvgJCT {
			t.Errorf("%s: faults did not slow the run (%.1f vs %.1f)",
				row.Policy, row.FaultedAvgJCT, row.CleanAvgJCT)
		}
		if row.Faults.LinkFlaps == 0 || row.Faults.TCOutages == 0 {
			t.Errorf("%s: fault schedule did not fire: %+v", row.Policy, row.Faults)
		}
		if row.Faults.Crashes == 0 || row.Restarts == 0 {
			t.Errorf("%s: crash/restart path idle: crashes %d restarts %d",
				row.Policy, row.Faults.Crashes, row.Restarts)
		}
		if row.FailedJobs != 0 {
			t.Errorf("%s: %d jobs failed outright", row.Policy, row.FailedJobs)
		}
	}
	// FIFO installs no qdiscs, so its tc recovery must stay idle; the
	// TLs policies must exercise retry and reconcile-repair.
	if fifo := r.Rows[0]; fifo.Tc != (core.RecoveryStats{}) {
		t.Errorf("FIFO run exercised tc recovery: %+v", fifo.Tc)
	}
	for _, row := range r.Rows[1:] {
		if row.Tc.Retries == 0 {
			t.Errorf("%s: tc outages triggered no retries", row.Policy)
		}
		if row.Tc.Repairs == 0 {
			t.Errorf("%s: reconcile repaired nothing after outages", row.Policy)
		}
	}
	out := r.report().Render()
	if len(out) == 0 {
		t.Fatal("empty render")
	}
}

func TestFaultRecoveryDeterministic(t *testing.T) {
	o := Options{Steps: 200, Seed: 9, Parallelism: 3}
	a, err := FaultRecovery(o)
	if err != nil {
		t.Fatal(err)
	}
	b, err := FaultRecovery(o)
	if err != nil {
		t.Fatal(err)
	}
	if a.report().Render() != b.report().Render() {
		t.Fatalf("same seed rendered differently:\n%s\nvs\n%s", a.report().Render(), b.report().Render())
	}
	for i := range a.Rows {
		if a.Rows[i] != b.Rows[i] {
			t.Fatalf("row %d diverged: %+v vs %+v", i, a.Rows[i], b.Rows[i])
		}
	}
}
