package sweep

import (
	"context"
	"math"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/collective"
	"repro/internal/core"
	"repro/internal/dl"
	"repro/internal/faults"
	"repro/internal/policy"
	"repro/internal/workload"
)

// TestRunContextMatchesLaunchComposition runs one small Table I cell
// (TLs-RR rotating every second, chunk fabric) through RunContext and
// through the hand composition of Testbed.Launch and
// RunMixedToCompletionCtx that benchmark/'s traced driver uses. The
// runner must reproduce the reference bit for bit: every JCT, the
// event count, the simulated time and the reconfigurations.
func TestRunContextMatchesLaunchComposition(t *testing.T) {
	p1, err := cluster.PlacementByIndex(1)
	if err != nil {
		t.Fatal(err)
	}
	rc := RunConfig{
		Label:       "reference",
		Cluster:     cluster.Config{Seed: 3},
		Model:       dl.ResNet32,
		NumJobs:     21,
		LocalBatch:  4,
		TargetSteps: 150,
		Placement:   p1,
		TLs:         core.Config{Policy: core.PolicyRR, IntervalSec: 1},
		StaggerSec:  0.1,
	}
	got, err := RunContext(context.Background(), rc)
	if err != nil {
		t.Fatal(err)
	}

	tb := cluster.NewTestbed(rc.Cluster)
	specs, err := cluster.GridSearchSpecs(rc.Cluster, rc.Model, rc.NumJobs, rc.LocalBatch, rc.TargetSteps, rc.Placement)
	if err != nil {
		t.Fatal(err)
	}
	ctl := core.New(tb.K, tb.TC, tb.RNG, rc.TLs)
	depart := func(j *dl.Job) { ctl.JobDeparted(j.Spec.ID) }
	jobs, err := tb.Launch(specs, rc.StaggerSec, func(j *dl.Job) {
		ctl.JobArrived(core.JobInfo{
			ID:          j.Spec.ID,
			PSHost:      j.Spec.PSHost,
			PSPort:      j.Spec.PSPort,
			UpdateBytes: j.Spec.Model.UpdateBytes(),
			TargetSteps: (j.Spec.TargetGlobalSteps + j.Spec.NumWorkers - 1) / j.Spec.NumWorkers,
		})
		j.OnFinish = depart
		j.OnFail = depart
		j.OnBarrier = func(j *dl.Job, iter int) { ctl.JobProgress(j.Spec.ID, iter) }
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.RunMixedToCompletionCtx(context.Background(), jobs, nil, 0); err != nil {
		t.Fatal(err)
	}

	if len(got.JCTs) != len(jobs) {
		t.Fatalf("runner reports %d JCTs, reference %d jobs", len(got.JCTs), len(jobs))
	}
	for i, j := range jobs {
		if math.Float64bits(got.JCTs[i]) != math.Float64bits(j.JCT()) {
			t.Errorf("job %d: runner JCT %v, reference %v", i, got.JCTs[i], j.JCT())
		}
	}
	if got.Events != tb.K.Fired() || got.SimTime != tb.K.Now() || got.Reconfigs != ctl.Reconfigs() {
		t.Fatalf("runner: %d events, sim time %v, %d reconfigs; reference: %d, %v, %d",
			got.Events, got.SimTime, got.Reconfigs, tb.K.Fired(), tb.K.Now(), ctl.Reconfigs())
	}
	if got.Reconfigs == 0 {
		t.Fatal("TLs-RR never reconfigured: the cell does not exercise the controller")
	}
}

// TestRunContextRejectsCrashBeforeArrival: the grid staggers job i to
// i·StaggerSec, so a crash of job 20 at 0.5 s would strike a job that
// starts at 2 s. The run is rejected before it starts, naming the job,
// the crash time and the arrival time; the same holds for a ring peer.
// A crash after its job's arrival still runs.
func TestRunContextRejectsCrashBeforeArrival(t *testing.T) {
	p1, err := cluster.PlacementByIndex(1)
	if err != nil {
		t.Fatal(err)
	}
	rc := RunConfig{
		Cluster:     cluster.Config{Seed: 1},
		NumJobs:     21,
		TargetSteps: 60,
		Placement:   p1,
		Recovery:    dl.RecoveryConfig{DetectTimeoutSec: 0.2, RestartBackoffSec: 0.1, MaxRestarts: 2},
	}
	rc.Faults = faults.Plan{Crashes: []faults.CrashPlan{{Job: 20, Worker: 0, AtSec: 0.5}}}
	_, err = RunContext(context.Background(), rc)
	if err == nil {
		t.Fatal("crash before its job's arrival accepted")
	}
	for _, want := range []string{"job 20", "at 0.5 s", "arrives at 2 s"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %q", err, want)
		}
	}

	rings := cluster.CollectiveSpecs(dl.ResNet32, [][]int{{0, 1, 2}, {3, 4, 5}}, collective.Ring, 4, 2)
	peer := RunConfig{Cluster: cluster.Config{Seed: 1}, CollectiveSpecs: rings, StaggerSec: 0.1}
	peer.Faults = faults.Plan{PeerCrashes: []faults.CrashPlan{{Job: rings[1].ID, Worker: 0, AtSec: 0.05}}}
	if _, err := RunContext(context.Background(), peer); err == nil ||
		!strings.Contains(err.Error(), "arrives at 0.1 s") {
		t.Fatalf("peer crash before its ring's arrival: got %v", err)
	}

	rc.Faults.Crashes[0].AtSec = 2.5
	res, err := RunContext(context.Background(), rc)
	if err != nil {
		t.Fatal(err)
	}
	if res.FaultCounts.Crashes != 1 || res.Restarts != 1 {
		t.Fatalf("crash after arrival: %d crashes, %d restarts, want 1 and 1",
			res.FaultCounts.Crashes, res.Restarts)
	}
}

// TestChurnFeedbackPoliciesGetCollector: churn runs through the
// scenario runner, so a feedback-driven policy gets a telemetry
// collector, whose sampling adds kernel events on top of the same run
// under TLs-One.
func TestChurnFeedbackPoliciesGetCollector(t *testing.T) {
	run := func(pol string) *ChurnResult {
		res, err := Churn(ChurnOptions{
			Jobs: 8, ArrivalRatePerSec: 2, Steps: 400, Seed: 7, Policy: pol,
			Order: policy.OrderSmallestUpdate, SchedPolicy: workload.PolicyBinpack,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	one, las := run(core.PolicyOne), run("TLs-LAS")
	if las.Events <= one.Events {
		t.Fatalf("TLs-LAS churn fired %d events, TLs-One %d: no collector sampled", las.Events, one.Events)
	}
}
