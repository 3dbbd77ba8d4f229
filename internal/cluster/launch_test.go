package cluster_test

import (
	"context"
	"testing"

	"repro/internal/cluster"
	"repro/internal/collective"
	"repro/internal/core"
	"repro/internal/dl"
	"repro/internal/sweep"
	"repro/internal/trace"
)

// Collective jobs launch only through the sweep package's scenario
// runner, so these tests drive cluster's collective specs through
// sweep.RunContext.

// jobStarts returns the trace's job_start times, in order.
func jobStarts(buf *trace.Buffer) []float64 {
	var at []float64
	for _, e := range buf.Filter(func(e trace.Event) bool { return e.Kind == trace.KindJobStart }) {
		at = append(at, e.At)
	}
	return at
}

func TestCollectiveSpecsAndLaunch(t *testing.T) {
	rings, err := cluster.RingPlacement(2, 3, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	specs := cluster.CollectiveSpecs(dl.ResNet32, rings, collective.Ring, 4, 2)
	if specs[0].ID != cluster.CollectiveIDBase || specs[1].ID != cluster.CollectiveIDBase+1 {
		t.Fatalf("ids %d %d", specs[0].ID, specs[1].ID)
	}
	if specs[0].Port == specs[1].Port {
		t.Fatal("jobs share a collective port")
	}
	buf := &trace.Buffer{}
	res, err := sweep.RunContext(context.Background(), sweep.RunConfig{
		Cluster:         cluster.Config{Hosts: 4, Seed: 1},
		CollectiveSpecs: specs,
		StaggerSec:      0.1,
		TLs:             core.Config{Policy: core.PolicyOne},
		Tracer:          buf,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.CollectiveJCTs) != 2 || len(res.FailedJobs) != 0 {
		t.Fatalf("collective JCTs %v, failed %v", res.CollectiveJCTs, res.FailedJobs)
	}
	// The rings share hosts 1 and 2, so TensorLights reconfigures only
	// if both arrivals reached the controller.
	if res.Reconfigs == 0 {
		t.Fatal("the controller saw no contending arrivals")
	}
	// Stagger: job 1 started 0.1 s after job 0.
	if at := jobStarts(buf); len(at) != 2 || at[0] != 0 || at[1] != 0.1 {
		t.Fatalf("job starts at %v, want [0 0.1]", at)
	}
}

// TestLaunchCollectiveRejectsBadSpec: a bad collective spec fails the
// run before any event fires, even behind a good one.
func TestLaunchCollectiveRejectsBadSpec(t *testing.T) {
	specs := cluster.CollectiveSpecs(dl.ResNet32, [][]int{{0, 1}, {0}}, collective.Ring, 4, 2)
	buf := &trace.Buffer{}
	_, err := sweep.RunContext(context.Background(), sweep.RunConfig{
		Cluster:         cluster.Config{Hosts: 4, Seed: 1},
		CollectiveSpecs: specs,
		Tracer:          buf,
	})
	if err == nil {
		t.Fatal("one-rank ring accepted")
	}
	if n := len(buf.Events()); n != 0 {
		t.Fatalf("%d trace events fired before the bad spec was rejected", n)
	}
}

func TestMixedClusterCompletes(t *testing.T) {
	cfg := cluster.Config{Hosts: 4, Seed: 1}
	psSpecs, err := cluster.GridSearchSpecs(cfg, dl.ResNet32, 2, 4, 30, cluster.Placement{Groups: []int{2}})
	if err != nil {
		t.Fatal(err)
	}
	// The ring runs on hosts 1-3, off the PS host; here we only care
	// that both workloads drive to completion on one kernel.
	cSpecs := cluster.CollectiveSpecs(dl.ResNet32, [][]int{{1, 2, 3}}, collective.Ring, 4, 5)
	res, err := sweep.RunContext(context.Background(), sweep.RunConfig{
		Cluster:         cfg,
		PSSpecs:         psSpecs,
		CollectiveSpecs: cSpecs,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.JCTs) != 2 || len(res.CollectiveJCTs) != 1 || len(res.FailedJobs) != 0 {
		t.Fatalf("PS JCTs %v, collective JCTs %v, failed %v", res.JCTs, res.CollectiveJCTs, res.FailedJobs)
	}
}
