package cluster

import (
	"context"
	"errors"
	"strings"
	"testing"

	"repro/internal/collective"
	"repro/internal/dl"
)

func TestRingPlacement(t *testing.T) {
	// stride 0: all rings aligned on the same hosts.
	rings, err := RingPlacement(3, 4, 8, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range rings {
		want := []int{0, 1, 2, 3}
		for k := range want {
			if r[k] != want[k] {
				t.Fatalf("ring %d = %v", i, r)
			}
		}
	}
	// stride 1: rings stagger and wrap.
	rings, err = RingPlacement(3, 4, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if r := rings[2]; r[0] != 2 || r[3] != 1 {
		t.Fatalf("staggered ring %v", r)
	}
	for _, bad := range [][4]int{
		{0, 4, 8, 0},  // no jobs
		{1, 1, 8, 0},  // one-rank ring
		{1, 9, 8, 0},  // ring larger than cluster
		{1, 4, 8, -1}, // negative stride
	} {
		if _, err := RingPlacement(bad[0], bad[1], bad[2], bad[3]); err == nil {
			t.Fatalf("RingPlacement(%v) accepted", bad)
		}
	}
}

func TestCollectiveSpecsAndLaunch(t *testing.T) {
	tb := NewTestbed(Config{Hosts: 4, Seed: 1})
	rings, err := RingPlacement(2, 3, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	specs := CollectiveSpecs(dl.ResNet32, rings, collective.Ring, 4, 2)
	if specs[0].ID != CollectiveIDBase || specs[1].ID != CollectiveIDBase+1 {
		t.Fatalf("ids %d %d", specs[0].ID, specs[1].ID)
	}
	if specs[0].Port == specs[1].Port {
		t.Fatal("jobs share a collective port")
	}
	var started []int
	jobs, err := tb.LaunchCollective(specs, 0.1, func(j *collective.Job) {
		started = append(started, j.Spec.ID)
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.RunMixedToCompletionCtx(context.Background(), nil, jobs, 0); err != nil {
		t.Fatal(err)
	}
	if len(started) != 2 {
		t.Fatalf("onStart fired %d times", len(started))
	}
	for _, j := range jobs {
		if !j.Done() {
			t.Fatalf("job %d unfinished", j.Spec.ID)
		}
	}
	// Stagger: job 1 started 0.1s after job 0.
	if jobs[1].StartedAt-jobs[0].StartedAt != 0.1 {
		t.Fatalf("stagger %g", jobs[1].StartedAt-jobs[0].StartedAt)
	}
}

func TestLaunchCollectiveRejectsBadSpec(t *testing.T) {
	tb := NewTestbed(Config{Hosts: 4, Seed: 1})
	specs := CollectiveSpecs(dl.ResNet32, [][]int{{0}}, collective.Ring, 4, 2)
	if _, err := tb.LaunchCollective(specs, 0, nil); err == nil {
		t.Fatal("one-rank ring accepted")
	}
}

func TestMixedClusterCompletes(t *testing.T) {
	tb := NewTestbed(Config{Hosts: 4, Seed: 1})
	p := Placement{Groups: []int{2}}
	psSpecs, err := GridSearchSpecs(tb.Cfg, dl.ResNet32, 2, 4, 30, p)
	if err != nil {
		t.Fatal(err)
	}
	rings, _ := RingPlacement(1, 3, 4, 1)
	// Shift the ring off host 0 (the PS host) so worker/PS placement
	// constraints don't matter; here we only care that both workloads
	// drive to completion on one kernel.
	for k := range rings[0] {
		rings[0][k]++
	}
	cSpecs := CollectiveSpecs(dl.ResNet32, rings, collective.Ring, 4, 5)
	psJobs, err := tb.Launch(psSpecs, 0.1, nil)
	if err != nil {
		t.Fatal(err)
	}
	cJobs, err := tb.LaunchCollective(cSpecs, 0.1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.RunMixedToCompletionCtx(context.Background(), psJobs, cJobs, 0); err != nil {
		t.Fatal(err)
	}
	for _, j := range psJobs {
		if !j.Done() {
			t.Fatalf("PS job %d unfinished", j.Spec.ID)
		}
	}
	if !cJobs[0].Done() {
		t.Fatal("collective job unfinished")
	}
}

// TestRunMixedToCompletionEventBudget pins that running out of events
// is an error naming the budget, the events fired and the unfinished
// jobs, not a panic inside the kernel.
func TestRunMixedToCompletionEventBudget(t *testing.T) {
	tb := NewTestbed(Config{Hosts: 4, Seed: 1})
	specs, err := GridSearchSpecs(tb.Cfg, dl.ResNet32, 2, 4, 30, Placement{Groups: []int{2}})
	if err != nil {
		t.Fatal(err)
	}
	jobs, err := tb.Launch(specs, 0.1, nil)
	if err != nil {
		t.Fatal(err)
	}
	err = tb.RunMixedToCompletionCtx(context.Background(), jobs, nil, 10)
	if !errors.Is(err, ErrEventBudget) {
		t.Fatalf("want the event-budget error, got %v", err)
	}
	if got := tb.K.Fired(); got != 10 {
		t.Fatalf("fired %d events, want exactly the budget of 10", got)
	}
	for _, want := range []string{"budget 10", "10 events fired", "2 of 2 jobs unfinished"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %q", err, want)
		}
	}
}
