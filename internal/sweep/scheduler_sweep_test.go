package sweep

import (
	"bytes"
	"context"
	"reflect"
	"testing"

	"repro/internal/scheduler"
	"repro/internal/trace"
)

func TestSchedulerTrialDeterministic(t *testing.T) {
	run := func() *OpenWorldTrialResult {
		r, err := SchedulerTrial(context.Background(), SchedulerTrialConfig{
			Steps: 300, Seed: 42, Oversub: 2,
			Placement: scheduler.PolicyPhaseAware, PolicyName: "TLs-RR",
		})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("scheduler trial not deterministic:\n%+v\nvs\n%+v", a, b)
	}
	if len(a.JCTs) != 9 {
		t.Fatalf("expected 9 JCTs, got %d", len(a.JCTs))
	}
	for i, j := range a.JCTs {
		if j <= 0 {
			t.Fatalf("job %d has non-positive JCT %g", i, j)
		}
	}
}

func TestSchedulerTrialCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := SchedulerTrial(ctx, SchedulerTrialConfig{Steps: 300, Seed: 1}); err == nil {
		t.Fatal("expected cancellation error")
	}
}

func TestSchedulerTrialEmitsPlacementTrace(t *testing.T) {
	buf := &trace.Buffer{}
	_, err := SchedulerTrial(context.Background(), SchedulerTrialConfig{
		Steps: 300, Seed: 42, Oversub: 2,
		Placement: scheduler.PolicyPhaseAware, PolicyName: "FIFO",
		Tracer: buf,
	})
	if err != nil {
		t.Fatal(err)
	}
	places := buf.Filter(func(e trace.Event) bool { return e.Kind == trace.KindSchedPlace })
	if len(places) != 9 {
		t.Fatalf("want 9 sched_place events, got %d", len(places))
	}
}

// TestSchedulerSweepAcceptance pins the PR's headline contract: at
// >= 2:1 oversubscription, contention-aware or phase-aware placement
// beats naive spread on BOTH average and p95 JCT for at least one
// end-host policy.
func TestSchedulerSweepAcceptance(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full 36-trial grid")
	}
	r, err := SchedulerSweep(Options{Steps: 300, Seed: 42, Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	if want := len(SchedulerOversubs) * len(SchedulerPlacements) * len(schedulerPolicyNames); len(r.Rows) != want {
		t.Fatalf("want %d rows, got %d", want, len(r.Rows))
	}
	for _, ov := range SchedulerOversubs {
		won := false
		for _, pol := range schedulerPolicyNames {
			spread, ok := r.Row(ov, string(scheduler.PolicySpread), pol)
			if !ok {
				t.Fatalf("missing spread row at oversub %g policy %s", ov, pol)
			}
			for _, smart := range []scheduler.Policy{scheduler.PolicyContentionAware, scheduler.PolicyPhaseAware} {
				row, ok := r.Row(ov, string(smart), pol)
				if !ok {
					t.Fatalf("missing %s row at oversub %g policy %s", smart, ov, pol)
				}
				if row.AvgJCT < spread.AvgJCT && row.P95JCT < spread.P95JCT {
					won = true
				}
			}
		}
		if !won {
			t.Errorf("at oversub %g:1 neither contention-aware nor phase-aware beat spread on avg+p95 for any end-host policy", ov)
		}
	}
	// The gap should be substantial at 4:1, not a rounding artifact.
	if gap := r.PlacementGap(4, scheduler.PolicyContentionAware); gap < 1.1 {
		t.Errorf("placement gap at 4:1 = %.3f, want >= 1.1", gap)
	}
	// Phase-aware actually shifts someone somewhere in the grid.
	shifted := 0
	for _, row := range r.Rows {
		if row.Placement == string(scheduler.PolicyPhaseAware) {
			shifted += row.ShiftedJobs
		}
	}
	if shifted == 0 {
		t.Error("phase-aware placement never shifted a job across the grid")
	}
	var buf bytes.Buffer
	if err := r.report().WriteCSV(&buf); err != nil || buf.Len() == 0 {
		t.Fatalf("WriteCSV: %v (%d bytes)", err, buf.Len())
	}
	if r.report().Render() == "" {
		t.Fatal("Render returned empty output")
	}
}
