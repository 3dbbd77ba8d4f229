package cluster

import (
	"context"
	"errors"
	"strings"
	"testing"

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
