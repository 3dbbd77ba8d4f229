package server

import (
	"context"
	"testing"

	tensorlights "repro"
)

// sizedCfg builds configs whose expected work differs by orders of
// magnitude, so SRSF ordering is unambiguous.
func sizedCfg(seed int64, steps, jobs int) tensorlights.ExperimentConfig {
	return tensorlights.ExperimentConfig{
		Policy:  tensorlights.TLsRR,
		NumJobs: jobs,
		Steps:   steps,
		Seed:    seed,
	}
}

// runOrderTest submits a blocker plus a large and a small job against a
// single worker and returns the order the runner saw them start in,
// identified by seed.
func runOrderTest(t *testing.T, policy string) []int64 {
	t.Helper()
	cfg := testConfig(t)
	cfg.Workers = 1
	cfg.QueuePolicy = policy
	gate := make(chan struct{})
	started := make(chan int64, 8)
	cfg.Runner = func(ctx context.Context, c tensorlights.ExperimentConfig) (*tensorlights.Result, error) {
		started <- c.Seed
		if c.Seed == 1 { // the blocker holds the only worker
			<-gate
		}
		return &tensorlights.Result{}, nil
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	defer s.Kill()

	blocker, err := s.Submit(sizedCfg(1, 60, 2), 0, "c")
	if err != nil {
		t.Fatal(err)
	}
	<-started // worker is now wedged on the blocker
	big, err := s.Submit(sizedCfg(2, 30000, 21), 0, "c")
	if err != nil {
		t.Fatal(err)
	}
	small, err := s.Submit(sizedCfg(3, 60, 2), 0, "c")
	if err != nil {
		t.Fatal(err)
	}
	close(gate)
	for _, id := range []string{blocker.ID, big.ID, small.ID} {
		if st := waitTerminal(t, s, id); st.State != JobDone {
			t.Fatalf("job %s settled as %+v", id, st)
		}
	}
	order := []int64{1}
	for len(order) < 3 {
		order = append(order, <-started)
	}
	return order
}

func TestQueuePolicySRSFRunsSmallestFirst(t *testing.T) {
	order := runOrderTest(t, QueueSRSF)
	if order[1] != 3 || order[2] != 2 {
		t.Fatalf("srsf order = %v, want small (seed 3) before big (seed 2)", order)
	}
}

func TestQueuePolicyFIFOKeepsSubmissionOrder(t *testing.T) {
	order := runOrderTest(t, QueueFIFO)
	if order[1] != 2 || order[2] != 3 {
		t.Fatalf("fifo order = %v, want submission order", order)
	}
}

func TestQueuePolicyValidated(t *testing.T) {
	cfg := testConfig(t)
	cfg.QueuePolicy = "shortest-job-next"
	if _, err := New(cfg); err == nil {
		t.Fatal("unknown queue policy should be rejected at startup")
	}
}

func TestExpectedWorkBytesOrdersConfigs(t *testing.T) {
	small := expectedWorkBytes(sizedCfg(1, 60, 2))
	if small <= 0 {
		t.Fatalf("small config estimated at %g bytes", small)
	}
	if big := expectedWorkBytes(sizedCfg(1, 30000, 2)); big <= small {
		t.Fatalf("more steps should mean more work: %g <= %g", big, small)
	}
	if wide := expectedWorkBytes(sizedCfg(1, 60, 21)); wide <= small {
		t.Fatalf("more jobs should mean more work: %g <= %g", wide, small)
	}
	heavy := sizedCfg(1, 60, 2)
	heavy.Model = "vgg16"
	if h := expectedWorkBytes(heavy); h <= small {
		t.Fatalf("a bigger model should mean more work: %g <= %g", h, small)
	}

	coll := tensorlights.ExperimentConfig{
		Steps:      60,
		Collective: &tensorlights.CollectiveConfig{Jobs: 3, Ranks: 4},
	}
	if c := expectedWorkBytes(coll); c <= 0 {
		t.Fatalf("collective-only config estimated at %g bytes", c)
	}
	sched := tensorlights.ExperimentConfig{
		Steps:     60,
		Scheduler: &tensorlights.SchedulerConfig{Placement: "contention-aware"},
	}
	if sc := expectedWorkBytes(sched); sc <= 0 {
		t.Fatalf("scheduler config estimated at %g bytes", sc)
	}
	openWorld := func(jobs int) float64 {
		return expectedWorkBytes(tensorlights.ExperimentConfig{
			Steps:     60,
			OpenWorld: &tensorlights.OpenWorldConfig{Jobs: jobs},
		})
	}
	if few, many := openWorld(2), openWorld(20); few >= many {
		t.Fatalf("more open-world arrivals should mean more work: %g >= %g", few, many)
	}
}
