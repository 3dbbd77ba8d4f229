package tensorlights

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"
)

const testSteps = 600

func TestRunExperimentFIFO(t *testing.T) {
	res, err := RunExperiment(ExperimentConfig{
		Policy:         FIFO,
		PlacementIndex: 8,
		Steps:          testSteps,
		Seed:           42,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.JCTs) != 21 || res.AvgJCT <= 0 {
		t.Fatalf("result %+v", res)
	}
	if res.TcReconfigurations != 0 {
		t.Fatal("FIFO must not touch tc")
	}
	if res.Events == 0 || res.SimulatedSeconds <= 0 {
		t.Fatal("bookkeeping")
	}
}

func TestRunExperimentTensorLightsWins(t *testing.T) {
	base := ExperimentConfig{PlacementIndex: 1, Steps: testSteps, Seed: 42}
	fifoCfg := base
	fifoCfg.Policy = FIFO
	fifo, err := RunExperiment(fifoCfg)
	if err != nil {
		t.Fatal(err)
	}
	oneCfg := base
	oneCfg.Policy = TLsOne
	one, err := RunExperiment(oneCfg)
	if err != nil {
		t.Fatal(err)
	}
	if one.AvgJCT >= fifo.AvgJCT {
		t.Fatalf("TLs-One (%.1f) not faster than FIFO (%.1f) under full colocation",
			one.AvgJCT, fifo.AvgJCT)
	}
	if one.BarrierWaitVariance >= fifo.BarrierWaitVariance {
		t.Fatalf("TLs-One variance %.5f not below FIFO %.5f",
			one.BarrierWaitVariance, fifo.BarrierWaitVariance)
	}
	if one.TcReconfigurations == 0 {
		t.Fatal("TLs-One never configured tc")
	}
}

func TestRunExperimentCustomPlacement(t *testing.T) {
	res, err := RunExperiment(ExperimentConfig{
		Policy:    TLsRR,
		Placement: "10, 11",
		Steps:     300,
		Seed:      1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.JCTs) != 21 {
		t.Fatal("custom placement run")
	}
}

func TestRunExperimentUtilization(t *testing.T) {
	res, err := RunExperiment(ExperimentConfig{
		Policy:             FIFO,
		PlacementIndex:     1,
		Steps:              300,
		Seed:               1,
		MeasureUtilization: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Utilization) != 21 {
		t.Fatalf("utilization hosts %d", len(res.Utilization))
	}
}

func TestRunExperimentAsync(t *testing.T) {
	res, err := RunExperiment(ExperimentConfig{
		Policy:         FIFO,
		PlacementIndex: 8,
		Steps:          300,
		Async:          true,
		Seed:           1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.AvgJCT <= 0 {
		t.Fatal("async run")
	}
}

func TestRunExperimentErrors(t *testing.T) {
	if _, err := RunExperiment(ExperimentConfig{PlacementIndex: 99, Steps: 10}); err == nil {
		t.Fatal("bad placement index accepted")
	}
	if _, err := RunExperiment(ExperimentConfig{Placement: "nope", Steps: 10}); err == nil {
		t.Fatal("bad custom placement accepted")
	}
	if _, err := RunExperiment(ExperimentConfig{Model: "gpt5", Steps: 10}); err == nil {
		t.Fatal("bad model accepted")
	}
}

func TestPolicyStrings(t *testing.T) {
	if FIFO.String() != "FIFO" || TLsOne.String() != "TLs-One" || TLsRR.String() != "TLs-RR" {
		t.Fatal("policy names")
	}
}

func TestModelsAndPlacements(t *testing.T) {
	models := Models()
	if len(models) < 5 {
		t.Fatal("models")
	}
	found := false
	for _, m := range models {
		if m == "resnet32" {
			found = true
		}
	}
	if !found {
		t.Fatal("resnet32 missing from zoo")
	}
	p := Placements()
	if !strings.Contains(p, "#1: 21") || !strings.Contains(p, "#4: 7, 7, 7") {
		t.Fatalf("placements:\n%s", p)
	}
}

func TestReproduceFunctionsSmall(t *testing.T) {
	o := ReproOptions{Steps: 400, Seed: 42}
	for _, name := range []string{"fig3", "fig6", "table2"} {
		out, err := Reproduce(name, o)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(out) < 50 {
			t.Fatalf("%s output too small:\n%s", name, out)
		}
	}
}

func TestReproduceRejectsUnknownName(t *testing.T) {
	_, err := Reproduce("nosuch", ReproOptions{Steps: 300, Seed: 42})
	if err == nil {
		t.Fatal("unknown experiment accepted")
	}
	names := Experiments()
	if len(names) != 14 {
		t.Fatalf("Experiments() = %v, want the 14-entry catalogue", names)
	}
	for _, name := range names {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q does not name experiment %q", err, name)
		}
	}
}

func TestToRunConfigMapping(t *testing.T) {
	rc, err := toRunConfig(ExperimentConfig{
		Policy:            TLsRR,
		PlacementIndex:    3,
		Model:             "alexnet",
		NumJobs:           5,
		LocalBatch:        8,
		Steps:             1000,
		Bands:             4,
		RotateIntervalSec: 7,
		Seed:              9,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rc.Placement.Index != 3 || rc.Model.Name != "alexnet" || rc.NumJobs != 5 ||
		rc.LocalBatch != 8 || rc.TargetSteps != 1000 || rc.Cluster.Seed != 9 {
		t.Fatalf("%+v", rc)
	}
	if rc.TLs.Bands != 4 || rc.TLs.IntervalSec != 7 {
		t.Fatalf("TLs config %+v", rc.TLs)
	}
	if rc.TLs.Policy != "TLs-RR" {
		t.Fatal("policy mapping")
	}
}

func TestNewPolicyFacadeMapping(t *testing.T) {
	if TLsLPF.String() != "TLs-LPF" || StaticRate.String() != "StaticRate" {
		t.Fatal("extended policy names")
	}
	res, err := RunExperiment(ExperimentConfig{
		Policy:         TLsLPF,
		PlacementIndex: 1,
		Steps:          300,
		Seed:           2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.TcReconfigurations == 0 {
		t.Fatal("LPF never reconfigured")
	}
}

func TestTraceCSVOutput(t *testing.T) {
	var buf strings.Builder
	_, err := RunExperiment(ExperimentConfig{
		PlacementIndex: 8,
		Steps:          300,
		Seed:           1,
		TraceCSV:       &buf,
	})
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.HasPrefix(out, "at,kind,job,host,worker,value,detail\n") {
		t.Fatalf("trace header missing:\n%.120s", out)
	}
	if !strings.Contains(out, "job_finish") || !strings.Contains(out, "flow_done") {
		t.Fatal("trace missing event kinds")
	}
}

func TestReproduceRemainingFigures(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run reproduction in -short mode")
	}
	o := ReproOptions{Steps: 300, Seed: 42}
	for _, name := range []string{"fig2", "fig5a", "fig5b"} {
		out, err := Reproduce(name, o)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(out) < 100 {
			t.Fatalf("%s output too small", name)
		}
	}
}

// faultyQuickstart is the quickstart config plus a full fault schedule:
// PS-host flaps with loss and tc outages riding along, and one worker
// crash that the PS must detect and restart.
func faultyQuickstart() ExperimentConfig {
	return ExperimentConfig{
		Policy:         TLsOne,
		PlacementIndex: 1,
		Steps:          300,
		Seed:           42,
		Faults: FaultConfig{
			FlapPSHosts:       true,
			FlapFirstAtSec:    1,
			FlapEverySec:      4,
			FlapDurationSec:   0.5,
			FlapJitterSec:     0.3,
			HorizonSec:        12,
			DropProb:          0.05,
			TCOutage:          true,
			Crashes:           []WorkerCrash{{Job: 0, Worker: 2, AtSec: 3}},
			DetectTimeoutSec:  0.2,
			RestartBackoffSec: 0.1,
			MaxRestarts:       2,
		},
	}
}

func TestRunExperimentWithFaults(t *testing.T) {
	clean := faultyQuickstart()
	clean.Faults = FaultConfig{}
	base, err := RunExperiment(clean)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunExperiment(faultyQuickstart())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.JCTs) != 21 || len(res.FailedJobs) != 0 {
		t.Fatalf("jobs lost: %d JCTs, failed %v", len(res.JCTs), res.FailedJobs)
	}
	if res.AvgJCT <= base.AvgJCT {
		t.Fatalf("faults did not slow the run: %.1f vs clean %.1f", res.AvgJCT, base.AvgJCT)
	}
	if res.WorkerRestarts != 1 || res.DegradedWorkers != 0 {
		t.Fatalf("crash recovery: restarts %d degraded %d", res.WorkerRestarts, res.DegradedWorkers)
	}
	if res.DroppedChunks == 0 {
		t.Fatal("drop windows lost no chunks")
	}
	if base.WorkerRestarts != 0 || base.DroppedChunks != 0 || base.TcRetries != 0 {
		t.Fatalf("clean run shows fault accounting: %+v", base)
	}
}

// TestRunExperimentRejectsCrashBeforeArrival: the grid starts job 20
// at 2 s (0.1 s stagger), so a crash of it at 0.5 s would strike a job
// that is not running. The run fails up front with an error naming the
// job, the crash time and the arrival time — what tlsim -steps 600
// -fault-crash 20:0:0.5 prints.
func TestRunExperimentRejectsCrashBeforeArrival(t *testing.T) {
	cfg := ExperimentConfig{
		PlacementIndex: 1,
		Steps:          600,
		Seed:           1,
		Faults: FaultConfig{
			Crashes:          []WorkerCrash{{Job: 20, Worker: 0, AtSec: 0.5}},
			DetectTimeoutSec: 5,
		},
	}
	_, err := RunExperiment(cfg)
	if err == nil {
		t.Fatal("crash before its job's arrival accepted")
	}
	for _, want := range []string{"job 20", "at 0.5 s", "arrives at 2 s"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %q", err, want)
		}
	}
}

// TestQuickstartWithFaultsDeterministic is the determinism regression:
// the same seeded config with fault injection enabled must produce
// byte-identical results on every run.
func TestQuickstartWithFaultsDeterministic(t *testing.T) {
	fingerprint := func(r *Result) string {
		return fmt.Sprintf("jcts=%x avg=%x bw=%x bv=%x sim=%x ev=%d tc=%d restarts=%d degraded=%d failed=%v dropped=%d retries=%d fallbacks=%d repairs=%d",
			r.JCTs, r.AvgJCT, r.BarrierWaitMean, r.BarrierWaitVariance,
			r.SimulatedSeconds, r.Events, r.TcReconfigurations,
			r.WorkerRestarts, r.DegradedWorkers, r.FailedJobs, r.DroppedChunks,
			r.TcRetries, r.TcFallbacks, r.TcRepairs)
	}
	a, err := RunExperiment(faultyQuickstart())
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunExperiment(faultyQuickstart())
	if err != nil {
		t.Fatal(err)
	}
	if fa, fb := fingerprint(a), fingerprint(b); fa != fb {
		t.Fatalf("same seed + faults diverged:\n%s\n%s", fa, fb)
	}
	other := faultyQuickstart()
	other.Seed = 43
	c, err := RunExperiment(other)
	if err != nil {
		t.Fatal(err)
	}
	if fingerprint(a) == fingerprint(c) {
		t.Fatal("different seeds produced identical faulted runs")
	}
}

func TestVersion(t *testing.T) {
	if Version == "" {
		t.Fatal("version")
	}
}

func TestRunExperimentCollectiveOnly(t *testing.T) {
	res, err := RunExperiment(ExperimentConfig{
		Policy: TLsOne,
		Steps:  90,
		Seed:   42,
		Collective: &CollectiveConfig{
			Jobs:  2,
			Ranks: 3,
			Model: "resnet32",
		},
		NumJobs: 0,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.JCTs) != 0 {
		t.Fatalf("phantom PS jobs: %d JCTs", len(res.JCTs))
	}
	if len(res.CollectiveJCTs) != 2 || res.CollectiveAvgJCT <= 0 {
		t.Fatalf("collective result %+v", res)
	}
	if res.TcReconfigurations == 0 {
		t.Fatal("TLs never configured tc for the rings")
	}
}

func TestRunExperimentMixedWorkload(t *testing.T) {
	res, err := RunExperiment(ExperimentConfig{
		Policy:    TLsRR,
		NumJobs:   2,
		Placement: "2", // both PSes colocated on host 0
		Steps:     100,
		Seed:      42,
		Collective: &CollectiveConfig{
			Jobs:       2,
			Ranks:      3,
			Model:      "resnet32",
			Iterations: 3,
			Algorithm:  "tree",
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.JCTs) != 2 || len(res.CollectiveJCTs) != 2 {
		t.Fatalf("mixed run: %d PS, %d collective JCTs",
			len(res.JCTs), len(res.CollectiveJCTs))
	}
}

func TestRunExperimentCollectivePeerCrash(t *testing.T) {
	res, err := RunExperiment(ExperimentConfig{
		Steps: 90,
		Seed:  42,
		Collective: &CollectiveConfig{
			Jobs:  1,
			Ranks: 3,
			Model: "resnet32",
		},
		NumJobs: 0,
		Faults: FaultConfig{
			// Collective job IDs start at 1000 (see cluster.CollectiveIDBase).
			PeerCrashes:       []WorkerCrash{{Job: 1000, Worker: 1, AtSec: 0.3}},
			DetectTimeoutSec:  1,
			RestartBackoffSec: 0.5,
			MaxRestarts:       2,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.RingStalls == 0 || res.WorkerRestarts == 0 {
		t.Fatalf("peer crash not recovered: stalls %d restarts %d",
			res.RingStalls, res.WorkerRestarts)
	}
	if len(res.CollectiveJCTs) != 1 {
		t.Fatalf("job lost: failed %v", res.FailedJobs)
	}
}

func TestRunExperimentCollectiveErrors(t *testing.T) {
	base := func() ExperimentConfig {
		return ExperimentConfig{Steps: 30, NumJobs: 0,
			Collective: &CollectiveConfig{Jobs: 1, Ranks: 3, Model: "resnet32"}}
	}
	bad := base()
	bad.Collective.Algorithm = "butterfly"
	if _, err := RunExperiment(bad); err == nil {
		t.Fatal("bad algorithm accepted")
	}
	bad = base()
	bad.Collective.Model = "gpt5"
	if _, err := RunExperiment(bad); err == nil {
		t.Fatal("bad collective model accepted")
	}
	bad = base()
	bad.Collective.Ranks = 22
	if _, err := RunExperiment(bad); err == nil {
		t.Fatal("ring larger than the testbed accepted")
	}
}

func TestReproduceCollectiveSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run reproduction in -short mode")
	}
	out, err := Reproduce("collective", ReproOptions{Steps: 300, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"allreduce", "mixed", "TLs-RR", "FIFO"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
}

func TestRunExperimentScheduler(t *testing.T) {
	res, err := RunExperiment(ExperimentConfig{
		Policy: TLsRR,
		Steps:  300,
		Seed:   42,
		Scheduler: &SchedulerConfig{
			Placement:        "phase-aware",
			Oversubscription: 2,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.JCTs) != 9 || res.AvgJCT <= 0 {
		t.Fatalf("result %+v", res)
	}
	if res.Events == 0 || res.SimulatedSeconds <= 0 {
		t.Fatal("bookkeeping")
	}
	// Trace export includes the scheduler's placement decisions.
	var buf strings.Builder
	_, err = RunExperiment(ExperimentConfig{
		Policy: FIFO, Steps: 300, Seed: 42,
		Scheduler: &SchedulerConfig{Placement: "contention-aware"},
		TraceCSV:  &buf,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "sched_place") {
		t.Fatal("trace CSV missing sched_place events")
	}
	// Unknown placement policy fails early.
	if _, err := RunExperiment(ExperimentConfig{
		Steps: 300, Scheduler: &SchedulerConfig{Placement: "bogus"},
	}); err == nil {
		t.Fatal("bogus placement should fail")
	}
}

// TestRunExperimentPartialTrace pins the trace contract of every run
// mode: a cancelled run still dumps what it traced, marked as partial,
// and a completed run writes no such marker.
func TestRunExperimentPartialTrace(t *testing.T) {
	const marker = "# partial trace"
	modes := []struct {
		name string
		cfg  ExperimentConfig
	}{
		{"grid", ExperimentConfig{Placement: "3", NumJobs: 3}},
		{"scheduler", ExperimentConfig{Scheduler: &SchedulerConfig{Jobs: 2}}},
		{"openworld", ExperimentConfig{OpenWorld: &OpenWorldConfig{Jobs: 2}}},
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, m := range modes {
		t.Run(m.name, func(t *testing.T) {
			cfg := m.cfg
			cfg.Steps, cfg.Seed = 60, 1

			var partial strings.Builder
			cfg.TraceCSV = &partial
			if _, err := RunExperimentContext(cancelled, cfg); !errors.Is(err, context.Canceled) {
				t.Fatalf("pre-cancelled run: got %v, want context.Canceled", err)
			}
			if !strings.HasPrefix(partial.String(), marker) {
				t.Fatalf("cancelled trace does not begin with %q:\n%.200s", marker, partial.String())
			}

			var full strings.Builder
			cfg.TraceCSV = &full
			if _, err := RunExperimentContext(context.Background(), cfg); err != nil {
				t.Fatal(err)
			}
			if strings.Contains(full.String(), marker) || !strings.Contains(full.String(), "job_finish") {
				t.Fatalf("completed trace is marked partial or lacks job_finish:\n%.200s", full.String())
			}
		})
	}
}

func TestReproduceSchedulerSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the 36-trial scheduler grid")
	}
	out, err := Reproduce("scheduler", ReproOptions{Steps: 300, Seed: 42, Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"contention-aware", "phase-aware", "spread", "naive spread avg JCT"} {
		if !strings.Contains(out, want) {
			t.Fatalf("scheduler output missing %q:\n%s", want, out)
		}
	}
}

func TestRunExperimentRejectsUnknownPolicy(t *testing.T) {
	for _, pol := range []Policy{42, -1} {
		if _, err := RunExperiment(ExperimentConfig{Policy: pol, Steps: 100}); err == nil {
			t.Errorf("Policy(%d) ran instead of failing", int(pol))
		}
	}
}

func TestExperimentConfigValidate(t *testing.T) {
	cases := []struct {
		want string // a substring of the error
		cfg  ExperimentConfig
	}{
		{"NumJobs = ", ExperimentConfig{NumJobs: -3}},
		{"LocalBatch = ", ExperimentConfig{LocalBatch: -1}},
		{"Steps = ", ExperimentConfig{Steps: -5}},
		{"Bands = ", ExperimentConfig{Bands: -1}},
		{"RotateIntervalSec = ", ExperimentConfig{RotateIntervalSec: -1}},
		{"RotateIntervalSec = ", ExperimentConfig{RotateIntervalSec: math.NaN()}},
		{"FeedbackIntervalSec = ", ExperimentConfig{FeedbackIntervalSec: math.Inf(1)}},
		{"Collective.Jobs = ", ExperimentConfig{Collective: &CollectiveConfig{Jobs: -2}}},
		{"Collective.Ranks = ", ExperimentConfig{Collective: &CollectiveConfig{Ranks: -1}}},
		{"Collective.LocalBatch = ", ExperimentConfig{Collective: &CollectiveConfig{LocalBatch: -1}}},
		{"Collective.Iterations = ", ExperimentConfig{Collective: &CollectiveConfig{Iterations: -1}}},
		{"Scheduler.Jobs = ", ExperimentConfig{Scheduler: &SchedulerConfig{Jobs: -1}}},
		{"Scheduler.ArrivalRatePerSec = ", ExperimentConfig{Scheduler: &SchedulerConfig{ArrivalRatePerSec: -0.5}}},
		{"OpenWorld.Jobs = ", ExperimentConfig{OpenWorld: &OpenWorldConfig{Jobs: -1}}},
		{"OpenWorld.ArrivalRatePerSec = ", ExperimentConfig{OpenWorld: &OpenWorldConfig{ArrivalRatePerSec: math.NaN()}}},
		{"unknown fabric mode", ExperimentConfig{FabricMode: "bogus"}},
		{"incompatible with Scheduler", ExperimentConfig{Scheduler: &SchedulerConfig{}, OpenWorld: &OpenWorldConfig{}}},
		{"Faults are not supported", ExperimentConfig{Scheduler: &SchedulerConfig{}, Faults: FaultConfig{FlapPSHosts: true}}},
		{"Faults are not supported", ExperimentConfig{OpenWorld: &OpenWorldConfig{}, Faults: FaultConfig{TCOutage: true}}},
		{"Faults are not supported", ExperimentConfig{OpenWorld: &OpenWorldConfig{}, Faults: FaultConfig{Crashes: []WorkerCrash{{AtSec: 1}}}}},
		{"MeasureUtilization is not supported", ExperimentConfig{OpenWorld: &OpenWorldConfig{}, MeasureUtilization: true}},
		{"Async is not supported", ExperimentConfig{Scheduler: &SchedulerConfig{}, Async: true}},
	}
	for _, c := range cases {
		err := c.cfg.Validate()
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: Validate() = %v, want an error containing it", c.want, err)
		}
		if _, runErr := RunExperiment(c.cfg); runErr == nil || runErr.Error() != err.Error() {
			t.Errorf("%s: RunExperiment err = %v, want %v", c.want, runErr, err)
		}
	}
	// Zero values mean defaults, and a grid run takes faults,
	// utilization sampling and async training.
	for _, ok := range []ExperimentConfig{
		{Collective: &CollectiveConfig{}, Scheduler: &SchedulerConfig{}},
		{Collective: &CollectiveConfig{}, OpenWorld: &OpenWorldConfig{}},
		{FabricMode: "flow", Faults: FaultConfig{TCOutage: true}, MeasureUtilization: true, Async: true},
	} {
		if err := ok.Validate(); err != nil {
			t.Fatalf("valid config rejected: %v", err)
		}
	}
}
