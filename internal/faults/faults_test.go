package faults

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dl"
	"repro/internal/simnet"
	"repro/internal/trace"
)

func testbed(seed int64) *cluster.Testbed {
	return cluster.NewTestbed(cluster.Config{Hosts: 4, Seed: seed})
}

// jobSpec places a 3-worker ResNet32 job with PS on host 0 and crash
// recovery enabled.
func jobSpec(id, steps int) dl.JobSpec {
	return dl.JobSpec{
		ID: id, Name: fmt.Sprintf("j%d", id), Model: dl.ResNet32,
		NumWorkers: 3, LocalBatch: 4, TargetGlobalSteps: steps,
		PSHost: 0, PSPort: 5000 + id, WorkerHosts: []int{1, 2, 3},
		Recovery: dl.RecoveryConfig{
			DetectTimeoutSec:  0.05,
			RestartBackoffSec: 0.02,
			MaxRestarts:       3,
		},
	}
}

// launch starts the specs and, when ctl is non-nil, wires arrivals and
// departures the way internal/sweep does.
func launch(t *testing.T, tb *cluster.Testbed, specs []dl.JobSpec, ctl *core.Controller) []*dl.Job {
	t.Helper()
	jobs, err := tb.Launch(specs, 0.01, func(j *dl.Job) {
		if ctl != nil {
			ctl.JobArrived(core.JobInfo{
				ID: j.Spec.ID, PSHost: j.Spec.PSHost, PSPort: j.Spec.PSPort,
				UpdateBytes: j.Spec.Model.UpdateBytes(),
			})
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range jobs {
		j := j
		if ctl != nil {
			j.OnFinish = func(*dl.Job) { ctl.JobDeparted(j.Spec.ID) }
			j.OnFail = func(*dl.Job) { ctl.JobDeparted(j.Spec.ID) }
		}
	}
	return jobs
}

// soloJCT measures the fault-free JCT of one job so fault windows below
// can be placed mid-run.
func soloJCT(t *testing.T, steps int) float64 {
	t.Helper()
	tb := testbed(7)
	jobs := launch(t, tb, []dl.JobSpec{jobSpec(0, steps)}, nil)
	tb.RunToCompletion(jobs, 0)
	if !jobs[0].Done() {
		t.Fatal("reference job did not finish")
	}
	return jobs[0].JCT()
}

func TestLinkFlapDelaysButCompletes(t *testing.T) {
	ref := soloJCT(t, 10)
	tb := testbed(7)
	jobs := launch(t, tb, []dl.JobSpec{jobSpec(0, 10)}, nil)
	inj := New(tb.K, tb.RNG, tb.Fabric, nil)
	buf := &trace.Buffer{}
	inj.Tracer = buf
	// Take the PS host's NIC down mid-run for a quarter of the run.
	inj.LinkFlap(0, 0.3*ref, 0.25*ref)
	tb.RunToCompletion(jobs, 0)
	if !jobs[0].Done() {
		t.Fatal("job did not survive the link flap")
	}
	if jobs[0].JCT() <= ref {
		t.Fatalf("flap did not delay the job: JCT %.3f <= fault-free %.3f", jobs[0].JCT(), ref)
	}
	if tb.Fabric.Host(0).NICDown() {
		t.Fatal("NIC still down after the flap window")
	}
	var down, up int
	for _, e := range buf.Events() {
		switch e.Kind {
		case trace.KindLinkDown:
			down++
		case trace.KindLinkUp:
			up++
		}
	}
	if down != 1 || up != 1 {
		t.Fatalf("trace has %d link_down / %d link_up events, want 1/1", down, up)
	}
	if inj.Counts().LinkFlaps != 1 {
		t.Fatalf("counts %+v", inj.Counts())
	}
}

func TestDropWindowRetransmitsAndCompletes(t *testing.T) {
	ref := soloJCT(t, 10)
	tb := testbed(7)
	jobs := launch(t, tb, []dl.JobSpec{jobSpec(0, 10)}, nil)
	inj := New(tb.K, tb.RNG, tb.Fabric, nil)
	// Lossy for the first half of the fault-free JCT; the job outlives
	// the window, so its end event fires before the run stops.
	inj.DropWindow(0, 0, 0.5*ref, 0.2)
	tb.RunToCompletion(jobs, 0)
	if !jobs[0].Done() {
		t.Fatal("job did not survive chunk loss")
	}
	if tb.Fabric.DroppedChunks() == 0 {
		t.Fatal("no chunks dropped despite 20% loss window")
	}
	if got := tb.Fabric.Host(0).ChunkDropProb(); got != 0 {
		t.Fatalf("drop probability %g still set after window", got)
	}
	if jobs[0].JCT() <= ref {
		t.Fatalf("loss did not delay the job: JCT %.3f <= fault-free %.3f", jobs[0].JCT(), ref)
	}
}

func TestRateDegradeWindowsNest(t *testing.T) {
	tb := testbed(1)
	inj := New(tb.K, tb.RNG, tb.Fabric, nil)
	inj.RateDegrade(0, 1, 2, 0.5)  // covers [1,3)
	inj.RateDegrade(0, 2, 2, 0.25) // covers [2,4)
	probe := func(at, want float64) {
		tb.K.Schedule(at, func() {
			if got := tb.Fabric.Host(0).Egress.RateFactor(); got != want {
				t.Errorf("rate factor at t=%.1f is %g, want %g", at, got, want)
			}
		})
	}
	probe(0.5, 1)
	probe(1.5, 0.5)
	probe(2.5, 0.25)
	probe(3.5, 0.25) // first window ended, second still open
	probe(4.5, 1)    // all windows closed: full rate restored
	tb.K.RunUntil(5)
	if inj.Counts().RateDegrades != 2 {
		t.Fatalf("counts %+v", inj.Counts())
	}
}

func TestOverlappingLinkFlapsNest(t *testing.T) {
	tb := testbed(1)
	inj := New(tb.K, tb.RNG, tb.Fabric, nil)
	inj.LinkFlap(0, 1, 2) // [1,3)
	inj.LinkFlap(0, 2, 2) // [2,4)
	probe := func(at float64, want bool) {
		tb.K.Schedule(at, func() {
			if got := tb.Fabric.Host(0).NICDown(); got != want {
				t.Errorf("NIC down at t=%.1f is %v, want %v", at, got, want)
			}
		})
	}
	probe(0.5, false)
	probe(1.5, true)
	probe(3.5, true) // first flap ended; second still holds the NIC down
	probe(4.5, false)
	tb.K.RunUntil(5)
}

func TestCrashPlanRestartsWorker(t *testing.T) {
	ref := soloJCT(t, 10)
	tb := testbed(7)
	jobs := launch(t, tb, []dl.JobSpec{jobSpec(0, 10)}, nil)
	inj := New(tb.K, tb.RNG, tb.Fabric, nil)
	plan := Plan{Crashes: []CrashPlan{{Job: 0, Worker: 1, AtSec: 0.4 * ref}}}
	if err := inj.Apply(plan, nil, map[int]*dl.Job{0: jobs[0]}, nil); err != nil {
		t.Fatal(err)
	}
	tb.RunToCompletion(jobs, 0)
	if !jobs[0].Done() {
		t.Fatal("job did not recover from the worker crash")
	}
	if jobs[0].Restarts() != 1 {
		t.Fatalf("restarts %d, want 1", jobs[0].Restarts())
	}
	if jobs[0].DegradedWorkers() != 0 {
		t.Fatal("crash within restart budget must not degrade the job")
	}
	if inj.Counts().Crashes != 1 {
		t.Fatalf("counts %+v", inj.Counts())
	}
}

func TestTCOutageFallsBackThenReconcileRestores(t *testing.T) {
	// Two PSes contend on host 0, so TensorLights wants priority bands
	// there. A tc outage spans the jobs' arrival: the initial applies
	// fail, the controller retries, falls back to FIFO, and — once the
	// outage clears — the reconcile loop reinstalls the bands.
	run := func(outage bool) (*cluster.Testbed, *core.Controller, []*dl.Job, *Injector) {
		tb := testbed(7)
		ctl := core.New(tb.K, tb.TC, tb.RNG, core.Config{
			Policy: core.PolicyOne, RetryBackoffSec: 0.05, MaxExecRetries: 2,
			ReconcileIntervalSec: 0.5,
		})
		inj := New(tb.K, tb.RNG, tb.Fabric, tb.TC)
		if outage {
			inj.TCOutage(0, 0, 1.0)
		}
		jobs := launch(t, tb, []dl.JobSpec{jobSpec(0, 30), jobSpec(1, 30)}, ctl)
		return tb, ctl, jobs, inj
	}

	// Reference: same seed, no fault. Capture the healthy tc state at
	// the probe time.
	tbRef, _, _, _ := run(false)
	var wantFP string
	tbRef.K.Schedule(2.5, func() { wantFP = tbRef.TC.Fingerprint(0) })
	tbRef.K.RunUntil(2.6)
	if wantFP == "" || tbRef.Fabric.Host(0).Egress.Qdisc().Kind() != "htb" {
		t.Fatalf("reference run has no htb state at probe time (fp %q)", wantFP)
	}

	tb, ctl, jobs, inj := run(true)
	// During the outage, after the retry budget burns down, the host
	// must be degraded to FIFO rather than stuck with partial state.
	tb.K.Schedule(0.8, func() {
		if got := ctl.FallbackHosts(); len(got) != 1 || got[0] != 0 {
			t.Errorf("fallback hosts during outage: %v, want [0]", got)
		}
		if kind := tb.Fabric.Host(0).Egress.Qdisc().Kind(); kind != "pfifo" {
			t.Errorf("fallback host serving %s, want pfifo", kind)
		}
	})
	// After the outage clears, reconcile reinstalls the exact state a
	// fault-free run would have.
	tb.K.Schedule(2.5, func() {
		if got := tb.TC.Fingerprint(0); got != wantFP {
			t.Errorf("reconciled state %q != fault-free state %q", got, wantFP)
		}
		if len(ctl.FallbackHosts()) != 0 {
			t.Errorf("host still in fallback after outage cleared")
		}
	})
	tb.RunToCompletion(jobs, 0)
	for _, j := range jobs {
		if !j.Done() {
			t.Fatalf("job %d did not finish", j.Spec.ID)
		}
	}
	if ctl.Stats().Fallbacks == 0 || ctl.Stats().Repairs == 0 {
		t.Fatalf("stats %+v: outage did not exercise fallback+repair", ctl.Stats())
	}
	if inj.Counts().TCOutages != 1 {
		t.Fatalf("counts %+v", inj.Counts())
	}
}

// fullScenario drives every fault kind at once under TLs-RR and returns
// everything observable, for the determinism check.
func fullScenario(t *testing.T) string {
	t.Helper()
	tb := testbed(42)
	ctl := core.New(tb.K, tb.TC, tb.RNG, core.Config{
		Policy: core.PolicyRR, IntervalSec: 1,
		RetryBackoffSec: 0.05, MaxExecRetries: 2, ReconcileIntervalSec: 0.5,
	})
	inj := New(tb.K, tb.RNG, tb.Fabric, tb.TC)
	jobs := launch(t, tb, []dl.JobSpec{jobSpec(0, 15), jobSpec(1, 15)}, ctl)
	plan := Plan{
		FlapPSHosts:     true,
		FlapFirstAtSec:  1,
		FlapEverySec:    2.5,
		FlapDurationSec: 0.3,
		FlapJitterSec:   0.2,
		DropProb:        0.05,
		TCOutage:        true,
		HorizonSec:      8,
		Crashes:         []CrashPlan{{Job: 0, Worker: 2, AtSec: 2.0}},
	}
	if err := inj.Apply(plan, []int{0, 0}, map[int]*dl.Job{0: jobs[0], 1: jobs[1]}, nil); err != nil {
		t.Fatal(err)
	}
	tb.RunToCompletion(jobs, 0)
	for _, j := range jobs {
		if !j.Done() {
			t.Fatalf("job %d did not survive the combined fault scenario", j.Spec.ID)
		}
	}
	return fmt.Sprintf("jct0=%x jct1=%x restarts=%d counts=%+v dropped=%d stats=%+v execs=%d errs=%d",
		jobs[0].JCT(), jobs[1].JCT(), jobs[0].Restarts(), inj.Counts(),
		tb.Fabric.DroppedChunks(), ctl.Stats(), tb.TC.ExecCount(), tb.TC.ExecErrors())
}

func TestCombinedScenarioIsDeterministic(t *testing.T) {
	a := fullScenario(t)
	b := fullScenario(t)
	if a != b {
		t.Fatalf("same-seed fault runs diverged:\n  %s\n  %s", a, b)
	}
	if a == "" {
		t.Fatal("empty scenario result")
	}
}

func TestPlanValidate(t *testing.T) {
	cases := []struct {
		name string
		p    Plan
	}{
		{"negative first", Plan{FlapFirstAtSec: -1}},
		{"every without duration", Plan{FlapEverySec: 1}},
		{"duration without every", Plan{FlapDurationSec: 1}},
		{"no horizon", Plan{FlapPSHosts: true, FlapEverySec: 1, FlapDurationSec: 0.1}},
		{"degrade factor 1", Plan{DegradeFactor: 1}},
		{"drop prob 1", Plan{DropProb: 1}},
		{"negative crash time", Plan{Crashes: []CrashPlan{{AtSec: -1}}}},
		{"negative crash worker", Plan{Crashes: []CrashPlan{{Worker: -1}}}},
	}
	for _, c := range cases {
		if c.p.Validate() == nil {
			t.Errorf("%s: invalid plan accepted", c.name)
		}
	}
	if err := (Plan{}).Validate(); err != nil {
		t.Errorf("zero plan rejected: %v", err)
	}
	if (Plan{}).Active() {
		t.Error("zero plan claims to be active")
	}
	ok := Plan{FlapPSHosts: true, FlapEverySec: 1, FlapDurationSec: 0.1, HorizonSec: 5}
	if err := ok.Validate(); err != nil {
		t.Errorf("valid plan rejected: %v", err)
	}
	if !ok.Active() {
		t.Error("flapping plan claims to be inactive")
	}
}

func TestApplyRejectsBadTargets(t *testing.T) {
	tb := testbed(1)
	inj := New(tb.K, tb.RNG, tb.Fabric, nil)
	if err := inj.Apply(Plan{Crashes: []CrashPlan{{Job: 9}}}, nil, nil, nil); err == nil {
		t.Error("unknown crash job accepted")
	}
	jobs := launch(t, tb, []dl.JobSpec{jobSpec(0, 10)}, nil)
	if err := inj.Apply(Plan{Crashes: []CrashPlan{{Job: 0, Worker: 99}}}, nil,
		map[int]*dl.Job{0: jobs[0]}, nil); err == nil {
		t.Error("out-of-range crash worker accepted")
	}
	if err := inj.Apply(Plan{
		FlapPSHosts: true, FlapEverySec: 1, FlapDurationSec: 0.1,
		HorizonSec: 2, TCOutage: true,
	}, []int{0}, nil, nil); err == nil {
		t.Error("tc outage accepted without a tc controller")
	}
	if err := inj.Apply(Plan{PeerCrashes: []CrashPlan{{Job: 1000}}},
		nil, nil, nil); err == nil {
		t.Error("unknown peer-crash job accepted")
	}
}

// leafSpineTestbed builds a 2-rack, 8-host testbed so core-link faults
// have links to target.
func leafSpineTestbed(seed int64) *cluster.Testbed {
	return cluster.NewTestbed(cluster.Config{
		Hosts: 8,
		Net: simnet.Config{Topology: simnet.TopologyConfig{
			Kind: simnet.TopologyLeafSpine, Racks: 2, UplinksPerLeaf: 1,
		}},
		Seed: seed,
	})
}

func TestCoreLinkFlapDelaysCrossRackJob(t *testing.T) {
	run := func(plan Plan) float64 {
		tb := leafSpineTestbed(7)
		// PS in rack 0, workers in rack 1: all traffic crosses the core.
		spec := dl.JobSpec{
			ID: 0, Name: "j0", Model: dl.ResNet32,
			NumWorkers: 3, LocalBatch: 4, TargetGlobalSteps: 30,
			PSHost: 0, PSPort: 5000, WorkerHosts: []int{5, 6, 7},
		}
		jobs := launch(t, tb, []dl.JobSpec{spec}, nil)
		inj := New(tb.K, tb.RNG, tb.Fabric, nil)
		if err := inj.Apply(plan, nil, map[int]*dl.Job{0: jobs[0]}, nil); err != nil {
			t.Fatal(err)
		}
		tb.RunToCompletion(jobs, 0)
		if !jobs[0].Done() {
			t.Fatal("job did not finish")
		}
		return jobs[0].JCT()
	}
	clean := run(Plan{})
	// Flap both directions' links mid-run for 1s.
	faulty := run(Plan{CoreLinks: []CoreLinkPlan{
		{Link: 0, AtSec: clean / 2, DurSec: 1},
		{Link: 1, AtSec: clean / 2, DurSec: 1},
		{Link: 2, AtSec: clean / 2, DurSec: 1},
		{Link: 3, AtSec: clean / 2, DurSec: 1},
	}})
	if faulty < clean+0.9 {
		t.Fatalf("core flap JCT %v vs clean %v: flap had no effect", faulty, clean)
	}
	// Degrade is milder than a full flap but still slows the job.
	degraded := run(Plan{CoreLinks: []CoreLinkPlan{
		{Link: 0, AtSec: clean / 2, DurSec: 1, Factor: 0.1},
		{Link: 1, AtSec: clean / 2, DurSec: 1, Factor: 0.1},
	}})
	if degraded <= clean {
		t.Fatalf("core degrade JCT %v vs clean %v: degrade had no effect", degraded, clean)
	}
}

func TestCoreLinkPlanValidation(t *testing.T) {
	bad := []Plan{
		{CoreLinks: []CoreLinkPlan{{Link: -1, DurSec: 1}}},
		{CoreLinks: []CoreLinkPlan{{Link: 0, AtSec: -1, DurSec: 1}}},
		{CoreLinks: []CoreLinkPlan{{Link: 0}}},
		{CoreLinks: []CoreLinkPlan{{Link: 0, DurSec: 1, Factor: 1}}},
	}
	for i, p := range bad {
		if p.Validate() == nil {
			t.Errorf("bad core-link plan %d accepted", i)
		}
	}
	if !(Plan{CoreLinks: []CoreLinkPlan{{Link: 0, DurSec: 1}}}).Active() {
		t.Error("core-link plan claims to be inactive")
	}
	// Apply rejects link IDs beyond the topology (flat has none).
	tb := testbed(1)
	inj := New(tb.K, tb.RNG, tb.Fabric, nil)
	if err := inj.Apply(Plan{CoreLinks: []CoreLinkPlan{{Link: 0, DurSec: 1}}},
		nil, nil, nil); err == nil {
		t.Error("core-link fault on flat topology accepted")
	}
}

// TestApplyRejectsUnknownJobAmongKnown: a crash entry naming a job
// absent from the jobs map is rejected even when the plan's other
// entries target a real job.
func TestApplyRejectsUnknownJobAmongKnown(t *testing.T) {
	tb := testbed(7)
	jobs := launch(t, tb, []dl.JobSpec{jobSpec(0, 4)}, nil)
	inj := New(tb.K, tb.RNG, tb.Fabric, nil)
	plan := Plan{Crashes: []CrashPlan{
		{Job: 0, Worker: 1, AtSec: 0.01},
		{Job: 99, Worker: 0, AtSec: 0.01},
	}}
	err := inj.Apply(plan, nil, map[int]*dl.Job{0: jobs[0]}, nil)
	if err == nil {
		t.Fatal("Apply accepted an unknown job ID")
	}
	if !strings.Contains(err.Error(), "unknown job 99") {
		t.Fatalf("error %q does not name the unknown job", err)
	}
}
