package dl

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/cpusim"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/trace"
)

func TestModelZoo(t *testing.T) {
	if len(Zoo()) < 5 {
		t.Fatal("zoo too small")
	}
	for _, m := range Zoo() {
		if err := m.Validate(); err != nil {
			t.Fatalf("%s: %v", m.Name, err)
		}
		if m.UpdateBytes() != m.Params*4 {
			t.Fatalf("%s update bytes", m.Name)
		}
	}
	m, err := ModelByName("resnet32")
	if err != nil || m.Params != 467_000 {
		t.Fatalf("resnet32 lookup: %v %+v", err, m)
	}
	if _, err := ModelByName("gpt5"); err == nil {
		t.Fatal("unknown model accepted")
	}
}

func TestModelValidateErrors(t *testing.T) {
	bad := Model{Name: "x", Params: 0}
	if bad.Validate() == nil {
		t.Fatal("zero params accepted")
	}
	bad = Model{Name: "x", Params: 10, SecPerSample: -1}
	if bad.Validate() == nil {
		t.Fatal("negative timing accepted")
	}
}

func TestStepComputeSecScaling(t *testing.T) {
	m := ResNet32
	c1 := m.StepComputeSec(1)
	c4 := m.StepComputeSec(4)
	if c4 <= c1 {
		t.Fatal("compute must grow with batch")
	}
	if math.Abs((c4-c1)-3*m.SecPerSample) > 1e-12 {
		t.Fatal("linear batch scaling broken")
	}
	if m.StepComputeSec(0) != m.StepComputeSec(1) {
		t.Fatal("batch<1 must clamp to 1")
	}
}

func TestSerializeSec(t *testing.T) {
	m := ResNet32
	want := m.SerializeSecPerMB * float64(m.UpdateBytes()) / (1 << 20)
	if math.Abs(m.SerializeSec()-want) > 1e-15 {
		t.Fatal("serialize sec")
	}
}

// newEnv builds a small 4-host environment.
func newEnv(seed int64) *Env {
	k := sim.NewKernel()
	rng := sim.NewRNG(seed)
	fab := simnet.New(k, rng, simnet.Config{})
	cpus := make([]*cpusim.CPU, 4)
	for i := range cpus {
		fab.AddHost("h")
		cpus[i] = cpusim.NewCPU(k, 12)
	}
	return &Env{K: k, Fabric: fab, CPUs: cpus, RNG: rng}
}

func smallSpec(id, steps int) JobSpec {
	return JobSpec{
		ID:                id,
		Name:              "test",
		Model:             ResNet32,
		NumWorkers:        3,
		LocalBatch:        4,
		TargetGlobalSteps: steps,
		PSHost:            0,
		PSPort:            5000 + id,
		WorkerHosts:       []int{1, 2, 3},
	}
}

func TestJobValidate(t *testing.T) {
	cases := []func(*JobSpec){
		func(s *JobSpec) { s.NumWorkers = 0 },
		func(s *JobSpec) { s.WorkerHosts = []int{1} },
		func(s *JobSpec) { s.TargetGlobalSteps = 0 },
		func(s *JobSpec) { s.LocalBatch = 0 },
		func(s *JobSpec) { s.WorkerHosts = []int{0, 1, 2} }, // worker on PS host
		func(s *JobSpec) { s.Model = Model{} },
	}
	for i, mutate := range cases {
		s := smallSpec(0, 30)
		mutate(&s)
		if s.Validate() == nil {
			t.Fatalf("case %d: invalid spec accepted", i)
		}
	}
	good := smallSpec(0, 30)
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestSyncJobLifecycle(t *testing.T) {
	env := newEnv(1)
	j, err := NewJob(env, smallSpec(0, 30))
	if err != nil {
		t.Fatal(err)
	}
	if j.Running() || j.Done() {
		t.Fatal("job state before start")
	}
	finished := false
	j.OnFinish = func(got *Job) {
		if got != j {
			t.Error("wrong job in OnFinish")
		}
		finished = true
	}
	j.Start()
	if !j.Running() {
		t.Fatal("job not running after start")
	}
	env.K.Run(nil)
	if !finished || !j.Done() {
		t.Fatal("job never finished")
	}
	if j.GlobalStep() != 30 {
		t.Fatalf("global step %d, want 30", j.GlobalStep())
	}
	if j.JCT() <= 0 {
		t.Fatalf("JCT %v", j.JCT())
	}
	// 30 steps / 3 workers = 10 iterations; the final barrier is
	// incomplete, so expect ~9 full barrier samples.
	stats := j.BarrierStats()
	if len(stats) < 7 || len(stats) > 10 {
		t.Fatalf("barrier stats count %d", len(stats))
	}
	for _, bs := range stats {
		if bs.Mean < 0 || bs.Variance < 0 || bs.Min > bs.Max {
			t.Fatalf("bad barrier stat %+v", bs)
		}
	}
}

func TestSyncBarrierKeepsWorkersTogether(t *testing.T) {
	env := newEnv(2)
	j, _ := NewJob(env, smallSpec(0, 60))
	j.Start()
	env.K.Run(nil)
	// Synchronous training: every worker performed the same number of
	// local steps (60/3 each).
	for _, w := range j.workers {
		if w.localStep < 19 || w.localStep > 21 {
			t.Fatalf("worker local step %d, want ~20", w.localStep)
		}
	}
}

func TestAsyncJobCompletes(t *testing.T) {
	env := newEnv(3)
	spec := smallSpec(0, 60)
	spec.Async = true
	j, _ := NewJob(env, spec)
	j.Start()
	env.K.Run(nil)
	if !j.Done() || j.GlobalStep() < 60 {
		t.Fatalf("async job incomplete: %d", j.GlobalStep())
	}
}

func TestAsyncAllowsUnevenProgress(t *testing.T) {
	env := newEnv(4)
	spec := smallSpec(0, 120)
	spec.Async = true
	spec.ComputeJitterSigma = 0.5 // strong jitter -> uneven progress
	j, _ := NewJob(env, spec)
	j.Start()
	env.K.Run(nil)
	minS, maxS := j.workers[0].localStep, j.workers[0].localStep
	for _, w := range j.workers {
		if w.localStep < minS {
			minS = w.localStep
		}
		if w.localStep > maxS {
			maxS = w.localStep
		}
	}
	if maxS-minS < 2 {
		t.Fatalf("async workers suspiciously even: min %d max %d", minS, maxS)
	}
}

func TestProgressRecording(t *testing.T) {
	env := newEnv(5)
	spec := smallSpec(0, 60)
	spec.ProgressEvery = 15
	j, _ := NewJob(env, spec)
	j.Start()
	env.K.Run(nil)
	pts := j.Progress()
	if len(pts) < 4 {
		t.Fatalf("progress points %d", len(pts))
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].At < pts[i-1].At || pts[i].Step < pts[i-1].Step {
			t.Fatal("progress not monotone")
		}
	}
	if pts[len(pts)-1].Step != 60 {
		t.Fatalf("final progress step %d", pts[len(pts)-1].Step)
	}
}

func TestTraceEvents(t *testing.T) {
	env := newEnv(6)
	buf := &trace.Buffer{}
	env.Tracer = buf
	j, _ := NewJob(env, smallSpec(0, 30))
	j.Start()
	env.K.Run(nil)
	var starts, finishes, barriers int
	for _, e := range buf.Events() {
		switch e.Kind {
		case trace.KindJobStart:
			starts++
		case trace.KindJobFinish:
			finishes++
		case trace.KindBarrierRelease:
			barriers++
		}
	}
	if starts != 1 || finishes != 1 {
		t.Fatalf("starts %d finishes %d", starts, finishes)
	}
	if barriers < 7 {
		t.Fatalf("barrier releases %d", barriers)
	}
}

func TestDoubleStartPanics(t *testing.T) {
	env := newEnv(7)
	j, _ := NewJob(env, smallSpec(0, 30))
	j.Start()
	defer func() {
		if recover() == nil {
			t.Fatal("double start accepted")
		}
	}()
	j.Start()
}

func TestTwoJobsShareCluster(t *testing.T) {
	env := newEnv(8)
	j1, _ := NewJob(env, smallSpec(0, 30))
	j2, _ := NewJob(env, smallSpec(1, 30))
	j1.Start()
	env.K.ScheduleAfter(0.1, j2.Start)
	env.K.Run(nil)
	if !j1.Done() || !j2.Done() {
		t.Fatal("concurrent jobs did not finish")
	}
	// Contention means the colocated pair is slower than a solo run.
	envSolo := newEnv(8)
	solo, _ := NewJob(envSolo, smallSpec(0, 30))
	solo.Start()
	envSolo.K.Run(nil)
	if j1.JCT() < solo.JCT()*0.9 {
		t.Fatalf("contended job faster than solo: %v vs %v", j1.JCT(), solo.JCT())
	}
}

// Property: for any target step count, the job finishes with exactly
// that global step and JCT > 0.
func TestJobStepTargetProperty(t *testing.T) {
	f := func(stepsRaw uint8, seed int64) bool {
		steps := int(stepsRaw%50) + 3
		env := newEnv(seed)
		j, err := NewJob(env, smallSpec(0, steps))
		if err != nil {
			return false
		}
		j.Start()
		env.K.MaxEvents = 5_000_000
		env.K.Run(nil)
		return j.Done() && j.GlobalStep() == steps && j.JCT() > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestSteadyStateIterationAllocs guards the chunk-fabric training loop
// against per-flow and per-step garbage: once warm, a synchronous PS
// iteration allocates only the cpusim tasks it submits — one
// serialization, then one compute and one gradient apply per worker
// (cpusim allocates each task, since callers may keep the handle).
// Chunks, flows and their chunk lists, burst scratch, callbacks and
// the barrier-wait log are all reused or sized once.
func TestSteadyStateIterationAllocs(t *testing.T) {
	env := newEnv(1)
	j, err := NewJob(env, smallSpec(0, 3*100)) // 100 iterations; 56 run here
	if err != nil {
		t.Fatal(err)
	}
	j.Start()
	target := 5
	stop := func() bool { return j.iteration >= target }
	env.K.Run(stop) // warm-up: grows the pools to an iteration's working set
	iteration := func() {
		target++
		env.K.Run(stop)
	}
	tasks := float64(2*j.Spec.NumWorkers + 1)
	got := testing.AllocsPerRun(50, iteration)
	t.Logf("%.0f allocations per iteration, %.0f cpusim tasks", got, tasks)
	if got > tasks {
		t.Errorf("steady-state PS iteration allocates %.0f times, want <= %.0f (its cpusim tasks)", got, tasks)
	}
	if j.iteration != target || j.Done() {
		t.Fatalf("job at iteration %d (done %v), want %d and running", j.iteration, j.Done(), target)
	}
}
