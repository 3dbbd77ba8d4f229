package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"runtime"
	"strconv"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dl"
	"repro/internal/sweep"
)

// parallelism is the trial-level parallelism of every simulator leg and
// the daemon's worker count: the load is sized for a 2-core machine.
const parallelism = 2

// trialOut is what one simulation trial produced.
type trialOut struct {
	JCTs      []float64
	Events    uint64
	SimTime   float64
	Reconfigs int // TensorLights host reconfigurations; not digested
	// Counts holds per-layer counts of a traced trial (nil untraced).
	Counts map[string]float64
}

// digest fingerprints a trial's outputs: SHA-256 over the JCTs' IEEE-754
// bit patterns, the event count and the simulated makespan. Equal
// digests mean bit-identical results.
func (o trialOut) digest() string {
	h := sha256.New()
	var b [8]byte
	for _, j := range o.JCTs {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(j))
		h.Write(b[:])
	}
	binary.LittleEndian.PutUint64(b[:], o.Events)
	h.Write(b[:])
	binary.LittleEndian.PutUint64(b[:], math.Float64bits(o.SimTime))
	h.Write(b[:])
	return hex.EncodeToString(h.Sum(nil))
}

// simSpec defines a simulator workload by its trial and set-up calls;
// the leg, checks and traced run are shared.
type simSpec struct {
	name string
	// trial runs one trial through the public entry point a user calls.
	trial func(ctx context.Context, seed int64) (trialOut, error)
	// traced runs the same trial with spans and counters; its outputs
	// must equal trial's bit for bit.
	traced func(ctx context.Context, seed int64, rec *spanRecorder) (trialOut, error)
	// check validates one trial's outputs beyond reproducibility.
	check func(seed int64, out trialOut) error
	// setup performs one trial's set-up calls and nothing else.
	setup     func(seed int64) error
	setupReps int
}

func seedKey(seed int64) string { return strconv.FormatInt(seed, 10) }

func (s *simSpec) workload() *workloadDef {
	return &workloadDef{
		name:      s.name,
		setup:     s.setup,
		setupReps: s.setupReps,
		leg:       s.leg,
		verify:    s.verify,
		traceRun:  s.traceRun,
	}
}

// trialRun is one trial as a leg ran it.
type trialRun struct {
	seed int64
	wall time.Duration
	out  trialOut
	err  error
}

// maxTrials caps the trials one timed leg hands the sweep Engine; legs
// stop starting trials at their deadline long before reaching it.
const maxTrials = 4096

// runTrials runs trials on seeds seed, seed+1, ... on the sweep Engine's
// work queue, parallelism at a time, as sweep.RunMany does: n trials when
// n > 0, otherwise every trial that starts before d has elapsed. Each
// trial starts on a collected heap, so the memory peak does not depend
// on where the other worker's trial was when the collector last ran. It
// returns the trials that ran and the leg's wall time.
func runTrials(ctx context.Context, seed int64, d time.Duration, n int,
	run func(context.Context, int64) (trialOut, error)) ([]trialRun, time.Duration, error) {
	timed := n == 0
	if timed {
		n = maxTrials
	}
	slots := make([]trialRun, n)
	ran := make([]bool, n)
	start := time.Now()
	deadline := start.Add(d)
	err := sweep.Engine{Parallelism: parallelism}.ForEachContext(ctx, n, func(ctx context.Context, i int) error {
		if timed && !time.Now().Before(deadline) {
			return nil
		}
		runtime.GC()
		tr := &slots[i]
		tr.seed = seed + int64(i)
		t0 := time.Now()
		tr.out, tr.err = run(ctx, tr.seed)
		tr.wall = time.Since(t0)
		ran[i] = true
		return nil
	})
	wall := time.Since(start)
	if err != nil {
		return nil, 0, err
	}
	var runs []trialRun
	for i, ok := range ran {
		if ok {
			runs = append(runs, slots[i])
		}
	}
	return runs, wall, nil
}

// leg runs trials for d and checks each one.
func (s *simSpec) leg(ctx context.Context, seed int64, d time.Duration) (*legResult, error) {
	runs, wall, err := runTrials(ctx, seed, d, 0, s.trial)
	if err != nil {
		return nil, err
	}
	res := &legResult{}
	var busy time.Duration
	for _, r := range runs {
		op := opRecord{Key: seedKey(r.seed), LatencyMS: ms(r.wall)}
		switch {
		case r.err != nil:
			op.Err = r.err.Error()
		case s.check != nil:
			if err := s.check(r.seed, r.out); err != nil {
				op.Err = err.Error()
			}
		}
		if op.Err == "" {
			op.Digest = r.out.digest()
		}
		res.Ops = append(res.Ops, op)
		res.LatencyMS = append(res.LatencyMS, op.LatencyMS)
		busy += r.wall
	}
	// Throughput with both workers busy: parallelism over the mean trial
	// time. The leg's last trials leave one worker idle while the other
	// finishes; counting that tail would tie the number to where the
	// deadline fell, so it shows in the busy fraction instead.
	res.OpsPerSec = parallelism / (mean(res.LatencyMS) / 1e3)
	res.BusyFrac = busy.Seconds() / (parallelism * wall.Seconds())
	res.Extra = append(res.Extra,
		extraMetric{"trials", float64(len(runs)), "count"},
		extraMetric{"leg_trials_per_s", float64(len(runs)) / wall.Seconds(), "1/s"},
		extraMetric{"sweep.engine_busy_frac", res.BusyFrac, "frac"},
	)
	return res, nil
}

// verify re-runs the leg's first two trials on the sequential path and
// compares every digest it can against the parallel leg and the pinned
// values.
func (s *simSpec) verify(ctx context.Context, seed int64, leg *legResult) []string {
	var fails []string
	byKey := map[string]string{}
	for _, op := range leg.Ops {
		byKey[op.Key] = op.Digest
	}
	for i := int64(0); i < 2; i++ {
		want, ok := byKey[seedKey(seed+i)]
		if !ok || want == "" {
			continue
		}
		out, err := s.trial(ctx, seed+i)
		if err != nil {
			fails = append(fails, fmt.Sprintf("sequential trial seed %d: %v", seed+i, err))
		} else if got := out.digest(); got != want {
			fails = append(fails, fmt.Sprintf("trial seed %d: sequential digest %.12s differs from parallel %.12s", seed+i, got, want))
		}
	}
	return append(fails, checkPinned(s.name, leg.Ops)...)
}

// traceRun spends half of d on an untraced leg and then re-runs the same
// trials traced. Traced outputs must be bit-identical to untraced ones;
// the wall-clock ratio is the tracing overhead.
func (s *simSpec) traceRun(ctx context.Context, seed int64, d time.Duration, rec *spanRecorder) (*traceResult, error) {
	plain, err := s.leg(ctx, seed, d/2)
	if err != nil {
		return nil, err
	}
	plainBy := map[string]opRecord{}
	for _, op := range plain.Ops {
		plainBy[op.Key] = op
	}
	runs, wall, err := runTrials(ctx, seed, 0, len(plain.Ops), func(ctx context.Context, seed int64) (trialOut, error) {
		return s.traced(ctx, seed, rec)
	})
	if err != nil {
		return nil, err
	}
	res := &traceResult{Metrics: map[string]float64{}}
	res.Attempted = len(plain.Ops) + len(runs)
	res.Failures = plain.failures()
	var ratios []float64
	var traced []trialOut
	var busy time.Duration
	for _, r := range runs {
		key := seedKey(r.seed)
		busy += r.wall
		if r.err != nil {
			res.Failures = append(res.Failures, fmt.Sprintf("traced trial seed %s: %v", key, r.err))
			continue
		}
		p, ok := plainBy[key]
		if !ok || p.Err != "" {
			continue
		}
		if got := r.out.digest(); got != p.Digest {
			res.Failures = append(res.Failures, fmt.Sprintf("trial seed %s: traced digest %.12s differs from untraced %.12s", key, got, p.Digest))
			continue
		}
		traced = append(traced, r.out)
		ratios = append(ratios, ms(r.wall)/p.LatencyMS)
	}
	if len(traced) == 0 {
		return res, nil
	}
	res.Metrics["bench.trace_overhead_frac"] = median(ratios) - 1
	res.Metrics["bench.busy_frac"] = plain.BusyFrac
	for name, v := range meanCounts(traced) {
		res.Metrics[name] = v
	}
	res.Extra = append(res.Extra,
		extraMetric{"traced_trials", float64(len(runs)), "count"},
		extraMetric{"traced_busy_frac", busy.Seconds() / (parallelism * wall.Seconds()), "frac"},
	)
	return res, nil
}

// meanCounts averages per-trial counts over traced trials.
func meanCounts(outs []trialOut) map[string]float64 {
	sum := map[string]float64{}
	for _, o := range outs {
		for k, v := range o.Counts {
			sum[k] += v
		}
	}
	for k := range sum {
		sum[k] /= float64(len(outs))
	}
	return sum
}

// runConfigSpec builds the simulator workload for a static-policy PS
// RunConfig: the public path is sweep.RunContext, the traced path
// composes the same calls with a span around each.
func runConfigSpec(name string, rc func(seed int64) sweep.RunConfig, setupReps int) *simSpec {
	return &simSpec{
		name: name,
		trial: func(ctx context.Context, seed int64) (trialOut, error) {
			r, err := sweep.RunContext(ctx, rc(seed))
			if err != nil {
				return trialOut{}, err
			}
			return trialOut{JCTs: r.JCTs, Events: r.Events, SimTime: r.SimTime, Reconfigs: r.Reconfigs}, nil
		},
		traced: func(ctx context.Context, seed int64, rec *spanRecorder) (trialOut, error) {
			return tracedRunConfig(ctx, rc(seed), rec, seed)
		},
		check: func(seed int64, out trialOut) error {
			specs, err := specsOf(rc(seed))
			if err != nil {
				return err
			}
			return checkComputeBound(specs, out.JCTs)
		},
		setup: func(seed int64) error {
			c := rc(seed)
			tb := cluster.NewTestbed(c.Cluster)
			specs, err := specsOf(c)
			if err != nil {
				return err
			}
			ctl := core.New(tb.K, tb.TC, tb.RNG, c.TLs)
			_, err = tb.Launch(specs, c.StaggerSec, func(j *dl.Job) { ctl.JobArrived(jobInfo(j)) })
			return err
		},
		setupReps: setupReps,
	}
}

// specsOf returns the PS job specs a RunConfig describes.
func specsOf(rc sweep.RunConfig) ([]dl.JobSpec, error) {
	if len(rc.PSSpecs) > 0 {
		return append([]dl.JobSpec(nil), rc.PSSpecs...), nil
	}
	return cluster.GridSearchSpecs(rc.Cluster, rc.Model, rc.NumJobs, rc.LocalBatch, rc.TargetSteps, rc.Placement)
}

// jobInfo is the controller's view of a PS job, as sweep.RunContext
// builds it: target steps in iterations, one per synchronous barrier.
func jobInfo(j *dl.Job) core.JobInfo {
	return core.JobInfo{
		ID:          j.Spec.ID,
		PSHost:      j.Spec.PSHost,
		PSPort:      j.Spec.PSPort,
		UpdateBytes: j.Spec.Model.UpdateBytes(),
		TargetSteps: (j.Spec.TargetGlobalSteps + j.Spec.NumWorkers - 1) / j.Spec.NumWorkers,
	}
}

// tracedRunConfig composes the public calls sweep.RunContext makes on
// the static-policy PS path — testbed, specs, controller, launch with
// the controller hooks, run loop — with a span around each call and
// each controller callback, a counting tracer on every layer, and the
// layers' public counters read after the run.
func tracedRunConfig(ctx context.Context, rc sweep.RunConfig, rec *spanRecorder, traceID int64) (trialOut, error) {
	var out trialOut
	if err := rc.TLs.Validate(); err != nil {
		return out, err
	}
	root := rec.begin(traceID, 0, "trial")
	defer rec.end(root)
	var tb *cluster.Testbed
	rec.wrap(traceID, root, "cluster.NewTestbed", func() { tb = cluster.NewTestbed(rc.Cluster) })
	var specs []dl.JobSpec
	var err error
	rec.wrap(traceID, root, "cluster.specs", func() { specs, err = specsOf(rc) })
	if err != nil {
		return out, err
	}
	var ctl *core.Controller
	rec.wrap(traceID, root, "core.New", func() { ctl = core.New(tb.K, tb.TC, tb.RNG, rc.TLs) })
	if ctl.NeedsFeedback() {
		return out, errors.New("traced driver: feedback-driven policies are not supported")
	}
	kinds := kindCounts{}
	tr := kinds.tracer()
	tb.Env.Tracer, tb.Fabric.Tracer, ctl.Tracer = tr, tr, tr

	run := 0 // the run-loop span: parent of every controller callback
	progressCalls := 0
	depart := func(j *dl.Job) {
		rec.wrap(traceID, run, "core.JobDeparted", func() { ctl.JobDeparted(j.Spec.ID) })
	}
	var jobs []*dl.Job
	rec.wrap(traceID, root, "cluster.Launch", func() {
		jobs, err = tb.Launch(specs, rc.StaggerSec, func(j *dl.Job) {
			rec.wrap(traceID, run, "core.JobArrived", func() { ctl.JobArrived(jobInfo(j)) })
			j.OnFinish = depart
			j.OnFail = depart
			j.OnBarrier = func(j *dl.Job, iter int) {
				progressCalls++
				rec.wrap(traceID, run, "core.JobProgress", func() { ctl.JobProgress(j.Spec.ID, iter) })
			}
		})
	})
	if err != nil {
		return out, err
	}
	run = rec.begin(traceID, root, "cluster.RunMixedToCompletionCtx")
	err = tb.RunMixedToCompletionCtx(ctx, jobs, nil, 0)
	rec.end(run)
	if err != nil {
		return out, err
	}
	for _, j := range jobs {
		if !j.Done() {
			return out, fmt.Errorf("traced driver: job %d did not finish", j.Spec.ID)
		}
		out.JCTs = append(out.JCTs, j.JCT())
	}
	out.Events, out.SimTime, out.Reconfigs = tb.K.Fired(), tb.K.Now(), ctl.Reconfigs()

	c := map[string]float64{
		"sim.events":            float64(out.Events),
		"core.reconfigs":        float64(out.Reconfigs),
		"core.progress_calls":   float64(progressCalls),
		"tc.exec_calls":         float64(tb.TC.ExecCount()),
		"flownet.resolves":      float64(tb.Fabric.FlowEngineResolves()),
		"simnet.dropped_chunks": float64(tb.Fabric.DroppedChunks()),
	}
	for _, km := range kindMetrics {
		c[km.metric] = float64(kinds[km.kind])
	}
	for _, cpu := range tb.CPUs {
		c["cpusim.tasks"] += float64(cpu.Completed())
	}
	var egress, ingress int64
	for _, h := range tb.Fabric.Hosts() {
		egress += h.Egress.Bytes()
		ingress += h.Ingress.Bytes()
		c["simnet.chunks"] += float64(h.Egress.Chunks())
		st := h.Egress.Qdisc().Stats()
		c["qdisc.dequeued_packets"] += float64(st.DequeuedPackets)
		c["qdisc.overlimits"] += float64(st.Overlimits)
	}
	out.Counts = c
	// No faults are injected, so nothing may be dropped, and every byte a
	// NIC sent must have arrived at a NIC. Flow mode rounds each port's
	// fluid byte count, so allow one byte per host there.
	if d := tb.Fabric.DroppedChunks(); d != 0 {
		return out, fmt.Errorf("traced driver: %d chunks dropped without faults", d)
	}
	if diff, slack := egress-ingress, int64(tb.Fabric.NumHosts()); diff < -slack || diff > slack {
		return out, fmt.Errorf("traced driver: egress bytes %d != delivered %d + dropped 0", egress, ingress)
	}
	return out, nil
}

// checkComputeBound rejects JCTs below the analytic compute-only lower
// bound: every iteration needs at least one local step of compute,
// LocalBatch samples plus the step overhead, on a reference-speed
// thread. Per-step compute carries lognormal jitter (sigma 0.15 by
// default), so the bound allows each step to run three sigma fast.
func checkComputeBound(specs []dl.JobSpec, jcts []float64) error {
	if len(jcts) != len(specs) {
		return fmt.Errorf("%d JCTs for %d jobs", len(jcts), len(specs))
	}
	const sigma = 0.15
	for i, s := range specs {
		iters := (s.TargetGlobalSteps + s.NumWorkers - 1) / s.NumWorkers
		step := float64(s.LocalBatch)*s.Model.SecPerSample + s.Model.StepOverheadSec
		bound := float64(iters) * step * math.Exp(-3*sigma)
		if !(jcts[i] >= bound) {
			return fmt.Errorf("job %d JCT %.3f s below its compute-only bound %.3f s", s.ID, jcts[i], bound)
		}
	}
	return nil
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
