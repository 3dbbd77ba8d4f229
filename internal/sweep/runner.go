package sweep

import (
	"context"
	"fmt"

	"repro/internal/cluster"
	"repro/internal/collective"
	"repro/internal/core"
	"repro/internal/dl"
	"repro/internal/policy"
	"repro/internal/scheduler"
	"repro/internal/trace"
	"repro/internal/workload"
)

// arrival is one job the runner admits at At: a pinned runtime spec
// (PS or Collective), or a unified spec to Place through the
// cluster-scheduler tier first.
type arrival struct {
	At         float64
	PS         *dl.JobSpec
	Collective *collective.JobSpec
	Place      *workload.JobSpec
}

// runner is the one place arrivals become running jobs: under the
// Table I grid (RunContext), churn (Churn) and the online trials
// (runOnline). A pinned arrival's job is created before the run, so a
// bad spec fails before any event fires, and starts inside its arrival
// event, as Testbed.Launch does. A placed arrival is placed and lowered
// in its arrival event and starts ShiftSec later.
type runner struct {
	tb    *cluster.Testbed
	ctl   *core.Controller
	fb    *policy.Feedback     // called directly only when ctl does not forward to it
	sched *scheduler.Scheduler // nil when every arrival is pinned
	arrs  []arrival

	// Per arrival: its job once created, and its JCT (finish minus
	// arrival) once finished.
	ps   []*dl.Job
	coll []*collective.Job
	jct  []float64

	byID   map[int]int // runtime job ID -> arrival index
	ended  int         // arrivals whose job finished or failed
	failed int         // arrivals whose job failed
	err    error       // first placement or lowering error; ends the run
}

// newRunner creates the pinned arrivals' jobs and posts every arrival
// event, in arrival order.
func newRunner(tb *cluster.Testbed, ctl *core.Controller, fb *policy.Feedback,
	sched *scheduler.Scheduler, arrs []arrival) (*runner, error) {
	n := len(arrs)
	r := &runner{tb: tb, ctl: ctl, sched: sched, arrs: arrs, ps: make([]*dl.Job, n),
		coll: make([]*collective.Job, n), jct: make([]float64, n), byID: make(map[int]int, n)}
	if ctl.Feedback() != fb {
		r.fb = fb
	}
	for i, a := range arrs {
		if a.Place != nil {
			tb.K.Post(a.At, func() {
				if err := r.place(i); err != nil && r.err == nil {
					r.err = err
				}
			})
			continue
		}
		admit, err := r.create(i, a.PS, a.Collective)
		if err != nil {
			return nil, err
		}
		tb.K.Post(a.At, admit)
	}
	return r, nil
}

// place routes arrival i through the scheduler, lowers it onto the
// decision and posts its admission ShiftSec later.
func (r *runner) place(i int) error {
	spec, now := r.arrs[i].Place, r.tb.K.Now()
	dec, err := r.sched.Place(spec.SchedReq(), now)
	if err != nil {
		return fmt.Errorf("sweep: online placement of job %d: %w", spec.RuntimeID(), err)
	}
	var ps dl.JobSpec
	var coll collective.JobSpec
	var admit func()
	if spec.Kind.Collective() {
		if coll, err = spec.LowerCollective(dec.Hosts); err == nil {
			admit, err = r.create(i, nil, &coll)
		}
	} else if ps, err = spec.LowerPS(dec.Hosts); err == nil {
		admit, err = r.create(i, &ps, nil)
	}
	if err != nil {
		return err
	}
	r.tb.K.Post(now+dec.ShiftSec, admit)
	return nil
}

// create builds arrival i's job from its runtime spec and returns its
// admission: wire the job's callbacks, start it, and announce it.
func (r *runner) create(i int, ps *dl.JobSpec, coll *collective.JobSpec) (func(), error) {
	if coll != nil {
		j, err := collective.NewJob(r.tb.Env, *coll)
		if err != nil {
			return nil, err
		}
		r.coll[i], r.byID[j.Spec.ID] = j, i
		return func() {
			s := j.Spec
			j.OnFinish = func(*collective.Job) { r.depart(i, s.ID, true) }
			j.OnFail = func(*collective.Job) { r.depart(i, s.ID, false) }
			j.OnIteration = func(_ *collective.Job, iter int) { r.progress(s.ID, iter) }
			j.Start()
			// Every rank sends from the job's port, so one JobInfo with
			// SenderHosts = the ranks keys the whole job into a single
			// band on each of its hosts.
			r.arrived(core.JobInfo{
				ID: s.ID, PSHost: s.Hosts[0], PSPort: s.Port,
				UpdateBytes: s.Model.UpdateBytes(), TargetSteps: s.TargetIterations,
				SenderHosts: s.Hosts, Ports: []int{s.Port},
			})
		}, nil
	}
	j, err := dl.NewJob(r.tb.Env, *ps)
	if err != nil {
		return nil, err
	}
	r.ps[i], r.byID[j.Spec.ID] = j, i
	return func() {
		s := j.Spec
		j.OnFinish = func(*dl.Job) { r.depart(i, s.ID, true) }
		j.OnFail = func(*dl.Job) { r.depart(i, s.ID, false) }
		j.OnBarrier = func(_ *dl.Job, iter int) { r.progress(s.ID, iter) }
		j.Start()
		// TargetSteps is in iteration units to match the progress
		// reported at each barrier: every synchronous iteration advances
		// the global step count by one step per worker.
		r.arrived(core.JobInfo{
			ID: s.ID, PSHost: s.PSHost, PSPort: s.PSPort, UpdateBytes: s.Model.UpdateBytes(),
			TargetSteps: (s.TargetGlobalSteps + s.NumWorkers - 1) / s.NumWorkers,
		})
	}, nil
}

func (r *runner) arrived(info core.JobInfo) {
	r.ctl.JobArrived(info)
	if r.fb != nil {
		r.fb.JobArrived(info.ID)
	}
}

func (r *runner) progress(id, iter int) {
	r.ctl.JobProgress(id, iter)
	if r.fb != nil {
		r.fb.OnProgress(id, iter)
	}
}

// depart retires arrival i's job, recording its JCT when it finished.
func (r *runner) depart(i, id int, finished bool) {
	if finished {
		r.jct[i] = r.tb.K.Now() - r.arrs[i].At
	} else {
		r.failed++
	}
	r.ctl.JobDeparted(id)
	if r.fb != nil {
		r.fb.JobDeparted(id)
	}
	if r.sched != nil {
		r.sched.Release(id)
	}
	r.ended++
}

// ArrivalSec, PSJob and CollectiveJob let a fault plan date its crashes
// and resolve their jobs (faults.Jobs). Apply asks only about IDs it
// found among the run's specs.
func (r *runner) ArrivalSec(id int) float64            { return r.arrs[r.byID[id]].At }
func (r *runner) PSJob(id int) *dl.Job                 { return r.ps[r.byID[id]] }
func (r *runner) CollectiveJob(id int) *collective.Job { return r.coll[r.byID[id]] }

// run drives the kernel until every arrival's job has finished or
// failed, or a placement failed.
func (r *runner) run(ctx context.Context) error {
	total := len(r.arrs)
	err := r.tb.RunUntil(ctx, 0, func() bool { return r.ended == total || r.err != nil })
	switch {
	case err != nil && ctx.Err() != nil:
		return fmt.Errorf("cancelled at sim time %.3f s: %w", r.tb.K.Now(), err)
	case err != nil:
		return fmt.Errorf("%w; %d of %d jobs unfinished", err, total-r.ended, total)
	case r.err == nil && r.ended < total:
		return fmt.Errorf("stalled: %d of %d jobs unfinished after %d events",
			total-r.ended, total, r.tb.K.Fired())
	}
	return r.err
}

// newController builds the TensorLights controller on tb, routes the
// tracer into every layer, and builds a telemetry collector for
// feedback-driven policies (attached) or, withFeedback, for any policy.
// Legacy policies otherwise run without one, so their kernel event
// counts stay untouched.
func newController(tb *cluster.Testbed, tls core.Config, tr trace.Tracer,
	withFeedback bool) (*core.Controller, *policy.Feedback, error) {
	if err := tls.Validate(); err != nil {
		return nil, nil, err
	}
	ctl := core.New(tb.K, tb.TC, tb.RNG, tls)
	var fb *policy.Feedback
	if withFeedback || ctl.NeedsFeedback() {
		fb = policy.NewFeedback(tb.K, policy.FeedbackConfig{SampleIntervalSec: tls.FeedbackIntervalSec})
		fb.Probe = cluster.NewQdiscProbe(tb.Fabric)
		fb.Tracer = tr
	}
	if ctl.NeedsFeedback() {
		ctl.AttachFeedback(fb)
	}
	if tr != nil {
		tb.Env.Tracer, tb.Fabric.Tracer, ctl.Tracer = tr, tr, tr
	}
	return ctl, fb, nil
}
