package main

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	tensorlights "repro"
	"repro/internal/cpusim"
	"repro/internal/dl"
	"repro/internal/flownet"
	"repro/internal/qdisc"
	"repro/internal/scheduler"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/workload"
)

// The isolated drives time one layer each through its public API, on
// inputs shaped like the workload that stresses it. They run the same
// way in every traced run, whatever the workload, so a change to one
// layer moves that layer's number and nothing else.

// driveSizes scales every drive; tests shrink it.
type driveSizes struct {
	KernelEvents   int
	CPUTasks       int
	FabricBytes    int64
	HTBOps         int
	FlowJobs       int
	FlowWorkers    int
	FlowCompletes  int
	SolverFlows    int
	SchedOps       int
	Arrivals       int
	DaemonRequests int
	Reps           int
}

var drivesFull = driveSizes{
	KernelEvents:   400_000,
	CPUTasks:       30_000,
	FabricBytes:    1 << 30,
	HTBOps:         100_000,
	FlowJobs:       16,
	FlowWorkers:    639,
	FlowCompletes:  400,
	SolverFlows:    639,
	SchedOps:       5_000,
	Arrivals:       1_000,
	DaemonRequests: 60,
	Reps:           5,
}

// kernelDepth is the event-heap depth the drive holds: the grid
// workload's kernel carries 43 pending events on average at its
// barriers (seed 1).
const kernelDepth = 43

// rng64 is a xorshift stream for drive inputs: cheap enough not to show
// in the timings it feeds.
type rng64 uint64

func newRNG64(seed int64) *rng64 {
	r := rng64(uint64(seed)*0x9E3779B97F4A7C15 | 1)
	return &r
}

func (r *rng64) next() uint64 {
	x := uint64(*r)
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	*r = rng64(x)
	return x
}

// timeReps runs fn reps times after a GC each and returns the median
// wall time.
func timeReps(reps int, fn func()) time.Duration {
	walls := make([]float64, reps)
	for i := range walls {
		runtime.GC()
		t0 := time.Now()
		fn()
		walls[i] = float64(time.Since(t0))
	}
	return time.Duration(median(walls))
}

// runDrives runs every drive and returns its per-layer metrics.
func runDrives(seed int64, sz driveSizes, t *tlsimdSpec) (map[string]float64, error) {
	m := map[string]float64{}
	m["sim.ns_per_event"], m["sim.event_allocs"] = driveKernel(seed, sz)
	m["cpusim.ns_per_task"] = driveCPU(seed, sz)
	m["simnet.ns_per_chunk"] = driveFabric(seed, sz)
	m["qdisc.htb_ns_per_op"] = driveHTB(sz)
	m["flownet.ns_per_completion_10k"] = driveFlowEngine(seed, sz)
	m["flownet.solve_us_640"] = driveSolver(seed, sz)
	var err error
	if m["scheduler.place_us"], err = driveScheduler(seed, sz); err != nil {
		return nil, err
	}
	if m["workload.generate_us"], err = driveGenerate(seed, sz); err != nil {
		return nil, err
	}
	daemon, err := driveDaemon(seed, sz, t)
	if err != nil {
		return nil, err
	}
	for k, v := range daemon {
		m[k] = v
	}
	return m, nil
}

// driveKernel posts and fires no-op events at a fixed heap depth, each
// fired event posting one successor at a random future offset.
func driveKernel(seed int64, sz driveSizes) (nsPerEvent, allocs float64) {
	wall := timeReps(sz.Reps, func() {
		k := sim.NewKernel()
		r := newRNG64(seed)
		var fn func(any)
		fn = func(any) { k.PostArgAfter(float64(r.next()%4096)*1e-6, fn, nil) }
		for i := 0; i < kernelDepth; i++ {
			fn(nil)
		}
		target := uint64(sz.KernelEvents)
		k.Run(func() bool { return k.Fired() >= target })
		allocs = float64(k.EventAllocs())
	})
	return float64(wall.Nanoseconds()) / float64(sz.KernelEvents), allocs
}

// driveCPU churns 21 concurrent tasks — one grid worker per job on a
// host — through a 12-thread processor-sharing CPU, replacing each
// finished task with a new one.
func driveCPU(seed int64, sz driveSizes) float64 {
	wall := timeReps(sz.Reps, func() {
		k := sim.NewKernel()
		cpu := cpusim.NewCPU(k, 12)
		r := newRNG64(seed)
		done := 0
		var submit func()
		submit = func() {
			cpu.Submit(0.2+float64(r.next()%1000)*1e-4, 1, func() {
				done++
				submit()
			})
		}
		for i := 0; i < 21; i++ {
			submit()
		}
		k.Run(func() bool { return done >= sz.CPUTasks })
	})
	return float64(wall.Nanoseconds()) / float64(sz.CPUTasks)
}

// driveFabric pushes four concurrent cross-rack flows through the one
// contended uplink of a 2:1-oversubscribed two-rack leaf-spine, so each
// chunk crosses the source egress qdisc, the leaf uplink, the spine
// downlink and the destination ingress.
func driveFabric(seed int64, sz driveSizes) float64 {
	const senders = 4
	var chunks int64
	wall := timeReps(sz.Reps, func() {
		k := sim.NewKernel()
		f := simnet.New(k, sim.NewRNG(seed), simnet.Config{
			Topology: simnet.TopologyConfig{
				Kind:             simnet.TopologyLeafSpine,
				Racks:            2,
				UplinksPerLeaf:   1,
				Oversubscription: 2,
			},
		})
		for i := 0; i < 2*senders; i++ {
			f.AddHost(fmt.Sprintf("drive%d", i))
		}
		for i := 0; i < senders; i++ {
			f.Send(simnet.FlowSpec{Src: i, Dst: senders + i, SrcPort: i, DstPort: 1000 + i, Bytes: sz.FabricBytes})
		}
		k.Run(nil)
		chunks = 0
		for _, h := range f.Hosts() {
			chunks += h.Egress.Chunks()
		}
	})
	return float64(wall.Nanoseconds()) / float64(chunks)
}

// driveHTB runs the qdisc TensorLights installs — six prioritized HTB
// leaves with a tiny guaranteed rate and a link-rate ceil — with every
// class backlogged: each dequeued chunk is re-enqueued into its class.
func driveHTB(sz driveSizes) float64 {
	const (
		classes  = 6
		linkRate = 1.25e9
		chunk    = 256 << 10
	)
	wall := timeReps(sz.Reps, func() {
		h := qdisc.NewHTB(linkRate, 0)
		for c := 0; c < classes; c++ {
			if err := h.AddClass(qdisc.ClassID(c), qdisc.HTBClassConfig{Rate: 125e3, Ceil: linkRate, Prio: c}); err != nil {
				panic(err) // compiled-in configuration
			}
			h.Classifier().Add(qdisc.Filter{Pref: 1, Match: qdisc.MatchSrcPort(5000 + c), Target: qdisc.ClassID(c)})
		}
		now := 0.0
		for c := 0; c < classes; c++ {
			for i := 0; i < 4; i++ {
				h.Enqueue(&qdisc.Chunk{SrcPort: 5000 + c, Bytes: chunk}, now)
			}
		}
		for ops := 0; ops < sz.HTBOps; {
			c := h.Dequeue(now)
			if c == nil {
				now = h.ReadyAt(now)
				continue
			}
			now += float64(c.Bytes) / linkRate
			h.Enqueue(c, now)
			ops++
		}
	})
	return float64(wall.Nanoseconds()) / float64(sz.HTBOps)
}

// driveFlowEngine holds the 10k scenario's flow population in the
// analytic engine — one PS egress per job fanning out to its workers'
// ingress links — and replaces every completed flow with a new one on
// the same path, so each completion costs an advance over all active
// flows plus a re-solve of the job's component. Building the population
// is not timed.
func driveFlowEngine(seed int64, sz driveSizes) float64 {
	walls := make([]float64, sz.Reps)
	for rep := range walls {
		k := sim.NewKernel()
		r := newRNG64(seed)
		var e *flownet.Engine
		paths := make([][]int, 0, sz.FlowJobs*sz.FlowWorkers)
		var nextID flownet.FlowID
		add := func(p int) {
			nextID++
			links := paths[p]
			e.AddFlow(nextID, links, links[0], 0, float64(1+r.next()%4), float64(1<<20+r.next()%(1<<20)), p)
		}
		done := 0
		e = flownet.NewEngine(k, func(_ flownet.FlowID, tag any) {
			done++
			add(tag.(int))
		})
		for j := 0; j < sz.FlowJobs; j++ {
			egress := e.AddLink(1.25e9)
			for w := 0; w < sz.FlowWorkers; w++ {
				paths = append(paths, []int{egress, e.AddLink(1.25e9)})
			}
		}
		for p := range paths {
			add(p)
		}
		k.Run(func() bool { return done > 0 })
		runtime.GC()
		t0 := time.Now()
		k.Run(func() bool { return done > sz.FlowCompletes })
		walls[rep] = float64(time.Since(t0).Nanoseconds())
	}
	return median(walls) / float64(sz.FlowCompletes)
}

// driveSolver solves one 10k-scenario component: the flows of one job,
// all sharing the PS egress, each also crossing its own worker link.
func driveSolver(seed int64, sz driveSizes) float64 {
	r := newRNG64(seed)
	caps := make([]float64, sz.SolverFlows+1)
	caps[0] = 1.25e9
	flows := make([]flownet.Flow, sz.SolverFlows)
	for i := range flows {
		caps[i+1] = 1.25e9 * float64(1+r.next()%8) / 8
		flows[i] = flownet.Flow{Links: []int{0, i + 1}, Weight: float64(1 + r.next()%4), Band: int(r.next() % 3), BandLink: 0}
	}
	var s flownet.Solver
	var rates []float64
	const solves = 20
	wall := timeReps(sz.Reps, func() {
		for i := 0; i < solves; i++ {
			rates = s.Solve(caps, flows, rates)
		}
	})
	return float64(wall.Nanoseconds()) / solves / 1e3
}

// driveScheduler places and releases jobs on the open-world cluster
// with three jobs resident, so every placement scores a loaded fabric.
func driveScheduler(seed int64, sz driveSizes) (float64, error) {
	models := []dl.Model{dl.DCGAN, dl.ResNet56, dl.AlexNet, dl.ResNet50}
	var err error
	wall := timeReps(sz.Reps, func() {
		s, e := scheduler.New(scheduler.Config{
			Hosts: openWorldHosts,
			Topo: simnet.TopologyConfig{
				Kind: simnet.TopologyLeafSpine, Racks: openWorldRacks,
				UplinksPerLeaf: openWorldUplinks, Oversubscription: openWorldOversub,
			},
			Policy: scheduler.PolicyContentionAware,
			RNG:    sim.NewRNG(seed),
		})
		if e != nil {
			err = e
			return
		}
		for i := 0; i < sz.SchedOps; i++ {
			kind := scheduler.KindPS
			if i%2 == 1 {
				kind = scheduler.KindCollective
			}
			if _, e := s.Place(scheduler.JobReq{ID: i, Kind: kind, Model: models[i%len(models)], Tasks: 3, LocalBatch: 4}, float64(i)); e != nil {
				err = e
				return
			}
			if i >= 3 {
				s.Release(i - 3)
			}
		}
	})
	return float64(wall.Nanoseconds()) / float64(sz.SchedOps) / 1e3, err
}

// driveGenerate draws the open-world arrival sequence: MMPP-bursty
// arrival times and job shapes from the mixed PS/ring/tree mix.
func driveGenerate(seed int64, sz driveSizes) (float64, error) {
	proc, err := workload.ParseProcess("bursty", 1)
	if err != nil {
		return 0, err
	}
	const calls = 10
	wall := timeReps(sz.Reps, func() {
		for i := 0; i < calls; i++ {
			if _, e := workload.GenerateOpen(workload.OpenConfig{
				Jobs: sz.Arrivals, Arrivals: proc, Mix: workload.OpenWorldMix(1000),
			}, sim.NewRNG(seed+int64(i))); e != nil {
				err = e
			}
		}
	})
	return float64(wall.Nanoseconds()) / calls / 1e3, err
}

// driveDaemon serves distinct submissions from two closed-loop clients
// against a daemon whose Runner returns at once, so the numbers are the
// daemon's own cost: admission, hashing, the fsynced journal, queueing
// and JSON over loopback HTTP.
func driveDaemon(seed int64, sz driveSizes, t *tlsimdSpec) (map[string]float64, error) {
	var mu sync.Mutex
	started := map[int64]time.Time{}
	stub := func(_ context.Context, cfg tensorlights.ExperimentConfig) (*tensorlights.Result, error) {
		mu.Lock()
		started[cfg.Seed] = time.Now()
		mu.Unlock()
		return &tensorlights.Result{JCTs: []float64{1}, AvgJCT: 1, SimulatedSeconds: 1, Events: 1}, nil
	}
	d, err := t.startDaemon(stub)
	if err != nil {
		return nil, err
	}
	var subs []*submission
	var wg sync.WaitGroup
	for c := 0; c < parallelism; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < sz.DaemonRequests; i += parallelism {
				key := seed + int64(i)
				s := d.do(time.Now(), key, t.config(key), nil)
				mu.Lock()
				subs = append(subs, s)
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	journal := d.journalBytes()
	if err := d.stop(); err != nil {
		return nil, err
	}
	var submit, wait, fetch []float64
	for _, s := range subs {
		if s.err != nil {
			return nil, fmt.Errorf("daemon drive: %w", s.err)
		}
		submit = append(submit, ms(s.accepted.Sub(s.sent)))
		wait = append(wait, ms(started[s.key].Sub(s.sent)))
		fetch = append(fetch, ms(s.fetched.Sub(s.fetchSent)))
	}
	return map[string]float64{
		"server.submit_ms_p50":         median(submit),
		"server.post_to_run_ms_p50":    median(wait),
		"server.fetch_ms_p50":          median(fetch),
		"server.journal_bytes_per_job": float64(journal) / float64(sz.DaemonRequests),
	}, nil
}
