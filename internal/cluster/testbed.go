package cluster

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/cpusim"
	"repro/internal/dl"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/tc"
)

// Config sizes the simulated testbed. Defaults reproduce the paper's:
// 21 hosts, six 3.5 GHz dual-hyperthreaded cores (12 hardware threads)
// each, all links 10 Gbps through one switch.
type Config struct {
	Hosts          int
	ThreadsPerHost float64
	// HostSpeedFactors optionally scales per-host CPU speed (index =
	// host id; missing entries default to 1.0). Use it to model a
	// heterogeneous cluster with compute-bound straggler hosts.
	HostSpeedFactors []float64
	Net              simnet.Config
	Seed             int64
}

func (c *Config) fillDefaults() {
	if c.Hosts <= 0 {
		c.Hosts = 21
	}
	if c.ThreadsPerHost <= 0 {
		c.ThreadsPerHost = 12
	}
}

// Testbed bundles the substrate a workload runs on.
type Testbed struct {
	Cfg    Config
	K      *sim.Kernel
	Fabric *simnet.Fabric
	CPUs   []*cpusim.CPU
	RNG    *sim.RNG
	TC     *tc.Controller
	Env    *dl.Env
}

// NewTestbed builds hosts, NICs and CPUs on a fresh kernel.
func NewTestbed(cfg Config) *Testbed {
	cfg.fillDefaults()
	k := sim.NewKernel()
	rng := sim.NewRNG(cfg.Seed)
	fab := simnet.New(k, rng, cfg.Net)
	cpus := make([]*cpusim.CPU, cfg.Hosts)
	for i := 0; i < cfg.Hosts; i++ {
		fab.AddHost(fmt.Sprintf("host%02d", i))
		speed := 1.0
		if i < len(cfg.HostSpeedFactors) && cfg.HostSpeedFactors[i] > 0 {
			speed = cfg.HostSpeedFactors[i]
		}
		cpus[i] = cpusim.NewCPUAtSpeed(k, cfg.ThreadsPerHost, speed)
	}
	// Force the topology build now that the host set is final: an
	// invalid rack/host combination fails here, before any workload
	// runs, and fault plans can address core links immediately.
	fab.Topology()
	tb := &Testbed{
		Cfg:    cfg,
		K:      k,
		Fabric: fab,
		CPUs:   cpus,
		RNG:    rng,
		TC:     tc.NewController(fab),
	}
	tb.Env = &dl.Env{K: k, Fabric: fab, CPUs: cpus, RNG: rng}
	return tb
}

// GridSearchSpecs builds the paper's workload: numJobs identical
// synchronous jobs (grid-search instances) with PSes placed per the
// placement and one worker per job on every non-PS host.
func GridSearchSpecs(cfg Config, m dl.Model, numJobs, localBatch, targetSteps int, p Placement) ([]dl.JobSpec, error) {
	cfg.fillDefaults()
	psHosts, err := p.PSHosts(numJobs, cfg.Hosts)
	if err != nil {
		return nil, err
	}
	specs := make([]dl.JobSpec, numJobs)
	for id := 0; id < numJobs; id++ {
		var workers []int
		for h := 0; h < cfg.Hosts; h++ {
			if h != psHosts[id] {
				workers = append(workers, h)
			}
		}
		specs[id] = dl.JobSpec{
			ID:                id,
			Name:              fmt.Sprintf("grid-%02d", id),
			Model:             m,
			NumWorkers:        len(workers),
			LocalBatch:        localBatch,
			TargetGlobalSteps: targetSteps,
			PSHost:            psHosts[id],
			PSPort:            5000 + id,
			WorkerHosts:       workers,
		}
	}
	return specs, nil
}

// Launch creates the jobs and schedules their starts staggerSec apart
// (0.1 s in the paper, to avoid overloading RPC/SSH setup). onStart, if
// non-nil, fires at each job's start time — TensorLights hooks job
// arrivals here.
func (tb *Testbed) Launch(specs []dl.JobSpec, staggerSec float64, onStart func(*dl.Job)) ([]*dl.Job, error) {
	jobs := make([]*dl.Job, len(specs))
	for i, spec := range specs {
		j, err := dl.NewJob(tb.Env, spec)
		if err != nil {
			return nil, err
		}
		jobs[i] = j
	}
	for i, j := range jobs {
		j := j
		tb.K.Post(tb.K.Now()+float64(i)*staggerSec, func() {
			j.Start()
			if onStart != nil {
				onStart(j)
			}
		})
	}
	return jobs, nil
}

// defaultEventBudget is the event budget RunUntil applies when the
// caller passes 0: far beyond any experiment in this repository, so
// hitting it means a runaway simulation.
const defaultEventBudget = 500_000_000

// ErrEventBudget is wrapped by RunUntil's error when the event budget
// runs out before the run is done.
var ErrEventBudget = errors.New("event budget exhausted")

// ctxCheckEvery is how many kernel events fire between context polls in
// RunUntil. Polling a context is a synchronized channel peek; amortizing
// it keeps the ~ns/event hot loop unaffected while still bounding
// cancellation latency to a few thousand events.
const ctxCheckEvery = 4096

// RunUntil drives the kernel until finished reports true, ctx is
// cancelled, or maxEvents events have fired (0 = 500M). finished is
// checked before every event. Cancellation stops the kernel between
// events (no event is half-fired) and returns ctx's error; running out
// of budget returns an error wrapping ErrEventBudget that names the
// budget and the events fired. A never-cancelled ctx fires exactly the
// events an uncancellable run would.
func (tb *Testbed) RunUntil(ctx context.Context, maxEvents uint64, finished func() bool) error {
	if maxEvents == 0 {
		maxEvents = defaultEventBudget
	}
	if ctx == nil {
		ctx = context.Background()
	}
	done := ctx.Done()
	if done != nil && ctx.Err() != nil {
		return ctx.Err()
	}
	var cancelled, exhausted bool
	var sinceCheck int
	start := tb.K.Fired()
	tb.K.Run(func() bool {
		if done != nil {
			sinceCheck++
			if sinceCheck >= ctxCheckEvery {
				sinceCheck = 0
				select {
				case <-done:
					cancelled = true
					return true
				default:
				}
			}
		}
		if finished() {
			return true
		}
		if tb.K.Fired()-start >= maxEvents {
			exhausted = true
			return true
		}
		return false
	})
	switch {
	case cancelled:
		return ctx.Err()
	case exhausted:
		return fmt.Errorf("cluster: %w: budget %d, %d events fired",
			ErrEventBudget, maxEvents, tb.K.Fired()-start)
	}
	return nil
}
