// Package workload is the unified front door for experiment
// generation: every job — the paper's PS grid search, churn arrivals,
// ring/tree collectives — is described by one placement-free JobSpec
// that lowers to the concrete runtimes (dl.JobSpec, collective.JobSpec)
// once a scheduler has picked hosts. Arrival times come from pluggable
// processes (Poisson, Markov-modulated bursty, trace-driven replay),
// exercising the "batch processing mode" of §IV-B — jobs arriving and
// departing over time, with TensorLights reconfiguring priorities on
// each arrival and departure.
package workload

import (
	"fmt"
	"math"

	"repro/internal/dl"
	"repro/internal/sim"
)

// JobTemplate is one entry of a heterogeneous job mix.
type JobTemplate struct {
	// Kind is the unified job kind (zero value = PS, the paper's
	// pattern; legacy churn templates never set it).
	Kind              Kind
	Model             dl.Model
	LocalBatch        int
	TargetGlobalSteps int
	// Tasks is the worker/rank count for open-world generation. Zero
	// means "all non-PS hosts", which is what the legacy churn
	// workload does.
	Tasks int
	// Iterations is the per-task iteration target for open-world
	// generation (legacy churn uses TargetGlobalSteps instead).
	Iterations int
	// Weight is the template's relative draw probability.
	Weight float64
}

// ChurnConfig describes a Poisson arrival workload.
type ChurnConfig struct {
	// NumJobs is how many jobs arrive in total.
	NumJobs int
	// ArrivalRatePerSec is the Poisson arrival rate (jobs/second).
	ArrivalRatePerSec float64
	// Templates is the job mix; empty selects the paper's ResNet-32
	// grid-search job.
	Templates []JobTemplate
	// Hosts is the cluster size (default 21).
	Hosts int
	// SchedPolicy places each arriving job's PS (production clusters
	// are PS-agnostic, so colocation arises naturally under
	// PolicyRandom; PolicySpread never colocates while hosts remain,
	// which is the paper's §VII PS-aware fix).
	SchedPolicy SchedPolicy
}

// SchedPolicy selects the host Generate places each arriving job's PS
// on.
type SchedPolicy int

const (
	// PolicySpread places on the host with the fewest PSes.
	PolicySpread SchedPolicy = iota
	// PolicyBinpack places on the host with the most PSes that still
	// has room for one more.
	PolicyBinpack
	// PolicyRandom places uniformly at random.
	PolicyRandom
)

// slotsPerHost is the paper's hardware threads per host (six
// dual-hyperthreaded cores). Each PS demands half a thread, and
// binpack fills a host up to twice its threads, as the paper's
// testbed oversubscribes its CPUs: a host has room for 4*slotsPerHost
// PSes.
const slotsPerHost = 12

// psPlacer places Generate's PS tasks by counting PSes per host.
type psPlacer struct {
	policy SchedPolicy
	count  []int
	rng    *sim.RNG
}

// place picks a host under the placer's policy, breaking ties towards
// the lowest host id, and charges it one PS.
func (p *psPlacer) place() (int, error) {
	h := -1
	switch p.policy {
	case PolicySpread:
		for i, c := range p.count {
			if h < 0 || c < p.count[h] {
				h = i
			}
		}
	case PolicyBinpack:
		h = p.fullest(true)
		if h < 0 {
			h = p.fullest(false)
		}
	case PolicyRandom:
		h = p.rng.Intn(len(p.count))
	default:
		return -1, fmt.Errorf("workload: unknown PS placement policy %d", int(p.policy))
	}
	p.count[h]++
	return h, nil
}

// fullest returns the host with the most PSes, only among hosts with
// room for one more when room is set, or -1 when none qualifies.
func (p *psPlacer) fullest(room bool) int {
	h := -1
	for i, c := range p.count {
		if room && c >= 4*slotsPerHost {
			continue
		}
		if h < 0 || c > p.count[h] {
			h = i
		}
	}
	return h
}

func (c *ChurnConfig) fillDefaults() {
	if c.NumJobs <= 0 {
		c.NumJobs = 21
	}
	// Only an unset (zero) rate gets the default; a negative rate is a
	// configuration error that Validate rejects rather than masks.
	if c.ArrivalRatePerSec == 0 {
		c.ArrivalRatePerSec = 0.1
	}
	if c.Hosts <= 0 {
		c.Hosts = 21
	}
	if len(c.Templates) == 0 {
		c.Templates = []JobTemplate{{
			Model:             dl.ResNet32,
			LocalBatch:        4,
			TargetGlobalSteps: 6000,
			Weight:            1,
		}}
	}
}

// Validate reports configuration errors. The arrival rate must be a
// positive, finite number of jobs per second — a zero or negative rate
// would make the Poisson inter-arrival draw meaningless. Generate fills
// defaults first (so an unset rate becomes 0.1/s) and then validates,
// so an explicitly negative rate always errors.
func (c ChurnConfig) Validate() error {
	if !(c.ArrivalRatePerSec > 0) { // also catches NaN
		return fmt.Errorf("workload: ArrivalRatePerSec %g must be positive", c.ArrivalRatePerSec)
	}
	if math.IsInf(c.ArrivalRatePerSec, 1) {
		return fmt.Errorf("workload: ArrivalRatePerSec must be finite")
	}
	return nil
}

// Arrival is one job arrival event, already lowered to the PS runtime
// spec (the legacy churn consumers drive dl.Job directly).
type Arrival struct {
	At   float64
	Spec dl.JobSpec
}

// Generate builds the churn arrival sequence. It is deterministic for
// a given rng stream, and its output is byte-identical to the
// pre-unified-layer generator: the same draws in the same order, with
// each job now expressed as a unified JobSpec and lowered through
// LowerPS onto the PS placer's choice.
func Generate(cfg ChurnConfig, rng *sim.RNG) ([]Arrival, error) {
	cfg.fillDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	stream := rng.Stream("workload")
	placer := &psPlacer{
		policy: cfg.SchedPolicy,
		count:  make([]int, cfg.Hosts),
		rng:    stream.Stream("scheduler"),
	}
	totalWeight := 0.0
	for _, tpl := range cfg.Templates {
		if tpl.Weight <= 0 {
			return nil, fmt.Errorf("workload: template %q needs positive weight", tpl.Model.Name)
		}
		if tpl.LocalBatch < 1 || tpl.TargetGlobalSteps < 1 {
			return nil, fmt.Errorf("workload: template %q incomplete", tpl.Model.Name)
		}
		totalWeight += tpl.Weight
	}
	arrivals := make([]Arrival, 0, cfg.NumJobs)
	at := 0.0
	for id := 0; id < cfg.NumJobs; id++ {
		at += stream.Expo(1 / cfg.ArrivalRatePerSec)
		tpl := pickTemplate(cfg.Templates, totalWeight, stream)
		psHost, err := placer.place()
		if err != nil {
			return nil, err
		}
		hosts := make([]int, 0, cfg.Hosts)
		hosts = append(hosts, psHost)
		for h := 0; h < cfg.Hosts; h++ {
			if h != psHost {
				hosts = append(hosts, h)
			}
		}
		unified := JobSpec{
			ID:            id,
			Name:          fmt.Sprintf("churn-%02d-%s", id, tpl.Model.Name),
			Kind:          KindPS,
			Model:         tpl.Model,
			Tasks:         len(hosts) - 1,
			LocalBatch:    tpl.LocalBatch,
			PSGlobalSteps: tpl.TargetGlobalSteps,
			Port:          5000 + id,
		}
		spec, err := unified.LowerPS(hosts)
		if err != nil {
			return nil, err
		}
		arrivals = append(arrivals, Arrival{At: at, Spec: spec})
	}
	return arrivals, nil
}

func pickTemplate(templates []JobTemplate, total float64, rng *sim.RNG) JobTemplate {
	r := rng.Float64() * total
	for _, tpl := range templates {
		if r < tpl.Weight {
			return tpl
		}
		r -= tpl.Weight
	}
	return templates[len(templates)-1]
}

// GridSearchMix is the paper's homogeneous workload as a template set.
func GridSearchMix(steps int) []JobTemplate {
	return []JobTemplate{{
		Model: dl.ResNet32, LocalBatch: 4, TargetGlobalSteps: steps, Weight: 1,
	}}
}

// HeterogeneousMix mixes small and large models, where the paper's
// smallest-update-first priority order avoids head-of-line blocking.
func HeterogeneousMix(steps int) []JobTemplate {
	return []JobTemplate{
		{Model: dl.ResNet32, LocalBatch: 4, TargetGlobalSteps: steps, Weight: 0.5},
		{Model: dl.ResNet56, LocalBatch: 4, TargetGlobalSteps: steps, Weight: 0.3},
		{Model: dl.InceptionV3, LocalBatch: 4, TargetGlobalSteps: steps / 4, Weight: 0.2},
	}
}

// --- open-world generation -------------------------------------------

// Port conventions of the open-world generator: PS jobs claim one port
// each above basePSPort; collective jobs get a 100-port block above
// baseCollectivePort (mirroring the scheduler sweep's layout, and
// keeping both families disjoint for any realistic job count).
const (
	basePSPort         = 5000
	baseCollectivePort = 7000
)

// PortFor assigns job i's TCP source port by kind.
func PortFor(kind Kind, i int) int {
	if kind.Collective() {
		return baseCollectivePort + 100*i
	}
	return basePSPort + i
}

// OpenArrival is one open-world arrival: a unified, not-yet-placed
// JobSpec plus its arrival time. The consumer routes Spec.SchedReq()
// through the online scheduler tier and lowers onto the decision.
type OpenArrival struct {
	At   float64
	Spec JobSpec
}

// OpenConfig describes an open-world arrival workload: how many jobs,
// which arrival process, and which job mix.
type OpenConfig struct {
	// Jobs is the total number of arrivals (default 9; for trace-driven
	// replay, 0 means "the whole trace").
	Jobs int
	// Arrivals is the arrival process (default Poisson at 1 job/s).
	// When it is a *Trace, each job's kind/model/shape comes from the
	// trace entry and Mix is ignored.
	Arrivals Process
	// Mix is the job mix for stochastic processes (default
	// OpenWorldMix(30)).
	Mix []JobTemplate
}

func (c *OpenConfig) fillDefaults() {
	if c.Arrivals == nil {
		c.Arrivals = Poisson{RatePerSec: 1}
	}
	if tr, ok := c.Arrivals.(*Trace); ok && c.Jobs <= 0 && tr != nil {
		c.Jobs = len(tr.Entries)
	}
	if c.Jobs <= 0 {
		c.Jobs = 9
	}
	if len(c.Mix) == 0 {
		c.Mix = OpenWorldMix(30)
	}
}

// GenerateOpen builds the open-world arrival sequence: arrival times
// from the configured process (stream "open-arrivals") and job shapes
// from the weighted mix (stream "open-mix") or, for trace replay, from
// the recorded entries. Placement is deliberately absent — that is the
// scheduler tier's decision at each arrival instant.
func GenerateOpen(cfg OpenConfig, rng *sim.RNG) ([]OpenArrival, error) {
	cfg.fillDefaults()
	times, err := cfg.Arrivals.Times(cfg.Jobs, rng.Stream("open-arrivals"))
	if err != nil {
		return nil, err
	}
	if tr, ok := cfg.Arrivals.(*Trace); ok {
		arrivals := make([]OpenArrival, cfg.Jobs)
		for i := range arrivals {
			spec, err := tr.spec(i)
			if err != nil {
				return nil, err
			}
			arrivals[i] = OpenArrival{At: times[i], Spec: spec}
		}
		return arrivals, nil
	}
	totalWeight := 0.0
	for _, tpl := range cfg.Mix {
		if tpl.Weight <= 0 {
			return nil, fmt.Errorf("workload: template %q needs positive weight", tpl.Model.Name)
		}
		if tpl.Tasks < 1 || tpl.LocalBatch < 1 || tpl.Iterations < 1 {
			return nil, fmt.Errorf("workload: open-world template %q needs positive tasks, batch and iterations", tpl.Model.Name)
		}
		totalWeight += tpl.Weight
	}
	mixStream := rng.Stream("open-mix")
	arrivals := make([]OpenArrival, cfg.Jobs)
	for i := range arrivals {
		tpl := pickTemplate(cfg.Mix, totalWeight, mixStream)
		spec := JobSpec{
			ID:         i,
			Name:       fmt.Sprintf("open-%02d-%s-%s", i, tpl.Kind, tpl.Model.Name),
			Kind:       tpl.Kind,
			Model:      tpl.Model,
			Tasks:      tpl.Tasks,
			LocalBatch: tpl.LocalBatch,
			Iterations: tpl.Iterations,
			Port:       PortFor(tpl.Kind, i),
		}
		if err := spec.Validate(); err != nil {
			return nil, err
		}
		arrivals[i] = OpenArrival{At: times[i], Spec: spec}
	}
	return arrivals, nil
}

// OpenWorldMix is the default open-world job mix: PS and collective
// jobs in one stream, small updates (DCGAN, ResNet-56) against
// communication elephants (AlexNet ring), plus a tree all-reduce for
// the latency-bound pattern. Every job spans 3 tasks so the mix fits
// the 12-host leaf-spine sweep cluster with several jobs resident.
func OpenWorldMix(iters int) []JobTemplate {
	if iters < 1 {
		iters = 1
	}
	return []JobTemplate{
		{Kind: KindPS, Model: dl.DCGAN, Tasks: 3, LocalBatch: 4, Iterations: iters, Weight: 0.3},
		{Kind: KindPS, Model: dl.ResNet56, Tasks: 3, LocalBatch: 4, Iterations: 2 * iters, Weight: 0.3},
		{Kind: KindRing, Model: dl.AlexNet, Tasks: 3, LocalBatch: 1, Iterations: iters, Weight: 0.25},
		{Kind: KindTree, Model: dl.ResNet50, Tasks: 3, LocalBatch: 1, Iterations: iters, Weight: 0.15},
	}
}

// PSOnlyMix is the open-world mix restricted to parameter-server jobs.
func PSOnlyMix(iters int) []JobTemplate {
	if iters < 1 {
		iters = 1
	}
	return []JobTemplate{
		{Kind: KindPS, Model: dl.DCGAN, Tasks: 3, LocalBatch: 4, Iterations: iters, Weight: 0.4},
		{Kind: KindPS, Model: dl.ResNet56, Tasks: 3, LocalBatch: 4, Iterations: 2 * iters, Weight: 0.4},
		{Kind: KindPS, Model: dl.InceptionV3, Tasks: 3, LocalBatch: 2, Iterations: iters, Weight: 0.2},
	}
}

// CollectiveOnlyMix is the open-world mix restricted to collectives.
func CollectiveOnlyMix(iters int) []JobTemplate {
	if iters < 1 {
		iters = 1
	}
	return []JobTemplate{
		{Kind: KindRing, Model: dl.AlexNet, Tasks: 3, LocalBatch: 1, Iterations: iters, Weight: 0.4},
		{Kind: KindRing, Model: dl.ResNet50, Tasks: 3, LocalBatch: 1, Iterations: iters, Weight: 0.4},
		{Kind: KindTree, Model: dl.ResNet50, Tasks: 3, LocalBatch: 1, Iterations: iters, Weight: 0.2},
	}
}

// NamedMix resolves a mix name from the CLI (-mix flag): "mixed"
// (default), "ps" or "collective".
func NamedMix(name string, iters int) ([]JobTemplate, error) {
	switch name {
	case "", "mixed":
		return OpenWorldMix(iters), nil
	case "ps":
		return PSOnlyMix(iters), nil
	case "collective":
		return CollectiveOnlyMix(iters), nil
	}
	return nil, fmt.Errorf("workload: unknown mix %q (want mixed, ps or collective)", name)
}

// TwoTierSpeeds builds a deterministic heterogeneous speed-factor
// vector: every slowEvery-th host (ids slowEvery-1, 2*slowEvery-1, ...)
// runs at slowFactor, the rest at 1.0. Deterministic rather than drawn,
// so heterogeneous-vs-homogeneous comparisons differ only in hardware,
// never in random layout.
func TwoTierSpeeds(hosts, slowEvery int, slowFactor float64) []float64 {
	if hosts <= 0 {
		return nil
	}
	speeds := make([]float64, hosts)
	for i := range speeds {
		speeds[i] = 1
		if slowEvery > 0 && slowFactor > 0 && (i+1)%slowEvery == 0 {
			speeds[i] = slowFactor
		}
	}
	return speeds
}
