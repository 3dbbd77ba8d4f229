package sweep

import (
	"context"
	"fmt"

	"repro/internal/dl"
	"repro/internal/metrics"
	"repro/internal/scheduler"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Scheduler-experiment scale: the topology experiment's 3-rack
// leaf-spine cluster, but with an *online* workload — jobs arrive over
// time and the cluster-scheduler tier decides placement (and, for the
// phase-aware policy, start-time shifts) per arrival instead of the
// sweep hardcoding a static layout.
const (
	schedHosts   = 12
	schedRacks   = 3
	schedUplinks = 2
)

// SchedulerOversubs are the core oversubscription ratios the sweep
// compares; both are oversubscribed, because that is where placement
// and interleaving matter (acceptance contract: >= 2:1).
var SchedulerOversubs = []float64{2, 4}

// SchedulerPlacements are the cluster-scheduler placement policies the
// sweep crosses with the end-host policies.
var SchedulerPlacements = scheduler.Policies()

// schedulerPolicyNames are the end-host TensorLights policies crossed
// with the placement grid.
var schedulerPolicyNames = []string{"FIFO", "TLs-RR", "TLs-LAS"}

// schedMix is the deterministic cyclic arrival mix: a
// communication-bound AlexNet ring, a light ResNet-56 parameter-server
// group, and a ResNet-50 ring, repeating by arrival index. The mix
// pits elephant collectives against PS fan-in on the same uplinks.
// Name is the label each arrival's name starts with.
var schedMix = []workload.JobSpec{
	{Name: "alexnet-ring", Kind: workload.KindRing, Model: dl.AlexNet, Tasks: 3, LocalBatch: 1},
	{Name: "resnet56-ps", Kind: workload.KindPS, Model: dl.ResNet56, Tasks: 3, LocalBatch: 4},
	{Name: "resnet50-ring", Kind: workload.KindRing, Model: dl.ResNet50, Tasks: 3, LocalBatch: 1},
}

// SchedulerTrialConfig describes one online-scheduler run.
type SchedulerTrialConfig struct {
	// Steps scales the per-job iteration count exactly like the other
	// sweeps (iterations = Steps/30, min 2).
	Steps int
	Seed  int64
	// Oversub is the leaf-spine core oversubscription ratio (default 2).
	Oversub float64
	// Placement is the cluster-scheduler placement policy (default
	// contention-aware).
	Placement scheduler.Policy
	// PolicyName is the end-host TensorLights policy (default FIFO).
	PolicyName string
	// Jobs is the number of arrivals (default 9: three full mix cycles).
	Jobs int
	// ArrivalRatePerSec is the Poisson arrival rate (default 1/s —
	// dense enough that most jobs overlap, which is where placement
	// and interleaving earn their keep).
	ArrivalRatePerSec float64
	// FabricMode selects the network engine: "" or simnet.ModeChunk for
	// the per-chunk fabric, simnet.ModeFlow for the analytic flow-level
	// model (internal/flownet).
	FabricMode string
	// Tracer, when non-nil, receives events from every layer including
	// the scheduler's sched_place / sched_shift decisions.
	Tracer trace.Tracer
}

// SchedulerTrial runs one online-scheduler simulation: Poisson
// arrivals (stream "sched-arrivals") from the cyclic mix on the
// homogeneous cluster, each placed by the cluster-scheduler tier at its
// arrival instant (phase-aware placements may additionally delay the
// start), running under the configured end-host TensorLights policy
// until every job finishes.
func SchedulerTrial(ctx context.Context, cfg SchedulerTrialConfig) (*OpenWorldTrialResult, error) {
	ow := OpenWorldTrialConfig{
		Steps:             cfg.Steps,
		Seed:              cfg.Seed,
		Oversub:           cfg.Oversub,
		Placement:         cfg.Placement,
		PolicyName:        cfg.PolicyName,
		Jobs:              cfg.Jobs,
		ArrivalRatePerSec: cfg.ArrivalRatePerSec,
		FabricMode:        cfg.FabricMode,
		Tracer:            cfg.Tracer,
	}
	ow.fillDefaults()
	return runOnline(ctx, ow, func(rng *sim.RNG, iters int) ([]workload.OpenArrival, error) {
		times, err := workload.Poisson{RatePerSec: ow.ArrivalRatePerSec}.Times(ow.Jobs, rng.Stream("sched-arrivals"))
		if err != nil {
			return nil, err
		}
		arrivals := make([]workload.OpenArrival, len(times))
		for i, at := range times {
			spec := schedMix[i%len(schedMix)]
			spec.ID = i
			spec.Name = fmt.Sprintf("%s-%02d", spec.Name, i)
			spec.Iterations = iters
			spec.Port = workload.PortFor(spec.Kind, i)
			arrivals[i] = workload.OpenArrival{At: at, Spec: spec}
		}
		return arrivals, nil
	})
}

// SchedulerRow is one (oversubscription, placement, policy) cell.
type SchedulerRow struct {
	Oversub   float64
	Placement string
	Policy    string

	AvgJCT         float64
	P95JCT         float64
	CrossRackRatio float64
	MaxLinkUtil    float64
	ShiftedJobs    int
	TotalShiftSec  float64
	Reconfigs      int
}

// SchedulerResult is the scheduler experiment: the same online arrival
// stream swept across cluster-scheduler placement policies, core
// oversubscription ratios, and end-host TensorLights policies. It
// measures how much of the contention fight a smarter cluster tier can
// win before the end-host bands ever see a packet — the
// beyond-the-paper axis ROADMAP item 2 names.
type SchedulerResult struct {
	Rows []SchedulerRow
}

// Row returns the (oversub, placement, policy) cell.
func (r *SchedulerResult) Row(oversub float64, placement, policy string) (SchedulerRow, bool) {
	for _, row := range r.Rows {
		if row.Oversub == oversub && row.Placement == placement && row.Policy == policy {
			return row, true
		}
	}
	return SchedulerRow{}, false
}

// PlacementGap returns spread average JCT over the given placement's
// average JCT at one oversubscription ratio, pooled across end-host
// policies (> 1 means the smarter placement wins).
func (r *SchedulerResult) PlacementGap(oversub float64, placement scheduler.Policy) float64 {
	var spread, other []float64
	for _, row := range r.Rows {
		if row.Oversub != oversub {
			continue
		}
		switch row.Placement {
		case string(scheduler.PolicySpread):
			spread = append(spread, row.AvgJCT)
		case string(placement):
			other = append(other, row.AvgJCT)
		}
	}
	o := metrics.Mean(other)
	if o <= 0 {
		return 0
	}
	return metrics.Mean(spread) / o
}

func (r *SchedulerResult) report() report {
	rep := report{
		title: "Scheduler: online placement x oversubscription x end-host policy (mixed arrivals)",
		sections: []section{{len(r.Rows), []column{
			{"oversub", "oversub", "%g:1", func(i int) any { return r.Rows[i].Oversub }},
			{"placement", "placement", "", func(i int) any { return r.Rows[i].Placement }},
			{"policy", "policy", "", func(i int) any { return r.Rows[i].Policy }},
			{"avg_jct_s", "avg JCT (s)", "", func(i int) any { return r.Rows[i].AvgJCT }},
			{"p95_jct_s", "p95 JCT (s)", "", func(i int) any { return r.Rows[i].P95JCT }},
			{"cross_rack_ratio", "cross-rack", "%.2f", func(i int) any { return r.Rows[i].CrossRackRatio }},
			{"max_link_util", "max link util", "%.2f", func(i int) any { return r.Rows[i].MaxLinkUtil }},
			{"shifted_jobs", "shifted", "", func(i int) any { return r.Rows[i].ShiftedJobs }},
			{"total_shift_s", "shift (s)", "%.2f", func(i int) any { return r.Rows[i].TotalShiftSec }},
			{"reconfigs", "reconfigs", "", func(i int) any { return r.Rows[i].Reconfigs }},
		}}},
	}
	for _, ov := range SchedulerOversubs {
		for _, p := range []scheduler.Policy{scheduler.PolicyContentionAware, scheduler.PolicyPhaseAware} {
			if gap := r.PlacementGap(ov, p); gap > 0 {
				rep.footer += fmt.Sprintf("oversub %g:1: naive spread avg JCT is %.2fx %s placement\n",
					ov, gap, p)
			}
		}
	}
	return rep
}

// SchedulerSweep runs the full oversub x placement x policy grid.
func SchedulerSweep(o Options) (*SchedulerResult, error) {
	o.fillDefaults()
	type cell struct {
		oversub float64
		place   scheduler.Policy
		pol     string
	}
	var cells []cell
	for _, ov := range SchedulerOversubs {
		for _, place := range SchedulerPlacements {
			for _, pol := range schedulerPolicyNames {
				cells = append(cells, cell{ov, place, pol})
			}
		}
	}
	results, err := Gather(Engine{Parallelism: o.Parallelism}, cells, func(c cell) (*OpenWorldTrialResult, error) {
		r, err := SchedulerTrial(context.Background(), SchedulerTrialConfig{
			Steps:      o.Steps,
			Seed:       o.Seed,
			Oversub:    c.oversub,
			Placement:  c.place,
			PolicyName: c.pol,
		})
		if err != nil {
			return nil, fmt.Errorf("sweep: scheduler cell (%g, %s, %s): %w",
				c.oversub, c.place, c.pol, err)
		}
		return r, nil
	})
	if err != nil {
		return nil, err
	}
	out := &SchedulerResult{}
	for i, c := range cells {
		r := results[i]
		out.Rows = append(out.Rows, SchedulerRow{
			Oversub:        c.oversub,
			Placement:      string(c.place),
			Policy:         c.pol,
			AvgJCT:         r.AvgJCT,
			P95JCT:         r.P95JCT,
			CrossRackRatio: r.CrossRackRatio,
			MaxLinkUtil:    r.MaxLinkUtil,
			ShiftedJobs:    r.ShiftedJobs,
			TotalShiftSec:  r.TotalShiftSec,
			Reconfigs:      r.Reconfigs,
		})
	}
	return out, nil
}
