package main

import (
	"context"
	"fmt"
	"path/filepath"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dl"
	"repro/internal/scheduler"
	"repro/internal/simnet"
	"repro/internal/sweep"
	"repro/internal/workload"
)

// The workload sizes are fixed here rather than taken as flags, so every
// run of a workload does the same work per trial; the tests build the
// same workloads at tiny sizes.

// gridWorkload is the paper's Table I cell: 21 hosts, 21 ResNet-32
// grid-search jobs, all PSes colocated (placement #1), TLs-RR, chunk
// fabric behind the flat switch. Nearly all host time goes to the event
// heap, NIC ports, HTB dequeue, cpusim and the controller's rotation;
// flownet, the scheduler and the workload generator do nothing.
func gridWorkload(steps int) *simSpec {
	p1, err := cluster.PlacementByIndex(1)
	if err != nil {
		panic(err) // placement #1 is a compiled-in constant
	}
	return runConfigSpec("grid-chunk-rr", func(seed int64) sweep.RunConfig {
		return sweep.RunConfig{
			Label:       fmt.Sprintf("grid-chunk-rr-seed%d", seed),
			Cluster:     cluster.Config{Seed: seed},
			Model:       dl.ResNet32,
			NumJobs:     21,
			LocalBatch:  4,
			TargetSteps: steps,
			Placement:   p1,
			TLs:         core.Config{Policy: core.PolicyRR},
			StaggerSec:  0.1,
		}
	}, 50)
}

// leafSpineSize shapes the large flow-fabric workload.
type leafSpineSize struct {
	Racks, HostsPerRack, Jobs, Steps int
}

// leafSpineWorkload is the 10,240-host scenario: 256 racks of 40 hosts,
// 16 ResNet-50 PS jobs each on its own 640-host block (one PS, 639
// workers), TLs-One on the analytic flow fabric. About ten thousand
// flows are in flight at once, so flownet's per-event advance over the
// active flows dominates; its testbed is also the only one large enough
// to move set-up time and memory.
func leafSpineWorkload(sz leafSpineSize) *simSpec {
	hosts := sz.Racks * sz.HostsPerRack
	block := hosts / sz.Jobs
	specs := make([]dl.JobSpec, sz.Jobs)
	for j := range specs {
		first := j * block
		workers := make([]int, block-1)
		for w := range workers {
			workers[w] = first + 1 + w
		}
		specs[j] = dl.JobSpec{
			ID:                j,
			Name:              fmt.Sprintf("block-%02d", j),
			Model:             dl.ResNet50,
			NumWorkers:        block - 1,
			LocalBatch:        4,
			TargetGlobalSteps: sz.Steps,
			PSHost:            first,
			PSPort:            5000 + j,
			WorkerHosts:       workers,
		}
	}
	return runConfigSpec("leafspine-10k-flow", func(seed int64) sweep.RunConfig {
		return sweep.RunConfig{
			Label: fmt.Sprintf("leafspine-10k-flow-seed%d", seed),
			Cluster: cluster.Config{
				Hosts: hosts,
				Seed:  seed,
				Net: simnet.Config{
					Mode: simnet.ModeFlow,
					Topology: simnet.TopologyConfig{
						Kind:           simnet.TopologyLeafSpine,
						Racks:          sz.Racks,
						UplinksPerLeaf: 4,
					},
				},
			},
			LocalBatch:  4,
			TargetSteps: sz.Steps,
			TLs:         core.Config{Policy: core.PolicyOne},
			StaggerSec:  0.02,
			PSSpecs:     specs,
		}
	}, 20)
}

// The open-world cluster: 12 hosts in 3 racks with 2 uplinks each,
// every third host at 60% speed, as sweep.OpenWorldTrial builds it.
const (
	openWorldHosts    = 12
	openWorldRacks    = 3
	openWorldUplinks  = 2
	openWorldOversub  = 2
	openWorldJobs     = 9
	openWorldSlowStep = 3
	openWorldSlowness = 0.6
)

// openWorldWorkload is the paper's batch mode as an open world: bursty
// arrivals of mixed PS, ring and tree jobs placed by the
// contention-aware scheduler on a 2:1 leaf-spine of heterogeneous hosts,
// flow fabric. It exercises placement, arrival generation, the
// collective state machines and many small incremental flownet solves,
// and bypasses the per-chunk ports and qdiscs entirely.
//
// The end hosts run FIFO. Every priority-setting policy (TLs-RR, -SRSF,
// -LAS, -Interleave) makes some seeds of this trial give different
// results from run to run: tied cpusim completions fire in map order, so
// flows start in a different order and the fluid rates differ. The
// benchmark checks that a seed reproduces, so it cannot run them here
// until that order is fixed.
func openWorldWorkload(steps int) *simSpec {
	cfg := func(seed int64) sweep.OpenWorldTrialConfig {
		return sweep.OpenWorldTrialConfig{
			Steps:         steps,
			Seed:          seed,
			Arrivals:      "bursty",
			Heterogeneous: true,
			Oversub:       openWorldOversub,
			Placement:     scheduler.PolicyContentionAware,
			PolicyName:    "FIFO",
			Jobs:          openWorldJobs,
			MixName:       "mixed",
			FabricMode:    simnet.ModeFlow,
		}
	}
	trial := func(ctx context.Context, c sweep.OpenWorldTrialConfig) (trialOut, error) {
		r, err := sweep.OpenWorldTrial(ctx, c)
		if err != nil {
			return trialOut{}, err
		}
		return trialOut{JCTs: r.JCTs, Events: r.Events, SimTime: r.MakespanSec, Reconfigs: r.Reconfigs}, nil
	}
	topo := simnet.TopologyConfig{
		Kind:             simnet.TopologyLeafSpine,
		Racks:            openWorldRacks,
		UplinksPerLeaf:   openWorldUplinks,
		Oversubscription: openWorldOversub,
	}
	return &simSpec{
		name: "openworld-flow",
		trial: func(ctx context.Context, seed int64) (trialOut, error) {
			return trial(ctx, cfg(seed))
		},
		traced: func(ctx context.Context, seed int64, rec *spanRecorder) (trialOut, error) {
			kinds := kindCounts{}
			c := cfg(seed)
			c.Tracer = kinds.tracer()
			var out trialOut
			var err error
			rec.wrap(seed, 0, "sweep.OpenWorldTrial", func() { out, err = trial(ctx, c) })
			if err != nil {
				return out, err
			}
			out.Counts = map[string]float64{
				"sim.events":     float64(out.Events),
				"core.reconfigs": float64(out.Reconfigs),
			}
			for _, km := range kindMetrics {
				out.Counts[km.metric] = float64(kinds[km.kind])
			}
			return out, nil
		},
		setup: func(seed int64) error {
			tb := cluster.NewTestbed(cluster.Config{
				Hosts:            openWorldHosts,
				Seed:             seed,
				HostSpeedFactors: workload.TwoTierSpeeds(openWorldHosts, openWorldSlowStep, openWorldSlowness),
				Net:              simnet.Config{Topology: topo, Mode: simnet.ModeFlow},
			})
			proc, err := workload.ParseProcess("bursty", 1)
			if err != nil {
				return err
			}
			iters := max(steps/30, 2)
			if _, err := workload.GenerateOpen(workload.OpenConfig{
				Jobs: openWorldJobs, Arrivals: proc, Mix: workload.OpenWorldMix(iters),
			}, tb.RNG); err != nil {
				return err
			}
			_, err = scheduler.New(scheduler.Config{
				Hosts: openWorldHosts, Topo: topo, Policy: scheduler.PolicyContentionAware, RNG: tb.RNG,
			})
			return err
		},
		setupReps: 200,
	}
}

// workloads lists the benchmark's workloads at their fixed sizes, in the
// order BENCHMARK.json declares them. dir receives daemon journals.
func workloads(dir string) []*workloadDef {
	return []*workloadDef{
		gridWorkload(2000).workload(),
		openWorldWorkload(30_000).workload(),
		leafSpineWorkload(leafSpineSize{Racks: 256, HostsPerRack: 40, Jobs: 16, Steps: 100}).workload(),
		tlsimdWorkload(tlsimdFull, filepath.Join(dir, "tlsimd")).workload(),
	}
}
