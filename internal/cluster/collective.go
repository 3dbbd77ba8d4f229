package cluster

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/collective"
	"repro/internal/dl"
)

// CollectiveIDBase offsets collective job ids so they never collide
// with PS job ids (0..numJobs-1) in mixed clusters.
const CollectiveIDBase = 1000

// collectivePortBase spaces collective job ports well clear of PS ports
// (5000+id) and worker ports (30000+); job i claims port 7000+100*i and
// its ranks' receive ports follow it.
const collectivePortBase = 7000

// RingPlacement places numJobs all-reduce rings of ranksPerJob ranks
// each over numHosts hosts: job i's rank k runs on host
// (i*stride + k) mod numHosts. stride 0 aligns every ring on the same
// hosts (maximal NIC contention, the collective analogue of Table I's
// fully colocated placement #1); stride 1 staggers rings one host
// apart; stride >= ranksPerJob makes rings disjoint while they fit.
func RingPlacement(numJobs, ranksPerJob, numHosts, stride int) ([][]int, error) {
	if numJobs < 1 {
		return nil, fmt.Errorf("cluster: ring placement needs >=1 job, got %d", numJobs)
	}
	if ranksPerJob < 2 {
		return nil, fmt.Errorf("cluster: ring placement needs >=2 ranks per job, got %d", ranksPerJob)
	}
	if ranksPerJob > numHosts {
		return nil, fmt.Errorf("cluster: ring of %d ranks does not fit %d hosts",
			ranksPerJob, numHosts)
	}
	if stride < 0 {
		return nil, fmt.Errorf("cluster: negative ring stride %d", stride)
	}
	rings := make([][]int, numJobs)
	for i := 0; i < numJobs; i++ {
		ring := make([]int, ranksPerJob)
		for k := 0; k < ranksPerJob; k++ {
			ring[k] = (i*stride + k) % numHosts
		}
		rings[i] = ring
	}
	return rings, nil
}

// CollectiveSpecs builds one all-reduce job per ring, mirroring
// GridSearchSpecs for the collective workload: identical synchronous
// jobs (grid-search instances) differing only in placement and port.
func CollectiveSpecs(m dl.Model, rings [][]int, alg collective.Algorithm,
	localBatch, targetIters int) []collective.JobSpec {
	specs := make([]collective.JobSpec, len(rings))
	for i, ring := range rings {
		specs[i] = collective.JobSpec{
			ID:               CollectiveIDBase + i,
			Name:             fmt.Sprintf("allreduce-%02d", i),
			Model:            m,
			Algorithm:        alg,
			Hosts:            ring,
			LocalBatch:       localBatch,
			TargetIterations: targetIters,
			Port:             collectivePortBase + 100*i,
		}
	}
	return specs
}

// RunMixedToCompletionCtx drives the kernel via RunUntil until every PS
// job and every collective job finishes or fails (a job that lost all
// its workers never reaches Done). It returns ctx's error on
// cancellation, and the event-budget error, with the count of
// unfinished jobs, when maxEvents (0 = 500M) runs out first. With
// Launch it composes a run by hand: the reference the sweep package's
// scenario runner is checked against.
func (tb *Testbed) RunMixedToCompletionCtx(ctx context.Context, jobs []*dl.Job, cjobs []*collective.Job, maxEvents uint64) error {
	allDone := func() bool {
		for _, j := range jobs {
			if !j.Done() && !j.Failed() {
				return false
			}
		}
		for _, j := range cjobs {
			if !j.Done() && !j.Failed() {
				return false
			}
		}
		return true
	}
	err := tb.RunUntil(ctx, maxEvents, allDone)
	if errors.Is(err, ErrEventBudget) {
		unfinished := 0
		for _, j := range jobs {
			if !j.Done() && !j.Failed() {
				unfinished++
			}
		}
		for _, j := range cjobs {
			if !j.Done() && !j.Failed() {
				unfinished++
			}
		}
		return fmt.Errorf("%w; %d of %d jobs unfinished", err, unfinished, len(jobs)+len(cjobs))
	}
	return err
}
