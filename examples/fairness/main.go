// Fairness contrasts TLs-One and TLs-RR (paper §IV-C): strict static
// priorities finish high-priority jobs first, while rotating the
// assignment every T seconds keeps all concurrent grid-search instances
// at similar progress — which is what lets a DL engineer compare their
// accuracy mid-flight. This example drives the internal engine directly
// to extract per-job progress traces.
//
//	go run ./examples/fairness
package main

import (
	"fmt"
	"log"
	"sort"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/sweep"
)

func main() {
	for _, pol := range []string{core.PolicyOne, core.PolicyRR} {
		p1, _ := cluster.PlacementByIndex(1)
		res, err := sweep.Run(sweep.RunConfig{
			Label:         pol,
			TargetSteps:   2000,
			Placement:     p1,
			TLs:           core.Config{Policy: pol, IntervalSec: 10},
			ProgressEvery: 200,
			Cluster:       cluster.Config{Seed: 3},
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("=== %s ===\n", pol)
		fmt.Printf("JCTs: min %.1f s, max %.1f s, spread %.0f%% of mean\n",
			metrics.Percentile(res.JCTs, 0), metrics.Percentile(res.JCTs, 1),
			100*(metrics.Percentile(res.JCTs, 1)-metrics.Percentile(res.JCTs, 0))/metrics.Mean(res.JCTs))

		// Progress disparity halfway through the run: the spread of
		// global steps across jobs at a fixed wall-clock instant.
		halfway := 0.5 * res.SimTime
		var steps []float64
		var ids []int
		for id := range res.Progress {
			ids = append(ids, id)
		}
		sort.Ints(ids)
		for _, id := range ids {
			s := 0
			for _, pt := range res.Progress[id] {
				if pt.At <= halfway {
					s = pt.Step
				}
			}
			steps = append(steps, float64(s))
		}
		sum := metrics.Summarize(steps)
		fmt.Printf("global step at t=%.0f s: min %.0f, max %.0f, Jain fairness index %.3f\n\n",
			halfway, sum.Min, sum.Max, metrics.JainIndex(steps))
	}
	fmt.Println("TLs-One trades fairness for raw priority; TLs-RR rotates the")
	fmt.Println("'green light' every T seconds so concurrent jobs stay comparable.")
}
