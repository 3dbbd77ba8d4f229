package flownet

import (
	"math/rand"
	"testing"

	"repro/internal/sim"
)

// psPopulation holds a PS-to-worker flow population in an engine: jobs
// on block-host slices of a leaf-spine fabric (racks of 40 hosts, 4
// spines, 2:1 oversubscribed), each PS sending to its block-1 workers
// over PS egress, rack uplink, spine downlink and worker ingress. Every
// completion is replaced by a new flow on the same path. onDone, when
// set, sees each completion's time and flow before its replacement
// starts. The kernel is run to the first completion before returning.
func psPopulation(jobs, block int, onDone func(now float64, id FlowID)) (*sim.Kernel, *Engine, *int) {
	const (
		rackSize, spines = 40, 4
		nic              = 1.25e9
		spineLink        = nic * rackSize / spines / 2
	)
	k := sim.NewKernel()
	rng := rand.New(rand.NewSource(1))
	var e *Engine
	var paths [][]int
	var nextID FlowID
	add := func(p int) {
		nextID++
		links := paths[p]
		e.AddFlow(nextID, links, links[0], 0, float64(1+rng.Intn(4)), float64(1<<20+rng.Intn(1<<20)), p)
	}
	done := 0
	e = NewEngine(k, func(id FlowID, tag any) {
		done++
		if onDone != nil {
			onDone(k.Now(), id)
		}
		add(tag.(int))
	})

	hosts := jobs * block
	egress, ingress := make([]int, hosts), make([]int, hosts)
	for h := range egress {
		egress[h], ingress[h] = e.AddLink(nic), e.AddLink(nic)
	}
	racks := hosts / rackSize
	up, down := make([][spines]int, racks), make([][spines]int, racks)
	for r := range up {
		for s := 0; s < spines; s++ {
			up[r][s], down[r][s] = e.AddLink(spineLink), e.AddLink(spineLink)
		}
	}
	for j := 0; j < jobs; j++ {
		ps := j * block
		for w := ps + 1; w < ps+block; w++ {
			path := []int{egress[ps]}
			if pr, wr := ps/rackSize, w/rackSize; pr != wr {
				s := w % spines
				path = append(path, up[pr][s], down[wr][s])
			}
			paths = append(paths, append(path, ingress[w]))
		}
	}
	for p := range paths {
		add(p)
	}
	k.Run(func() bool { return done > 0 })
	return k, e, &done
}

// BenchmarkEngineAdvance10k holds the 10,240-host scenario's flow
// population in the engine: 16 jobs on 640-host blocks, ~10k active
// flows. One op is one completion: an advance over every active flow
// plus a re-solve of the job's component.
func BenchmarkEngineAdvance10k(b *testing.B) {
	k, _, done := psPopulation(16, 640, nil)
	b.ReportAllocs()
	b.ResetTimer()
	start := *done
	k.Run(func() bool { return *done-start >= b.N })
}
