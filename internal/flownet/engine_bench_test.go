package flownet

import (
	"math/rand"
	"testing"

	"repro/internal/sim"
)

// leafSpine is the fabric psPopulation lays its jobs on: racks of
// rackSize hosts, each leaf with one uplink to each of spines spines,
// 2:1 oversubscribed.
type leafSpine struct{ rackSize, spines int }

// psPopulation holds a PS-to-worker flow population in an engine: jobs
// on block-host slices of a leaf-spine fabric, each PS sending to its
// block-1 workers over PS egress, rack uplink, spine downlink and
// worker ingress, with weights 1 to 4. Every completion is replaced by
// a new flow on the same path. onDone, when set, sees each completion's
// time and flow before its replacement starts. The kernel is run to the
// first completion before returning.
func psPopulation(fab leafSpine, jobs, block int, onDone func(now float64, id FlowID)) (*sim.Kernel, *Engine, *int) {
	const nic = 1.25e9
	rackSize, spines := fab.rackSize, fab.spines
	spineLink := nic * float64(rackSize) / float64(spines) / 2
	k := sim.NewKernel()
	rng := rand.New(rand.NewSource(1))
	var e *Engine
	var paths [][]int
	var slots []int // slots[p] == p: a flow's tag, boxed once
	var nextID FlowID
	add := func(p int) {
		nextID++
		links := paths[p]
		e.AddFlow(nextID, links, links[0], 0, float64(1+rng.Intn(4)), float64(1<<20+rng.Intn(1<<20)), &slots[p])
	}
	done := 0
	e = NewEngine(k, func(id FlowID, tag any) {
		done++
		if onDone != nil {
			onDone(k.Now(), id)
		}
		add(*tag.(*int))
	})

	hosts := jobs * block
	egress, ingress := make([]int, hosts), make([]int, hosts)
	for h := range egress {
		egress[h], ingress[h] = e.AddLink(nic), e.AddLink(nic)
	}
	racks := hosts / rackSize
	up, down := make([][]int, racks), make([][]int, racks)
	for r := range up {
		up[r], down[r] = make([]int, spines), make([]int, spines)
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
	slots = make([]int, len(paths))
	for p := range paths {
		slots[p] = p
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
	benchCompletions(b, leafSpine{rackSize: 40, spines: 4}, 16, 640)
}

// BenchmarkEngineSmall is the few-flows regime of the open-world
// workload: a 12-host leaf-spine (3 racks of 4, 2 spines) with 2 jobs
// of 6 hosts, 10 active flows in about as many rate classes. One op is
// one completion, where class upkeep weighs most against the scan it
// replaces.
func BenchmarkEngineSmall(b *testing.B) {
	benchCompletions(b, leafSpine{rackSize: 4, spines: 2}, 2, 6)
}

// benchCompletions times completions of a psPopulation, one per op.
func benchCompletions(b *testing.B, fab leafSpine, jobs, block int) {
	k, _, done := psPopulation(fab, jobs, block, nil)
	b.ReportAllocs()
	b.ResetTimer()
	start := *done
	k.Run(func() bool { return *done-start >= b.N })
}
