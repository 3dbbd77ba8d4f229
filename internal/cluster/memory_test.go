package cluster

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"repro/internal/dl"
	"repro/internal/simnet"
)

// TestLeafSpineFlowHeapPerHost guards what a large flow-fabric testbed
// keeps live per host. It builds a 2,560-host leaf-spine (64 racks of
// 40 hosts, 4 uplinks per leaf) with four ResNet-50 PS jobs, each on
// its own 640-host block (one PS, 639 workers), runs them to
// completion and measures the live heap the finished testbed still
// holds. Each host's CPU runs about one compute task per trial, so a
// per-CPU pre-allocation would dominate this figure. Not parallel: the
// heap reading is process-wide.
func TestLeafSpineFlowHeapPerHost(t *testing.T) {
	const (
		racks, hostsPerRack = 64, 40
		jobs, steps         = 4, 20
		maxBytesPerHost     = 2560
	)
	hosts := racks * hostsPerRack
	block := hosts / jobs
	specs := make([]dl.JobSpec, jobs)
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
			TargetGlobalSteps: steps,
			PSHost:            first,
			PSPort:            5000 + j,
			WorkerHosts:       workers,
		}
	}

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)

	tb := NewTestbed(Config{
		Hosts: hosts,
		Seed:  1,
		Net: simnet.Config{
			Mode: simnet.ModeFlow,
			Topology: simnet.TopologyConfig{
				Kind:           simnet.TopologyLeafSpine,
				Racks:          racks,
				UplinksPerLeaf: 4,
			},
		},
	})
	launched, err := tb.Launch(specs, 0.02, nil)
	if err != nil {
		t.Fatal(err)
	}
	err = tb.RunUntil(context.Background(), 0, func() bool {
		for _, j := range launched {
			if !j.Done() {
				return false
			}
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range launched {
		if !j.Done() {
			t.Fatalf("job %d unfinished when the kernel ran dry", j.Spec.ID)
		}
	}

	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(tb)
	runtime.KeepAlive(launched)

	perHost := (int64(after.HeapAlloc) - int64(before.HeapAlloc)) / int64(hosts)
	t.Logf("%d hosts: %d B live heap per host after the run", hosts, perHost)
	if perHost > maxBytesPerHost {
		t.Errorf("finished testbed holds %d B per host, want <= %d", perHost, maxBytesPerHost)
	}
}
