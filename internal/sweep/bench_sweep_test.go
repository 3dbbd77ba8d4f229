package sweep

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dl"
	"repro/internal/sim"
	"repro/internal/simnet"
)

// benchTrialConfigs builds n small placement-#1 FIFO trials on
// consecutive seeds — the replicate sweep's trial shape at test scale.
func benchTrialConfigs(n, steps int) []RunConfig {
	o := Options{Steps: steps, Seed: 1}
	o.fillDefaults()
	p1, _ := cluster.PlacementByIndex(1)
	rcs := make([]RunConfig, n)
	for i := range rcs {
		rc := o.baseRun(p1, core.PolicyFIFO)
		rc.Cluster.Seed = int64(1 + i)
		rc.Label = fmt.Sprintf("bench-seed%d", rc.Cluster.Seed)
		rcs[i] = rc
	}
	return rcs
}

// BenchmarkTrial measures one full simulation trial (the unit the
// Engine fans out) and reports kernel events/sec.
func BenchmarkTrial(b *testing.B) {
	rcs := benchTrialConfigs(1, 300)
	b.ReportAllocs()
	var events uint64
	for i := 0; i < b.N; i++ {
		res, err := Run(rcs[0])
		if err != nil {
			b.Fatal(err)
		}
		events += res.Events
	}
	b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/sec")
}

// BenchmarkFabricChunk measures the routed simnet hot path — chunks
// served through a contended, oversubscribed leaf-spine core link (the
// scenario measureFabricBench records into BENCH_sweep.json).
func BenchmarkFabricChunk(b *testing.B) {
	b.ReportAllocs()
	var chunks uint64
	for i := 0; i < b.N; i++ {
		n, _ := measureFabricBench(1)
		chunks += n
	}
	b.ReportMetric(float64(chunks)/b.Elapsed().Seconds(), "chunks/sec")
}

// TestFabricChunkPooledAllocs pins the chunk fabric's steady-state
// allocation behavior: once a warm-up burst has primed the chunk free
// list, the flow pool and the kernel's event pool, pushing further
// bursts through the same fabric must not allocate per chunk (one big
// flow) or per flow (a PS's burst of small model updates).
func TestFabricChunkPooledAllocs(t *testing.T) {
	t.Run("chunk", func(t *testing.T) {
		const flowBytes = int64(32 << 20)
		k := sim.NewKernel()
		f := simnet.New(k, sim.NewRNG(1), simnet.Config{})
		f.AddHost("src")
		f.AddHost("dst")
		send := func() {
			f.Send(simnet.FlowSpec{Src: 0, Dst: 1, SrcPort: 1, DstPort: 100, Bytes: flowBytes})
			k.Run(nil)
		}
		send() // warm-up: grows the pools to the burst's working set
		chunks := float64((flowBytes + f.Config().ChunkBytes - 1) / f.Config().ChunkBytes)
		perChunk := testing.AllocsPerRun(3, send) / chunks
		if perChunk > 0.1 {
			t.Errorf("steady-state fabric allocates %.3f allocs/chunk, want ~0 (pooled)", perChunk)
		}
	})
	// The Table I grid's shape: one PS host bursting a ResNet-32 update
	// (8 chunks) to 21 workers, each flow Transient as the dl layer
	// sends them. Per-flow chunk lists and per-burst scratch would cost
	// at least one allocation per flow.
	t.Run("burst", func(t *testing.T) {
		const flows = 21
		k := sim.NewKernel()
		f := simnet.New(k, sim.NewRNG(1), simnet.Config{})
		specs := make([]simnet.FlowSpec, flows)
		f.AddHost("ps")
		for i := range specs {
			f.AddHost(fmt.Sprintf("w%d", i))
			specs[i] = simnet.FlowSpec{
				Src: 0, Dst: 1 + i, SrcPort: 5000, DstPort: 30000 + i,
				Bytes: dl.ResNet32.UpdateBytes(), Transient: true,
			}
		}
		burst := func() {
			f.SendBurst(0, specs)
			k.Run(nil)
		}
		burst() // warm-up
		perFlow := testing.AllocsPerRun(20, burst) / flows
		if perFlow > 0.1 {
			t.Errorf("steady-state burst allocates %.3f allocs/flow, want ~0 (pooled)", perFlow)
		}
	})
}

// BenchmarkSweepSequential runs a 4-trial grid through the legacy
// sequential path.
func BenchmarkSweepSequential(b *testing.B) {
	rcs := benchTrialConfigs(4, 300)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := RunMany(rcs, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSweepParallel runs the same grid on the parallel Engine at
// parallelism 4. The ratio to BenchmarkSweepSequential is the Engine's
// speedup on this machine (bounded by GOMAXPROCS).
func BenchmarkSweepParallel(b *testing.B) {
	rcs := benchTrialConfigs(4, 300)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := RunMany(rcs, 4); err != nil {
			b.Fatal(err)
		}
	}
}

// TestFlowVsChunk10kSpecs pins the 10,240-host comparison workload's
// job set: job j runs its PS on host 640j and one worker on each of
// the 639 hosts after it, so every job stays inside its own 16 racks.
func TestFlowVsChunk10kSpecs(t *testing.T) {
	rc := flowVsChunk10kRun(1)
	if len(rc.PSSpecs) != 16 {
		t.Fatalf("got %d specs, want 16", len(rc.PSSpecs))
	}
	for j, s := range rc.PSSpecs {
		want := dl.JobSpec{
			ID:                j,
			Name:              fmt.Sprintf("grid-%02d", j),
			Model:             dl.ResNet50,
			NumWorkers:        639,
			LocalBatch:        4,
			TargetGlobalSteps: 10,
			PSHost:            640 * j,
			PSPort:            5000 + j,
		}
		for h := 640*j + 1; h < 640*(j+1); h++ {
			want.WorkerHosts = append(want.WorkerHosts, h)
		}
		if !reflect.DeepEqual(s, want) {
			t.Fatalf("job %d: got PS %d port %d name %q, %d workers [%d..%d]; want PS %d, hosts [%d, %d)",
				j, s.PSHost, s.PSPort, s.Name, len(s.WorkerHosts),
				s.WorkerHosts[0], s.WorkerHosts[len(s.WorkerHosts)-1], 640*j, 640*j, 640*(j+1))
		}
	}
}

// TestCommittedBenchHistoryLoads: the committed BENCH_sweep.json still
// loads, including the runs that carry fields no BenchReport field
// decodes any more, and the regression gate over it is unchanged.
func TestCommittedBenchHistoryLoads(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "..", "BENCH_sweep.json"))
	if err != nil {
		t.Fatal(err)
	}
	h, err := LoadBenchHistory(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if len(h.Runs) != 6 {
		t.Fatalf("loaded %d runs, want 6", len(h.Runs))
	}
	for i, r := range h.Runs {
		if r.Report == nil || r.Report.Events == 0 || r.Report.NsPerEvent <= 0 {
			t.Fatalf("run %d lost its report: %+v", i, r.Report)
		}
	}
	last := h.Last().Report
	if len(last.FlowVsChunk) != 2 || len(last.OpenWorld) != 1 {
		t.Fatalf("newest run lost its legs: %d flow-vs-chunk, %d open-world",
			len(last.FlowVsChunk), len(last.OpenWorld))
	}
	if regs := h.Regressions(0.25); len(regs) != 0 {
		t.Fatalf("committed history flags regressions: %v", regs)
	}
}
