package sweep

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"runtime"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dl"
	"repro/internal/sim"
	"repro/internal/simnet"
)

// BenchConfig sizes the sweep benchmark. The workload is the replicate
// sweep's trial shape: Trials identical placement-#1 FIFO runs on
// consecutive seeds, first executed sequentially, then on the parallel
// Engine.
type BenchConfig struct {
	Steps       int   // global steps per trial (default 600)
	Trials      int   // trial count (default 2 * Parallelism)
	Parallelism int   // parallel leg's worker count (default 4)
	Seed        int64 // base seed
}

func (c *BenchConfig) fillDefaults() {
	if c.Steps <= 0 {
		c.Steps = 600
	}
	if c.Parallelism <= 0 {
		c.Parallelism = 4
	}
	if c.Trials <= 0 {
		c.Trials = 2 * c.Parallelism
	}
}

// BenchReport is the measured sweep/kernel performance snapshot written
// to BENCH_sweep.json. Trials/sec tracks the Engine's throughput;
// ns/event and allocs/event track the kernel's event loop (allocs/event
// counts Event structs that missed the pool, not total Go allocations).
type BenchReport struct {
	GOMAXPROCS  int   `json:"gomaxprocs"`
	Parallelism int   `json:"parallelism"`
	Trials      int   `json:"trials"`
	Steps       int   `json:"steps"`
	Seed        int64 `json:"seed"`

	SequentialSec          float64 `json:"sequential_sec"`
	ParallelSec            float64 `json:"parallel_sec"`
	TrialsPerSecSequential float64 `json:"trials_per_sec_sequential"`
	TrialsPerSecParallel   float64 `json:"trials_per_sec_parallel"`
	Speedup                float64 `json:"speedup"`

	Events         uint64  `json:"events"`
	NsPerEvent     float64 `json:"ns_per_event"`
	AllocsPerEvent float64 `json:"allocs_per_event"`

	// FabricChunks/FabricNsPerChunk track the simnet hot path: chunks
	// pushed through a contended leaf-spine core link (see
	// measureFabricBench) and the wall-clock cost per chunk.
	FabricChunks     uint64  `json:"fabric_chunks"`
	FabricNsPerChunk float64 `json:"fabric_ns_per_chunk"`

	// FlowVsChunk compares the analytic flow-level fabric
	// (internal/flownet, -fabric flow) against the per-chunk fabric on
	// fixed scenarios: a 12-host scheduler-sweep cell and the
	// 10,240-host leaf-spine workload. Speedup is the chunk wall clock
	// divided by the flow wall clock on the same workload.
	FlowVsChunk []FlowVsChunkPoint `json:"flow_vs_chunk,omitempty"`

	// OpenWorld times the unified open-world trial (mixed PS+collective
	// arrivals through the scheduler tier) on fixed scenarios, so the
	// cost of the cross-cutting workload path is part of the history.
	OpenWorld []OpenWorldBenchPoint `json:"open_world,omitempty"`
}

// OpenWorldBenchPoint is one open-world trial measurement.
type OpenWorldBenchPoint struct {
	Scenario string  `json:"scenario"`
	WallSec  float64 `json:"wall_sec"`
	Events   uint64  `json:"events"`
	Jobs     int     `json:"jobs"`
	AvgJCT   float64 `json:"avg_jct_s"`
	// EventsPerSec is the kernel throughput on this trial.
	EventsPerSec float64 `json:"events_per_sec"`
}

// FlowVsChunkPoint is one chunk-vs-flow fabric comparison: the same
// workload run once on each engine.
type FlowVsChunkPoint struct {
	Scenario    string  `json:"scenario"`
	ChunkSec    float64 `json:"chunk_sec"`
	FlowSec     float64 `json:"flow_sec"`
	ChunkEvents uint64  `json:"chunk_events"`
	FlowEvents  uint64  `json:"flow_events"`
	// Speedup is the chunk wall clock divided by the flow wall clock.
	Speedup float64 `json:"speedup"`
}

// benchRunConfigs builds the replicate-shaped trial grid.
func benchRunConfigs(cfg BenchConfig) []RunConfig {
	o := Options{Steps: cfg.Steps, Seed: cfg.Seed}
	o.fillDefaults()
	p1, _ := cluster.PlacementByIndex(1)
	rcs := make([]RunConfig, cfg.Trials)
	for i := range rcs {
		rc := o.baseRun(p1, core.PolicyFIFO)
		rc.Cluster.Seed = cfg.Seed + int64(i)
		rc.Label = fmt.Sprintf("bench-seed%d", rc.Cluster.Seed)
		rcs[i] = rc
	}
	return rcs
}

// measureFabricBench times the simnet hot path in isolation: four
// concurrent cross-rack flows ECMP-sharing the single contended uplink
// of a 2:1-oversubscribed two-rack leaf-spine fabric. Every chunk is
// served by the source NIC's egress qdisc, the leaf uplink, the spine
// downlink and the destination ingress, so ns/chunk prices the full
// routed pipeline — two more queue services per chunk than the flat
// switch.
// The timed window is only a few milliseconds, so a single sample is
// at the mercy of GC pacing and scheduler preemption (observed spread
// on one box: 330-970 ns/chunk). Best-of-5 with a leveled heap prices
// the hot path itself, which is what the regression gate compares.
func measureFabricBench(seed int64) (chunks uint64, nsPerChunk float64) {
	const (
		senders   = 4
		flowBytes = int64(512 << 20)
		reps      = 5
	)
	best := math.Inf(1)
	for rep := 0; rep < reps; rep++ {
		k := sim.NewKernel()
		f := simnet.New(k, sim.NewRNG(seed), simnet.Config{
			Topology: simnet.TopologyConfig{
				Kind:             simnet.TopologyLeafSpine,
				Racks:            2,
				UplinksPerLeaf:   1,
				Oversubscription: 2,
			},
		})
		for i := 0; i < 2*senders; i++ {
			f.AddHost(fmt.Sprintf("bench%d", i))
		}
		runtime.GC()
		start := time.Now()
		for i := 0; i < senders; i++ {
			f.Send(simnet.FlowSpec{
				Src: i, Dst: senders + i,
				SrcPort: i, DstPort: 1000 + i,
				Bytes: flowBytes,
			})
		}
		k.Run(nil)
		if wallSec := time.Since(start).Seconds(); wallSec < best {
			best = wallSec
		}
		if rep == 0 {
			chunkBytes := f.Config().ChunkBytes
			chunks = uint64(senders) * uint64((flowBytes+chunkBytes-1)/chunkBytes)
		}
	}
	return chunks, best * 1e9 / float64(chunks)
}

// flowVsChunk10kRun is the large-topology comparison workload: a
// 10,240-host leaf-spine fabric (256 racks x 40 hosts, 16 PS jobs),
// with ResNet-50 updates — a ~100 MB model, the traffic-heavy regime
// the analytic fabric exists for — and few steps so the chunk baseline
// stays affordable inside a bench run. Both fabric modes run the same
// pinned spec set: job j owns the 640 hosts [640j, 640j+640) (16 whole
// racks), with its PS on the first and one worker on each of the other
// 639, so every entry in the history measures the identical workload.
func flowVsChunk10kRun(seed int64) RunConfig {
	rc := RunConfig{
		Label: "bench-flow-10k",
		Cluster: cluster.Config{
			Hosts: 10_240,
			Seed:  seed,
			Net: simnet.Config{
				Topology: simnet.TopologyConfig{
					Kind:           simnet.TopologyLeafSpine,
					Racks:          256,
					UplinksPerLeaf: 4,
				},
			},
		},
		Model:       dl.ResNet50,
		NumJobs:     16,
		LocalBatch:  4,
		TargetSteps: 10,
		TLs:         core.Config{Policy: core.PolicyOne},
		StaggerSec:  0.02,
	}
	hostsPerJob := rc.Cluster.Hosts / rc.NumJobs
	for j := 0; j < rc.NumJobs; j++ {
		ps := j * hostsPerJob
		workers := make([]int, 0, hostsPerJob-1)
		for h := ps + 1; h < ps+hostsPerJob; h++ {
			workers = append(workers, h)
		}
		rc.PSSpecs = append(rc.PSSpecs, dl.JobSpec{
			ID:                j,
			Name:              fmt.Sprintf("grid-%02d", j),
			Model:             rc.Model,
			NumWorkers:        len(workers),
			LocalBatch:        rc.LocalBatch,
			TargetGlobalSteps: rc.TargetSteps,
			PSHost:            ps,
			PSPort:            5000 + j,
			WorkerHosts:       workers,
		})
	}
	return rc
}

// measureFlowVsChunk times the chunk and flow fabrics on two fixed
// scenarios: one online cluster-scheduler cell (the SchedulerSweep unit
// of work — 12-host leaf-spine, Poisson arrivals) and the 10,240-host
// leaf-spine workload. The flow fabric's event count excludes the
// per-chunk service churn, which is where its speedup comes from.
func measureFlowVsChunk(seed int64) ([]FlowVsChunkPoint, error) {
	sched := FlowVsChunkPoint{Scenario: "sched-cell-12h"}
	large := FlowVsChunkPoint{Scenario: "leafspine-10240h"}
	base := flowVsChunk10kRun(seed)
	// The scheduler cell runs in tens of milliseconds under flow mode,
	// so one sample is noise-bound, and on a shared box the noise comes
	// in multi-second epochs — timing all of one mode's reps and then
	// all of the other's lets one epoch skew the ratio. Interleave the
	// modes round by round and take each mode's best, and run the cell
	// before the 10k legs balloon the heap. Level the GC field before
	// every timed leg so one leg's garbage is never billed to the next.
	sched.ChunkSec, sched.FlowSec = math.Inf(1), math.Inf(1)
	for rep := 0; rep < 3; rep++ {
		for _, mode := range []string{simnet.ModeChunk, simnet.ModeFlow} {
			runtime.GC()
			start := time.Now()
			sres, err := SchedulerTrial(context.Background(), SchedulerTrialConfig{
				Steps:      3000,
				Seed:       seed,
				FabricMode: mode,
			})
			if err != nil {
				return nil, fmt.Errorf("scheduler cell (%s): %w", mode, err)
			}
			wall := time.Since(start).Seconds()
			if mode == simnet.ModeChunk {
				sched.ChunkEvents = sres.Events
				if wall < sched.ChunkSec {
					sched.ChunkSec = wall
				}
			} else {
				sched.FlowEvents = sres.Events
				if wall < sched.FlowSec {
					sched.FlowSec = wall
				}
			}
		}
	}

	// The 10k chunk leg costs ~10s: a single sample is long enough to
	// average its own noise, so neither 10k leg is repeated.
	for _, mode := range []string{simnet.ModeChunk, simnet.ModeFlow} {
		rc := base
		rc.Cluster.Net.Mode = mode
		runtime.GC()
		start := time.Now()
		lres, err := Run(rc)
		if err != nil {
			return nil, fmt.Errorf("10k topology (%s): %w", mode, err)
		}
		largeWall := time.Since(start).Seconds()
		if mode == simnet.ModeChunk {
			large.ChunkSec, large.ChunkEvents = largeWall, lres.Events
		} else {
			large.FlowSec, large.FlowEvents = largeWall, lres.Events
		}
	}
	for _, p := range []*FlowVsChunkPoint{&sched, &large} {
		if p.FlowSec > 0 {
			p.Speedup = p.ChunkSec / p.FlowSec
		}
	}
	return []FlowVsChunkPoint{sched, large}, nil
}

// MeasureSweepBench times the same trial grid through the sequential
// path (parallelism 1) and the parallel Engine, and derives per-event
// kernel costs from the sequential leg's wall clock.
func MeasureSweepBench(cfg BenchConfig) (*BenchReport, error) {
	cfg.fillDefaults()

	rcs := benchRunConfigs(cfg)
	seqStart := time.Now()
	seqResults, err := RunMany(rcs, 1)
	if err != nil {
		return nil, fmt.Errorf("sweep: bench sequential leg: %w", err)
	}
	seqSec := time.Since(seqStart).Seconds()

	parStart := time.Now()
	if _, err := RunMany(rcs, cfg.Parallelism); err != nil {
		return nil, fmt.Errorf("sweep: bench parallel leg: %w", err)
	}
	parSec := time.Since(parStart).Seconds()

	var events, eventAllocs uint64
	for _, r := range seqResults {
		events += r.Events
		eventAllocs += r.EventAllocs
	}
	rep := &BenchReport{
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		Parallelism:   cfg.Parallelism,
		Trials:        cfg.Trials,
		Steps:         cfg.Steps,
		Seed:          cfg.Seed,
		SequentialSec: seqSec,
		ParallelSec:   parSec,
		Events:        events,
	}
	if seqSec > 0 {
		rep.TrialsPerSecSequential = float64(cfg.Trials) / seqSec
	}
	if parSec > 0 {
		rep.TrialsPerSecParallel = float64(cfg.Trials) / parSec
		rep.Speedup = seqSec / parSec
	}
	if events > 0 {
		rep.NsPerEvent = seqSec * 1e9 / float64(events)
		rep.AllocsPerEvent = float64(eventAllocs) / float64(events)
	}
	rep.FabricChunks, rep.FabricNsPerChunk = measureFabricBench(cfg.Seed)
	if rep.FlowVsChunk, err = measureFlowVsChunk(cfg.Seed); err != nil {
		return nil, fmt.Errorf("sweep: bench flow-vs-chunk leg: %w", err)
	}
	if rep.OpenWorld, err = measureOpenWorld(cfg.Seed); err != nil {
		return nil, fmt.Errorf("sweep: bench open-world leg: %w", err)
	}
	return rep, nil
}

// measureOpenWorld times the open-world trial on its stress scenario:
// bursty arrivals on the heterogeneous cluster under TLs-SRSF — the
// cell that exercises every new layer at once (MMPP generation, the
// unified lowering paths, per-host speed factors, adaptive ranking).
// Best-of-3 with a leveled heap, like the other millisecond-scale legs.
func measureOpenWorld(seed int64) ([]OpenWorldBenchPoint, error) {
	p := OpenWorldBenchPoint{Scenario: "openworld-bursty-het-srsf", WallSec: math.Inf(1)}
	for rep := 0; rep < 3; rep++ {
		runtime.GC()
		start := time.Now()
		res, err := OpenWorldTrial(context.Background(), OpenWorldTrialConfig{
			Steps:         3000,
			Seed:          seed,
			Arrivals:      "bursty",
			Heterogeneous: true,
			PolicyName:    "TLs-SRSF",
		})
		if err != nil {
			return nil, err
		}
		wall := time.Since(start).Seconds()
		p.Events, p.Jobs, p.AvgJCT = res.Events, len(res.JCTs), res.AvgJCT
		if wall < p.WallSec {
			p.WallSec = wall
		}
	}
	if p.WallSec > 0 {
		p.EventsPerSec = float64(p.Events) / p.WallSec
	}
	return []OpenWorldBenchPoint{p}, nil
}

// WriteJSON writes the report as indented JSON.
func (r *BenchReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}
