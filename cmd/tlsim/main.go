// Command tlsim runs one TensorLights experiment: a configurable
// workload — concurrent parameter-server training jobs, ring/tree
// all-reduce jobs, or a mix — on the simulated 21-host testbed, under
// FIFO, the paper's TLs-One/TLs-RR, or one of the telemetry-driven
// policies (TLs-LAS, TLs-SRSF, TLs-Interleave).
//
// Usage:
//
//	tlsim -policy tls-one -placement 1 -steps 3000 -batch 4 -seed 42
//	tlsim -policy tls-las -steps 3000 -interval 2
//	tlsim -policy fifo -custom-placement "5, 16" -util
//	tlsim -policy tls-rr -steps 3000 -fault-flap-ps -fault-tc-outage \
//	    -fault-flap-every 30 -fault-crash "0:3:60"
//	tlsim -workload collective -rings 4 -ranks 4 -algorithm ring
//	tlsim -workload mixed -policy tls-rr -jobs 3 -rings 3
//	tlsim -topology leafspine -racks 3 -oversub 2 -strategy network-aware \
//	    -workload collective -rings 3 -ranks 4
//	tlsim -scheduler phase-aware -oversub 2 -policy tls-rr -steps 3000
//	tlsim -arrivals bursty -mix mixed -hetero -policy tls-srsf -steps 3000
//	tlsim -arrivals trace -arrival-trace jobs.csv -policy tls-rr
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"syscall"

	tensorlights "repro"
)

// parseCrashes parses "job:worker:atSec" triples, comma-separated.
func parseCrashes(s string) ([]tensorlights.WorkerCrash, error) {
	if s == "" {
		return nil, nil
	}
	var out []tensorlights.WorkerCrash
	for _, part := range strings.Split(s, ",") {
		fields := strings.Split(strings.TrimSpace(part), ":")
		if len(fields) != 3 {
			return nil, fmt.Errorf("bad -fault-crash element %q, want job:worker:atSec", part)
		}
		job, err1 := strconv.Atoi(fields[0])
		worker, err2 := strconv.Atoi(fields[1])
		at, err3 := strconv.ParseFloat(fields[2], 64)
		if err1 != nil || err2 != nil || err3 != nil {
			return nil, fmt.Errorf("bad -fault-crash element %q, want job:worker:atSec", part)
		}
		out = append(out, tensorlights.WorkerCrash{Job: job, Worker: worker, AtSec: at})
	}
	return out, nil
}

func main() {
	var (
		policy     = flag.String("policy", "fifo", "scheduling policy, "+tensorlights.PolicyUsage())
		placement  = flag.Int("placement", 1, "Table I placement index (1-8)")
		custom     = flag.String("custom-placement", "", `custom PS placement, e.g. "5, 16" (overrides -placement)`)
		model      = flag.String("model", "resnet32", "model from the zoo")
		jobs       = flag.Int("jobs", 21, "number of concurrent jobs")
		batch      = flag.Int("batch", 4, "local batch size")
		steps      = flag.Int("steps", 30000, "target global steps per job")
		bands      = flag.Int("bands", 6, "TensorLights priority bands")
		interval   = flag.Float64("interval", 20, "TLs-RR rotation interval T (seconds)")
		async      = flag.Bool("async", false, "asynchronous training (no barrier)")
		seed       = flag.Int64("seed", 1, "random seed")
		util       = flag.Bool("util", false, "measure CPU/NIC utilization")
		workload   = flag.String("workload", "ps", "workload mix: ps | collective | mixed")
		topology   = flag.String("topology", "flat", "fabric topology: flat (the paper's single switch) | leafspine")
		fabric     = flag.String("fabric", "chunk", "fabric engine: chunk (per-chunk discrete events) | flow (analytic flow-level model, typically 10-100x faster)")
		racks      = flag.Int("racks", 3, "leafspine: number of racks (21 hosts must divide evenly)")
		uplinks    = flag.Int("uplinks", 2, "leafspine: spine uplinks per rack (ECMP fan-out)")
		oversub    = flag.Float64("oversub", 1, "leafspine: core oversubscription ratio (1 = non-blocking)")
		strategy   = flag.String("strategy", "", "leafspine: rack placement strategy: pack | spread | network-aware (default spread)")
		schedule   = flag.String("scheduler", "", "run the online cluster-scheduler workload with this placement: random | pack | spread | network-aware | contention-aware | phase-aware")
		arrival    = flag.Float64("arrival-rate", 0, "scheduler/open-world: stochastic job arrival rate per second (0 = default 1/s)")
		arrivals   = flag.String("arrivals", "", "run the open-world workload with this arrival process: poisson | bursty | trace")
		arrTrace   = flag.String("arrival-trace", "", "open-world: CSV replay trace for -arrivals trace (at_sec,kind,model,tasks,local_batch,iterations; default: built-in demo trace)")
		mix        = flag.String("mix", "", "open-world: job mix for stochastic arrivals: mixed | ps | collective")
		hetero     = flag.Bool("hetero", false, "open-world: slow every third host to 60% reference speed")
		rings      = flag.Int("rings", 3, "collective: number of all-reduce jobs")
		ranks      = flag.Int("ranks", 4, "collective: ranks per all-reduce job")
		stride     = flag.Int("ring-stride", 0, "collective: host offset between rings (0 = aligned)")
		algorithm  = flag.String("algorithm", "ring", "collective: all-reduce algorithm, ring | tree")
		collModel  = flag.String("collective-model", "alexnet", "collective: model from the zoo")
		collIters  = flag.Int("iters", 0, "collective: iterations per job (0 = steps/30)")
		buckets    = flag.Int("buckets", 0, "collective: gradient buckets per iteration (0 = default)")
		traceOut   = flag.String("trace", "", "write a CSV event trace to this file")
		replicates = flag.Int("replicates", 1, "run this many consecutive seeds and report mean ± std avg JCT")
		parallel   = flag.Int("parallel", 0, "concurrent replicate trials (0 = GOMAXPROCS, 1 = sequential)")
		listModel  = flag.Bool("models", false, "list available models and exit")
		listPlace  = flag.Bool("placements", false, "list Table I placements and exit")

		faultFlapPS   = flag.Bool("fault-flap-ps", false, "periodically flap every PS host's NIC (deterministic, seeded)")
		faultFirst    = flag.Float64("fault-flap-first", 10, "first flap time (seconds)")
		faultEvery    = flag.Float64("fault-flap-every", 60, "flap period (seconds)")
		faultDur      = flag.Float64("fault-flap-dur", 3, "flap duration (seconds)")
		faultJitter   = flag.Float64("fault-flap-jitter", 1, "per-flap seeded jitter (seconds)")
		faultHorizon  = flag.Float64("fault-horizon", 600, "stop scheduling flaps after this time (seconds)")
		faultDrop     = flag.Float64("fault-drop", 0, "chunk-loss probability in the window after each flap")
		faultTC       = flag.Bool("fault-tc-outage", false, "fail tc actuation on the host during each flap")
		faultCrash    = flag.String("fault-crash", "", `worker crashes as "job:worker:atSec", comma-separated (job >= 1000 targets a collective ring peer)`)
		faultDetect   = flag.Float64("fault-detect", 5, "crashed-worker detection timeout (seconds)")
		faultBackoff  = flag.Float64("fault-restart-backoff", 2, "worker restart backoff after detection (seconds)")
		faultRestarts = flag.Int("fault-max-restarts", 2, "restart budget per worker before the job degrades")
	)
	flag.Parse()

	if *listModel {
		for _, m := range tensorlights.Models() {
			fmt.Println(m)
		}
		return
	}
	if *listPlace {
		fmt.Print(tensorlights.Placements())
		return
	}

	pol, err := tensorlights.ParsePolicy(*policy)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tlsim: %v\n", err)
		os.Exit(2)
	}

	crashes, err := parseCrashes(*faultCrash)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tlsim: %v\n", err)
		os.Exit(2)
	}
	cfg := tensorlights.ExperimentConfig{
		Policy:             pol,
		PlacementIndex:     *placement,
		Placement:          *custom,
		Model:              *model,
		NumJobs:            *jobs,
		LocalBatch:         *batch,
		Steps:              *steps,
		Bands:              *bands,
		RotateIntervalSec:  *interval,
		Async:              *async,
		Seed:               *seed,
		MeasureUtilization: *util,
	}
	if *fabric != "chunk" {
		cfg.FabricMode = *fabric
	}
	if *topology != "flat" {
		cfg.Topology = *topology
		cfg.Racks = *racks
		cfg.UplinksPerLeaf = *uplinks
		cfg.Oversubscription = *oversub
		cfg.PlacementStrategy = *strategy
	}
	switch *workload {
	case "ps":
	case "collective", "mixed":
		cfg.Collective = &tensorlights.CollectiveConfig{
			Jobs:       *rings,
			Ranks:      *ranks,
			Stride:     *stride,
			Algorithm:  *algorithm,
			Model:      *collModel,
			LocalBatch: 1,
			Iterations: *collIters,
			Buckets:    *buckets,
		}
		if *workload == "collective" {
			cfg.NumJobs = 0 // no PS jobs: the cluster is all-reduce-only
		} else if *custom == "" && *jobs != 21 {
			// Table I placements cover exactly 21 PS jobs; for a smaller
			// mixed cluster, colocate all PSes on host 0 (the contended
			// scenario the mixed workload exists to study).
			cfg.Placement = strconv.Itoa(*jobs)
		}
	default:
		fmt.Fprintf(os.Stderr, "tlsim: unknown workload %q\n", *workload)
		os.Exit(2)
	}
	if *schedule != "" {
		// -jobs and -oversub keep their PS-workload defaults (21 and 1),
		// which are wrong for the scheduler trial; only forward them when
		// the user set them explicitly so the trial defaults (9 jobs,
		// 2:1 oversubscription) apply otherwise.
		sc := &tensorlights.SchedulerConfig{
			Placement:         *schedule,
			ArrivalRatePerSec: *arrival,
		}
		flag.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "jobs":
				sc.Jobs = *jobs
			case "oversub":
				sc.Oversubscription = *oversub
			}
		})
		cfg.Scheduler = sc
	}
	if *arrivals != "" || *arrTrace != "" || *mix != "" || *hetero {
		if cfg.Scheduler != nil {
			fmt.Fprintln(os.Stderr, "tlsim: -scheduler is incompatible with the open-world flags (-arrivals, -arrival-trace, -mix, -hetero)")
			os.Exit(2)
		}
		// Like -scheduler: only forward -jobs / -oversub when the user
		// set them, so the open-world defaults apply otherwise.
		ow := &tensorlights.OpenWorldConfig{
			Arrivals:          *arrivals,
			Mix:               *mix,
			Heterogeneous:     *hetero,
			ArrivalRatePerSec: *arrival,
		}
		flag.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "jobs":
				ow.Jobs = *jobs
			case "oversub":
				ow.Oversubscription = *oversub
			}
		})
		if *arrTrace != "" {
			f, err := os.Open(*arrTrace)
			if err != nil {
				fmt.Fprintf(os.Stderr, "tlsim: %v\n", err)
				os.Exit(1)
			}
			defer f.Close()
			ow.Trace = f
		}
		cfg.OpenWorld = ow
	}
	if *faultFlapPS || len(crashes) > 0 {
		// Crashes naming a collective job (ID >= CollectiveJobIDBase)
		// are ring-peer crashes; the rest are PS-worker crashes.
		var workerCrashes, peerCrashes []tensorlights.WorkerCrash
		for _, c := range crashes {
			if cfg.Collective != nil && c.Job >= tensorlights.CollectiveJobIDBase {
				peerCrashes = append(peerCrashes, c)
			} else {
				workerCrashes = append(workerCrashes, c)
			}
		}
		cfg.Faults = tensorlights.FaultConfig{
			Crashes:           workerCrashes,
			PeerCrashes:       peerCrashes,
			DetectTimeoutSec:  *faultDetect,
			RestartBackoffSec: *faultBackoff,
			MaxRestarts:       *faultRestarts,
		}
		if *faultFlapPS {
			cfg.Faults.FlapPSHosts = true
			cfg.Faults.FlapFirstAtSec = *faultFirst
			cfg.Faults.FlapEverySec = *faultEvery
			cfg.Faults.FlapDurationSec = *faultDur
			cfg.Faults.FlapJitterSec = *faultJitter
			cfg.Faults.HorizonSec = *faultHorizon
			cfg.Faults.DropProb = *faultDrop
			cfg.Faults.TCOutage = *faultTC
		}
	}
	// Ctrl-C (or SIGTERM) cancels the simulation mid-grid instead of
	// leaving the process to be killed: the context is threaded through
	// the sweep engine down to the event kernel, so runs stop promptly
	// and any partial trace file is clearly marked as such.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()

	if *replicates > 1 {
		if *traceOut != "" {
			fmt.Fprintln(os.Stderr, "tlsim: -trace is incompatible with -replicates > 1")
			os.Exit(2)
		}
		stats, err := tensorlights.ReplicateExperimentContext(ctx, cfg, *replicates, *parallel)
		if err != nil {
			fmt.Fprintf(os.Stderr, "tlsim: %v\n", err)
			if errors.Is(err, context.Canceled) {
				os.Exit(130) // 128 + SIGINT, the conventional interrupted exit
			}
			os.Exit(1)
		}
		fmt.Printf("workload=%s policy=%s placement=#%d jobs=%d batch=%d steps=%d seeds=%d..%d parallel=%d\n",
			*workload, pol, *placement, cfg.NumJobs, *batch, *steps,
			*seed, *seed+int64(*replicates)-1, *parallel)
		fmt.Printf("avg JCT across seeds: %s (min %.1f, max %.1f)\n",
			stats, stats.Min, stats.Max)
		return
	}
	var traceFile *os.File
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fmt.Fprintf(os.Stderr, "tlsim: %v\n", err)
			os.Exit(1)
		}
		traceFile = f
		cfg.TraceCSV = f
	}
	// closeTrace closes the trace file, if any, and exits 1 when that
	// fails: rows still buffered in the OS may be lost, so the trace
	// must not be reported as written.
	closeTrace := func() {
		if traceFile == nil {
			return
		}
		if err := traceFile.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "tlsim: closing event trace: %v\n", err)
			os.Exit(1)
		}
	}
	res, err := tensorlights.RunExperimentContext(ctx, cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tlsim: %v\n", err)
		if errors.Is(err, context.Canceled) {
			closeTrace()
			if traceFile != nil {
				// RunExperimentContext already flushed the partial trace
				// with a leading "# partial trace" comment line.
				fmt.Fprintf(os.Stderr, "tlsim: partial event trace written to %s\n", traceFile.Name())
			}
			os.Exit(130)
		}
		os.Exit(1)
	}
	closeTrace()
	if traceFile != nil {
		fmt.Printf("event trace written to %s\n", traceFile.Name())
	}

	if sc := cfg.Scheduler; sc != nil {
		// Echo the trial defaults for anything the user left unset.
		schedJobs, schedOversub, schedRate := sc.Jobs, sc.Oversubscription, sc.ArrivalRatePerSec
		if schedJobs <= 0 {
			schedJobs = 9
		}
		if schedOversub <= 0 {
			schedOversub = 2
		}
		if schedRate <= 0 {
			schedRate = 1
		}
		fmt.Printf("scheduler placement=%s policy=%s oversub=%g:1 jobs=%d arrival-rate=%g/s steps=%d seed=%d\n",
			sc.Placement, pol, schedOversub, schedJobs, schedRate, *steps, *seed)
	} else if ow := cfg.OpenWorld; ow != nil {
		// Echo the trial defaults for anything the user left unset.
		owArrivals, owMix, owJobs, owOversub, owRate := ow.Arrivals, ow.Mix, ow.Jobs, ow.Oversubscription, ow.ArrivalRatePerSec
		if owArrivals == "" {
			owArrivals = "poisson"
		}
		if owMix == "" {
			owMix = "mixed"
		}
		if owJobs <= 0 {
			owJobs = 9
		}
		if owOversub <= 0 {
			owOversub = 2
		}
		if owRate <= 0 {
			owRate = 1
		}
		hosts := "homogeneous"
		if ow.Heterogeneous {
			hosts = "heterogeneous"
		}
		if owArrivals == "trace" {
			fmt.Printf("open world arrivals=trace hosts=%s policy=%s oversub=%g:1 steps=%d seed=%d\n",
				hosts, pol, owOversub, *steps, *seed)
		} else {
			fmt.Printf("open world arrivals=%s mix=%s hosts=%s policy=%s oversub=%g:1 jobs=%d arrival-rate=%g/s steps=%d seed=%d\n",
				owArrivals, owMix, hosts, pol, owOversub, owJobs, owRate, *steps, *seed)
		}
	} else {
		fmt.Printf("workload=%s policy=%s placement=#%d jobs=%d batch=%d steps=%d seed=%d\n",
			*workload, pol, *placement, cfg.NumJobs, *batch, *steps, *seed)
	}
	if cfg.Topology != "" {
		strat := cfg.PlacementStrategy
		if strat == "" {
			strat = "spread"
		}
		fmt.Printf("topology=%s racks=%d uplinks=%d oversub=%g:1 strategy=%s\n",
			cfg.Topology, cfg.Racks, cfg.UplinksPerLeaf, cfg.Oversubscription, strat)
	}
	fmt.Printf("simulated %.1f s in %d events, %d tc reconfigurations\n",
		res.SimulatedSeconds, res.Events, res.TcReconfigurations)
	if len(res.JCTs) > 0 {
		fmt.Printf("avg JCT: %.1f s\n", res.AvgJCT)
		jcts := append([]float64(nil), res.JCTs...)
		sort.Float64s(jcts)
		fmt.Printf("JCT min/median/max: %.1f / %.1f / %.1f s\n",
			jcts[0], jcts[len(jcts)/2], jcts[len(jcts)-1])
		fmt.Printf("barrier wait: mean %.3f s, variance %.5f s^2\n",
			res.BarrierWaitMean, res.BarrierWaitVariance)
	}
	if cfg.Collective != nil {
		fmt.Printf("all-reduce (%s, %d jobs): avg JCT %.1f s\n",
			*algorithm, len(res.CollectiveJCTs), res.CollectiveAvgJCT)
		cjcts := append([]float64(nil), res.CollectiveJCTs...)
		sort.Float64s(cjcts)
		if len(cjcts) > 0 {
			fmt.Printf("all-reduce JCT min/median/max: %.1f / %.1f / %.1f s\n",
				cjcts[0], cjcts[len(cjcts)/2], cjcts[len(cjcts)-1])
		}
		if res.RingStalls > 0 {
			fmt.Printf("ring stalls: %d\n", res.RingStalls)
		}
	}
	if *faultFlapPS || len(crashes) > 0 {
		fmt.Printf("fault recovery: %d worker restarts, %d degraded, %d jobs lost, %d chunks dropped\n",
			res.WorkerRestarts, res.DegradedWorkers, len(res.FailedJobs), res.DroppedChunks)
		fmt.Printf("tc recovery: %d retries, %d FIFO fallbacks, %d reconcile repairs\n",
			res.TcRetries, res.TcFallbacks, res.TcRepairs)
	}
	if *util {
		fmt.Println("per-host utilization (active window):")
		for _, u := range res.Utilization {
			fmt.Printf("  host%02d cpu=%.0f%% in=%.0f%% out=%.0f%%\n",
				u.Host, 100*u.CPU, 100*u.NetIn, 100*u.NetOut)
		}
	}
}
