// Command bench measures the sweep harness and simulation kernel and
// appends the snapshot to the run history in BENCH_sweep.json, giving
// performance work a trajectory to move: trials/sec through the
// sequential and parallel Engine paths, ns/event and allocs/event in
// the kernel, ns/chunk through a contended leaf-spine core link (the
// simnet hot path), and the analytic flow fabric's wall-clock speedup
// over the chunk fabric on fixed scenarios. Each run is keyed by git
// SHA and date and
// diffed against the previous entry; metrics that moved the wrong way
// by more than 25% are flagged as regressions.
//
// Usage:
//
//	bench                       # default sizing, appends to BENCH_sweep.json
//	bench -steps 1200 -trials 8 -parallel 4 -out BENCH_sweep.json
package main

import (
	"flag"
	"fmt"
	"os"
	"os/exec"
	"strings"
	"time"

	"repro/internal/sweep"
)

// regressionTol flags metrics that moved the wrong way by more than
// this fraction versus the previous history entry. Wall-clock numbers
// on a shared machine are noisy; 25% separates real regressions from
// scheduler jitter.
const regressionTol = 0.25

// gitSHA returns the short HEAD commit hash, or "" when not in a git
// checkout (the history entry is still useful, just undated by commit).
func gitSHA() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(out))
}

// loadHistory reads an existing history file, migrating the legacy
// single-report layout. A missing file is an empty history.
func loadHistory(path string) (*sweep.BenchHistory, error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return &sweep.BenchHistory{}, nil
	}
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return sweep.LoadBenchHistory(f)
}

func main() {
	var (
		steps    = flag.Int("steps", 600, "global steps per trial")
		trials   = flag.Int("trials", 8, "trials in the benchmark grid")
		parallel = flag.Int("parallel", 4, "parallel leg's worker count")
		seed     = flag.Int64("seed", 1, "base seed")
		out      = flag.String("out", "BENCH_sweep.json", "output JSON history path")
	)
	flag.Parse()

	rep, err := sweep.MeasureSweepBench(sweep.BenchConfig{
		Steps:       *steps,
		Trials:      *trials,
		Parallelism: *parallel,
		Seed:        *seed,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(1)
	}
	hist, err := loadHistory(*out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", *out, err)
		os.Exit(1)
	}
	hist.Append(sweep.BenchRun{
		GitSHA: gitSHA(),
		Date:   time.Now().UTC().Format("2006-01-02"),
		Report: rep,
	})
	f, err := os.Create(*out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(1)
	}
	if err := hist.WriteJSON(f); err != nil {
		f.Close()
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(1)
	}
	if err := f.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(1)
	}

	fmt.Printf("sweep bench: %d trials x %d steps, GOMAXPROCS=%d\n",
		rep.Trials, rep.Steps, rep.GOMAXPROCS)
	fmt.Printf("  sequential: %.2fs (%.2f trials/sec)\n",
		rep.SequentialSec, rep.TrialsPerSecSequential)
	fmt.Printf("  parallel=%d: %.2fs (%.2f trials/sec, %.2fx speedup)\n",
		rep.Parallelism, rep.ParallelSec, rep.TrialsPerSecParallel, rep.Speedup)
	fmt.Printf("  kernel: %d events, %.0f ns/event, %.4f allocs/event\n",
		rep.Events, rep.NsPerEvent, rep.AllocsPerEvent)
	fmt.Printf("  fabric: %d chunks through a contended leaf-spine core link, %.0f ns/chunk\n",
		rep.FabricChunks, rep.FabricNsPerChunk)
	for _, p := range rep.FlowVsChunk {
		fmt.Printf("  flow fabric %s: chunk %.2fs (%d events) vs flow %.2fs (%d events), %.1fx faster\n",
			p.Scenario, p.ChunkSec, p.ChunkEvents, p.FlowSec, p.FlowEvents, p.Speedup)
	}
	for _, p := range rep.OpenWorld {
		fmt.Printf("  open world %s: %d jobs in %.2fs wall (%d events, %.0f events/sec, avg JCT %.1fs)\n",
			p.Scenario, p.Jobs, p.WallSec, p.Events, p.EventsPerSec, p.AvgJCT)
	}
	fmt.Printf("run %d appended to %s\n", len(hist.Runs), *out)
	if len(hist.Runs) > 1 {
		prev := hist.Runs[len(hist.Runs)-2]
		label := prev.GitSHA
		if label == "" {
			label = "previous run"
		}
		if regs := hist.Regressions(regressionTol); len(regs) > 0 {
			fmt.Printf("REGRESSIONS vs %s:\n", label)
			for _, r := range regs {
				fmt.Printf("  %s\n", r)
			}
			os.Exit(3)
		}
		fmt.Printf("no regressions vs %s (tolerance %.0f%%)\n", label, 100*regressionTol)
	}
}
