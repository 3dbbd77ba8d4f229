// Command experiments regenerates every table and figure in the paper's
// evaluation section (Figures 2, 3, 5a, 5b, 6 and Table II) plus the
// extension sweeps of the sweep.Experiments catalogue, and prints the
// measured rows next to the paper's reported numbers. At full scale
// (-steps 30000, the paper's setting) the complete suite is a large
// computation; -steps 3000 gives the same shapes in a few minutes.
//
// Usage:
//
//	experiments                     # everything, full scale
//	experiments -steps 3000         # everything, scaled down
//	experiments -only fig5a         # one experiment
//	experiments -csvdir out/        # also write plot-ready CSVs
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/sweep"
)

func main() {
	var (
		steps    = flag.Int("steps", 30000, "target global steps per job (paper: 30000)")
		seed     = flag.Int64("seed", 1, "random seed")
		only     = flag.String("only", "", "run a single experiment: "+strings.Join(sweep.ExperimentNames(), "|"))
		parallel = flag.Int("parallel", 0, "concurrent trials (0 = GOMAXPROCS, 1 = sequential)")
		csvdir   = flag.String("csvdir", "", "directory to write per-figure CSV data files")
	)
	flag.Parse()

	o := sweep.Options{Steps: *steps, Seed: *seed, Parallelism: *parallel}
	suite := sweep.Experiments
	if *only != "" {
		e, err := sweep.FindExperiment(*only)
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: -only: %v\n", err)
			os.Exit(2)
		}
		suite = []sweep.Experiment{e}
	}
	if *csvdir != "" {
		if err := os.MkdirAll(*csvdir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			os.Exit(1)
		}
	}
	for _, e := range suite {
		start := time.Now()
		res, err := e.Run(o)
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %s: %v\n", e.Name, err)
			os.Exit(1)
		}
		fmt.Printf("=== %s (steps=%d seed=%d, %.1fs wall) ===\n%s\n",
			e.Name, *steps, *seed, time.Since(start).Seconds(), res.Render())
		if *csvdir != "" {
			path := filepath.Join(*csvdir, e.Name+".csv")
			f, err := os.Create(path)
			if err != nil {
				fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
				os.Exit(1)
			}
			err = res.WriteCSV(f)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "experiments: csv %s: %v\n", path, err)
				os.Exit(1)
			}
			fmt.Printf("csv written to %s\n\n", path)
		}
	}
}
