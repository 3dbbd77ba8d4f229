package sweep

import (
	"bytes"
	"context"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/scheduler"
	"repro/internal/simnet"
)

// output is one run's CSV and rendered table.
type output struct {
	csv    []byte
	render string
}

// runBoth runs one experiment at Parallelism 1 and 4 and returns both
// outputs.
func runBoth(t *testing.T, e Experiment) (seq, par output) {
	t.Helper()
	run := func(parallelism int) output {
		o := Options{Steps: 300, Seed: 42, Parallelism: parallelism}
		res, err := e.Run(o)
		if err != nil {
			t.Fatalf("%s at parallelism %d: %v", e.Name, parallelism, err)
		}
		var buf bytes.Buffer
		if err := res.WriteCSV(&buf); err != nil {
			t.Fatalf("%s WriteCSV: %v", e.Name, err)
		}
		return output{buf.Bytes(), res.Render()}
	}
	return run(1), run(4)
}

// TestSweepsDeterministicSequentialVsParallel asserts the acceptance
// contract of the parallel Engine: for every sweep, the same seed
// yields byte-identical CSV and rendered output whether trials run
// sequentially or across the worker pool. The sequential rendered table
// must match testdata/golden_<name>.txt and, where
// testdata/golden_<name>.csv exists, the sequential CSV must match it
// byte for byte, so a change that shifts both legs the same way is
// still caught.
func TestSweepsDeterministicSequentialVsParallel(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every sweep twice")
	}
	for _, e := range Experiments {
		t.Run(e.Name, func(t *testing.T) {
			seq, par := runBoth(t, e)
			if len(seq.csv) == 0 {
				t.Fatalf("%s produced an empty CSV", e.Name)
			}
			if !bytes.Equal(seq.csv, par.csv) {
				t.Fatalf("%s CSV differs between sequential and parallel runs:\n--- sequential ---\n%s\n--- parallel ---\n%s",
					e.Name, seq.csv, par.csv)
			}
			if seq.render != par.render {
				t.Fatalf("%s Render differs between sequential and parallel runs:\n--- sequential ---\n%s\n--- parallel ---\n%s",
					e.Name, seq.render, par.render)
			}
			compareGolden(t, "golden_"+e.Name+".txt", []byte(seq.render))
			golden := "golden_" + e.Name + ".csv"
			if _, err := os.Stat(filepath.Join("testdata", golden)); errors.Is(err, fs.ErrNotExist) {
				return
			}
			compareGolden(t, golden, seq.csv)
		})
	}
}

// TestOpenWorldTLsPoliciesReproduce pins that priority-setting end-host
// policies reproduce on the open-world flow-fabric trial: the same seed
// must give the same result, JCTs and event count included. These
// seeds once differed run to run because tied cpusim completions fired
// in map order. The config is the bursty, heterogeneous, 2:1
// contention-aware 9-job mixed cluster at full scale.
func TestOpenWorldTLsPoliciesReproduce(t *testing.T) {
	if testing.Short() {
		t.Skip("runs four full-scale open-world trials")
	}
	for _, tc := range []struct {
		policy string
		seed   int64
	}{{"TLs-SRSF", 16}, {"TLs-RR", 20}} {
		cfg := OpenWorldTrialConfig{
			Steps:         30_000,
			Seed:          tc.seed,
			Arrivals:      "bursty",
			Heterogeneous: true,
			Oversub:       2,
			Placement:     scheduler.PolicyContentionAware,
			PolicyName:    tc.policy,
			Jobs:          9,
			MixName:       "mixed",
			FabricMode:    simnet.ModeFlow,
		}
		first, err := OpenWorldTrial(context.Background(), cfg)
		if err != nil {
			t.Fatalf("%s seed %d: %v", tc.policy, tc.seed, err)
		}
		second, err := OpenWorldTrial(context.Background(), cfg)
		if err != nil {
			t.Fatalf("%s seed %d rerun: %v", tc.policy, tc.seed, err)
		}
		if !reflect.DeepEqual(first, second) {
			t.Errorf("%s seed %d differs between runs:\n first: %+v\nsecond: %+v",
				tc.policy, tc.seed, first, second)
		}
	}
}
