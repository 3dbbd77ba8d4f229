package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

// series returns n samples around base, wiggling by ±spread/2 in a fixed
// pattern so quartiles are well defined.
func series(n int, base, spread float64) []float64 {
	pattern := []float64{-0.5, 0.1, 0.4, -0.2, 0.3, -0.4, 0, 0.5, -0.1, 0.2}
	out := make([]float64, n)
	for i := range out {
		out[i] = base * (1 + spread*pattern[i%len(pattern)])
	}
	return out
}

func TestCompareRule(t *testing.T) {
	throughput := metricDef{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.1}
	latency := metricDef{Name: "latency_ms_p50", Unit: "ms", Better: "lower", Bound: 0.1}
	count := metricDef{Name: "sim.events", Unit: "count", Better: "lower"}
	cases := []struct {
		name           string
		def            metricDef
		parent, change []float64
		want           verdict
	}{
		{"clear gain", throughput, series(10, 100, 0.02), series(10, 120, 0.02), improved},
		{"clear loss", throughput, series(10, 100, 0.02), series(10, 70, 0.02), regressed},
		{"small loss within bound", throughput, series(10, 100, 0.02), series(10, 95, 0.02), withinBound},
		{"no change", latency, series(10, 50, 0.02), series(10, 50, 0.02), withinBound},
		{"gain smaller than the parent's spread", latency, series(10, 50, 0.05), series(10, 49.5, 0.05), withinBound},
		{"lower latency is a gain", latency, series(10, 50, 0.02), series(10, 40, 0.02), improved},
		{"spread wider than the bound", throughput, series(10, 100, 0.4), series(10, 100, 0.4), unresolved},
		{"too few pairs", throughput, series(9, 100, 0.02), series(9, 150, 0.02), unresolved},
		{"count drop", count, series(10, 1000, 0), series(10, 900, 0), improved},
		{"count rise", count, series(10, 1000, 0), series(10, 1100, 0), regressed},
		{"count unchanged", count, series(10, 1000, 0), series(10, 1000, 0), unresolved},
	}
	for _, c := range cases {
		got := compareMetric(c.def, c.parent, c.change)
		if got.Verdict != c.want {
			t.Errorf("%s: verdict %q, want %q (%+v)", c.name, got.Verdict, c.want, got)
		}
	}
}

func TestCompareCountsTiesForNeither(t *testing.T) {
	def := metricDef{Name: "ops_per_s", Better: "higher", Bound: 0.1}
	parent := series(10, 100, 0.02)
	change := append([]float64(nil), parent...)
	for i := 0; i < 8; i++ {
		change[i] *= 1.3
	}
	got := compareMetric(def, parent, change)
	if got.Wins != 8 || got.Losses != 0 {
		t.Fatalf("wins/losses = %d/%d, want 8/0", got.Wins, got.Losses)
	}
	if got.Verdict == improved {
		t.Errorf("8 wins of 10 claimed a gain")
	}
}

func TestCompareRefusesMixedMachines(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, cpus int) string {
		path := filepath.Join(dir, name)
		for i := 0; i < minPairs; i++ {
			r := record{Workload: "w", Fingerprint: fingerprint{NumCPU: cpus, GOMAXPROCS: 2}}
			if err := appendRecord(path, &r); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	a, b := write("a.jsonl", 2), write("b.jsonl", 8)
	var out, errOut bytes.Buffer
	if code := compareMain([]string{a, b}, &out, &errOut); code != 2 {
		t.Fatalf("exit %d, want 2; stderr %s", code, errOut.String())
	}
	if !strings.Contains(errOut.String(), "refusing") {
		t.Errorf("stderr %q does not explain the refusal", errOut.String())
	}
	c := write("c.jsonl", 2)
	out.Reset()
	if code := compareMain([]string{a, c}, &out, &errOut); code != 0 {
		t.Fatalf("same machine: exit %d; stderr %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "10 pairs") {
		t.Errorf("report %q", out.String())
	}
}
