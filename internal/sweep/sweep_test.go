package sweep

import (
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/metrics"
)

// testSteps keeps integration runs fast; shapes hold at this scale.
const testSteps = 600

func testOptions() Options {
	return Options{Steps: testSteps, Seed: 42}
}

func TestRunSingle(t *testing.T) {
	p, _ := cluster.PlacementByIndex(8)
	res, err := Run(RunConfig{
		Placement:   p,
		TargetSteps: testSteps,
		TLs:         core.Config{Policy: core.PolicyFIFO},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.JCTs) != 21 {
		t.Fatalf("JCTs %d", len(res.JCTs))
	}
	if res.AvgJCT() <= 0 || res.SimTime <= 0 || res.Events == 0 {
		t.Fatalf("degenerate result %+v", res)
	}
	// 600 steps / 20 workers = 30 iterations -> ~29 barrier samples per
	// job, 21 jobs.
	if len(res.BarrierMeans) < 21*25 {
		t.Fatalf("barrier samples %d", len(res.BarrierMeans))
	}
	if res.Reconfigs != 0 {
		t.Fatal("FIFO run reconfigured tc")
	}
}

func TestRunDeterministic(t *testing.T) {
	p, _ := cluster.PlacementByIndex(1)
	rc := RunConfig{
		Placement:   p,
		TargetSteps: 300,
		TLs:         core.Config{Policy: core.PolicyOne},
		Cluster:     cluster.Config{Seed: 7},
	}
	a, err := Run(rc)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(rc)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.JCTs {
		if a.JCTs[i] != b.JCTs[i] {
			t.Fatal("same config+seed produced different JCTs")
		}
	}
	if a.Events != b.Events {
		t.Fatal("event counts differ")
	}
}

func TestRunManyPreservesOrder(t *testing.T) {
	p1, _ := cluster.PlacementByIndex(1)
	p8, _ := cluster.PlacementByIndex(8)
	rcs := []RunConfig{
		{Label: "a", Placement: p1, TargetSteps: 300},
		{Label: "b", Placement: p8, TargetSteps: 300},
		{Label: "c", Placement: p1, TargetSteps: 300, TLs: core.Config{Policy: core.PolicyOne}},
	}
	results, err := RunMany(rcs, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if r.Config.Label != rcs[i].Label {
			t.Fatal("result order scrambled")
		}
	}
	// Parallel run equals serial run.
	serial, err := RunMany(rcs, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := range results {
		if results[i].AvgJCT() != serial[i].AvgJCT() {
			t.Fatal("parallel execution changed results")
		}
	}
}

func TestFigure2Shape(t *testing.T) {
	r, err := Figure2(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 8 {
		t.Fatalf("rows %d", len(r.Rows))
	}
	// The colocated placement must be the worst, the uniform placement
	// near the best, and the gap substantial (paper: 75%).
	if r.Rows[0].Avg <= r.Rows[7].Avg {
		t.Fatalf("placement #1 (%.1f) not worse than #8 (%.1f)", r.Rows[0].Avg, r.Rows[7].Avg)
	}
	if gap := r.PerformanceGap(); gap < 25 {
		t.Fatalf("performance gap %.0f%%, want substantial", gap)
	}
	out := r.report().Render()
	if !strings.Contains(out, "#8") || !strings.Contains(out, "performance gap") {
		t.Fatalf("render:\n%s", out)
	}
}

func TestFigure3Shape(t *testing.T) {
	r, err := Figure3(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	if r.MeanRatio() < 1.5 {
		t.Fatalf("wait mean ratio %.2f, placement #1 must wait much longer", r.MeanRatio())
	}
	if r.VarRatio() < 1.5 {
		t.Fatalf("wait variance ratio %.2f, placement #1 must straggle more", r.VarRatio())
	}
	if !strings.Contains(r.report().Render(), "3.71x") {
		t.Fatal("render must cite the paper targets")
	}
}

func TestFigure5aShape(t *testing.T) {
	r, err := Figure5a(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 8 {
		t.Fatalf("rows %d", len(r.Rows))
	}
	// At the contended placement TensorLights must clearly win.
	if r.Rows[0].NormOne > 0.9 {
		t.Fatalf("TLs-One norm %.2f at placement #1, want < 0.9", r.Rows[0].NormOne)
	}
	if r.Rows[0].NormRR > 0.95 {
		t.Fatalf("TLs-RR norm %.2f at placement #1", r.Rows[0].NormRR)
	}
	// At the uniform placement it must be work-conserving: within 5%.
	last := r.Rows[7]
	if last.NormOne < 0.95 || last.NormOne > 1.05 {
		t.Fatalf("TLs-One not neutral at #8: %.3f", last.NormOne)
	}
	one, rr := r.BestImprovement()
	if one <= 0 || rr <= 0 {
		t.Fatalf("improvements %f %f", one, rr)
	}
}

func TestFigure5bShape(t *testing.T) {
	r, err := Figure5b(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != len(Figure5bBatches) {
		t.Fatalf("rows %d", len(r.Rows))
	}
	// FIFO JCT grows with batch size (more compute per step).
	if r.Rows[0].FIFOAvg >= r.Rows[len(r.Rows)-1].FIFOAvg {
		t.Fatal("JCT must grow with local batch size")
	}
	// TensorLights helps more at the smallest batch (heaviest
	// contention) than at the largest.
	smallImp := 1 - r.Rows[0].NormOne
	bigImp := 1 - r.Rows[len(r.Rows)-1].NormOne
	if smallImp <= bigImp {
		t.Fatalf("improvement not larger under heavier contention: %.2f vs %.2f",
			smallImp, bigImp)
	}
}

func TestFigure6Shape(t *testing.T) {
	r, err := Figure6(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, pol := range []string{"FIFO", "TLs-One", "TLs-RR"} {
		if r.Means[pol].Summary.Count == 0 {
			t.Fatalf("no samples for %s", pol)
		}
	}
	mean, median := r.VarReduction("TLs-One")
	if mean <= 0 || median <= 0 {
		t.Fatalf("TLs-One variance reduction %f/%f, want positive", mean, median)
	}
	// The span of average wait grows under TensorLights (high-priority
	// jobs wait less, low-priority more) — paper's Figure 6a remark.
	if r.Means["TLs-One"].Summary.Max <= r.Means["FIFO"].Summary.Max*0.5 {
		t.Fatal("TLs-One wait span unexpectedly collapsed")
	}
}

func TestTableIIShape(t *testing.T) {
	r, err := TableII(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 4 {
		t.Fatalf("rows %d", len(r.Rows))
	}
	for _, row := range r.Rows {
		// Fewer stragglers -> utilization must not drop.
		if row.One < 0.95 || row.RR < 0.95 {
			t.Fatalf("utilization regressed: %+v", row)
		}
	}
	if !strings.Contains(r.report().Render(), "Network Inbound") {
		t.Fatal("render")
	}
}

func TestRunUtilizationSampling(t *testing.T) {
	p, _ := cluster.PlacementByIndex(1)
	res, err := Run(RunConfig{
		Placement:       p,
		TargetSteps:     300,
		SampleUtilEvery: 0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Utils) != 21 {
		t.Fatalf("utils %d", len(res.Utils))
	}
	if res.UtilWindow[1] <= res.UtilWindow[0] {
		t.Fatalf("window %v", res.UtilWindow)
	}
	// Host 0 (the PS host) must show heavy egress traffic.
	if res.Utils[0].NetOut < 0.1 {
		t.Fatalf("PS host egress util %v", res.Utils[0].NetOut)
	}
	// Normalization guards against accounting bugs: nothing exceeds
	// 100% of capacity.
	for _, u := range res.Utils {
		if u.CPU > 1.001 || u.NetIn > 1.001 || u.NetOut > 1.001 {
			t.Fatalf("utilization above capacity: %+v", u)
		}
	}
}

func TestAverageJCTAggregation(t *testing.T) {
	res := &RunResult{JCTs: []float64{1, 2, 3}}
	if res.AvgJCT() != metrics.Mean(res.JCTs) {
		t.Fatal("AvgJCT")
	}
}

func TestWriteCSVExports(t *testing.T) {
	o := Options{Steps: 300, Seed: 42}
	f3, err := Figure3(o)
	if err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	if err := f3.report().WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) < 100 {
		t.Fatalf("csv lines %d", len(lines))
	}
	if lines[0] != "series,x,p" {
		t.Fatalf("header %q", lines[0])
	}
	// Every data row must have exactly 3 fields (labels sanitized).
	for _, line := range lines[1:5] {
		if strings.Count(line, ",") != 2 {
			t.Fatalf("row %q has wrong field count", line)
		}
	}
	t2, err := TableII(o)
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := t2.report().WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Network Inbound,All") {
		t.Fatalf("table2 csv:\n%s", buf.String())
	}
}
