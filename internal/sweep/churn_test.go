package sweep

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/workload"
)

func TestChurnFIFOCompletes(t *testing.T) {
	res, err := Churn(ChurnOptions{
		Jobs:              8,
		ArrivalRatePerSec: 0.5,
		Steps:             400,
		Seed:              42,
		Policy:            core.PolicyFIFO,
		SchedPolicy:       workload.PolicyRandom,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.JCTs) != 8 || res.AvgJCT <= 0 {
		t.Fatalf("%+v", res)
	}
	if res.Reconfigs != 0 {
		t.Fatal("FIFO churn reconfigured tc")
	}
	if res.MakespanSec <= 0 || res.Events == 0 {
		t.Fatal("bookkeeping")
	}
}

func TestChurnTensorLightsReconfigures(t *testing.T) {
	res, err := Churn(ChurnOptions{
		Jobs:              8,
		ArrivalRatePerSec: 1.0, // fast arrivals: heavy overlap
		Steps:             400,
		Seed:              42,
		Policy:            core.PolicyOne,
		SchedPolicy:       workload.PolicyBinpack, // force colocation
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxColocation < 2 {
		t.Fatal("binpack produced no colocation; test is vacuous")
	}
	// Arrivals and departures both reconfigure the contended host.
	if res.Reconfigs < res.MaxColocation {
		t.Fatalf("reconfigs %d with colocation %d", res.Reconfigs, res.MaxColocation)
	}
}

func TestChurnTLsBeatsFIFOUnderColocation(t *testing.T) {
	base := ChurnOptions{
		Jobs:              10,
		ArrivalRatePerSec: 2, // near-simultaneous -> strong contention
		Steps:             600,
		Seed:              7,
		SchedPolicy:       workload.PolicyBinpack,
	}
	fifoOpts := base
	fifoOpts.Policy = core.PolicyFIFO
	fifo, err := Churn(fifoOpts)
	if err != nil {
		t.Fatal(err)
	}
	oneOpts := base
	oneOpts.Policy = core.PolicyOne
	one, err := Churn(oneOpts)
	if err != nil {
		t.Fatal(err)
	}
	if one.AvgJCT >= fifo.AvgJCT {
		t.Fatalf("TLs-One churn avg %.1f not better than FIFO %.1f",
			one.AvgJCT, fifo.AvgJCT)
	}
}

func TestChurnHeterogeneousMix(t *testing.T) {
	res, err := Churn(ChurnOptions{
		Jobs:              6,
		ArrivalRatePerSec: 1,
		Seed:              3,
		Policy:            core.PolicyOne,
		SchedPolicy:       workload.PolicyRandom,
		Templates:         workload.HeterogeneousMix(300),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PerModelAvgJCT) < 2 {
		t.Fatalf("mix produced %d model classes", len(res.PerModelAvgJCT))
	}
}

func TestSlowHostCreatesComputeBoundStragglers(t *testing.T) {
	// A half-speed host at the uniform placement (#8) creates
	// compute-bound stragglers: barrier wait variance rises, and NIC
	// prioritization cannot remove it — the negative control for
	// TensorLights' mechanism.
	p8, _ := cluster.PlacementByIndex(8)
	uniform, err := Run(RunConfig{
		Placement: p8, TargetSteps: 400, Cluster: cluster.Config{Seed: 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	slowCfg := cluster.Config{Seed: 5, HostSpeedFactors: []float64{1, 1, 1, 0.5}}
	slow, err := Run(RunConfig{
		Placement: p8, TargetSteps: 400, Cluster: slowCfg,
	})
	if err != nil {
		t.Fatal(err)
	}
	slowVar := mean(slow.BarrierVars)
	uniVar := mean(uniform.BarrierVars)
	if slowVar < 3*uniVar {
		t.Fatalf("slow host variance %.5f not >> uniform %.5f", slowVar, uniVar)
	}
	// And TLs-One cannot fix compute-bound stragglers.
	slowTLs, err := Run(RunConfig{
		Placement: p8, TargetSteps: 400, Cluster: slowCfg,
		TLs: core.Config{Policy: core.PolicyOne},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := mean(slowTLs.BarrierVars); got < 0.8*slowVar {
		t.Fatalf("TLs 'fixed' compute-bound stragglers: %.5f vs %.5f", got, slowVar)
	}
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func TestGradientCompressionReducesIngressLoad(t *testing.T) {
	// 4x-compressed gradients shrink the PS-host ingress bytes by
	// nearly half (gradients compressed, model updates not) while the
	// job still completes the same steps.
	p1, _ := cluster.PlacementByIndex(1)
	plain, err := Run(RunConfig{
		Placement: p1, TargetSteps: 300, Cluster: cluster.Config{Seed: 4},
		SampleUtilEvery: 0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	comp, err := Run(RunConfig{
		Placement: p1, TargetSteps: 300, Cluster: cluster.Config{Seed: 4},
		SampleUtilEvery: 0.5, GradCompression: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Compression helps JCT under contention (less ingress pressure).
	if comp.AvgJCT() >= plain.AvgJCT() {
		t.Fatalf("compression did not help: %.1f vs %.1f", comp.AvgJCT(), plain.AvgJCT())
	}
	// Ingress utilization of the PS host drops.
	if comp.Utils[0].NetIn >= plain.Utils[0].NetIn {
		t.Fatalf("ingress util %v not below %v", comp.Utils[0].NetIn, plain.Utils[0].NetIn)
	}
}

func TestReplicate(t *testing.T) {
	calls := 0
	stats, err := Replicate(context.Background(), 3, 10, 1, func(_ context.Context, seed int64) (float64, error) {
		calls++
		return float64(seed), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls != 3 || stats.N != 3 {
		t.Fatalf("calls %d stats %+v", calls, stats)
	}
	if stats.Mean != 11 || stats.Min != 10 || stats.Max != 12 {
		t.Fatalf("%+v", stats)
	}
	if stats.Std < 0.9 || stats.Std > 1.1 {
		t.Fatalf("std %v, want 1 (sample std of 10,11,12)", stats.Std)
	}
	if stats.String() == "" {
		t.Fatal("render")
	}
	if _, err := Replicate(context.Background(), 0, 0, 1, nil); err == nil {
		t.Fatal("n=0 accepted")
	}
	if _, err := Replicate(context.Background(), 2, 0, 1, func(context.Context, int64) (float64, error) {
		return 0, fmt.Errorf("boom")
	}); err == nil {
		t.Fatal("metric error swallowed")
	}
}
