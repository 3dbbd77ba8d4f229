package sweep

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/cluster"
	"repro/internal/collective"
	"repro/internal/core"
	"repro/internal/dl"
	"repro/internal/faults"
	"repro/internal/simnet"
)

// Chunk-vs-flow equivalence harness: the analytic flow fabric
// (internal/flownet) must reproduce the chunk fabric's per-job
// completion times within a pinned tolerance on every config shape
// below — flat and leaf-spine, PS and collective, fault-free and
// faulted — while firing far fewer events. DESIGN.md §13 documents the
// model and where the tolerance comes from:
//
//   - uncontended configs agree to ~1e-9 (identical closed forms);
//   - contended configs agree within ~2% on JCTs because both fabrics
//     are work-conserving, so a burst's last completion — which is what
//     a synchronous barrier waits for — matches even though individual
//     flows share the NIC FIFO-style in one model and max-min in the
//     other;
//   - faulted configs carry a looser documented bound (5%): discrete
//     chunk loss + RTO retransmission against a fluid capacity derate,
//     and flap edges that land mid-chunk in one model and mid-fluid in
//     the other.
const (
	flowEquivTol       = 0.02 // contended, fault-free configs
	flowEquivFaultTol  = 0.05 // configs with injected faults
	flowEquivMinFewerX = 2.0  // flow mode must fire at least 2x fewer events
)

// runFlowEquivCase runs rc under both fabric modes and asserts per-job
// JCT agreement within tol, plus an event-count reduction.
func runFlowEquivCase(t *testing.T, rc RunConfig, tol float64) (*RunResult, *RunResult) {
	t.Helper()
	chunk := rc
	chunk.Cluster.Net.Mode = simnet.ModeChunk
	cres, err := Run(chunk)
	if err != nil {
		t.Fatalf("chunk run: %v", err)
	}
	flow := rc
	flow.Cluster.Net.Mode = simnet.ModeFlow
	fres, err := Run(flow)
	if err != nil {
		t.Fatalf("flow run: %v", err)
	}
	compareJCTs := func(kind string, c, f []float64) {
		if len(c) != len(f) {
			t.Fatalf("%s: chunk finished %d jobs, flow %d", kind, len(c), len(f))
		}
		for i := range c {
			rel := math.Abs(f[i]-c[i]) / c[i]
			if rel > tol {
				t.Errorf("%s job %d: chunk JCT %.4f, flow %.4f (%.2f%% > %.0f%%)",
					kind, i, c[i], f[i], 100*rel, 100*tol)
			}
		}
	}
	if len(cres.JCTs)+len(cres.CollectiveJCTs) == 0 {
		t.Fatal("chunk baseline finished no jobs; equivalence would be vacuous")
	}
	compareJCTs("ps", cres.JCTs, fres.JCTs)
	compareJCTs("collective", cres.CollectiveJCTs, fres.CollectiveJCTs)
	if ratio := float64(cres.Events) / float64(fres.Events); ratio < flowEquivMinFewerX {
		t.Errorf("flow mode fired %d events vs chunk %d (%.1fx fewer, want >= %gx)",
			fres.Events, cres.Events, ratio, flowEquivMinFewerX)
	}
	t.Logf("%s: chunk %d events, flow %d (%.1fx fewer); avg JCT %.4f vs %.4f",
		rc.Label, cres.Events, fres.Events,
		float64(cres.Events)/float64(fres.Events), cres.AvgJCT(), fres.AvgJCT())
	return cres, fres
}

// colocatedPSSpecs pins pairs of PS jobs onto shared PS hosts in cells
// of three hosts — the contended shape the tc/TensorLights path needs.
func colocatedPSSpecs(cells, steps int) []dl.JobSpec {
	var specs []dl.JobSpec
	for cell := 0; cell < cells; cell++ {
		base := 3 * cell
		for j := 0; j < 2; j++ {
			id := 2*cell + j
			specs = append(specs, dl.JobSpec{
				ID: id, Name: fmt.Sprintf("coloc-%02d", id), Model: dl.ResNet32,
				NumWorkers: 2, LocalBatch: 4, TargetGlobalSteps: steps,
				PSHost: base, PSPort: 5000 + id,
				WorkerHosts: []int{base + 1, base + 2},
			})
		}
	}
	return specs
}

// spreadPSSpecs places one job per cell on dedicated hosts — the
// uncontended shape where the two models agree almost exactly.
func spreadPSSpecs(cells, steps int) []dl.JobSpec {
	var specs []dl.JobSpec
	for cell := 0; cell < cells; cell++ {
		base := 3 * cell
		specs = append(specs, dl.JobSpec{
			ID: cell, Name: fmt.Sprintf("spread-%02d", cell), Model: dl.ResNet32,
			NumWorkers: 2, LocalBatch: 4, TargetGlobalSteps: steps,
			PSHost: base, PSPort: 5000 + cell,
			WorkerHosts: []int{base + 1, base + 2},
		})
	}
	return specs
}

// TestFlowEquivFlatSpread: uncontended flat PS jobs — the exactness
// case backing the <=2% headline bound (measured agreement is far
// tighter; the loop asserts the pinned tolerance).
func TestFlowEquivFlatSpread(t *testing.T) {
	rc := RunConfig{
		Label:      "flow-equiv-flat-spread",
		Cluster:    cluster.Config{Hosts: 12, Seed: 42},
		TLs:        core.Config{Policy: core.PolicyFIFO},
		StaggerSec: 0.05,
		PSSpecs:    spreadPSSpecs(4, 100),
	}
	runFlowEquivCase(t, rc, flowEquivTol)
}

// TestFlowEquivFlatColocatedPS: the contended shape — two jobs share
// each PS host under TLs-RR rotation, so the tc reconfiguration path
// (band install + rotation) drives in-flight reclassification.
func TestFlowEquivFlatColocatedPS(t *testing.T) {
	rc := RunConfig{
		Label:      "flow-equiv-flat-coloc",
		Cluster:    cluster.Config{Hosts: 12, Seed: 21},
		TLs:        core.Config{Policy: core.PolicyRR, IntervalSec: 0.5},
		StaggerSec: 0.05,
		PSSpecs:    colocatedPSSpecs(4, 100),
	}
	cres, _ := runFlowEquivCase(t, rc, flowEquivTol)
	if cres.Reconfigs == 0 {
		t.Fatal("colocated PSes never triggered a tc reconfiguration")
	}
}

// TestFlowEquivLeafSpine: cross-rack PS jobs on a routed fabric, so
// flows traverse ECMP core links in both models.
func TestFlowEquivLeafSpine(t *testing.T) {
	var specs []dl.JobSpec
	// Each job's PS sits in one rack, workers in the next: all update
	// traffic crosses the core.
	for j := 0; j < 4; j++ {
		base := 4 * j // rack j (4 hosts per rack on 16 hosts / 4 racks)
		specs = append(specs, dl.JobSpec{
			ID: j, Name: fmt.Sprintf("xrack-%02d", j), Model: dl.ResNet32,
			NumWorkers: 2, LocalBatch: 4, TargetGlobalSteps: 80,
			PSHost: base, PSPort: 5000 + j,
			WorkerHosts: []int{(base + 4) % 16, (base + 5) % 16},
		})
	}
	rc := RunConfig{
		Label: "flow-equiv-leafspine",
		Cluster: cluster.Config{
			Hosts: 16,
			Seed:  11,
			Net: simnet.Config{
				Topology: simnet.TopologyConfig{
					Kind:           simnet.TopologyLeafSpine,
					Racks:          4,
					UplinksPerLeaf: 2,
				},
			},
		},
		TLs:        core.Config{Policy: core.PolicyOne},
		StaggerSec: 0.05,
		PSSpecs:    specs,
	}
	chunk, _ := runFlowEquivCase(t, rc, flowEquivTol)
	var core int64
	for _, l := range chunk.LinkStats {
		core += l.Bytes
	}
	if core == 0 {
		t.Fatal("no cross-rack traffic; the leaf-spine case is vacuous")
	}
}

// TestFlowEquivCollective: mixed PS + ring all-reduce jobs sharing a
// leaf-spine fabric, one ring per rack.
func TestFlowEquivCollective(t *testing.T) {
	rings := [][]int{{0, 1}, {2, 3}, {4, 5}, {6, 7}}
	rc := RunConfig{
		Label: "flow-equiv-collective",
		Cluster: cluster.Config{
			Hosts: 8,
			Seed:  3,
			Net: simnet.Config{
				Topology: simnet.TopologyConfig{
					Kind:           simnet.TopologyLeafSpine,
					Racks:          4,
					UplinksPerLeaf: 1,
				},
			},
		},
		TLs:             core.Config{Policy: core.PolicyRR, IntervalSec: 0.5},
		StaggerSec:      0.05,
		PSSpecs:         colocatedPSSpecs(2, 60),
		CollectiveSpecs: cluster.CollectiveSpecs(dl.ResNet32, rings, collective.Ring, 4, 15),
	}
	runFlowEquivCase(t, rc, flowEquivTol)
}

// TestFlowEquivFaults: NIC flaps, chunk-drop windows, a worker crash,
// tc outages and a core-link degrade. Discrete loss/retransmission vs
// fluid derate makes this the loosest documented bound.
func TestFlowEquivFaults(t *testing.T) {
	rc := RunConfig{
		Label: "flow-equiv-faults",
		Cluster: cluster.Config{
			Hosts: 24,
			Seed:  11,
			Net: simnet.Config{
				Topology: simnet.TopologyConfig{
					Kind:           simnet.TopologyLeafSpine,
					Racks:          12,
					UplinksPerLeaf: 2,
				},
			},
		},
		TLs:        core.Config{Policy: core.PolicyRR, IntervalSec: 0.5},
		StaggerSec: 0.05,
		PSSpecs:    colocatedPSSpecs(8, 60),
		Recovery: dl.RecoveryConfig{
			DetectTimeoutSec:  0.2,
			RestartBackoffSec: 0.05,
			MaxRestarts:       3,
		},
		Faults: faults.Plan{
			FlapHosts:       []int{0, 5, 13, 20},
			FlapFirstAtSec:  0.4,
			FlapEverySec:    1.5,
			FlapDurationSec: 0.2,
			FlapJitterSec:   0.3,
			DropProb:        0.03,
			HorizonSec:      4,
			Crashes:         []faults.CrashPlan{{Job: 1, Worker: 0, AtSec: 0.8}},
			TCOutages:       []faults.OutagePlan{{Host: -1, AtSec: 0.6, DurSec: 0.4}},
			CoreLinks:       []faults.CoreLinkPlan{{Link: 0, AtSec: 0.5, DurSec: 0.5, Factor: 0.4}},
		},
	}
	chunk, _ := runFlowEquivCase(t, rc, flowEquivFaultTol)
	fc := chunk.FaultCounts
	if fc.LinkFlaps == 0 || fc.DropWindows == 0 || fc.Crashes != 1 ||
		fc.TCOutages == 0 || fc.CoreLinkFaults != 1 {
		t.Fatalf("fault classes missing from the chunk baseline: %+v", fc)
	}
}
