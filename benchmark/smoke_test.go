package main

import (
	"context"
	"testing"
	"time"
)

// tinyWorkloads are the benchmark's workloads at smoke-test sizes.
func tinyWorkloads(dir string) []*workloadDef {
	return []*workloadDef{
		gridWorkload(60).workload(),
		openWorldWorkload(300).workload(),
		leafSpineWorkload(leafSpineSize{Racks: 2, HostsPerRack: 8, Jobs: 2, Steps: 14}).workload(),
		tlsimdWorkload(tlsimdSize{Steps: 30, OpenRate: 40, OpenShare: 0.5, OracleEvery: 2}, dir).workload(),
	}
}

var tinyDrives = driveSizes{
	KernelEvents:   2_000,
	CPUTasks:       500,
	FabricBytes:    4 << 20,
	HTBOps:         2_000,
	FlowJobs:       2,
	FlowWorkers:    16,
	FlowCompletes:  50,
	SolverFlows:    16,
	SchedOps:       50,
	Arrivals:       20,
	DaemonRequests: 6,
	Reps:           1,
}

// Seeds outside the pinned set: tiny workloads share the full ones'
// names but not their outputs.
const smokeSeed = 101

func TestSmokeEveryWorkload(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	full := workloads(dir)
	for i, w := range tinyWorkloads(dir) {
		if w.name != full[i].name {
			t.Fatalf("tiny workload %d is %s, full is %s", i, w.name, full[i].name)
		}
		t.Run(w.name, func(t *testing.T) {
			if err := w.setup(smokeSeed); err != nil {
				t.Fatalf("setup: %v", err)
			}
			leg, err := w.leg(ctx, smokeSeed, 200*time.Millisecond)
			if err != nil {
				t.Fatalf("leg: %v", err)
			}
			if len(leg.Ops) == 0 || len(leg.LatencyMS) == 0 || !(leg.OpsPerSec > 0) {
				t.Fatalf("leg measured nothing: %+v", leg)
			}
			if fails := append(leg.failures(), w.verify(ctx, smokeSeed, leg)...); len(fails) > 0 {
				t.Fatalf("checks failed: %v", fails)
			}
			rec := newSpanRecorder()
			tr, err := w.traceRun(ctx, smokeSeed, 200*time.Millisecond, rec)
			if err != nil {
				t.Fatalf("traced run: %v", err)
			}
			if len(tr.Failures) > 0 {
				t.Fatalf("traced run checks failed: %v", tr.Failures)
			}
			for _, name := range []string{"bench.trace_overhead_frac", "bench.busy_frac", "sim.events", "workload.jobs"} {
				if _, ok := tr.Metrics[name]; !ok {
					t.Errorf("traced run has no %s: %v", name, tr.Metrics)
				}
			}
			if len(rec.snapshot()) == 0 {
				t.Error("traced run recorded no spans")
			}
		})
	}
}

func TestDrivesReportEveryLayer(t *testing.T) {
	m, err := runDrives(smokeSeed, tinyDrives, tlsimdWorkload(tlsimdFull, t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	traced := map[string]bool{}
	for _, km := range kindMetrics {
		traced[km.metric] = true
	}
	for _, n := range []string{"sim.events", "core.reconfigs", "bench.trace_overhead_frac", "bench.busy_frac"} {
		traced[n] = true
	}
	for _, def := range perLayer {
		if traced[def.Name] {
			continue
		}
		if v, ok := m[def.Name]; !ok || !(v > 0) {
			t.Errorf("drive metric %s = %v (present %v), want > 0", def.Name, v, ok)
		}
	}
}
