package sweep

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/cluster"
)

// TestTopologySweepShowsPlacementGap asserts the experiment's headline:
// under >= 2:1 core oversubscription, naive spread placement (every
// ring edge crossing racks) yields measurably worse JCTs than
// network-aware packing, and the gap widens with oversubscription.
func TestTopologySweepShowsPlacementGap(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full topology grid")
	}
	r, err := TopologySweep(Options{Steps: 300, Seed: 42, Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != len(TopologyOversubs)*len(TopologyStrategies)*len(topologyPolicyNames) {
		t.Fatalf("grid has %d rows", len(r.Rows))
	}
	gap2, gap4 := r.PlacementGap(2), r.PlacementGap(4)
	if gap2 < 1.15 {
		t.Fatalf("2:1 placement gap %.3fx: network-aware placement should measurably win", gap2)
	}
	if gap4 <= gap2 {
		t.Fatalf("gap should widen with oversubscription: 2:1 %.3fx vs 4:1 %.3fx", gap2, gap4)
	}
	for _, row := range r.Rows {
		if row.AvgJCT <= 0 || row.P95JCT < row.AvgJCT {
			t.Fatalf("row %+v has malformed JCT stats", row)
		}
		switch row.Strategy {
		case string(cluster.StrategySpread):
			if row.CrossRackRatio <= 0.5 {
				t.Fatalf("spread row %+v should be dominated by cross-rack traffic", row)
			}
		case string(cluster.StrategyNetworkAware):
			if row.CrossRackRatio != 0 {
				t.Fatalf("network-aware row %+v should keep all traffic in-rack", row)
			}
		}
	}
	var buf bytes.Buffer
	if err := r.report().WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	csv := buf.String()
	if !strings.HasPrefix(csv, "oversub,strategy,policy,") {
		t.Fatalf("CSV header: %q", strings.SplitN(csv, "\n", 2)[0])
	}
	if !strings.Contains(csv, "network-aware") || !strings.Contains(csv, "TLs-LAS") {
		t.Fatal("CSV missing expected rows")
	}
}
