package sweep

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/collective"
	"repro/internal/core"
	"repro/internal/dl"
	"repro/internal/metrics"
	"repro/internal/policy"
	"repro/internal/simnet"
)

// Topology-experiment scale: a 3-rack leaf-spine cluster sized so each
// rack holds exactly one all-reduce ring. The workload is the
// collective experiment's communication-bound AlexNet rings — on them,
// placement decides whether 244 MB/rank/iteration of ring traffic stays
// inside a non-blocking leaf or fights for oversubscribed uplinks.
const (
	topoHosts   = 12
	topoRacks   = 3
	topoUplinks = 2
	topoRings   = 3
	topoRanks   = 4
)

// TopologyOversubs are the oversubscription ratios the sweep compares:
// non-blocking, the common 2:1, and a heavily oversubscribed 4:1 core.
var TopologyOversubs = []float64{1, 2, 4}

// TopologyStrategies are the placement strategies the sweep compares:
// the naive host-balancing spread against CASSINI-style network-aware
// packing. (Pack is omitted: with one ring per rack it equals
// network-aware here.)
var TopologyStrategies = []cluster.Strategy{cluster.StrategySpread, cluster.StrategyNetworkAware}

// topologyPolicyNames are the scheduling policies crossed with the
// fabric grid: the paper's three plus one telemetry-driven adaptive.
var topologyPolicyNames = []string{"FIFO", "TLs-One", "TLs-RR", "TLs-LAS"}

// TopologyRow is one (oversubscription, strategy, policy) cell.
type TopologyRow struct {
	Oversub  float64
	Strategy string
	Policy   string

	AvgJCT float64
	P95JCT float64
	// CrossRackRatio is leaf-uplink bytes over total NIC egress bytes:
	// 0 when every flow stays in its rack, approaching 1 when all
	// traffic crosses the core.
	CrossRackRatio float64
	// MaxLinkUtil is the busiest core link's busy fraction of the run.
	MaxLinkUtil float64
	Reconfigs   int
}

// TopologyResult is the topology experiment: the same collective
// workload swept across core oversubscription ratios, placement
// strategies and scheduling policies on a leaf-spine fabric. It
// separates what placement can fix (keeping elephants off the core)
// from what end-host scheduling can fix (ordering them at the NIC) —
// the axis the paper's single-switch testbed cannot explore.
type TopologyResult struct {
	Rows []TopologyRow
}

// Row returns the (oversub, strategy, policy) cell.
func (r *TopologyResult) Row(oversub float64, strategy, policy string) (TopologyRow, bool) {
	for _, row := range r.Rows {
		if row.Oversub == oversub && row.Strategy == strategy && row.Policy == policy {
			return row, true
		}
	}
	return TopologyRow{}, false
}

// PlacementGap returns naive-spread average JCT over network-aware
// average JCT at the given oversubscription ratio, pooled across
// policies (> 1 means network-aware placement wins).
func (r *TopologyResult) PlacementGap(oversub float64) float64 {
	var spread, aware []float64
	for _, row := range r.Rows {
		if row.Oversub != oversub {
			continue
		}
		switch row.Strategy {
		case string(cluster.StrategySpread):
			spread = append(spread, row.AvgJCT)
		case string(cluster.StrategyNetworkAware):
			aware = append(aware, row.AvgJCT)
		}
	}
	a := metrics.Mean(aware)
	if a <= 0 {
		return 0
	}
	return metrics.Mean(spread) / a
}

func (r *TopologyResult) report() report {
	rep := report{
		title: "Topology: leaf-spine placement x oversubscription x policy (AlexNet rings)",
		sections: []section{{len(r.Rows), []column{
			{"oversub", "oversub", "%g:1", func(i int) any { return r.Rows[i].Oversub }},
			{"strategy", "strategy", "", func(i int) any { return r.Rows[i].Strategy }},
			{"policy", "policy", "", func(i int) any { return r.Rows[i].Policy }},
			{"avg_jct_s", "avg JCT (s)", "", func(i int) any { return r.Rows[i].AvgJCT }},
			{"p95_jct_s", "p95 JCT (s)", "", func(i int) any { return r.Rows[i].P95JCT }},
			{"cross_rack_ratio", "cross-rack", "%.2f", func(i int) any { return r.Rows[i].CrossRackRatio }},
			{"max_link_util", "max link util", "%.2f", func(i int) any { return r.Rows[i].MaxLinkUtil }},
			{"reconfigs", "reconfigs", "", func(i int) any { return r.Rows[i].Reconfigs }},
		}}},
	}
	for _, ov := range TopologyOversubs {
		if gap := r.PlacementGap(ov); gap > 0 {
			rep.footer += fmt.Sprintf("oversub %g:1: naive spread avg JCT is %.2fx network-aware placement\n",
				ov, gap)
		}
	}
	return rep
}

// topologyRunConfigs builds the oversub x strategy x policy grid.
func topologyRunConfigs(o Options) ([]RunConfig, error) {
	iters := max(o.Steps/30, 2)
	var rcs []RunConfig
	for _, ov := range TopologyOversubs {
		topo := simnet.TopologyConfig{
			Kind:             simnet.TopologyLeafSpine,
			Racks:            topoRacks,
			UplinksPerLeaf:   topoUplinks,
			Oversubscription: ov,
		}
		for _, strat := range TopologyStrategies {
			rings, err := cluster.RackRingPlacement(topoRings, topoRanks, topoHosts, topo, strat)
			if err != nil {
				return nil, err
			}
			for _, pol := range topologyPolicyNames {
				cl := o.Cluster
				cl.Hosts = topoHosts
				cl.Seed = o.Seed
				cl.Net.Topology = topo
				rcs = append(rcs, RunConfig{
					Label:   fmt.Sprintf("topo-%g-%s-%s", ov, strat, pol),
					Cluster: cl,
					TLs:     topologyTLs(pol, o.Steps),
					CollectiveSpecs: cluster.CollectiveSpecs(dl.AlexNet, rings,
						collective.Ring, 1, iters),
				})
			}
		}
	}
	return rcs, nil
}

// topologyTLs mirrors the collective experiment's policy scaling:
// smallest-update-first ordering and rotation/telemetry periods scaled
// to the shortened run.
func topologyTLs(name string, steps int) core.Config {
	cfg := core.Config{Policy: name, Order: policy.OrderSmallestUpdate}
	interval := float64(steps) / 200
	switch name {
	case "FIFO", "TLs-One":
	default:
		cfg.IntervalSec = interval
		cfg.FeedbackIntervalSec = interval / 2
	}
	return cfg
}

// TopologySweep runs the full grid.
func TopologySweep(o Options) (*TopologyResult, error) {
	o.fillDefaults()
	rcs, err := topologyRunConfigs(o)
	if err != nil {
		return nil, err
	}
	results, err := RunMany(rcs, o.Parallelism)
	if err != nil {
		return nil, err
	}
	out := &TopologyResult{}
	i := 0
	for _, ov := range TopologyOversubs {
		for _, strat := range TopologyStrategies {
			for _, pol := range topologyPolicyNames {
				res := results[i]
				i++
				ratio, maxUtil := coreLoad(res.LinkStats, res.EgressBytes)
				out.Rows = append(out.Rows, TopologyRow{
					Oversub:        ov,
					Strategy:       string(strat),
					Policy:         pol,
					AvgJCT:         metrics.Mean(res.CollectiveJCTs),
					P95JCT:         metrics.Percentile(res.CollectiveJCTs, 0.95),
					CrossRackRatio: ratio,
					MaxLinkUtil:    maxUtil,
					Reconfigs:      res.Reconfigs,
				})
			}
		}
	}
	return out, nil
}
