package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
)

// metricDef declares one metric as BENCHMARK.json does; a test keeps the
// two in step.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a user of the simulator or the daemon sees.
// Each workload reports all of them (see README.md for what an
// operation is on each). Bound is the share of the parent's median by
// which a metric may worsen before a change counts as a regression: the
// timings are as wide as the shared machines they run on make necessary
// (README.md, Baseline); memory repeats far better.
var endToEnd = []metricDef{
	{"ops_per_s", "1/s", "higher", 0.25},
	{"latency_ms_p50", "ms", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.2},
}

// perLayer are the traced run's and the isolated drives' metrics.
var perLayer = []metricDef{
	{"sim.ns_per_event", "ns", "lower", 0},
	{"sim.event_allocs", "count", "lower", 0},
	{"cpusim.ns_per_task", "ns", "lower", 0},
	{"simnet.ns_per_chunk", "ns", "lower", 0},
	{"qdisc.htb_ns_per_op", "ns", "lower", 0},
	{"flownet.ns_per_completion_10k", "ns", "lower", 0},
	{"flownet.solve_us_640", "us", "lower", 0},
	{"scheduler.place_us", "us", "lower", 0},
	{"workload.generate_us", "us", "lower", 0},
	{"server.submit_ms_p50", "ms", "lower", 0},
	{"server.post_to_run_ms_p50", "ms", "lower", 0},
	{"server.fetch_ms_p50", "ms", "lower", 0},
	{"server.journal_bytes_per_job", "bytes", "lower", 0},
	{"sim.events", "count", "lower", 0},
	{"core.reconfigs", "count", "lower", 0},
	{"core.tc_configs", "count", "lower", 0},
	{"core.rotations", "count", "lower", 0},
	{"workload.jobs", "count", "lower", 0},
	{"dl.barriers", "count", "lower", 0},
	{"simnet.flows", "count", "lower", 0},
	{"collective.ring_steps", "count", "lower", 0},
	{"collective.buckets", "count", "lower", 0},
	{"policy.feedback_samples", "count", "lower", 0},
	{"scheduler.placements", "count", "lower", 0},
	{"bench.trace_overhead_frac", "frac", "lower", 0},
	{"bench.busy_frac", "frac", "higher", 0},
}

// pinnedJSON holds reference digests for the trials of the default seed:
// workload -> trial (or config) seed -> digest. A run that produces one
// of these trials must reproduce its digest bit for bit.
//
//go:embed digests.json
var pinnedJSON []byte

func pinned() (map[string]map[string]string, error) {
	var p map[string]map[string]string
	if err := json.Unmarshal(pinnedJSON, &p); err != nil {
		return nil, fmt.Errorf("digests.json: %w", err)
	}
	return p, nil
}

// checkPinned compares every op that has a pinned digest.
func checkPinned(workload string, ops []opRecord) []string {
	p, err := pinned()
	if err != nil {
		return []string{err.Error()}
	}
	var fails []string
	for _, op := range ops {
		want, ok := p[workload][op.Key]
		if ok && op.Digest != "" && op.Digest != want {
			fails = append(fails, fmt.Sprintf("op %s: digest %.12s differs from pinned %.12s", op.Key, op.Digest, want))
		}
	}
	return fails
}
