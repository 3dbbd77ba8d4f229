// Package faults is a deterministic, kernel-scheduled fault injector
// for the TensorLights stack. It drives three failure surfaces:
//
//   - the network fabric (internal/simnet): NIC/link flaps, NIC rate
//     degradation, and per-chunk loss windows with sender retransmit;
//   - training jobs (internal/dl): worker task crashes, which the PS
//     detects via its barrier watchdog and heals by restart or
//     degradation;
//   - tc actuation (internal/tc): injected Exec failures, which the
//     TensorLights controller (internal/core) rides out with retries, a
//     FIFO fallback, and its reconcile loop.
//
// Every fault is scheduled on the simulation kernel and all randomness
// comes from a dedicated named RNG stream ("faults"), so a given seed
// produces an identical fault schedule — and identical results — on
// every run, and enabling injection never perturbs the draws of healthy
// components.
package faults

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/collective"
	"repro/internal/dl"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/tc"
	"repro/internal/trace"
)

// Counts tallies faults that actually fired (a scheduled window counts
// when it starts).
type Counts struct {
	LinkFlaps    int
	RateDegrades int
	DropWindows  int
	TCOutages    int
	Crashes      int
	// CoreLinkFaults counts flap/degrade windows opened on fabric core
	// links (leaf uplinks / spine downlinks in a routed topology).
	CoreLinkFaults int
	// PeerCrashes counts collective-rank kills — each one stalls its
	// whole ring until detection and restart.
	PeerCrashes int
}

// Injector schedules faults against one testbed. Construct with New
// before running the kernel; all injection methods may also be called
// mid-run (times in the past are clamped to "now").
type Injector struct {
	k      *sim.Kernel
	rng    *sim.RNG
	fabric *simnet.Fabric
	tcc    *tc.Controller
	// Tracer, when non-nil, receives link_down/link_up events.
	Tracer trace.Tracer

	// Per-host window depth counters: overlapping windows of the same
	// kind nest, and the fault clears only when the last window ends.
	linkDepth map[int]int
	rateDepth map[int]int
	dropDepth map[int]int
	tcDepth   map[int]int
	// Core-link counterparts, keyed by link ID.
	coreDownDepth map[int]int
	coreRateDepth map[int]int
	counts        Counts
}

// New creates an injector on the testbed's kernel, fabric and tc layer.
// rng should be the testbed's root RNG; the injector draws from its own
// named stream. tcc may be nil if no tc faults will be injected;
// otherwise New installs the tc exec hook (replacing any prior hook).
func New(k *sim.Kernel, rng *sim.RNG, fabric *simnet.Fabric, tcc *tc.Controller) *Injector {
	in := &Injector{
		k:             k,
		rng:           rng.Stream("faults"),
		fabric:        fabric,
		tcc:           tcc,
		linkDepth:     make(map[int]int),
		rateDepth:     make(map[int]int),
		dropDepth:     make(map[int]int),
		tcDepth:       make(map[int]int),
		coreDownDepth: make(map[int]int),
		coreRateDepth: make(map[int]int),
	}
	if tcc != nil {
		tcc.SetExecHook(func(host int, cmd string) error {
			if in.tcDepth[host] > 0 {
				return fmt.Errorf("faults: tc actuation unavailable on host %d", host)
			}
			return nil
		})
	}
	return in
}

// Counts returns the tally of faults fired so far.
func (in *Injector) Counts() Counts { return in.counts }

// window schedules a start/end pair, clamping a start time in the past
// to the current simulation time.
func (in *Injector) window(at, durSec float64, start, end func()) {
	if durSec <= 0 {
		panic(fmt.Sprintf("faults: window duration %g must be positive", durSec))
	}
	if now := in.k.Now(); at < now {
		at = now
	}
	in.k.Post(at, start)
	in.k.Post(at+durSec, end)
}

func (in *Injector) emit(kind trace.Kind, host int, value float64, detail string) {
	if in.Tracer == nil {
		return
	}
	in.Tracer.Emit(trace.Event{
		At: in.k.Now(), Kind: kind, Job: -1, Host: host, Worker: -1,
		Value: value, Detail: detail,
	})
}

// LinkFlap takes the host's NIC down at `at` for durSec seconds. While
// down, queued and arriving chunks are held (no loss); service resumes
// when the flap ends. Overlapping flaps nest: the NIC comes back only
// when the last window closes.
func (in *Injector) LinkFlap(host int, at, durSec float64) {
	h := in.fabric.Host(host)
	in.window(at, durSec,
		func() {
			in.counts.LinkFlaps++
			in.linkDepth[host]++
			if in.linkDepth[host] == 1 {
				h.SetNICDown(true)
				in.emit(trace.KindLinkDown, host, durSec, "nic down")
			}
		},
		func() {
			in.linkDepth[host]--
			if in.linkDepth[host] == 0 {
				h.SetNICDown(false)
				in.emit(trace.KindLinkUp, host, 0, "nic up")
			}
		})
}

// RateDegrade reduces the host NIC's service rate (both directions) to
// factor (0 < factor < 1) for durSec seconds starting at `at`, modelling
// a NIC auto-negotiated down or a congested uplink. Overlapping windows
// nest; the most recent window's factor applies, and full rate returns
// when the last window ends.
func (in *Injector) RateDegrade(host int, at, durSec, factor float64) {
	if factor <= 0 || factor >= 1 {
		panic(fmt.Sprintf("faults: rate degrade factor %g outside (0,1)", factor))
	}
	h := in.fabric.Host(host)
	in.window(at, durSec,
		func() {
			in.counts.RateDegrades++
			in.rateDepth[host]++
			h.Egress.SetRateFactor(factor)
			h.Ingress.SetRateFactor(factor)
			in.emit(trace.KindLinkDown, host, factor, "rate degrade")
		},
		func() {
			in.rateDepth[host]--
			if in.rateDepth[host] == 0 {
				h.Egress.SetRateFactor(1)
				h.Ingress.SetRateFactor(1)
				in.emit(trace.KindLinkUp, host, 1, "rate restored")
			}
		})
}

// CoreLinkFlap takes fabric core link `link` down at `at` for durSec
// seconds — a leaf uplink or spine downlink failing in a routed
// topology. The link's Port holds queued and arriving chunks (no loss)
// and resumes when the flap ends; same-rack and same-host traffic is
// unaffected, unlike a NIC flap. Overlapping windows nest. Panics if
// the fabric's topology has no such link (in particular, on flat).
func (in *Injector) CoreLinkFlap(link int, at, durSec float64) {
	l := in.fabric.CoreLink(link)
	in.window(at, durSec,
		func() {
			in.counts.CoreLinkFaults++
			in.coreDownDepth[link]++
			if in.coreDownDepth[link] == 1 {
				l.Port().SetDown(true)
				in.emit(trace.KindLinkDown, -1, durSec, "core link down "+l.Name)
			}
		},
		func() {
			in.coreDownDepth[link]--
			if in.coreDownDepth[link] == 0 {
				l.Port().SetDown(false)
				in.emit(trace.KindLinkUp, -1, 0, "core link up "+l.Name)
			}
		})
}

// CoreLinkDegrade reduces core link `link`'s service rate to factor
// (0 < factor < 1) for durSec seconds starting at `at` — a congested or
// auto-negotiated-down fabric link. Overlapping windows nest; full rate
// returns when the last window ends.
func (in *Injector) CoreLinkDegrade(link int, at, durSec, factor float64) {
	if factor <= 0 || factor >= 1 {
		panic(fmt.Sprintf("faults: core link degrade factor %g outside (0,1)", factor))
	}
	l := in.fabric.CoreLink(link)
	in.window(at, durSec,
		func() {
			in.counts.CoreLinkFaults++
			in.coreRateDepth[link]++
			l.Port().SetRateFactor(factor)
			in.emit(trace.KindLinkDown, -1, factor, "core link degrade "+l.Name)
		},
		func() {
			in.coreRateDepth[link]--
			if in.coreRateDepth[link] == 0 {
				l.Port().SetRateFactor(1)
				in.emit(trace.KindLinkUp, -1, 1, "core link restored "+l.Name)
			}
		})
}

// DropWindow sets a per-chunk loss probability (0 <= prob < 1) on the
// host's egress for durSec seconds starting at `at`. Lost chunks are
// retransmitted by the sender after the fabric's retransmission timeout,
// so transfers complete — slower, as over a lossy link under TCP.
func (in *Injector) DropWindow(host int, at, durSec, prob float64) {
	if prob < 0 || prob >= 1 {
		panic(fmt.Sprintf("faults: drop probability %g outside [0,1)", prob))
	}
	h := in.fabric.Host(host)
	in.window(at, durSec,
		func() {
			in.counts.DropWindows++
			in.dropDepth[host]++
			h.SetChunkDropProb(prob)
		},
		func() {
			in.dropDepth[host]--
			if in.dropDepth[host] == 0 {
				h.SetChunkDropProb(0)
			}
		})
}

// TCOutage makes every tc command on the host fail for durSec seconds
// starting at `at`, exercising the controller's retry/backoff, FIFO
// fallback and reconcile-repair paths. Requires the injector to have
// been constructed with a tc controller.
func (in *Injector) TCOutage(host int, at, durSec float64) {
	if in.tcc == nil {
		panic("faults: TCOutage requires a tc controller")
	}
	in.window(at, durSec,
		func() {
			in.counts.TCOutages++
			in.tcDepth[host]++
		},
		func() {
			in.tcDepth[host]--
		})
}

// Jobs is a run's job set as a fault plan sees it. Apply dates each
// crash against its job's arrival through it before the run, and a
// crash looks its job up by ID when it fires, so the jobs need not
// exist when the plan is applied.
type Jobs interface {
	// ArrivalSec returns when the job with this ID arrives.
	ArrivalSec(id int) float64
	// PSJob and CollectiveJob return the admitted job with this ID, or
	// nil before it arrives.
	PSJob(id int) *dl.Job
	CollectiveJob(id int) *collective.Job
}

// CrashWorker kills worker `worker` of PS job id at `at`, resolving the
// job through jobs when the crash fires. The job's PS notices via its
// barrier watchdog (JobSpec.Recovery.DetectTimeoutSec) and restarts
// the worker after its backoff, or degrades to the survivors once the
// restart budget is exhausted. Apply rejects a crash aimed before its
// job arrives; one landing after the job finished or failed is
// silently skipped.
func (in *Injector) CrashWorker(jobs Jobs, id, worker int, at float64) {
	if now := in.k.Now(); at < now {
		at = now
	}
	in.k.Post(at, func() {
		j := jobs.PSJob(id)
		if j == nil || j.Done() || j.Failed() {
			return
		}
		in.counts.Crashes++
		j.CrashWorker(worker)
	})
}

// CrashPeer kills rank `rank` of collective job id at `at`, resolving
// the job through jobs when the crash fires. Unlike a PS worker crash,
// this wedges the entire ring: every surviving rank's all-reduce
// stalls within one step. The job's own failure detector
// (JobSpec.Recovery) notices the stall, restarts the peer and re-runs
// the iteration — or fails the job once the budget is exhausted.
// Apply rejects a crash aimed before its job arrives; one landing
// after the job finished or failed is silently skipped.
func (in *Injector) CrashPeer(jobs Jobs, id, rank int, at float64) {
	if now := in.k.Now(); at < now {
		at = now
	}
	in.k.Post(at, func() {
		j := jobs.CollectiveJob(id)
		if j == nil || j.Done() || j.Failed() {
			return
		}
		in.counts.PeerCrashes++
		j.CrashPeer(rank)
	})
}

// CrashPlan schedules one worker crash.
type CrashPlan struct {
	Job    int     // job ID
	Worker int     // worker index within the job
	AtSec  float64 // crash time
}

// CoreLinkPlan schedules one fault window on a fabric core link,
// addressed by link ID (index into simnet.Fabric.CoreLinks).
type CoreLinkPlan struct {
	Link   int
	AtSec  float64
	DurSec float64
	// Factor, when in (0,1), degrades the link's rate to that factor;
	// 0 takes the link fully down for the window.
	Factor float64
}

// OutagePlan schedules one standalone tc actuation outage, independent
// of the flap schedule (e.g. a management-path outage with the data
// path healthy).
type OutagePlan struct {
	// Host is the target host ID; -1 targets every host running a PS
	// of the specs passed to Apply.
	Host   int
	AtSec  float64
	DurSec float64
}

// Plan is a declarative fault schedule, the form experiments configure.
// The zero value injects nothing. Apply expands it into injector calls.
type Plan struct {
	// FlapPSHosts flaps every host running a PS of the specs passed to
	// Apply — the paper's most contended hosts, where a flap hurts the
	// most.
	FlapPSHosts bool
	// FlapHosts flaps these additional host IDs.
	FlapHosts []int
	// Flap windows recur every FlapEverySec from FlapFirstAtSec until
	// HorizonSec, each lasting FlapDurationSec. Both FlapEverySec and
	// FlapDurationSec must be positive for flapping to occur.
	FlapFirstAtSec  float64
	FlapEverySec    float64
	FlapDurationSec float64
	// FlapJitterSec adds a per-window uniform [0,jitter) offset drawn
	// from the injector's seeded stream, de-synchronizing flaps across
	// hosts while keeping the schedule reproducible.
	FlapJitterSec float64
	// DegradeFactor, when in (0,1), turns flap windows into rate
	// degradations to that factor instead of full NIC-down windows.
	DegradeFactor float64
	// DropProb, when positive, adds a chunk-loss window of the same
	// duration immediately after each flap window (the lossy recovery
	// period after a link comes back).
	DropProb float64
	// TCOutage makes tc actuation fail on the flapped host for the flap
	// window plus TCOutageExtraSec — modelling the common failure where
	// the host's management path dies with its data path and stays
	// degraded a little longer.
	TCOutage         bool
	TCOutageExtraSec float64
	// HorizonSec bounds the recurring flap schedule. Required when
	// flapping is enabled.
	HorizonSec float64
	// Crashes lists worker crashes to schedule.
	Crashes []CrashPlan
	// PeerCrashes lists collective-rank crashes to schedule: Job names
	// a collective job, Worker is the rank index.
	PeerCrashes []CrashPlan
	// TCOutages lists standalone tc outages to schedule.
	TCOutages []OutagePlan
	// CoreLinks lists fault windows on fabric core links (routed
	// topologies only; invalid link IDs fail in Apply).
	CoreLinks []CoreLinkPlan
}

// Active reports whether the plan injects anything.
func (p Plan) Active() bool {
	return p.flapping() || len(p.Crashes) > 0 || len(p.PeerCrashes) > 0 ||
		len(p.TCOutages) > 0 || len(p.CoreLinks) > 0
}

func (p Plan) flapping() bool {
	return p.FlapEverySec > 0 && p.FlapDurationSec > 0 &&
		(p.FlapPSHosts || len(p.FlapHosts) > 0)
}

// Validate reports plan configuration errors.
func (p Plan) Validate() error {
	if p.FlapEverySec < 0 || p.FlapDurationSec < 0 || p.FlapFirstAtSec < 0 ||
		p.FlapJitterSec < 0 || p.TCOutageExtraSec < 0 || p.HorizonSec < 0 {
		return fmt.Errorf("faults: negative duration in plan")
	}
	if (p.FlapEverySec > 0) != (p.FlapDurationSec > 0) {
		return fmt.Errorf("faults: FlapEverySec and FlapDurationSec must both be set (got %g and %g)",
			p.FlapEverySec, p.FlapDurationSec)
	}
	if p.flapping() && p.HorizonSec <= p.FlapFirstAtSec {
		return fmt.Errorf("faults: HorizonSec %g must exceed FlapFirstAtSec %g when flapping",
			p.HorizonSec, p.FlapFirstAtSec)
	}
	if p.DegradeFactor < 0 || p.DegradeFactor >= 1 {
		return fmt.Errorf("faults: DegradeFactor %g outside [0,1)", p.DegradeFactor)
	}
	if p.DropProb < 0 || p.DropProb >= 1 {
		return fmt.Errorf("faults: DropProb %g outside [0,1)", p.DropProb)
	}
	for i, c := range p.Crashes {
		if c.AtSec < 0 {
			return fmt.Errorf("faults: Crashes[%d].AtSec %g is negative", i, c.AtSec)
		}
		if c.Worker < 0 {
			return fmt.Errorf("faults: Crashes[%d].Worker %d is negative", i, c.Worker)
		}
	}
	for i, c := range p.PeerCrashes {
		if c.AtSec < 0 {
			return fmt.Errorf("faults: PeerCrashes[%d].AtSec %g is negative", i, c.AtSec)
		}
		if c.Worker < 0 {
			return fmt.Errorf("faults: PeerCrashes[%d].Worker %d is negative", i, c.Worker)
		}
	}
	for i, o := range p.TCOutages {
		if o.AtSec < 0 {
			return fmt.Errorf("faults: TCOutages[%d].AtSec %g is negative", i, o.AtSec)
		}
		if o.DurSec <= 0 {
			return fmt.Errorf("faults: TCOutages[%d].DurSec %g must be positive", i, o.DurSec)
		}
		if o.Host < -1 {
			return fmt.Errorf("faults: TCOutages[%d].Host %d invalid", i, o.Host)
		}
	}
	for i, c := range p.CoreLinks {
		if c.Link < 0 {
			return fmt.Errorf("faults: CoreLinks[%d].Link %d is negative", i, c.Link)
		}
		if c.AtSec < 0 {
			return fmt.Errorf("faults: CoreLinks[%d].AtSec %g is negative", i, c.AtSec)
		}
		if c.DurSec <= 0 {
			return fmt.Errorf("faults: CoreLinks[%d].DurSec %g must be positive", i, c.DurSec)
		}
		if c.Factor < 0 || c.Factor >= 1 {
			return fmt.Errorf("faults: CoreLinks[%d].Factor %g outside [0,1)", i, c.Factor)
		}
	}
	return nil
}

// Apply expands the plan into scheduled faults against a run whose
// PS jobs are specs and collective jobs are cspecs. It rejects a crash
// naming an unknown job, a worker or rank out of range, or a time
// before the job arrives, and flaps the hosts running the specs' PSes
// when FlapPSHosts is set. Hosts are deduplicated and processed in
// ascending order so the jitter draws — and thus the schedule — are
// deterministic for a given seed.
func (in *Injector) Apply(p Plan, specs []dl.JobSpec, cspecs []collective.JobSpec, jobs Jobs) error {
	if err := p.Validate(); err != nil {
		return err
	}
	if (p.TCOutage || len(p.TCOutages) > 0) && in.tcc == nil {
		return fmt.Errorf("faults: plan requests tc outages but injector has no tc controller")
	}
	if p.flapping() {
		hosts := p.FlapHosts
		if p.FlapPSHosts {
			hosts = append(psHosts(specs), hosts...)
		}
		for _, h := range dedupSorted(hosts) {
			for t := p.FlapFirstAtSec; t < p.HorizonSec; t += p.FlapEverySec {
				at := t
				if p.FlapJitterSec > 0 {
					at += in.rng.Float64() * p.FlapJitterSec
				}
				if p.DegradeFactor > 0 {
					in.RateDegrade(h, at, p.FlapDurationSec, p.DegradeFactor)
				} else {
					in.LinkFlap(h, at, p.FlapDurationSec)
				}
				if p.DropProb > 0 {
					in.DropWindow(h, at+p.FlapDurationSec, p.FlapDurationSec, p.DropProb)
				}
				if p.TCOutage {
					in.TCOutage(h, at, p.FlapDurationSec+p.TCOutageExtraSec)
				}
			}
		}
	}
	for i, c := range p.CoreLinks {
		if n := len(in.fabric.CoreLinks()); c.Link >= n {
			return fmt.Errorf("faults: CoreLinks[%d] names link %d, but the %s topology has %d core links",
				i, c.Link, in.fabric.Topology().Kind(), n)
		}
		if c.Factor > 0 {
			in.CoreLinkDegrade(c.Link, c.AtSec, c.DurSec, c.Factor)
		} else {
			in.CoreLinkFlap(c.Link, c.AtSec, c.DurSec)
		}
	}
	for _, o := range p.TCOutages {
		if o.Host == -1 {
			for _, h := range dedupSorted(psHosts(specs)) {
				in.TCOutage(h, o.AtSec, o.DurSec)
			}
			continue
		}
		in.TCOutage(o.Host, o.AtSec, o.DurSec)
	}
	for i, c := range p.Crashes {
		k := slices.IndexFunc(specs, func(s dl.JobSpec) bool { return s.ID == c.Job })
		if k < 0 {
			return fmt.Errorf("faults: Crashes[%d] names unknown job %d", i, c.Job)
		}
		if n := specs[k].NumWorkers; c.Worker >= n {
			return fmt.Errorf("faults: Crashes[%d] names worker %d, but job %d has %d workers",
				i, c.Worker, c.Job, n)
		}
		if err := beforeArrival("Crashes", i, c, jobs); err != nil {
			return err
		}
		in.CrashWorker(jobs, c.Job, c.Worker, c.AtSec)
	}
	for i, c := range p.PeerCrashes {
		k := slices.IndexFunc(cspecs, func(s collective.JobSpec) bool { return s.ID == c.Job })
		if k < 0 {
			return fmt.Errorf("faults: PeerCrashes[%d] names unknown collective job %d", i, c.Job)
		}
		if n := len(cspecs[k].Hosts); c.Worker >= n {
			return fmt.Errorf("faults: PeerCrashes[%d] names rank %d, but job %d has %d ranks",
				i, c.Worker, c.Job, n)
		}
		if err := beforeArrival("PeerCrashes", i, c, jobs); err != nil {
			return err
		}
		in.CrashPeer(jobs, c.Job, c.Worker, c.AtSec)
	}
	return nil
}

// beforeArrival rejects a crash timed before its job arrives: it would
// strike a job that is not running yet.
func beforeArrival(field string, i int, c CrashPlan, jobs Jobs) error {
	if at := jobs.ArrivalSec(c.Job); c.AtSec < at {
		return fmt.Errorf("faults: %s[%d] crashes job %d at %g s, before it arrives at %g s",
			field, i, c.Job, c.AtSec, at)
	}
	return nil
}

// psHosts returns each spec's PS host.
func psHosts(specs []dl.JobSpec) []int {
	hosts := make([]int, len(specs))
	for i, s := range specs {
		hosts[i] = s.PSHost
	}
	return hosts
}

// dedupSorted returns the unique host IDs in ascending order.
func dedupSorted(hosts []int) []int {
	set := make(map[int]bool, len(hosts))
	for _, h := range hosts {
		set[h] = true
	}
	out := make([]int, 0, len(set))
	for h := range set {
		out = append(out, h)
	}
	sort.Ints(out)
	return out
}
