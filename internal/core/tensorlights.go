// Package core implements TensorLights: end-host traffic prioritization
// that mitigates worker stragglers for distributed deep learning under
// parameter-server traffic contention (Huang, Chen & Ng, IPDPS 2019).
//
// TensorLights watches which hosts run two or more parameter servers
// and, only on those hosts, installs an htb root qdisc with up to six
// priority classes; each contending job's model-update traffic is mapped
// to a class by the job's PS TCP port. TLs-One assigns priorities once
// per arrival/departure; TLs-RR rotates the assignment every interval T
// so that all jobs make fair progress over time — the "traffic lights"
// of the title. The mechanism is work-conserving (every class may borrow
// up to the full link) and needs no changes to applications, the cluster
// scheduler, or hardware: it acts purely through tc.
package core

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/tc"
	"repro/internal/trace"
)

// Registry names of the paper's policies and of TLs-LPF. Config.Policy
// may name any registered policy, these included.
const (
	// PolicyFIFO disables TensorLights: the NIC keeps its default FIFO
	// qdisc. This is the paper's baseline.
	PolicyFIFO = "FIFO"
	// PolicyOne is TLs-One: a static priority order, reconfigured only
	// on job arrival and departure.
	PolicyOne = "TLs-One"
	// PolicyRR is TLs-RR: the priority order rotates every Interval.
	PolicyRR = "TLs-RR"
	// PolicyLPF is an adaptive extension beyond the paper: every
	// Interval, jobs are re-ranked least-progress-first, so whichever
	// job has fallen behind gets the green light next. It pursues
	// TLs-RR's fairness goal with feedback instead of blind rotation.
	PolicyLPF = "TLs-LPF"
	// PolicyStaticRate is the paper's §VII transmission-layer
	// alternative: each contending job is pinned to an equal static
	// rate share (rate = ceil = link/N). It is NOT work-conserving —
	// when a job is idle its share is wasted — which is exactly the
	// drawback the paper warns about; the ablation benchmark
	// quantifies it.
	PolicyStaticRate = "StaticRate"
)

// guaranteeRateBps is each htb class's guaranteed rate: tiny, so
// borrowing priority dominates.
const guaranteeRateBps = 1e6

// Config tunes the controller. Zero values select the paper's settings.
type Config struct {
	// Policy is the internal/policy registry name of the priority
	// policy (e.g. PolicyRR, "TLs-LAS"); lookup is case-insensitive and
	// the "TLs-" prefix is optional. Empty selects PolicyFIFO. Unknown
	// names fail Validate; New panics on them.
	Policy string
	// FeedbackIntervalSec is the telemetry sampling period used by
	// feedback-driven policies; 0 selects the collector's default. The
	// controller itself does not sample — the cluster layer builds the
	// policy.Feedback and attaches it — but the knob travels with the
	// rest of the TLs configuration.
	FeedbackIntervalSec float64
	// Bands is the number of distinct priority classes (the paper uses
	// up to six; tc supports a limited number, so jobs may share).
	Bands int
	// IntervalSec is the TLs-RR rotation period T (20 s in the paper).
	IntervalSec float64
	// Order ranks contending jobs into bands. The paper deliberately
	// does not constrain this choice (§IV-B).
	Order policy.Order
	// UsePrioQdisc switches from htb (the paper's implementation) to a
	// plain prio qdisc — an ablation showing the mechanism is qdisc-
	// agnostic.
	UsePrioQdisc bool
	// MaxExecRetries bounds re-application attempts after a failed tc
	// command before the host falls back to plain FIFO (default 4).
	MaxExecRetries int
	// RetryBackoffSec is the delay before the first re-application
	// attempt; each further attempt doubles it (default 0.5 s).
	RetryBackoffSec float64
	// ReconcileIntervalSec is the period of the reconcile loop, which
	// re-reads each managed host's installed qdisc state, repairs drift
	// and retries hosts stuck in FIFO fallback (default 10 s; negative
	// disables reconciliation).
	ReconcileIntervalSec float64
}

func (c *Config) fillDefaults() {
	if c.Policy == "" {
		c.Policy = PolicyFIFO
	}
	if c.Bands <= 0 {
		c.Bands = 6
	}
	if c.IntervalSec <= 0 {
		c.IntervalSec = 20
	}
	if c.MaxExecRetries <= 0 {
		c.MaxExecRetries = 4
	}
	if c.RetryBackoffSec <= 0 {
		c.RetryBackoffSec = 0.5
	}
	if c.ReconcileIntervalSec == 0 {
		c.ReconcileIntervalSec = 10
	}
}

// Validate reports whether the configuration can be realized — today,
// that the selected policy resolves in the internal/policy registry.
// Callers taking user input (flags, sweep configs) should Validate
// before New, which treats an unknown policy as a programming error.
func (c Config) Validate() error {
	c.fillDefaults()
	if !policy.Known(c.Policy) {
		return fmt.Errorf("tensorlights: unknown policy %q (registered: %s)",
			c.Policy, strings.Join(policy.Names(), ", "))
	}
	return nil
}

// RecoveryStats counts the controller's actuation-failure handling.
type RecoveryStats struct {
	// Retries is how many delayed re-application attempts were scheduled
	// after a tc command failed.
	Retries int
	// Fallbacks is how many times a host was dropped to plain FIFO after
	// exhausting its retry budget.
	Fallbacks int
	// Repairs is how many times the reconcile loop restored a host whose
	// installed state had drifted from the desired state, or that had
	// been in FIFO fallback.
	Repairs int
}

// hostState is the controller's per-host desired/installed bookkeeping.
type hostState struct {
	// desired is the full tc command list realizing the host's target
	// configuration; empty means the default FIFO.
	desired []string
	// firstFilter indexes the first filter command within desired, so
	// rotations can rewrite the filter chain without a rebuild.
	firstFilter int
	// njobs is the contending-job count desired was built for.
	njobs int
	// installedFP is the tc fingerprint recorded after the last
	// successful apply; "" when nothing is installed.
	installedFP string
	// attempts counts consecutive failed applies of the current desired
	// state.
	attempts int
	// retryEv is the pending backoff retry, if any.
	retryEv *sim.Event
	// fallback marks a host degraded to FIFO after exhausting retries;
	// the reconcile loop keeps trying to restore it.
	fallback bool
	// assign maps job id -> installed band (class id) for the desired
	// state; the feedback collector uses it to attribute per-band
	// dequeue bytes to jobs.
	assign map[int]int
}

// JobInfo is what TensorLights needs to know about a job — all of it
// observable from outside the application. A parameter-server job is
// described by its PS host and port alone; a collective (all-reduce)
// job, whose prioritized traffic leaves every ring host, additionally
// lists SenderHosts and the source Ports identifying it.
type JobInfo struct {
	ID          int
	PSHost      int
	PSPort      int
	UpdateBytes int64
	// SenderHosts lists every host whose egress carries this job's
	// prioritized traffic. Empty means {PSHost} — the PS-job default,
	// where only the model-update fan-out is classified. A collective
	// job lists all of its ring hosts here, so contention is detected
	// and bands installed wherever its flows originate.
	SenderHosts []int
	// Ports lists the TCP source ports identifying the job's traffic
	// (one `match sport` filter per port on each managed host). Empty
	// means {PSPort}. A job carrying both PS and collective traffic
	// lists both ports; all of them map to the same band.
	Ports []int
	// TargetSteps is the job's declared training length in iterations
	// (0 = undeclared). TLs-SRSF uses it to estimate remaining service.
	TargetSteps int
	arrivalSeq  int
	progress    int
}

// senderHosts returns the hosts whose egress carries the job's traffic.
func (j *JobInfo) senderHosts() []int {
	if len(j.SenderHosts) == 0 {
		return []int{j.PSHost}
	}
	return j.SenderHosts
}

// ports returns the source ports identifying the job's traffic.
func (j *JobInfo) ports() []int {
	if len(j.Ports) == 0 {
		return []int{j.PSPort}
	}
	return j.Ports
}

// onHost reports whether the job's traffic leaves the host.
func (j *JobInfo) onHost(host int) bool {
	for _, h := range j.senderHosts() {
		if h == host {
			return true
		}
	}
	return false
}

// Controller is the TensorLights daemon. It owns actuation (tc command
// synthesis, retry/backoff, reconcile) and delegates every ranking and
// rotation decision to a policy.Policy resolved from the registry.
type Controller struct {
	cfg Config
	k   *sim.Kernel
	tcc *tc.Controller
	rng *sim.RNG

	// pol makes all ranking decisions; passive marks NoOp policies
	// (FIFO), under which the controller leaves NICs untouched;
	// adaptive marks feedback-driven policies, the only ones that emit
	// policy_rank events (so legacy traces stay byte-identical).
	pol      policy.Policy
	passive  bool
	adaptive bool
	fb       *policy.Feedback

	jobs        map[int]*JobInfo
	nextSeq     int
	rotation    int
	rotateEv    *sim.Event
	reconcileEv *sim.Event
	hosts       map[int]*hostState // hosts with a managed (non-FIFO) desired state
	reconfigs   int
	stats       RecoveryStats

	// Tracer, when non-nil, receives tc_config and priority_rotate
	// events.
	Tracer trace.Tracer
}

func (c *Controller) emit(ev trace.Event) {
	if c.Tracer != nil {
		c.Tracer.Emit(ev)
	}
}

// New creates a controller issuing commands through the tc layer. The
// configured policy is resolved from the internal/policy registry; an
// unknown name panics (use Config.Validate to reject user input).
func New(k *sim.Kernel, tcc *tc.Controller, rng *sim.RNG, cfg Config) *Controller {
	cfg.fillDefaults()
	stream := rng.Stream("tensorlights")
	pol, err := policy.New(cfg.Policy, policy.Params{
		Bands:       cfg.Bands,
		IntervalSec: cfg.IntervalSec,
		Order:       cfg.Order,
		RNG:         stream,
	})
	if err != nil {
		panic("tensorlights: " + err.Error())
	}
	return &Controller{
		cfg:      cfg,
		k:        k,
		tcc:      tcc,
		rng:      stream,
		pol:      pol,
		passive:  policy.IsNoOp(pol),
		adaptive: policy.NeedsFeedback(pol),
		jobs:     make(map[int]*JobInfo),
		hosts:    make(map[int]*hostState),
	}
}

// NeedsFeedback reports whether the resolved policy is feedback-driven
// and a policy.Feedback should be attached before jobs arrive.
func (c *Controller) NeedsFeedback() bool { return c.adaptive }

// AttachFeedback wires the telemetry collector the adaptive policies
// read. The controller forwards job arrival/departure/progress and
// records band assignments after each successful apply; the cluster
// layer owns the collector's probe and sampling loop.
func (c *Controller) AttachFeedback(fb *policy.Feedback) { c.fb = fb }

// Feedback returns the attached collector, or nil.
func (c *Controller) Feedback() *policy.Feedback { return c.fb }

// Config returns the effective configuration.
func (c *Controller) Config() Config { return c.cfg }

// Reconfigs returns how many host reconfigurations have been applied —
// the paper's cost metric for tc churn.
func (c *Controller) Reconfigs() int { return c.reconfigs }

// Stats returns the actuation-failure recovery counters.
func (c *Controller) Stats() RecoveryStats { return c.stats }

// FallbackHosts lists hosts currently degraded to FIFO because tc
// actuation kept failing, in ascending order.
func (c *Controller) FallbackHosts() []int {
	var out []int
	for h, st := range c.hosts {
		if st.fallback {
			out = append(out, h)
		}
	}
	sort.Ints(out)
	return out
}

// JobArrived registers a job and reconfigures every host its traffic
// leaves from, if needed.
func (c *Controller) JobArrived(info JobInfo) {
	if c.passive {
		return
	}
	if _, dup := c.jobs[info.ID]; dup {
		panic(fmt.Sprintf("tensorlights: job %d arrived twice", info.ID))
	}
	info.arrivalSeq = c.nextSeq
	c.nextSeq++
	c.jobs[info.ID] = &info
	if c.fb != nil {
		c.fb.JobArrived(info.ID)
	}
	for _, h := range info.senderHosts() {
		c.setDesired(h)
	}
	c.armRotation()
	c.armReconcile()
}

// JobDeparted deregisters a job; every host carrying its traffic is
// reconfigured (and the TLs qdisc removed entirely where fewer than two
// contending jobs remain).
func (c *Controller) JobDeparted(id int) {
	if c.passive {
		return
	}
	info, ok := c.jobs[id]
	if !ok {
		return
	}
	delete(c.jobs, id)
	if c.fb != nil {
		c.fb.JobDeparted(id)
	}
	for _, h := range info.senderHosts() {
		c.setDesired(h)
	}
	if len(c.jobs) == 0 {
		if c.rotateEv != nil {
			c.k.Cancel(c.rotateEv)
			c.rotateEv = nil
		}
		if c.reconcileEv != nil && len(c.hosts) == 0 {
			// Keep reconciling while any host still carries (or failed
			// to shed) managed state; stop once everything is clean.
			c.k.Cancel(c.reconcileEv)
			c.reconcileEv = nil
		}
	}
}

// JobProgress records a job's latest completed iteration; progress-
// aware policies (LPF, and the feedback-driven set via the collector)
// use it to rank contending jobs. Progress for unknown jobs is ignored
// (the job may already have departed).
func (c *Controller) JobProgress(id, iteration int) {
	if j, ok := c.jobs[id]; ok {
		j.progress = iteration
		if c.fb != nil {
			c.fb.OnProgress(id, iteration)
		}
	}
}

// rotationInterval returns the policy's re-ranking period, or 0 for
// policies that rank only on membership changes.
func (c *Controller) rotationInterval() float64 {
	return policy.Interval(c.pol)
}

// armRotation starts the re-ranking timer on first demand for rotating
// policies.
func (c *Controller) armRotation() {
	ivl := c.rotationInterval()
	if ivl <= 0 || c.rotateEv != nil {
		return
	}
	c.rotateEv = c.k.ScheduleAfter(ivl, c.rotate)
}

// rotate advances the policy to its next phase and reconfigures every
// contended host — the green/yellow light change.
func (c *Controller) rotate() {
	c.rotateEv = nil
	if len(c.jobs) == 0 {
		return
	}
	now := c.k.Now()
	c.rotation++
	policy.Advance(c.pol, now)
	c.emit(trace.Event{
		At: now, Kind: trace.KindPriorityRotate,
		Job: -1, Host: -1, Worker: -1, Value: float64(c.rotation),
	})
	for _, host := range c.contendedHosts() {
		c.rotateHost(host)
	}
	c.armRotation()
}

// contendedHosts lists hosts whose egress carries two or more jobs —
// PSes, collective ranks, or a mix. Priority bands rank every
// contending job uniformly, whatever its workload type.
func (c *Controller) contendedHosts() []int {
	count := map[int]int{}
	for _, j := range c.jobs {
		for _, h := range j.senderHosts() {
			count[h]++
		}
	}
	var hosts []int
	for h, n := range count {
		if n >= 2 {
			hosts = append(hosts, h)
		}
	}
	sort.Ints(hosts)
	return hosts
}

// rankedJobs collects the jobs whose prioritized traffic leaves the
// host and asks the policy to rank them. It returns the jobs in rank
// order (the filter installation order) with each job's virtual band
// in [0, cfg.Bands). With fewer than two jobs the policy is not
// consulted and bands is nil. Adaptive policies' decisions are traced
// as policy_rank events.
func (c *Controller) rankedJobs(host int) (jobs []*JobInfo, bands []int) {
	for _, j := range c.jobs {
		if j.onHost(host) {
			jobs = append(jobs, j)
		}
	}
	sort.Slice(jobs, func(i, k int) bool { return jobs[i].arrivalSeq < jobs[k].arrivalSeq })
	if len(jobs) < 2 {
		return jobs, nil
	}
	view := make([]policy.Job, len(jobs))
	byID := make(map[int]*JobInfo, len(jobs))
	for i, j := range jobs {
		view[i] = policy.Job{
			ID:          j.ID,
			ArrivalSeq:  j.arrivalSeq,
			UpdateBytes: j.UpdateBytes,
			TargetSteps: j.TargetSteps,
			Progress:    j.progress,
		}
		byID[j.ID] = j
	}
	bands = c.pol.Rank(host, view, c.fb)
	if len(bands) != len(view) {
		panic(fmt.Sprintf("tensorlights: policy %s ranked %d jobs into %d bands",
			c.pol.Name(), len(view), len(bands)))
	}
	for i, v := range view {
		jobs[i] = byID[v.ID]
	}
	if c.adaptive && c.Tracer != nil {
		var sb strings.Builder
		fmt.Fprintf(&sb, "policy=%s order=", c.pol.Name())
		for i, v := range view {
			if i > 0 {
				sb.WriteByte(' ')
			}
			fmt.Fprintf(&sb, "%d:%d", v.ID, bands[i])
		}
		c.emit(trace.Event{
			At: c.k.Now(), Kind: trace.KindPolicyRank,
			Job: -1, Host: host, Worker: -1,
			Value: float64(len(jobs)), Detail: sb.String(),
		})
	}
	return jobs, bands
}

// stateOf returns (creating on demand) the host's bookkeeping record.
func (c *Controller) stateOf(host int) *hostState {
	st, ok := c.hosts[host]
	if !ok {
		st = &hostState{}
		c.hosts[host] = st
	}
	return st
}

// setDesired recomputes a host's target configuration after a
// membership change and starts applying it. Hosts with fewer than two
// local PSes desire the default FIFO — the paper configures tc only
// where PSes contend.
func (c *Controller) setDesired(host int) {
	cmds, firstFilter, njobs, assign := c.desiredCommands(host)
	if len(cmds) == 0 {
		st, ok := c.hosts[host]
		if !ok {
			return // never managed: already FIFO
		}
		st.desired, st.firstFilter, st.njobs, st.assign = nil, 0, 0, nil
		c.cancelRetry(st)
		st.attempts = 0
		c.tryApply(host)
		return
	}
	st := c.stateOf(host)
	st.desired, st.firstFilter, st.njobs, st.assign = cmds, firstFilter, njobs, assign
	c.cancelRetry(st)
	st.attempts = 0
	c.tryApply(host)
}

// rotateHost re-applies a host's configuration for the new rotation.
// On a healthy, installed host only the filter chain is rewritten — the
// qdisc tree stays, so queued traffic keeps flowing in its classes and
// tc churn per rotation stays minimal. Hosts mid-retry or in fallback
// just get their desired state refreshed; the retry/reconcile paths
// will install it.
func (c *Controller) rotateHost(host int) {
	cmds, firstFilter, njobs, assign := c.desiredCommands(host)
	if len(cmds) == 0 {
		c.setDesired(host)
		return
	}
	st := c.stateOf(host)
	st.desired, st.firstFilter, st.njobs, st.assign = cmds, firstFilter, njobs, assign
	if st.installedFP == "" || st.fallback || st.retryEv != nil {
		return
	}
	rewrite := append([]string{"filter del dev eth0 all"}, cmds[firstFilter:]...)
	for _, cmd := range rewrite {
		if err := c.tcc.Exec(host, cmd); err != nil {
			c.applyFailed(host, st, err)
			return
		}
	}
	st.installedFP = c.tcc.Fingerprint(host)
	c.reconfigs++
	c.pushAssignments(host, st)
}

// desiredCommands builds the tc command list realizing TensorLights'
// target state for one host, plus the index of the first filter
// command, the contending-job count, and the job -> installed band
// assignment (what the feedback collector attributes dequeue bytes
// by). An empty list means default FIFO.
func (c *Controller) desiredCommands(host int) (cmds []string, firstFilter, njobs int, assign map[int]int) {
	jobs, bands := c.rankedJobs(host)
	njobs = len(jobs)
	if njobs < 2 {
		return nil, 0, njobs, nil
	}
	if policy.WantsStaticRate(c.pol) {
		// bands are per-job class indices; every job gets its own class.
		cmds = c.staticRateCommands(host, jobs, bands)
	} else {
		// Clamp virtual bands to the host's effective band count, as the
		// paper's limited-band deployment shares bands between ranks.
		eff := c.cfg.Bands
		if njobs < eff {
			eff = njobs
		}
		clamped := make([]int, njobs)
		for i, b := range bands {
			if b < 0 {
				b = 0
			}
			if b >= eff {
				b = eff - 1
			}
			clamped[i] = b
		}
		bands = clamped
		if c.cfg.UsePrioQdisc {
			cmds = c.prioCommands(jobs, bands, eff)
		} else {
			cmds = c.htbCommands(host, jobs, bands, eff)
		}
	}
	assign = make(map[int]int, njobs)
	for i, j := range jobs {
		assign[j.ID] = bands[i]
	}
	firstFilter = len(cmds)
	for i, cmd := range cmds {
		if strings.HasPrefix(cmd, "filter ") {
			firstFilter = i
			break
		}
	}
	return cmds, firstFilter, njobs, assign
}

// tryApply executes the host's desired command list. Installing a root
// qdisc atomically replaces the previous tree, so a full apply needs no
// teardown; an empty desired state is realized by deleting the root.
// Any command failure routes to the retry/backoff/fallback path.
func (c *Controller) tryApply(host int) {
	st := c.stateOf(host)
	st.retryEv = nil
	if len(st.desired) == 0 {
		if st.installedFP != "" || st.fallback {
			if err := c.tcc.Exec(host, "qdisc del dev eth0 root"); err != nil {
				c.applyFailed(host, st, err)
				return
			}
			c.reconfigs++
		}
		delete(c.hosts, host)
		if c.fb != nil {
			c.fb.ClearHost(host)
		}
		return
	}
	for _, cmd := range st.desired {
		if err := c.tcc.Exec(host, cmd); err != nil {
			c.applyFailed(host, st, err)
			return
		}
	}
	st.attempts = 0
	st.fallback = false
	st.installedFP = c.tcc.Fingerprint(host)
	c.reconfigs++
	c.pushAssignments(host, st)
	c.emit(trace.Event{
		At: c.k.Now(), Kind: trace.KindTcConfig,
		Job: -1, Host: host, Worker: -1, Value: float64(st.njobs),
		Detail: fmt.Sprintf("policy=%s jobs=%d", c.pol.Name(), st.njobs),
	})
}

// pushAssignments hands the host's installed job -> band map to the
// feedback collector, which attributes per-band dequeue bytes by it.
func (c *Controller) pushAssignments(host int, st *hostState) {
	if c.fb != nil {
		c.fb.SetAssignments(host, st.assign)
	}
}

// applyFailed handles one failed tc command: schedule a backoff retry,
// or fall back to FIFO once the budget is exhausted.
func (c *Controller) applyFailed(host int, st *hostState, err error) {
	st.attempts++
	st.installedFP = "" // unknown, possibly partial state
	if c.fb != nil {
		c.fb.ClearHost(host) // attribution by band is unreliable now
	}
	c.emit(trace.Event{
		At: c.k.Now(), Kind: trace.KindTcError,
		Job: -1, Host: host, Worker: -1, Value: float64(st.attempts),
		Detail: err.Error(),
	})
	if st.attempts > c.cfg.MaxExecRetries {
		c.fallbackToFIFO(host, st)
		return
	}
	c.stats.Retries++
	backoff := c.cfg.RetryBackoffSec * math.Pow(2, float64(st.attempts-1))
	st.retryEv = c.k.ScheduleAfter(backoff, func() { c.tryApply(host) })
}

// fallbackToFIFO degrades a host whose actuation keeps failing: clear
// whatever half-installed tree remains (best effort) so traffic at
// least flows FIFO instead of through a partial class structure. The
// reconcile loop keeps retrying the desired state.
func (c *Controller) fallbackToFIFO(host int, st *hostState) {
	st.fallback = true
	st.attempts = 0
	st.installedFP = ""
	c.stats.Fallbacks++
	_ = c.tcc.Exec(host, "qdisc del dev eth0 root")
	c.emit(trace.Event{
		At: c.k.Now(), Kind: trace.KindTcFallback,
		Job: -1, Host: host, Worker: -1,
	})
}

// cancelRetry cancels a pending backoff retry, if any.
func (c *Controller) cancelRetry(st *hostState) {
	if st.retryEv != nil {
		c.k.Cancel(st.retryEv)
		st.retryEv = nil
	}
}

// armReconcile starts the periodic reconcile loop on first demand.
func (c *Controller) armReconcile() {
	if c.cfg.ReconcileIntervalSec < 0 || c.reconcileEv != nil {
		return
	}
	c.reconcileEv = c.k.ScheduleAfter(c.cfg.ReconcileIntervalSec, c.reconcile)
}

// reconcile is the drift-repair loop: for every managed host, compare
// the installed qdisc state (read back via fingerprint) against what
// the controller last applied, and re-apply on mismatch. Hosts in FIFO
// fallback get a fresh attempt each period, so priority bands are
// restored as soon as actuation heals. Hosts are visited in ascending
// id order to keep runs deterministic.
func (c *Controller) reconcile() {
	c.reconcileEv = nil
	ids := make([]int, 0, len(c.hosts))
	for h := range c.hosts {
		ids = append(ids, h)
	}
	sort.Ints(ids)
	for _, host := range ids {
		st := c.hosts[host]
		if st.retryEv != nil {
			continue // a backoff retry is already in flight
		}
		needsRepair := st.fallback
		if !needsRepair && c.tcc.Fingerprint(host) != st.installedFP {
			needsRepair = true // drift: installed state changed under us
		}
		if !needsRepair {
			continue
		}
		st.attempts = 0
		c.tryApply(host)
		if st, ok := c.hosts[host]; !ok || (st.installedFP != "" && !st.fallback) {
			c.stats.Repairs++
			c.emit(trace.Event{
				At: c.k.Now(), Kind: trace.KindTcRepair,
				Job: -1, Host: host, Worker: -1,
			})
		}
	}
	if len(c.jobs) > 0 || len(c.hosts) > 0 {
		c.armReconcile()
	}
}

// htbCommands builds the paper's implementation: htb root, one class
// per band with a tiny guaranteed rate and full-link ceil, and one
// filter per job mapping its PS source port to its band's class.
// Unclassified traffic (gradient pushes from any colocated workers,
// background flows) falls into the last class. bands holds the
// policy's clamped band per job (rank order); eff is the effective
// band count.
func (c *Controller) htbCommands(host int, jobs []*JobInfo, bands []int, eff int) []string {
	def := eff - 1
	ceil := c.tcc.LinkRateBps(host)
	cmds := []string{fmt.Sprintf("qdisc add dev eth0 root htb default %d", def)}
	for b := 0; b < eff; b++ {
		cmds = append(cmds, fmt.Sprintf(
			"class add dev eth0 classid %d rate %.0fbps ceil %.0fbit prio %d",
			b, guaranteeRateBps/8, ceil, b))
	}
	pref := 0
	for rank, j := range jobs {
		for _, port := range j.ports() {
			cmds = append(cmds, fmt.Sprintf(
				"filter add dev eth0 pref %d match sport %d flowid %d",
				pref, port, bands[rank]))
			pref++
		}
	}
	return cmds
}

// staticRateCommands pins each contending job to an equal static rate
// share: one htb class per job with rate = ceil = link/N and equal
// priority. Without borrowing headroom the allocation is not
// work-conserving; an idle job's share is simply lost. bands holds the
// policy's per-job class index (rank order).
func (c *Controller) staticRateCommands(host int, jobs []*JobInfo, bands []int) []string {
	link := c.tcc.LinkRateBps(host)
	share := link / float64(len(jobs))
	cmds := []string{fmt.Sprintf("qdisc add dev eth0 root htb default %d", len(jobs)-1)}
	for rank := range jobs {
		cmds = append(cmds, fmt.Sprintf(
			"class add dev eth0 classid %d rate %.0fbit ceil %.0fbit prio 0",
			rank, share, share))
	}
	pref := 0
	for rank, j := range jobs {
		for _, port := range j.ports() {
			cmds = append(cmds, fmt.Sprintf(
				"filter add dev eth0 pref %d match sport %d flowid %d",
				pref, port, bands[rank]))
			pref++
		}
	}
	return cmds
}

// prioCommands is the ablation variant using a plain prio qdisc.
func (c *Controller) prioCommands(jobs []*JobInfo, bands []int, eff int) []string {
	cmds := []string{fmt.Sprintf("qdisc add dev eth0 root prio bands %d", eff)}
	pref := 0
	for rank, j := range jobs {
		for _, port := range j.ports() {
			cmds = append(cmds, fmt.Sprintf(
				"filter add dev eth0 pref %d match sport %d flowid %d",
				pref, port, bands[rank]))
			pref++
		}
	}
	return cmds
}
