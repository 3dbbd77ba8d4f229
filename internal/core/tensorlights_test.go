package core

import (
	"testing"

	"repro/internal/policy"
	"repro/internal/qdisc"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/tc"
	"repro/internal/trace"
)

func newHarness(hosts int, cfg Config) (*sim.Kernel, *simnet.Fabric, *Controller) {
	k := sim.NewKernel()
	fab := simnet.New(k, sim.NewRNG(1), simnet.Config{})
	for i := 0; i < hosts; i++ {
		fab.AddHost("h")
	}
	ctl := New(k, tc.NewController(fab), sim.NewRNG(1), cfg)
	return k, fab, ctl
}

func job(id, host int) JobInfo {
	return JobInfo{ID: id, PSHost: host, PSPort: 5000 + id, UpdateBytes: 1_868_000}
}

func TestFIFOPolicyIsNoOp(t *testing.T) {
	for _, name := range []string{PolicyFIFO, ""} { // empty means FIFO
		_, fab, ctl := newHarness(3, Config{Policy: name})
		ctl.JobArrived(job(0, 0))
		ctl.JobArrived(job(1, 0))
		if fab.Host(0).Egress.Qdisc().Kind() != "pfifo" {
			t.Fatalf("policy %q: FIFO must not configure tc", name)
		}
		ctl.JobDeparted(0)
		if ctl.Reconfigs() != 0 {
			t.Fatalf("policy %q: FIFO reconfigured", name)
		}
	}
}

func TestSinglePSNotConfigured(t *testing.T) {
	_, fab, ctl := newHarness(3, Config{Policy: PolicyOne})
	ctl.JobArrived(job(0, 0))
	if fab.Host(0).Egress.Qdisc().Kind() != "pfifo" {
		t.Fatal("non-contended host was configured")
	}
}

// TestEveryPolicyStaysInTcDialect drives every registered policy (and
// the prio-qdisc ablation) through colocated arrivals, rotations,
// reconcile passes and departures. A command the tc parser rejects
// would not fail a run — it would retry and quietly drop the host to
// FIFO — so this pins that the controller only emits accepted commands.
func TestEveryPolicyStaysInTcDialect(t *testing.T) {
	type variant struct {
		name string
		cfg  Config
	}
	var variants []variant
	for _, name := range policy.Names() {
		variants = append(variants, variant{name, Config{Policy: name}})
	}
	variants = append(variants, variant{"TLs-One/prio", Config{Policy: PolicyOne, UsePrioQdisc: true}})
	for _, v := range variants {
		cfg := v.cfg
		cfg.IntervalSec = 1
		cfg.ReconcileIntervalSec = 2.5
		k, fab, ctl := newHarness(2, cfg)
		for id := 0; id < 3; id++ {
			ctl.JobArrived(job(id, 0))
		}
		for step := 1; step <= 5; step++ {
			for id := 0; id < 3; id++ {
				ctl.JobProgress(id, step*(id+1))
			}
			k.RunUntil(float64(step))
		}
		ctl.JobDeparted(0) // two contenders left: reconfigure
		k.RunUntil(7)
		ctl.JobDeparted(1) // one left: back to FIFO
		k.RunUntil(9)
		if n := ctl.tcc.ExecErrors(); n != 0 {
			t.Errorf("%s: %d tc commands rejected", v.name, n)
		}
		if st := ctl.Stats(); st != (RecoveryStats{}) {
			t.Errorf("%s: recovery ran on a fault-free run: %+v", v.name, st)
		}
		if got := fab.Host(0).Egress.Qdisc().Kind(); got != "pfifo" {
			t.Errorf("%s: host left with %s after the last contender departed", v.name, got)
		}
		if v.name != PolicyFIFO && ctl.tcc.ExecCount() == 0 {
			t.Errorf("%s: never configured tc", v.name)
		}
	}
}

func TestColocationTriggersHTB(t *testing.T) {
	_, fab, ctl := newHarness(3, Config{Policy: PolicyOne})
	ctl.JobArrived(job(0, 0))
	ctl.JobArrived(job(1, 0))
	htb, ok := fab.Host(0).Egress.Qdisc().(*qdisc.HTB)
	if !ok {
		t.Fatal("contended host not running htb")
	}
	// Two jobs -> two classes, filters map each PS port to its band.
	if len(htb.Classes()) != 2 {
		t.Fatalf("classes %v", htb.Classes())
	}
	b0 := htb.Classifier().Classify(&qdisc.Chunk{SrcPort: 5000})
	b1 := htb.Classifier().Classify(&qdisc.Chunk{SrcPort: 5001})
	if b0 == b1 {
		t.Fatal("two contending jobs share a band with bands available")
	}
	// Other hosts untouched.
	if fab.Host(1).Egress.Qdisc().Kind() != "pfifo" {
		t.Fatal("uncontended host touched")
	}
}

func TestDepartureRemovesConfig(t *testing.T) {
	_, fab, ctl := newHarness(3, Config{Policy: PolicyOne})
	ctl.JobArrived(job(0, 0))
	ctl.JobArrived(job(1, 0))
	ctl.JobDeparted(0)
	if fab.Host(0).Egress.Qdisc().Kind() != "pfifo" {
		t.Fatal("config not removed when contention ended")
	}
	ctl.JobDeparted(1)
	ctl.JobDeparted(99) // unknown id is a no-op
}

func TestBandSharingWithManyJobs(t *testing.T) {
	_, fab, ctl := newHarness(2, Config{Policy: PolicyOne, Bands: 6})
	for i := 0; i < 21; i++ {
		ctl.JobArrived(job(i, 0))
	}
	htb := fab.Host(0).Egress.Qdisc().(*qdisc.HTB)
	if len(htb.Classes()) != 6 {
		t.Fatalf("classes %d, want 6 (tc band limit)", len(htb.Classes()))
	}
	// All 21 ports classified; every band used by 3-4 jobs.
	perBand := map[qdisc.ClassID]int{}
	for i := 0; i < 21; i++ {
		b := htb.Classifier().Classify(&qdisc.Chunk{SrcPort: 5000 + i})
		perBand[b]++
	}
	if len(perBand) != 6 {
		t.Fatalf("bands used %d, want 6", len(perBand))
	}
	for b, n := range perBand {
		if n < 3 || n > 4 {
			t.Fatalf("band %d has %d jobs", b, n)
		}
	}
}

func TestClassesAreWorkConserving(t *testing.T) {
	_, fab, ctl := newHarness(2, Config{Policy: PolicyOne})
	ctl.JobArrived(job(0, 0))
	ctl.JobArrived(job(1, 0))
	htb := fab.Host(0).Egress.Qdisc().(*qdisc.HTB)
	link := fab.Host(0).Egress.RateBytes()
	for _, id := range htb.Classes() {
		cfg := htb.Class(id).Config()
		if cfg.Ceil < link*0.99 {
			t.Fatalf("class %d ceil %.0f < link %.0f: not work-conserving", id, cfg.Ceil, link)
		}
	}
}

func TestRotationChangesBands(t *testing.T) {
	k, fab, ctl := newHarness(2, Config{Policy: PolicyRR, IntervalSec: 10, Bands: 6})
	for i := 0; i < 6; i++ {
		ctl.JobArrived(job(i, 0))
	}
	htb := fab.Host(0).Egress.Qdisc().(*qdisc.HTB)
	bandOf := func(port int) qdisc.ClassID {
		return htb.Classifier().Classify(&qdisc.Chunk{SrcPort: port})
	}
	before := bandOf(5000)
	k.RunUntil(11) // one rotation
	after := bandOf(5000)
	if before == after {
		t.Fatal("rotation did not change the band assignment")
	}
	// Rotation must not replace the qdisc tree (queued traffic keeps
	// flowing in its classes).
	if fab.Host(0).Egress.Qdisc() != qdisc.Qdisc(htb) {
		t.Fatal("rotation rebuilt the qdisc")
	}
	// After a full cycle of 6 rotations the assignment returns.
	k.RunUntil(61)
	if got := bandOf(5000); got != before {
		t.Fatalf("after full cycle band %d, want %d", got, before)
	}
}

func TestRotationStopsWhenJobsGone(t *testing.T) {
	k, _, ctl := newHarness(2, Config{Policy: PolicyRR, IntervalSec: 5})
	ctl.JobArrived(job(0, 0))
	ctl.JobArrived(job(1, 0))
	ctl.JobDeparted(0)
	ctl.JobDeparted(1)
	k.RunUntil(100)
	if k.Pending() != 0 {
		t.Fatal("rotation timer leaked after all jobs departed")
	}
}

func TestTLsOneDoesNotRotate(t *testing.T) {
	k, fab, ctl := newHarness(2, Config{Policy: PolicyOne})
	ctl.JobArrived(job(0, 0))
	ctl.JobArrived(job(1, 0))
	htb := fab.Host(0).Egress.Qdisc().(*qdisc.HTB)
	before := htb.Classifier().Classify(&qdisc.Chunk{SrcPort: 5000})
	k.RunUntil(100)
	after := htb.Classifier().Classify(&qdisc.Chunk{SrcPort: 5000})
	if before != after {
		t.Fatal("TLs-One must keep a static assignment")
	}
}

func TestOrderSmallestUpdate(t *testing.T) {
	_, fab, ctl := newHarness(2, Config{Policy: PolicyOne, Order: policy.OrderSmallestUpdate})
	big := job(0, 0)
	big.UpdateBytes = 100 << 20
	small := job(1, 0)
	small.UpdateBytes = 1 << 20
	ctl.JobArrived(big)
	ctl.JobArrived(small)
	htb := fab.Host(0).Egress.Qdisc().(*qdisc.HTB)
	bandSmall := htb.Classifier().Classify(&qdisc.Chunk{SrcPort: small.PSPort})
	bandBig := htb.Classifier().Classify(&qdisc.Chunk{SrcPort: big.PSPort})
	if bandSmall >= bandBig {
		t.Fatalf("smallest-update order: small band %d, big band %d", bandSmall, bandBig)
	}
}

func TestOrderRandomIsDeterministicPerSeed(t *testing.T) {
	collect := func() []qdisc.ClassID {
		_, fab, ctl := newHarness(2, Config{Policy: PolicyOne, Order: policy.OrderRandom})
		for i := 0; i < 6; i++ {
			ctl.JobArrived(job(i, 0))
		}
		htb := fab.Host(0).Egress.Qdisc().(*qdisc.HTB)
		var bands []qdisc.ClassID
		for i := 0; i < 6; i++ {
			bands = append(bands, htb.Classifier().Classify(&qdisc.Chunk{SrcPort: 5000 + i}))
		}
		return bands
	}
	a, b := collect(), collect()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("random order not reproducible for equal seeds")
		}
	}
}

func TestPrioQdiscVariant(t *testing.T) {
	_, fab, ctl := newHarness(2, Config{Policy: PolicyOne, UsePrioQdisc: true})
	ctl.JobArrived(job(0, 0))
	ctl.JobArrived(job(1, 0))
	if fab.Host(0).Egress.Qdisc().Kind() != "prio" {
		t.Fatal("prio variant not installed")
	}
}

func TestMultiHostContention(t *testing.T) {
	_, fab, ctl := newHarness(4, Config{Policy: PolicyOne})
	// Hosts 0 and 1 each get two PSes; host 2 gets one.
	ctl.JobArrived(job(0, 0))
	ctl.JobArrived(job(1, 0))
	ctl.JobArrived(job(2, 1))
	ctl.JobArrived(job(3, 1))
	ctl.JobArrived(job(4, 2))
	if fab.Host(0).Egress.Qdisc().Kind() != "htb" ||
		fab.Host(1).Egress.Qdisc().Kind() != "htb" {
		t.Fatal("contended hosts not configured")
	}
	if fab.Host(2).Egress.Qdisc().Kind() != "pfifo" {
		t.Fatal("single-PS host configured")
	}
}

func TestDuplicateArrivalPanics(t *testing.T) {
	_, _, ctl := newHarness(2, Config{Policy: PolicyOne})
	ctl.JobArrived(job(0, 0))
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate arrival accepted")
		}
	}()
	ctl.JobArrived(job(0, 0))
}

func TestTraceEventsEmitted(t *testing.T) {
	k, _, ctl := newHarness(2, Config{Policy: PolicyRR, IntervalSec: 5})
	buf := &trace.Buffer{}
	ctl.Tracer = buf
	ctl.JobArrived(job(0, 0))
	ctl.JobArrived(job(1, 0))
	k.RunUntil(12)
	var cfgs, rots int
	for _, e := range buf.Events() {
		switch e.Kind {
		case trace.KindTcConfig:
			cfgs++
		case trace.KindPriorityRotate:
			rots++
		}
	}
	if cfgs == 0 || rots == 0 {
		t.Fatalf("trace events: cfgs=%d rots=%d", cfgs, rots)
	}
}

func TestValidateResolvesRegistryNames(t *testing.T) {
	for _, name := range []string{"", PolicyRR, "rr", "tls-interleave"} {
		if err := (Config{Policy: name}).Validate(); err != nil {
			t.Errorf("Validate(%q): %v", name, err)
		}
	}
	if err := (Config{Policy: "no-such-policy"}).Validate(); err == nil {
		t.Error("Validate accepted an unregistered policy")
	}
}

func TestConfigDefaults(t *testing.T) {
	_, _, ctl := newHarness(2, Config{Policy: PolicyOne})
	cfg := ctl.Config()
	if cfg.Bands != 6 || cfg.IntervalSec != 20 {
		t.Fatalf("defaults %+v", cfg)
	}
}

// The band spread covers all bands and is monotone in rank for a fixed
// rotation (the math the controller delegates to policy.SpreadBands).
func TestBandSpreadCoversAllBands(t *testing.T) {
	bands := policy.SpreadBands(21, 6, 0)
	seen := map[int]bool{}
	prev := -1
	for rank, b := range bands {
		if b < prev {
			t.Fatalf("band spread not monotone at rank %d", rank)
		}
		prev = b
		seen[b] = true
	}
	if len(seen) != 6 {
		t.Fatalf("bands used %d", len(seen))
	}
}

// collJob describes a ring all-reduce job: its traffic leaves every
// ring host, always from the job's collective port.
func collJob(id int, port int, hosts ...int) JobInfo {
	return JobInfo{
		ID: id, PSHost: hosts[0], PSPort: port, UpdateBytes: 244_000_000,
		SenderHosts: hosts, Ports: []int{port},
	}
}

func TestCollectiveJobConfiguresEveryRingHost(t *testing.T) {
	_, fab, ctl := newHarness(4, Config{Policy: PolicyOne})
	// Two rings sharing hosts 0-2; host 3 carries only ring B.
	ctl.JobArrived(collJob(100, 7000, 0, 1, 2))
	ctl.JobArrived(collJob(101, 7100, 0, 1, 2, 3))
	for h := 0; h <= 2; h++ {
		htb, ok := fab.Host(h).Egress.Qdisc().(*qdisc.HTB)
		if !ok {
			t.Fatalf("host %d not running htb", h)
		}
		a := htb.Classifier().Classify(&qdisc.Chunk{SrcPort: 7000})
		b := htb.Classifier().Classify(&qdisc.Chunk{SrcPort: 7100})
		if a == b {
			t.Fatalf("host %d: rings share a band", h)
		}
	}
	if fab.Host(3).Egress.Qdisc().Kind() != "pfifo" {
		t.Fatal("single-job host 3 was configured")
	}
	// Ring A departs: every host it contended on returns to FIFO.
	ctl.JobDeparted(100)
	for h := 0; h <= 3; h++ {
		if fab.Host(h).Egress.Qdisc().Kind() != "pfifo" {
			t.Fatalf("host %d still configured after contention ended", h)
		}
	}
}

func TestMixedPSAndCollectiveRankedUniformly(t *testing.T) {
	_, fab, ctl := newHarness(4, Config{Policy: PolicyOne, Bands: 6})
	// A PS job on host 0 and a ring crossing host 0: host 0 carries
	// both traffic classes and must rank the two jobs into distinct
	// bands, whatever their workload type.
	ctl.JobArrived(job(0, 0))
	ctl.JobArrived(collJob(100, 7000, 0, 1, 2))
	htb, ok := fab.Host(0).Egress.Qdisc().(*qdisc.HTB)
	if !ok {
		t.Fatal("mixed host not running htb")
	}
	ps := htb.Classifier().Classify(&qdisc.Chunk{SrcPort: 5000})
	ring := htb.Classifier().Classify(&qdisc.Chunk{SrcPort: 7000})
	if ps == ring {
		t.Fatal("PS and collective jobs share a band")
	}
	if ps == htb.Classifier().Default() && ring == htb.Classifier().Default() {
		t.Fatal("both jobs fell through to the default class")
	}
}

func TestMultiPortJobFiltersToOneBand(t *testing.T) {
	_, fab, ctl := newHarness(3, Config{Policy: PolicyOne})
	// One job emitting from two source ports (e.g. PS fan-out plus a
	// collective ring): both filters must land in the same band.
	two := JobInfo{ID: 0, PSHost: 0, PSPort: 5000, UpdateBytes: 1,
		Ports: []int{5000, 7000}}
	ctl.JobArrived(two)
	ctl.JobArrived(job(1, 0))
	htb := fab.Host(0).Egress.Qdisc().(*qdisc.HTB)
	cl := htb.Classifier()
	a := cl.Classify(&qdisc.Chunk{SrcPort: 5000})
	b := cl.Classify(&qdisc.Chunk{SrcPort: 7000})
	if a != b {
		t.Fatalf("one job's two ports map to bands %d and %d", a, b)
	}
	if other := cl.Classify(&qdisc.Chunk{SrcPort: 5001}); other == a {
		t.Fatal("second job shares the first job's band")
	}
	// Filter prefs must be unique across the chain.
	seen := map[int]bool{}
	for _, f := range cl.Filters() {
		if seen[f.Pref] {
			t.Fatalf("duplicate filter pref %d", f.Pref)
		}
		seen[f.Pref] = true
	}
}

func TestCollectiveRotationRotatesRingHosts(t *testing.T) {
	k, fab, ctl := newHarness(3, Config{Policy: PolicyRR, IntervalSec: 5})
	ctl.JobArrived(collJob(100, 7000, 0, 1, 2))
	ctl.JobArrived(collJob(101, 7100, 0, 1, 2))
	htb := fab.Host(1).Egress.Qdisc().(*qdisc.HTB)
	before := htb.Classifier().Classify(&qdisc.Chunk{SrcPort: 7000})
	k.RunUntil(6) // one rotation
	after := htb.Classifier().Classify(&qdisc.Chunk{SrcPort: 7000})
	if before == after {
		t.Fatal("rotation did not move the ring job's band")
	}
}
