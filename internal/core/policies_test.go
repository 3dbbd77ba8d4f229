package core

import (
	"testing"

	"repro/internal/policy"
	"repro/internal/qdisc"
	"repro/internal/simnet"
)

// simnetFlow builds a one-shot flow spec recording its finish time.
func simnetFlow(src, dst, sport int, bytes int64, finished *float64) simnet.FlowSpec {
	return simnet.FlowSpec{
		Src: src, Dst: dst, SrcPort: sport, DstPort: 9999, Bytes: bytes,
		OnComplete: func(fl *simnet.Flow) { *finished = fl.Finished },
	}
}

func TestStaticRatePolicy(t *testing.T) {
	_, fab, ctl := newHarness(2, Config{Policy: PolicyStaticRate})
	ctl.JobArrived(job(0, 0))
	ctl.JobArrived(job(1, 0))
	htb, ok := fab.Host(0).Egress.Qdisc().(*qdisc.HTB)
	if !ok {
		t.Fatal("static rate did not install htb")
	}
	link := fab.Host(0).Egress.RateBytes()
	for _, id := range htb.Classes() {
		cfg := htb.Class(id).Config()
		want := link / 2
		if cfg.Ceil < want*0.99 || cfg.Ceil > want*1.01 {
			t.Fatalf("class %d ceil %.0f, want ~%.0f (link/2)", id, cfg.Ceil, want)
		}
		if cfg.Ceil != cfg.Rate {
			t.Fatal("static rate must pin ceil = rate (no borrowing)")
		}
	}
	// Adding a third job shrinks everyone's share.
	ctl.JobArrived(job(2, 0))
	htb = fab.Host(0).Egress.Qdisc().(*qdisc.HTB)
	got := htb.Class(0).Config().Ceil
	want := link / 3
	if got < want*0.99 || got > want*1.01 {
		t.Fatalf("share after third arrival %.0f, want ~%.0f", got, want)
	}
}

func TestStaticRateNotWorkConserving(t *testing.T) {
	// With one job idle, the other cannot exceed its share: sending a
	// burst through the configured qdisc takes ~2x the line-rate time.
	k, fab, ctl := newHarness(2, Config{Policy: PolicyStaticRate})
	ctl.JobArrived(job(0, 0))
	ctl.JobArrived(job(1, 0))
	htb := fab.Host(0).Egress.Qdisc().(*qdisc.HTB)
	_ = htb
	// Drive a 16 MB burst for job 0 only; job 1 stays idle.
	bytes := int64(16 << 20)
	var finished float64
	fab.Send(simnetFlow(0, 1, 5000, bytes, &finished))
	// The reconcile loop keeps ticking while jobs are registered, so run
	// to a horizon instead of draining the event queue.
	k.RunUntil(30)
	if finished == 0 {
		t.Fatal("burst did not finish")
	}
	lineTime := float64(bytes) * fab.Config().WireOverhead / fab.Host(0).Egress.RateBytes()
	shareTime := float64(bytes) / (fab.Host(0).Egress.RateBytes() / 2)
	if finished < 0.85*shareTime {
		t.Fatalf("static rate finished in %.4fs, share time %.4fs: share not enforced",
			finished, shareTime)
	}
	if finished <= lineTime {
		t.Fatalf("static rate ran at line rate (%.4fs <= %.4fs)", finished, lineTime)
	}
}

func TestLPFRanksByProgress(t *testing.T) {
	k, fab, ctl := newHarness(2, Config{Policy: PolicyLPF, IntervalSec: 5, Bands: 6})
	for i := 0; i < 4; i++ {
		ctl.JobArrived(job(i, 0))
	}
	// Job 3 is far behind, job 0 far ahead.
	ctl.JobProgress(0, 100)
	ctl.JobProgress(1, 50)
	ctl.JobProgress(2, 20)
	ctl.JobProgress(3, 1)
	k.RunUntil(6) // one re-rank
	htb := fab.Host(0).Egress.Qdisc().(*qdisc.HTB)
	bandOf := func(port int) qdisc.ClassID {
		return htb.Classifier().Classify(&qdisc.Chunk{SrcPort: port})
	}
	if bandOf(5003) >= bandOf(5000) {
		t.Fatalf("least-progress job not prioritized: job3 band %d, job0 band %d",
			bandOf(5003), bandOf(5000))
	}
	// Progress inverts -> ranking follows at the next interval.
	ctl.JobProgress(3, 500)
	k.RunUntil(11)
	if bandOf(5003) <= bandOf(5002) {
		t.Fatalf("LPF did not adapt: job3 band %d, job2 band %d", bandOf(5003), bandOf(5002))
	}
}

func TestJobProgressUnknownJobIgnored(t *testing.T) {
	_, _, ctl := newHarness(2, Config{Policy: PolicyLPF})
	ctl.JobProgress(99, 5) // must not panic
}

func TestNewPolicyStrings(t *testing.T) {
	for _, name := range []string{PolicyLPF, PolicyStaticRate} {
		if got := policy.Canonical(name); got != name {
			t.Errorf("%q resolves to registry name %q", name, got)
		}
	}
}
