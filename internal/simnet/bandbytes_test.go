package simnet_test

import (
	"context"
	"maps"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dl"
	"repro/internal/policy"
	"repro/internal/simnet"
)

// scanCheckProbe is the cluster's fabric probe with every per-band
// reading compared against the all-flows reference scan.
type scanCheckProbe struct {
	cluster.QdiscProbe
	t       *testing.T
	checked *int
}

func (p scanCheckProbe) BandDequeuedBytes(host int) map[int]uint64 {
	got := p.QdiscProbe.BandDequeuedBytes(host)
	if want := p.Fabric.FlowBandBytesFullScan(host); !maps.Equal(got, want) {
		p.t.Fatalf("t=%g host %d: FlowBandBytes %v, full scan %v", p.Fabric.Kernel().Now(), host, got, want)
	}
	*p.checked++
	return got
}

// FlowBandBytes visits only the host's egress-link flows; on a
// flow-mode grid run under a feedback-driven policy (TLs-LAS re-ranks
// bands as it samples, so in-flight flows change band) every sample
// must equal the scan over all active flows.
func TestFlowBandBytesMatchesFullScan(t *testing.T) {
	for seed := int64(1); seed <= 2; seed++ {
		cfg := cluster.Config{Seed: seed, Net: simnet.Config{Mode: simnet.ModeFlow}}
		tb := cluster.NewTestbed(cfg)
		pl, err := cluster.PlacementByIndex(4)
		if err != nil {
			t.Fatal(err)
		}
		specs, err := cluster.GridSearchSpecs(cfg, dl.ResNet32, pl.Jobs(), 4, 400, pl)
		if err != nil {
			t.Fatal(err)
		}
		ctl := core.New(tb.K, tb.TC, tb.RNG, core.Config{Policy: "TLs-LAS", FeedbackIntervalSec: 0.2})
		fb := policy.NewFeedback(tb.K, policy.FeedbackConfig{SampleIntervalSec: 0.2})
		checked := 0
		fb.Probe = scanCheckProbe{cluster.NewQdiscProbe(tb.Fabric), t, &checked}
		ctl.AttachFeedback(fb)
		finished := 0
		_, err = tb.Launch(specs, 0.1, func(j *dl.Job) {
			s := j.Spec
			j.OnBarrier = func(_ *dl.Job, iter int) { ctl.JobProgress(s.ID, iter) }
			j.OnFinish = func(*dl.Job) { finished++; ctl.JobDeparted(s.ID) }
			ctl.JobArrived(core.JobInfo{ID: s.ID, PSHost: s.PSHost, PSPort: s.PSPort, UpdateBytes: s.Model.UpdateBytes()})
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := tb.RunUntil(context.Background(), 0, func() bool { return finished == len(specs) }); err != nil {
			t.Fatal(err)
		}
		if finished != len(specs) || checked == 0 {
			t.Fatalf("seed %d: %d of %d jobs finished, %d samples checked", seed, finished, len(specs), checked)
		}
		t.Logf("seed %d: %d samples checked, t=%g", seed, checked, tb.K.Now())
	}
}
