package main

import (
	"encoding/hex"
	"math"
	"testing"
)

func TestDigestIsStableAndCoversOutputs(t *testing.T) {
	base := trialOut{JCTs: []float64{1.5, 2.25}, Events: 42, SimTime: 3.75}
	// SHA-256 of the little-endian float64 1.5 and 2.25, uint64 42 and
	// float64 3.75. A change here invalidates every pinned digest.
	const want = "ff258aacbf955d890206558c3753ad34028532a59f9ca71b4d7e49dfe91814d6"
	if got := base.digest(); got != want {
		t.Errorf("digest = %s, want %s", got, want)
	}
	same := base
	same.Reconfigs = 9
	same.Counts = map[string]float64{"sim.events": 42}
	if same.digest() != base.digest() {
		t.Error("reconfigs or counts changed the digest")
	}
	for name, o := range map[string]trialOut{
		"one ulp":   {JCTs: []float64{math.Nextafter(1.5, 2), 2.25}, Events: 42, SimTime: 3.75},
		"events":    {JCTs: []float64{1.5, 2.25}, Events: 43, SimTime: 3.75},
		"sim time":  {JCTs: []float64{1.5, 2.25}, Events: 42, SimTime: 3.5},
		"job order": {JCTs: []float64{2.25, 1.5}, Events: 42, SimTime: 3.75},
	} {
		if o.digest() == base.digest() {
			t.Errorf("%s: digest did not change", name)
		}
	}
}

func TestPinnedDigestsCoverEveryWorkload(t *testing.T) {
	p, err := pinned()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads(t.TempDir()) {
		if len(p[w.name]) == 0 {
			t.Errorf("no pinned digests for %s", w.name)
		}
		for key, d := range p[w.name] {
			if b, err := hex.DecodeString(d); err != nil || len(b) != 32 {
				t.Errorf("%s/%s: %q is not a SHA-256 digest", w.name, key, d)
			}
		}
	}
	ops := []opRecord{{Key: "1", Digest: "00"}, {Key: "no-such-key", Digest: "00"}}
	for _, w := range workloads(t.TempDir()) {
		if fails := checkPinned(w.name, ops); len(fails) != 1 {
			t.Errorf("%s: checkPinned on a wrong seed-1 digest = %v, want one failure", w.name, fails)
		}
	}
}
