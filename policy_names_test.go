package tensorlights_test

import (
	"testing"

	tensorlights "repro"
	"repro/internal/core"
	"repro/internal/policy"
	"repro/internal/server"
)

// TestPolicyNameDrift pins every spelling of a policy's identity to the
// internal/policy registry: the façade values, core's name constants,
// the CLI spellings ParsePolicy accepts, and the tlsimd config hash of
// each façade value (its wire encoding, which journals and the dedup
// cache are keyed by).
func TestPolicyNameDrift(t *testing.T) {
	resolves := func(name string) {
		t.Helper()
		p, err := policy.New(name, policy.Params{})
		if err != nil {
			t.Fatal(err)
		}
		if p.Name() != name {
			t.Errorf("%q resolves to a policy named %q", name, p.Name())
		}
	}

	hashed := tensorlights.ExperimentConfig{PlacementIndex: 1, NumJobs: 4, Steps: 300, Seed: 7}
	facade := []struct {
		pol  tensorlights.Policy
		name string
		hash string
	}{
		{tensorlights.FIFO, "FIFO", "2100984378c18fada03e3fdd2cbae6b468fadd1ebfcb5c51374a2dbec138f90b"},
		{tensorlights.TLsOne, "TLs-One", "e58788e469d68bdcd0dcca024b2f553b48938105f5bafb9b8a46650ebc60b9d9"},
		{tensorlights.TLsRR, "TLs-RR", "d86d86efaa778f9ecf93940e622a6c148945be5d89d9d6ed064e31d672122850"},
		{tensorlights.TLsLPF, "TLs-LPF", "55fe8383205df12b7e451cb7637d30dd1cc598d8d659dfbe92ceed1e938ca20d"},
		{tensorlights.StaticRate, "StaticRate", "d86fa9684a40ccbbc894923c6df282fb202251c83c84d2e6b925ab5f71bd2198"},
		{tensorlights.TLsLAS, "TLs-LAS", "c303333d96dedf9510ac2785e7360379d708477bbcd3274177cc1491c2ca0254"},
		{tensorlights.TLsSRSF, "TLs-SRSF", "db8c4d348ac5cea0408efb545757525146a4f8c9ae9f7dd1df4241d2f5d929f0"},
		{tensorlights.TLsInterleave, "TLs-Interleave", "8d1438815da56b6b0225efcfd051d9dcfdd80fdad4d584bc613059ee0670f43f"},
	}
	if tensorlights.Policy(len(facade)).Validate() == nil {
		t.Fatalf("façade has more than the %d policies this table pins", len(facade))
	}
	for _, c := range facade {
		if got := c.pol.String(); got != c.name {
			t.Errorf("Policy(%d) = %q, want %q", int(c.pol), got, c.name)
		}
		resolves(c.pol.String())
		cfg := hashed
		cfg.Policy = c.pol
		if h, err := server.HashConfig(cfg); err != nil || h != c.hash {
			t.Errorf("%s: HashConfig = %s (%v), want %s", c.name, h, err, c.hash)
		}
	}

	for _, name := range []string{
		core.PolicyFIFO, core.PolicyOne, core.PolicyRR, core.PolicyLPF, core.PolicyStaticRate,
	} {
		resolves(name)
	}

	for _, c := range []struct {
		flag string
		want tensorlights.Policy
	}{
		{"fifo", tensorlights.FIFO},
		{"tls-one", tensorlights.TLsOne}, {"one", tensorlights.TLsOne},
		{"tls-rr", tensorlights.TLsRR}, {"rr", tensorlights.TLsRR},
		{"tls-lpf", tensorlights.TLsLPF}, {"lpf", tensorlights.TLsLPF},
		{"static-rate", tensorlights.StaticRate}, {"rate", tensorlights.StaticRate},
		{"tls-las", tensorlights.TLsLAS}, {"las", tensorlights.TLsLAS},
		{"tls-srsf", tensorlights.TLsSRSF}, {"srsf", tensorlights.TLsSRSF},
		{"tls-interleave", tensorlights.TLsInterleave}, {"interleave", tensorlights.TLsInterleave},
	} {
		if got, err := tensorlights.ParsePolicy(c.flag); err != nil || got != c.want {
			t.Errorf("ParsePolicy(%q) = %v, %v; want %v", c.flag, got, err, c.want)
		}
	}
	if _, err := tensorlights.ParsePolicy("bogus"); err == nil {
		t.Error("ParsePolicy accepted an unknown name")
	}
}
