package workload

import (
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/cluster"
	"repro/internal/dl"
	"repro/internal/sim"
)

func TestGenerateDefaults(t *testing.T) {
	arrivals, err := Generate(ChurnConfig{}, sim.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(arrivals) != 21 {
		t.Fatalf("arrivals %d", len(arrivals))
	}
	prev := -1.0
	for i, a := range arrivals {
		if a.At <= prev {
			t.Fatal("arrival times not strictly increasing")
		}
		prev = a.At
		if a.Spec.ID != i {
			t.Fatal("job ids not sequential")
		}
		if err := a.Spec.Validate(); err != nil {
			t.Fatalf("arrival %d: %v", i, err)
		}
		if a.Spec.NumWorkers != 20 {
			t.Fatalf("workers %d", a.Spec.NumWorkers)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a1, _ := Generate(ChurnConfig{NumJobs: 10}, sim.NewRNG(5))
	a2, _ := Generate(ChurnConfig{NumJobs: 10}, sim.NewRNG(5))
	for i := range a1 {
		if a1[i].At != a2[i].At || a1[i].Spec.PSHost != a2[i].Spec.PSHost {
			t.Fatal("generation not deterministic")
		}
	}
}

func TestGenerateArrivalRate(t *testing.T) {
	cfg := ChurnConfig{NumJobs: 400, ArrivalRatePerSec: 2}
	arrivals, err := Generate(cfg, sim.NewRNG(9))
	if err != nil {
		t.Fatal(err)
	}
	span := arrivals[len(arrivals)-1].At
	rate := float64(len(arrivals)) / span
	if rate < 1.5 || rate > 2.5 {
		t.Fatalf("empirical rate %.2f, want ~2", rate)
	}
}

func TestGenerateMix(t *testing.T) {
	cfg := ChurnConfig{
		NumJobs:   300,
		Templates: HeterogeneousMix(4000),
	}
	arrivals, err := Generate(cfg, sim.NewRNG(3))
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	for _, a := range arrivals {
		counts[a.Spec.Model.Name]++
	}
	if counts[dl.ResNet32.Name] < 100 || counts[dl.ResNet56.Name] < 40 ||
		counts[dl.InceptionV3.Name] < 20 {
		t.Fatalf("mix skewed: %v", counts)
	}
}

// TestGeneratePSAwareAvoidsColocation: spread is the paper's §VII
// PS-aware placement, so 21 arrivals on 21 hosts never share a PS host.
func TestGeneratePSAwareAvoidsColocation(t *testing.T) {
	cfg := ChurnConfig{NumJobs: 21, SchedPolicy: PolicySpread}
	arrivals, err := Generate(cfg, sim.NewRNG(4))
	if err != nil {
		t.Fatal(err)
	}
	perHost := map[int]int{}
	for _, a := range arrivals {
		perHost[a.Spec.PSHost]++
	}
	for h, n := range perHost {
		if n > 1 {
			t.Fatalf("ps-aware colocated %d PSes on host %d", n, h)
		}
	}
}

// TestPSPlacerSpreadBalances: the paper's PS-aware placement is spread,
// so 8 PSes on 4 hosts land two on every host, and the placer's count
// for a host is the number of PSes placed there.
func TestPSPlacerSpreadBalances(t *testing.T) {
	p := &psPlacer{policy: PolicySpread, count: make([]int, 4), rng: sim.NewRNG(1)}
	perHost := map[int]int{}
	for i := 0; i < 8; i++ {
		h, err := p.place()
		if err != nil {
			t.Fatal(err)
		}
		perHost[h]++
	}
	for h := 0; h < 4; h++ {
		if perHost[h] != 2 {
			t.Fatalf("spread did not balance PSes: %v", perHost)
		}
		if p.count[h] != perHost[h] {
			t.Fatalf("placer counts %d PSes on host %d, placed %d", p.count[h], h, perHost[h])
		}
	}
}

// psHosts generates n arrivals on hosts hosts under policy and returns
// their PS hosts in arrival order.
func psHosts(t *testing.T, policy SchedPolicy, n, hosts int) []int {
	t.Helper()
	arrivals, err := Generate(ChurnConfig{NumJobs: n, Hosts: hosts, SchedPolicy: policy}, sim.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	out := make([]int, len(arrivals))
	for i, a := range arrivals {
		out[i] = a.Spec.PSHost
		if a.Spec.NumWorkers != hosts-1 {
			t.Fatalf("job %d has %d workers, want every other host", i, a.Spec.NumWorkers)
		}
		for _, w := range a.Spec.WorkerHosts {
			if w == a.Spec.PSHost {
				t.Fatalf("job %d runs a worker on its PS host %d", i, w)
			}
		}
	}
	return out
}

// TestGenerateSpreadPlacement: spread fills the emptiest host, lowest id
// first, so PSes cycle through the hosts in order.
func TestGenerateSpreadPlacement(t *testing.T) {
	got := psHosts(t, PolicySpread, 8, 4)
	want := []int{0, 1, 2, 3, 0, 1, 2, 3}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("spread PS hosts %v, want %v", got, want)
	}
}

// TestGenerateSpreadIsPlacement8: spreading the grid's 21 PSes over 21
// hosts is Table I's uniform placement #8, the placement the PS-aware
// ablation benchmark runs.
func TestGenerateSpreadIsPlacement8(t *testing.T) {
	p8, err := cluster.PlacementByIndex(8)
	if err != nil {
		t.Fatal(err)
	}
	want, err := p8.PSHosts(21, 21)
	if err != nil {
		t.Fatal(err)
	}
	if got := psHosts(t, PolicySpread, 21, 21); !reflect.DeepEqual(got, want) {
		t.Fatalf("spread PS hosts %v, want placement #8's %v", got, want)
	}
}

// TestGenerateBinpackPlacement: binpack piles PSes onto host 0 until it
// holds 4*slotsPerHost (half a thread each, twice the threads), then
// moves to the next host.
func TestGenerateBinpackPlacement(t *testing.T) {
	got := psHosts(t, PolicyBinpack, 4*slotsPerHost+2, 3)
	for i, h := range got {
		want := 0
		if i >= 4*slotsPerHost {
			want = 1
		}
		if h != want {
			t.Fatalf("binpack placed PS %d on host %d, want %d (all: %v)", i, h, want, got)
		}
	}
}

// TestGenerateRandomPlacement: random placement is reproducible for a
// seed, stays in range and reaches every host.
func TestGenerateRandomPlacement(t *testing.T) {
	got := psHosts(t, PolicyRandom, 60, 4)
	if again := psHosts(t, PolicyRandom, 60, 4); !reflect.DeepEqual(got, again) {
		t.Fatal("random placement differs between same-seed runs")
	}
	seen := map[int]bool{}
	for _, h := range got {
		if h < 0 || h >= 4 {
			t.Fatalf("random placed a PS on host %d of 4", h)
		}
		seen[h] = true
	}
	if len(seen) != 4 {
		t.Fatalf("60 random placements reached only hosts %v", seen)
	}
}

func TestGenerateUnknownPolicy(t *testing.T) {
	if _, err := Generate(ChurnConfig{NumJobs: 1, SchedPolicy: SchedPolicy(9)}, sim.NewRNG(1)); err == nil {
		t.Fatal("unknown PS placement policy accepted")
	}
}

func TestGenerateRandomProducesColocation(t *testing.T) {
	cfg := ChurnConfig{NumJobs: 21, SchedPolicy: PolicyRandom}
	arrivals, err := Generate(cfg, sim.NewRNG(6))
	if err != nil {
		t.Fatal(err)
	}
	perHost := map[int]int{}
	maxColoc := 0
	for _, a := range arrivals {
		perHost[a.Spec.PSHost]++
		if perHost[a.Spec.PSHost] > maxColoc {
			maxColoc = perHost[a.Spec.PSHost]
		}
	}
	// Birthday bound: 21 random picks of 21 hosts collide with
	// overwhelming probability.
	if maxColoc < 2 {
		t.Fatal("random placement produced no colocation")
	}
}

func TestGenerateErrors(t *testing.T) {
	if _, err := Generate(ChurnConfig{
		Templates: []JobTemplate{{Model: dl.ResNet32, Weight: 0}},
	}, sim.NewRNG(1)); err == nil {
		t.Fatal("zero-weight template accepted")
	}
	if _, err := Generate(ChurnConfig{
		Templates: []JobTemplate{{Model: dl.ResNet32, Weight: 1}},
	}, sim.NewRNG(1)); err == nil {
		t.Fatal("incomplete template accepted")
	}
}

// TestTemplateWeightChiSquare is a seeded goodness-of-fit check on the
// weighted template sampler: 2000 draws through Generate against the
// HeterogeneousMix weights 0.5/0.3/0.2. The chi-square statistic over
// the three model counts must stay below the df=2, p=0.001 critical
// value (13.82) — generous enough to never flake on a fixed seed, tight
// enough to catch a broken walk in pickTemplate (e.g. comparing against
// unnormalized weights or skipping the last template).
func TestTemplateWeightChiSquare(t *testing.T) {
	const draws = 2000
	templates := HeterogeneousMix(4000)
	cfg := ChurnConfig{
		NumJobs:           draws,
		ArrivalRatePerSec: 5,
		Templates:         templates,
	}
	arrivals, err := Generate(cfg, sim.NewRNG(12345))
	if err != nil {
		t.Fatal(err)
	}
	if len(arrivals) != draws {
		t.Fatalf("generated %d arrivals, want %d", len(arrivals), draws)
	}
	counts := map[string]int{}
	for _, a := range arrivals {
		counts[a.Spec.Model.Name]++
	}
	total := 0.0
	for _, tpl := range templates {
		total += tpl.Weight
	}
	chi2 := 0.0
	for _, tpl := range templates {
		expected := float64(draws) * tpl.Weight / total
		diff := float64(counts[tpl.Model.Name]) - expected
		chi2 += diff * diff / expected
		t.Logf("%-12s observed %4d expected %6.1f", tpl.Model.Name, counts[tpl.Model.Name], expected)
	}
	// Critical value for df = len(templates)-1 = 2 at p = 0.001.
	const critical = 13.82
	if chi2 > critical {
		t.Fatalf("chi-square %.2f exceeds %.2f: sampler does not follow template weights (counts %v)",
			chi2, critical, counts)
	}
}

// TestChurnConfigValidateRejectsBadRates: zero and negative arrival
// rates must be rejected by Validate, and a negative rate must fail
// Generate outright instead of being silently coerced to the default
// (the pre-Validate behavior). An unset (zero) rate through Generate
// still picks up the 0.1/s default.
func TestChurnConfigValidateRejectsBadRates(t *testing.T) {
	for _, rate := range []float64{0, -1, -0.001} {
		cfg := ChurnConfig{NumJobs: 3, ArrivalRatePerSec: rate}
		if err := cfg.Validate(); err == nil {
			t.Errorf("Validate accepted ArrivalRatePerSec %g", rate)
		}
	}
	if err := (ChurnConfig{ArrivalRatePerSec: 2}).Validate(); err != nil {
		t.Errorf("Validate rejected a positive rate: %v", err)
	}
	if _, err := Generate(ChurnConfig{NumJobs: 3, ArrivalRatePerSec: -1}, sim.NewRNG(1)); err == nil {
		t.Error("Generate accepted a negative arrival rate")
	}
	arrivals, err := Generate(ChurnConfig{NumJobs: 3}, sim.NewRNG(1))
	if err != nil {
		t.Fatalf("Generate with unset rate must use the default: %v", err)
	}
	if len(arrivals) != 3 {
		t.Fatalf("got %d arrivals, want 3", len(arrivals))
	}
}

// Property: every generated spec is valid and every job's workers avoid
// its PS host, for any job count and rate.
func TestGenerateProperty(t *testing.T) {
	f := func(jobsRaw uint8, rateRaw uint8, seed int64) bool {
		cfg := ChurnConfig{
			NumJobs:           int(jobsRaw%30) + 1,
			ArrivalRatePerSec: float64(rateRaw%20)/10 + 0.05,
		}
		arrivals, err := Generate(cfg, sim.NewRNG(seed))
		if err != nil {
			return false
		}
		for _, a := range arrivals {
			if a.Spec.Validate() != nil {
				return false
			}
		}
		return len(arrivals) == cfg.NumJobs
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
