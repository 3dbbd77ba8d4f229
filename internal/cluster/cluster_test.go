package cluster

import (
	"context"
	"testing"
	"testing/quick"

	"repro/internal/dl"
)

func TestPlacements21TableI(t *testing.T) {
	ps := Placements21()
	if len(ps) != 8 {
		t.Fatalf("placements %d, want 8", len(ps))
	}
	wants := []string{
		"21", "5, 16", "10, 11", "7, 7, 7", "5, 5, 5, 6",
		"4, 4, 4, 4, 5", "3, 3, 3, 3, 3, 3, 3",
		"1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1",
	}
	for i, p := range ps {
		if p.Index != i+1 {
			t.Fatalf("placement %d has index %d", i, p.Index)
		}
		if p.String() != wants[i] {
			t.Fatalf("placement #%d renders %q, want %q", p.Index, p.String(), wants[i])
		}
		if p.Jobs() != 21 {
			t.Fatalf("placement #%d covers %d jobs", p.Index, p.Jobs())
		}
		if err := p.Validate(21, 21); err != nil {
			t.Fatalf("placement #%d invalid: %v", p.Index, err)
		}
	}
	// Later placements are more uniform: max colocation non-increasing.
	for i := 1; i < len(ps); i++ {
		if ps[i].MaxColocation() > ps[i-1].MaxColocation() {
			t.Fatal("Table I ordering broken")
		}
	}
}

func TestPlacementByIndex(t *testing.T) {
	p, err := PlacementByIndex(4)
	if err != nil || p.String() != "7, 7, 7" {
		t.Fatalf("%v %v", p, err)
	}
	if _, err := PlacementByIndex(9); err == nil {
		t.Fatal("placement #9 accepted")
	}
}

func TestPSHosts(t *testing.T) {
	p, _ := PlacementByIndex(2) // 5, 16
	hosts, err := p.PSHosts(21, 21)
	if err != nil {
		t.Fatal(err)
	}
	count := map[int]int{}
	for _, h := range hosts {
		count[h]++
	}
	if count[0] != 5 || count[1] != 16 {
		t.Fatalf("PS distribution %v", count)
	}
}

func TestPlacementValidateErrors(t *testing.T) {
	cases := []struct {
		name    string
		groups  []int
		jobs    int
		hosts   int
		wantErr bool
	}{
		{"valid", []int{5, 16}, 21, 21, false},
		{"single group", []int{21}, 21, 21, false},
		{"exact hosts", []int{1, 1}, 2, 2, false},
		{"job count mismatch", []int{5, 16}, 20, 21, true},
		{"too few hosts", []int{5, 16}, 21, 1, true},
		{"zero group", []int{21, 0}, 21, 21, true},
		{"negative group", []int{22, -1}, 21, 21, true},
		{"no groups", nil, 21, 21, true},
		{"zero jobs", nil, 0, 21, true},
		{"negative jobs", []int{-3}, -3, 21, true},
		{"zero hosts", []int{1}, 1, 0, true},
		{"negative hosts", []int{1}, 1, -1, true},
	}
	for _, c := range cases {
		p := Placement{Groups: c.groups}
		err := p.Validate(c.jobs, c.hosts)
		if (err != nil) != c.wantErr {
			t.Errorf("%s: Validate(%d,%d) on %v = %v, wantErr=%v",
				c.name, c.jobs, c.hosts, c.groups, err, c.wantErr)
		}
	}
}

func TestParsePlacement(t *testing.T) {
	p, err := ParsePlacement("5, 16")
	if err != nil || p.String() != "5, 16" {
		t.Fatalf("%v %v", p, err)
	}
	p, err = ParsePlacement("7,7,7")
	if err != nil || len(p.Groups) != 3 {
		t.Fatalf("%v %v", p, err)
	}
	for _, bad := range []string{"", "a,b", "0,21", "-1"} {
		if _, err := ParsePlacement(bad); err == nil {
			t.Fatalf("%q accepted", bad)
		}
	}
}

func TestGridSearchSpecs(t *testing.T) {
	cfg := Config{}
	p, _ := PlacementByIndex(1)
	specs, err := GridSearchSpecs(cfg, dl.ResNet32, 21, 4, 3000, p)
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 21 {
		t.Fatalf("specs %d", len(specs))
	}
	for id, s := range specs {
		if err := s.Validate(); err != nil {
			t.Fatalf("spec %d: %v", id, err)
		}
		if s.PSHost != 0 {
			t.Fatalf("placement #1 must put every PS on host 0, job %d on %d", id, s.PSHost)
		}
		if s.NumWorkers != 20 {
			t.Fatalf("job %d workers %d", id, s.NumWorkers)
		}
		if s.PSPort != 5000+id {
			t.Fatalf("job %d port %d", id, s.PSPort)
		}
		seen := map[int]bool{}
		for _, h := range s.WorkerHosts {
			if h == s.PSHost || seen[h] {
				t.Fatalf("job %d bad worker host %d", id, h)
			}
			seen[h] = true
		}
	}
}

func TestGridSearchSpecsWorkerLoadBalance(t *testing.T) {
	// Every host runs exactly (21 - #PSes on it) workers.
	cfg := Config{}
	for _, idx := range []int{1, 2, 4, 8} {
		p, _ := PlacementByIndex(idx)
		specs, err := GridSearchSpecs(cfg, dl.ResNet32, 21, 4, 100, p)
		if err != nil {
			t.Fatal(err)
		}
		workerCount := make([]int, 21)
		psCount := make([]int, 21)
		for _, s := range specs {
			psCount[s.PSHost]++
			for _, h := range s.WorkerHosts {
				workerCount[h]++
			}
		}
		for h := 0; h < 21; h++ {
			if workerCount[h] != 21-psCount[h] {
				t.Fatalf("placement #%d host %d: %d workers with %d PSes",
					idx, h, workerCount[h], psCount[h])
			}
		}
	}
}

func TestTestbedConstruction(t *testing.T) {
	tb := NewTestbed(Config{})
	if tb.Fabric.NumHosts() != 21 || len(tb.CPUs) != 21 {
		t.Fatal("default testbed size")
	}
	if tb.CPUs[0].Threads() != 12 {
		t.Fatal("default threads")
	}
	tb2 := NewTestbed(Config{Hosts: 4, ThreadsPerHost: 2})
	if tb2.Fabric.NumHosts() != 4 || tb2.CPUs[3].Threads() != 2 {
		t.Fatal("custom testbed size")
	}
}

func TestLaunchStaggering(t *testing.T) {
	tb := NewTestbed(Config{Hosts: 4, Seed: 1})
	var starts []float64
	specs := []dl.JobSpec{
		{ID: 0, Model: dl.ResNet32, NumWorkers: 2, LocalBatch: 1, TargetGlobalSteps: 4,
			PSHost: 0, PSPort: 5000, WorkerHosts: []int{1, 2}},
		{ID: 1, Model: dl.ResNet32, NumWorkers: 2, LocalBatch: 1, TargetGlobalSteps: 4,
			PSHost: 3, PSPort: 5001, WorkerHosts: []int{1, 2}},
	}
	jobs, err := tb.Launch(specs, 0.5, func(j *dl.Job) {
		starts = append(starts, tb.K.Now())
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.RunMixedToCompletionCtx(context.Background(), jobs, nil, 0); err != nil {
		t.Fatal(err)
	}
	if len(starts) != 2 || starts[0] != 0 || starts[1] != 0.5 {
		t.Fatalf("stagger times %v", starts)
	}
	for _, j := range jobs {
		if !j.Done() {
			t.Fatal("launched job unfinished")
		}
	}
}

func TestLaunchRejectsBadSpec(t *testing.T) {
	tb := NewTestbed(Config{Hosts: 4})
	_, err := tb.Launch([]dl.JobSpec{{ID: 0}}, 0.1, nil)
	if err == nil {
		t.Fatal("bad spec accepted")
	}
}

// Property: any random grouping that sums to the job count yields a
// valid PSHosts assignment covering all jobs.
func TestPlacementProperty(t *testing.T) {
	f := func(raw []uint8) bool {
		var groups []int
		total := 0
		for _, r := range raw {
			g := int(r%5) + 1
			if total+g > 21 {
				break
			}
			groups = append(groups, g)
			total += g
		}
		if total < 21 {
			if 21-total > 0 {
				groups = append(groups, 21-total)
			}
		}
		p := Placement{Groups: groups}
		hosts, err := p.PSHosts(21, 21)
		if err != nil {
			return false
		}
		return len(hosts) == 21
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
