package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// The compare rule, from the repository's measurement method:
//
//   - the parent and the change are run alternately, at least ten pairs,
//     with identical benchmark code and settings on one machine;
//   - a gain needs the change to win at least nine tenths of the pairs
//     (ties count for neither side) and the medians to differ by more
//     than the parent's own spread, the distance between its quartiles;
//   - otherwise an end-to-end metric is within bound when the change's
//     median is no worse than the parent's by more than the metric's
//     bound, regressed when it is, and unresolved when the parent's
//     spread is wider than the bound, unless every change run beats
//     every parent run;
//   - per-layer metrics have no bound: they are improved, regressed (the
//     gain rule mirrored) or unresolved.

const (
	minPairs    = 10
	winFraction = 0.9
)

type verdict string

const (
	improved    verdict = "improved"
	withinBound verdict = "within bound"
	regressed   verdict = "regressed"
	unresolved  verdict = "unresolved"
)

// comparison is one (workload, metric) row.
type comparison struct {
	Metric         string
	Unit           string
	Pairs          int
	Wins, Losses   int
	Parent, Change [3]float64 // Q1, median, Q3
	Verdict        verdict
}

// compareMetric applies the rule to paired samples: parent[i] and
// change[i] ran back to back.
func compareMetric(def metricDef, parent, change []float64) comparison {
	n := min(len(parent), len(change))
	parent, change = parent[:n], change[:n]
	c := comparison{Metric: def.Name, Unit: def.Unit, Pairs: n}
	c.Parent[0], c.Parent[1], c.Parent[2] = quartiles(parent)
	c.Change[0], c.Change[1], c.Change[2] = quartiles(change)
	better := func(a, b float64) bool { // a reads better than b
		if def.Better == "higher" {
			return a > b
		}
		return a < b
	}
	for i := 0; i < n; i++ {
		switch {
		case better(change[i], parent[i]):
			c.Wins++
		case better(parent[i], change[i]):
			c.Losses++
		}
	}
	if n < minPairs {
		c.Verdict = unresolved
		return c
	}
	pMed, cMed := c.Parent[1], c.Change[1]
	gap := math.Abs(cMed - pMed)
	iqr := c.Parent[2] - c.Parent[0]
	switch {
	case float64(c.Wins) >= winFraction*float64(n) && gap > iqr && better(cMed, pMed):
		c.Verdict = improved
		return c
	case def.Bound == 0:
		if float64(c.Losses) >= winFraction*float64(n) && gap > iqr && better(pMed, cMed) {
			c.Verdict = regressed
		} else {
			c.Verdict = unresolved
		}
		return c
	}
	allBetter := true
	for _, cv := range change {
		for _, pv := range parent {
			if !better(cv, pv) {
				allBetter = false
			}
		}
	}
	switch {
	case iqr > def.Bound*math.Abs(pMed) && !allBetter:
		c.Verdict = unresolved
	case better(pMed, cMed) && gap > def.Bound*math.Abs(pMed):
		c.Verdict = regressed
	default:
		c.Verdict = withinBound
	}
	return c
}

func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var recs []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 64<<20)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		recs = append(recs, r)
	}
	return recs, sc.Err()
}

// compareMain compares the records of a parent run set against a change
// run set, pairing the i-th record of each (workload, trace mode) group.
func compareMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: compare PARENT.jsonl CHANGE.jsonl")
		fmt.Fprintln(stderr, "  Each file holds the --out records of one side's runs, in run order.")
	}
	if err := fs.Parse(args); err != nil || fs.NArg() != 2 {
		fs.Usage()
		return 2
	}
	sides := [2][]record{}
	for i := range sides {
		recs, err := readRecords(fs.Arg(i))
		if err != nil {
			fmt.Fprintf(stderr, "compare: %v\n", err)
			return 2
		}
		sides[i] = recs
	}
	type group struct {
		workload string
		trace    int
	}
	bySide := [2]map[group][]record{{}, {}}
	var groups []group
	for i, recs := range sides {
		for _, r := range recs {
			g := group{r.Workload, r.Trace}
			if i == 0 && len(bySide[0][g]) == 0 {
				groups = append(groups, g)
			}
			bySide[i][g] = append(bySide[i][g], r)
		}
	}
	sort.Slice(groups, func(a, b int) bool {
		if groups[a].workload != groups[b].workload {
			return groups[a].workload < groups[b].workload
		}
		return groups[a].trace < groups[b].trace
	})
	status := 0
	for _, g := range groups {
		parent, change := bySide[0][g], bySide[1][g]
		if len(change) == 0 {
			fmt.Fprintf(stdout, "%s trace=%d: no change records\n", g.workload, g.trace)
			continue
		}
		fp := parent[0].Fingerprint
		for _, r := range append(append([]record(nil), parent...), change...) {
			if r.Fingerprint != fp {
				fmt.Fprintf(stderr, "compare: %s trace=%d: records from different machines (%+v vs %+v); refusing\n",
					g.workload, g.trace, fp, r.Fingerprint)
				return 2
			}
		}
		failed := [2]int{}
		for i, recs := range [][]record{parent, change} {
			for _, r := range recs {
				failed[i] += r.Failed
			}
		}
		n := min(len(parent), len(change))
		fmt.Fprintf(stdout, "%s trace=%d: %d pairs on nproc=%d cpu=%q %s gomaxprocs=%d; failed ops parent %d, change %d\n",
			g.workload, g.trace, n, fp.NumCPU, fp.CPUModel, fp.GoVersion, fp.GOMAXPROCS, failed[0], failed[1])
		defs := endToEnd
		if g.trace == 1 {
			defs = perLayer
		}
		for _, def := range defs {
			var p, c []float64
			for i := 0; i < n; i++ {
				p = append(p, parent[i].Metrics[def.Name].Value)
				c = append(c, change[i].Metrics[def.Name].Value)
			}
			cmp := compareMetric(def, p, c)
			if cmp.Verdict == improved && failed[1] > failed[0] {
				cmp.Verdict = unresolved // a gain does not count with more failures
			}
			if cmp.Verdict == regressed && def.Bound > 0 {
				status = 1
			}
			fmt.Fprintf(stdout, "  %-30s parent %.5g [%.5g, %.5g]  change %.5g [%.5g, %.5g] %s  wins %d/%d  %s\n",
				cmp.Metric, cmp.Parent[1], cmp.Parent[0], cmp.Parent[2],
				cmp.Change[1], cmp.Change[0], cmp.Change[2], cmp.Unit,
				cmp.Wins, cmp.Pairs, cmp.Verdict)
		}
	}
	return status
}
