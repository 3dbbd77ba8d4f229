package workload

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"repro/internal/dl"
	"repro/internal/sim"
)

// The trace CSV schema: one arrival per row, absolute arrival time in
// seconds, the unified job kind, a model-zoo name, and the job shape.
// Lines starting with '#' are comments; the header row is optional.
const traceHeader = "at_sec,kind,model,tasks,local_batch,iterations"

// ExampleTraceCSV is a tiny well-formed trace, used in docs and tests.
const ExampleTraceCSV = `# open-world arrival trace
at_sec,kind,model,tasks,local_batch,iterations
0.5,ps,resnet56,3,4,20
1.2,ring,alexnet,3,1,10
3.0,tree,resnet50,3,1,10
7.5,ps,dcgan,3,4,20
`

// TraceEntry is one recorded arrival.
type TraceEntry struct {
	AtSec      float64
	Kind       Kind
	ModelName  string
	Tasks      int
	LocalBatch int
	Iterations int
}

// Trace is a recorded arrival sequence for empirical replay. It
// implements Process (returning the recorded times verbatim), and
// GenerateOpen additionally takes each job's shape from the entry
// instead of drawing from a template mix.
type Trace struct {
	Entries []TraceEntry
}

// ParseTrace reads the CSV schema "at_sec,kind,model,tasks,local_batch,
// iterations". The header row is optional and '#' comments are allowed.
// Parsing is purely syntactic; call Validate for semantic checks
// (ordering, model names, positive shapes).
func ParseTrace(r io.Reader) (*Trace, error) {
	cr := csv.NewReader(r)
	cr.Comment = '#'
	cr.FieldsPerRecord = 6
	cr.TrimLeadingSpace = true
	t := &Trace{}
	first := true
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("workload: trace: %w", err)
		}
		if first {
			first = false
			if strings.EqualFold(strings.TrimSpace(rec[0]), "at_sec") {
				continue // header row
			}
		}
		at, err := strconv.ParseFloat(strings.TrimSpace(rec[0]), 64)
		if err != nil {
			return nil, fmt.Errorf("workload: trace row %d: bad at_sec %q (schema: %s)",
				len(t.Entries)+1, rec[0], traceHeader)
		}
		var ints [3]int
		for i, f := range rec[3:] {
			v, err := strconv.Atoi(strings.TrimSpace(f))
			if err != nil {
				return nil, fmt.Errorf("workload: trace row %d: bad integer %q (schema: %s)",
					len(t.Entries)+1, f, traceHeader)
			}
			ints[i] = v
		}
		t.Entries = append(t.Entries, TraceEntry{
			AtSec:      at,
			Kind:       Kind(strings.TrimSpace(rec[1])),
			ModelName:  strings.TrimSpace(rec[2]),
			Tasks:      ints[0],
			LocalBatch: ints[1],
			Iterations: ints[2],
		})
	}
	return t, nil
}

// Validate rejects traces that cannot replay: empty traces,
// out-of-order or non-finite timestamps, unknown kinds or model names,
// and non-positive job shapes.
func (t *Trace) Validate() error {
	if t == nil || len(t.Entries) == 0 {
		return fmt.Errorf("workload: trace is empty")
	}
	prev := math.Inf(-1)
	for i, e := range t.Entries {
		if math.IsNaN(e.AtSec) || math.IsInf(e.AtSec, 0) || e.AtSec < 0 {
			return fmt.Errorf("workload: trace row %d: at_sec %g must be finite and >= 0", i+1, e.AtSec)
		}
		if e.AtSec < prev {
			return fmt.Errorf("workload: trace row %d: out-of-order timestamp %g after %g", i+1, e.AtSec, prev)
		}
		prev = e.AtSec
		if err := e.Kind.Validate(); err != nil {
			return fmt.Errorf("workload: trace row %d: %w", i+1, err)
		}
		if _, err := dl.ModelByName(e.ModelName); err != nil {
			return fmt.Errorf("workload: trace row %d: %w", i+1, err)
		}
		minTasks := 1
		if e.Kind.Collective() {
			minTasks = 2
		}
		if e.Tasks < minTasks {
			return fmt.Errorf("workload: trace row %d: tasks %d must be >= %d", i+1, e.Tasks, minTasks)
		}
		if e.LocalBatch < 1 || e.Iterations < 1 {
			return fmt.Errorf("workload: trace row %d: local_batch and iterations must be positive", i+1)
		}
	}
	return nil
}

// Name implements Process.
func (t *Trace) Name() string { return "trace" }

// Times implements Process: trace replay consumes no randomness and
// returns the recorded times verbatim.
func (t *Trace) Times(n int, _ *sim.RNG) ([]float64, error) {
	if err := t.Validate(); err != nil {
		return nil, err
	}
	if n > len(t.Entries) {
		return nil, fmt.Errorf("workload: trace has %d entries, %d arrivals requested", len(t.Entries), n)
	}
	times := make([]float64, n)
	for i := range times {
		times[i] = t.Entries[i].AtSec
	}
	return times, nil
}

// Spec lowers entry i to a unified JobSpec (ports assigned by
// GenerateOpen's convention).
func (t *Trace) spec(i int) (JobSpec, error) {
	e := t.Entries[i]
	m, err := dl.ModelByName(e.ModelName)
	if err != nil {
		return JobSpec{}, fmt.Errorf("workload: trace row %d: %w", i+1, err)
	}
	return JobSpec{
		ID:         i,
		Name:       fmt.Sprintf("open-%02d-%s-%s", i, e.Kind, m.Name),
		Kind:       e.Kind,
		Model:      m,
		Tasks:      e.Tasks,
		LocalBatch: e.LocalBatch,
		Iterations: e.Iterations,
		Port:       PortFor(e.Kind, i),
	}, nil
}

// DemoTrace is the built-in replay trace the open-world sweep's "trace"
// arrival axis uses: a submission burst at t=0.5-3 s mixing PS and
// collective jobs, a quiet gap, then a second smaller burst — the
// pattern trace-driven replay exists to reproduce. Iteration counts
// scale with iters so the sweep's Steps knob works unchanged.
func DemoTrace(iters int) *Trace {
	if iters < 1 {
		iters = 1
	}
	mk := func(at float64, kind Kind, model string, tasks, batch int) TraceEntry {
		return TraceEntry{AtSec: at, Kind: kind, ModelName: model,
			Tasks: tasks, LocalBatch: batch, Iterations: iters}
	}
	return &Trace{Entries: []TraceEntry{
		mk(0.5, KindPS, "resnet56", 3, 4),
		mk(1.0, KindRing, "alexnet", 3, 1),
		mk(1.4, KindPS, "dcgan", 3, 4),
		mk(2.2, KindTree, "resnet50", 3, 1),
		mk(2.9, KindPS, "resnet32", 3, 4),
		mk(9.0, KindRing, "resnet50", 3, 1),
		mk(9.6, KindPS, "resnet56", 3, 4),
		mk(10.3, KindRing, "alexnet", 3, 1),
		mk(11.1, KindPS, "dcgan", 3, 4),
	}}
}
