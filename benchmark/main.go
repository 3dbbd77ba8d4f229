// Command benchmark measures the TensorLights simulator and its tlsimd
// daemon from the outside. It drives the public entry points of each
// layer, times them, and checks every output it times.
//
// One run measures one workload:
//
//	bash benchmark/run.sh --workload grid-chunk-rr --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it reports the end-to-end metrics, each workload's
// e2e leg running in a fresh child process; with --trace 1 it reports
// the per-layer metrics from a traced run plus isolated drives of each
// layer. Every metric is printed as "workload metric value unit"; the
// last line of standard output is one JSON object with the declared
// metrics. --out appends the run's full record to a JSONL file, and
//
//	bash benchmark/run.sh compare parent.jsonl change.jsonl
//
// compares two sets of such records (see compare.go).
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"
)

// scratchDir holds everything a run writes: daemon journals and spans.
const scratchDir = ".bench_build"

// workloadDef is one named set of inputs the benchmark runs.
type workloadDef struct {
	name string
	// setup performs one repetition of the workload's set-up calls.
	setup     func(seed int64) error
	setupReps int
	// leg is the end-to-end leg, run with tracing off for d.
	leg func(ctx context.Context, seed int64, d time.Duration) (*legResult, error)
	// verify checks the leg's outputs against references; it returns one
	// entry per failed check.
	verify func(ctx context.Context, seed int64, leg *legResult) []string
	// traceRun is the traced run behind the per-layer metrics.
	traceRun func(ctx context.Context, seed int64, d time.Duration, rec *spanRecorder) (*traceResult, error)
}

// opRecord is one attempted operation: a trial or a daemon submission.
type opRecord struct {
	Key       string  `json:"key"`
	LatencyMS float64 `json:"latency_ms"`
	Digest    string  `json:"digest,omitempty"`
	Err       string  `json:"err,omitempty"`
}

// extraMetric is a number printed beside the declared metrics: the
// workload-specific detail behind them.
type extraMetric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// legResult is an end-to-end leg's outcome; the child process hands it
// to the parent as JSON.
type legResult struct {
	Ops []opRecord `json:"ops"`
	// LatencyMS are the samples behind latency_ms_p50.
	LatencyMS []float64     `json:"latency_ms"`
	OpsPerSec float64       `json:"ops_per_s"`
	BusyFrac  float64       `json:"busy_frac"`
	Extra     []extraMetric `json:"extra"`
}

func (l *legResult) failures() []string {
	var out []string
	for _, op := range l.Ops {
		if op.Err != "" {
			out = append(out, fmt.Sprintf("op %s: %s", op.Key, op.Err))
		}
	}
	return out
}

// traceResult is a traced run's outcome.
type traceResult struct {
	Attempted int
	Failures  []string
	Metrics   map[string]float64
	Extra     []extraMetric
}

// fingerprint identifies the machine a record was measured on; compare
// refuses to pair records whose fingerprints differ.
type fingerprint struct {
	NumCPU     int    `json:"nproc"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
}

func machine() fingerprint {
	return fingerprint{
		NumCPU:     runtime.NumCPU(),
		CPUModel:   cpuModel(),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit is the VCS revision the binary was built from, when the
// checkout it was built in is a git repository.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty {
		rev += "+dirty"
	}
	return rev
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// record is everything one run measured; --out appends it as one JSON
// line and compare reads it back.
type record struct {
	Workload    string                 `json:"workload"`
	Seed        int64                  `json:"seed"`
	Seconds     int                    `json:"seconds"`
	Trace       int                    `json:"trace"`
	Fingerprint fingerprint            `json:"fingerprint"`
	Commit      string                 `json:"commit"`
	Correct     bool                   `json:"correct"`
	Attempted   int                    `json:"attempted"`
	Failed      int                    `json:"failed"`
	Failures    []string               `json:"failures,omitempty"`
	Metrics     map[string]metricValue `json:"metrics"`
	Extra       []extraMetric          `json:"extra,omitempty"`
	Digests     map[string]string      `json:"digests,omitempty"`
}

func main() {
	runtime.GOMAXPROCS(parallelism)
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout, os.Stderr))
	}
	os.Exit(runMain(os.Args[1:], os.Stdout, os.Stderr))
}

func findWorkload(name string) *workloadDef {
	for _, w := range workloads(scratchDir) {
		if w.name == name {
			return w
		}
	}
	return nil
}

func runMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run (see BENCHMARK.json)")
	seed := fs.Int64("seed", 1, "workload seed: every input derives from it")
	seconds := fs.Int("seconds", 10, "how long the run measures")
	traceMode := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced run and per-layer metrics")
	out := fs.String("out", "", "append the run's full record to this JSONL file")
	child := fs.Bool("child", false, "internal: run only the end-to-end leg and print it as JSON")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w := findWorkload(*name)
	switch {
	case w == nil:
		fmt.Fprintf(stderr, "benchmark: unknown workload %q\n", *name)
		return 2
	case *seconds < 1:
		fmt.Fprintf(stderr, "benchmark: --seconds must be at least 1\n")
		return 2
	case *traceMode != 0 && *traceMode != 1:
		fmt.Fprintf(stderr, "benchmark: --trace must be 0 or 1\n")
		return 2
	}
	ctx := context.Background()
	d := time.Duration(*seconds) * time.Second
	if *child {
		runtime.GC()
		leg, err := w.leg(ctx, *seed, d)
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: %s leg: %v\n", w.name, err)
			return 1
		}
		if err := json.NewEncoder(stdout).Encode(leg); err != nil {
			fmt.Fprintf(stderr, "benchmark: %v\n", err)
			return 1
		}
		return 0
	}

	rec := record{
		Workload: w.name, Seed: *seed, Seconds: *seconds, Trace: *traceMode,
		Fingerprint: machine(), Commit: commit(), Metrics: map[string]metricValue{},
	}
	var err error
	if *traceMode == 0 {
		err = endToEndRun(ctx, w, *seed, d, &rec)
	} else {
		err = perLayerRun(ctx, w, *seed, d, &rec)
	}
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %s: %v\n", w.name, err)
		return 1
	}
	rec.Failed = min(len(rec.Failures), rec.Attempted)
	rec.Correct = len(rec.Failures) == 0
	for i, f := range rec.Failures {
		if i == 10 {
			fmt.Fprintf(stderr, "benchmark: ... %d more failures\n", len(rec.Failures)-10)
			break
		}
		fmt.Fprintf(stderr, "benchmark: FAIL %s\n", f)
	}
	if err := printRecord(stdout, &rec); err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	if *out != "" {
		if err := appendRecord(*out, &rec); err != nil {
			fmt.Fprintf(stderr, "benchmark: %v\n", err)
			return 1
		}
	}
	if !rec.Correct {
		return 1
	}
	return 0
}

// endToEndRun measures set-up in this process, then runs the leg in a
// fresh child so its peak RSS is the leg's alone, then checks outputs.
func endToEndRun(ctx context.Context, w *workloadDef, seed int64, d time.Duration, rec *record) error {
	setup, err := timeSetup(w, seed)
	if err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	leg, rssMB, err := runChild(w.name, seed, d)
	if err != nil {
		return err
	}
	rec.Attempted = len(leg.Ops)
	rec.Failures = append(leg.failures(), w.verify(ctx, seed, leg)...)
	rec.Digests = map[string]string{}
	for _, op := range leg.Ops {
		if op.Digest != "" {
			rec.Digests[op.Key] = op.Digest
		}
	}
	vals := map[string]float64{
		"ops_per_s":      leg.OpsPerSec,
		"latency_ms_p50": median(leg.LatencyMS),
		"setup_s":        setup,
		"peak_rss_mb":    rssMB,
	}
	for _, m := range endToEnd {
		rec.Metrics[m.Name] = metricValue{vals[m.Name], m.Unit}
	}
	rec.Extra = append(leg.Extra, extraMetric{"latency_samples", float64(len(leg.LatencyMS)), "count"})
	return nil
}

// timeSetup returns the median wall time of the workload's set-up calls
// over its repetitions, each started on a collected heap.
func timeSetup(w *workloadDef, seed int64) (float64, error) {
	walls := make([]float64, w.setupReps)
	for i := range walls {
		runtime.GC()
		t0 := time.Now()
		if err := w.setup(seed); err != nil {
			return 0, err
		}
		walls[i] = time.Since(t0).Seconds()
	}
	return median(walls), nil
}

// runChild runs the workload's end-to-end leg in a fresh process of this
// binary and returns the leg with the child's peak resident set.
func runChild(name string, seed int64, d time.Duration) (*legResult, float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, 0, err
	}
	var stdout bytes.Buffer
	cmd := exec.Command(exe, "--child", "--workload", name,
		"--seed", fmt.Sprint(seed), "--seconds", fmt.Sprint(int(d/time.Second)))
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, 0, fmt.Errorf("end-to-end leg: %w", err)
	}
	var leg legResult
	if err := json.Unmarshal(stdout.Bytes(), &leg); err != nil {
		return nil, 0, fmt.Errorf("end-to-end leg output: %w", err)
	}
	ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if !ok {
		return nil, 0, errors.New("no resource usage for the child process")
	}
	return &leg, float64(ru.Maxrss) / 1024, nil // Linux reports KiB
}

// perLayerRun runs the workload traced, then the isolated layer drives,
// and writes the spans as JSONL.
func perLayerRun(ctx context.Context, w *workloadDef, seed int64, d time.Duration, rec *record) error {
	spans := newSpanRecorder()
	tr, err := w.traceRun(ctx, seed, d, spans)
	if err != nil {
		return err
	}
	drives, err := runDrives(seed, drivesFull, tlsimdWorkload(tlsimdFull, filepath.Join(scratchDir, "tlsimd")))
	if err != nil {
		return fmt.Errorf("layer drives: %w", err)
	}
	rec.Attempted = tr.Attempted
	rec.Failures = tr.Failures
	for _, m := range perLayer {
		v, ok := tr.Metrics[m.Name]
		if !ok {
			v, ok = drives[m.Name]
		}
		if !ok {
			rec.Failures = append(rec.Failures, fmt.Sprintf("traced run produced no %s", m.Name))
		}
		rec.Metrics[m.Name] = metricValue{v, m.Unit}
	}
	declared := map[string]bool{}
	for _, m := range perLayer {
		declared[m.Name] = true
	}
	var names []string
	for k := range tr.Metrics {
		if !declared[k] {
			names = append(names, k)
		}
	}
	sort.Strings(names)
	for _, k := range names {
		rec.Extra = append(rec.Extra, extraMetric{k, tr.Metrics[k], "count"})
	}
	rec.Extra = append(rec.Extra, tr.Extra...)
	all := spans.snapshot()
	for _, st := range summarize(all) {
		rec.Extra = append(rec.Extra,
			extraMetric{"span." + st.Name + ".count", float64(st.Count), "count"},
			extraMetric{"span." + st.Name + ".self_ms_per_span", float64(st.SelfNs) / 1e6 / float64(st.Count), "ms"},
		)
	}
	path := filepath.Join(scratchDir, "spans", w.name+".jsonl")
	if err := spans.writeJSONL(path); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	rec.Extra = append(rec.Extra, extraMetric{"spans_written", float64(len(all)), "count"})
	return nil
}

// printRecord prints every metric as "workload metric value unit", then
// the result line.
func printRecord(w io.Writer, rec *record) error {
	fp := rec.Fingerprint
	fmt.Fprintf(w, "# %s seed=%d seconds=%d trace=%d nproc=%d cpu=%q go=%s gomaxprocs=%d commit=%s\n",
		rec.Workload, rec.Seed, rec.Seconds, rec.Trace, fp.NumCPU, fp.CPUModel, fp.GoVersion, fp.GOMAXPROCS, rec.Commit)
	defs := endToEnd
	if rec.Trace == 1 {
		defs = perLayer
	}
	for _, m := range defs {
		v := rec.Metrics[m.Name]
		fmt.Fprintf(w, "%s %s %.6g %s\n", rec.Workload, m.Name, v.Value, v.Unit)
	}
	for _, e := range rec.Extra {
		fmt.Fprintf(w, "%s %s %.6g %s\n", rec.Workload, e.Name, e.Value, e.Unit)
	}
	fmt.Fprintf(w, "%s attempted %d count\n%s failed %d count\n", rec.Workload, rec.Attempted, rec.Workload, rec.Failed)
	line, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{rec.Correct, rec.Attempted, rec.Failed, rec.Metrics})
	if err != nil {
		return fmt.Errorf("result line: %w", err)
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

func appendRecord(path string, rec *record) error {
	b, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
