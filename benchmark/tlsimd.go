package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"time"

	tensorlights "repro"
	"repro/internal/cluster"
	"repro/internal/dl"
	"repro/internal/server"
)

// tlsimdSize shapes the daemon workload.
type tlsimdSize struct {
	// Steps is the façade Steps of every submitted experiment.
	Steps int
	// OpenRate is the open loop's submission rate (per second).
	OpenRate float64
	// OpenShare is the share of the run spent in the open loop; the
	// closed loop takes the rest.
	OpenShare float64
	// OracleEvery re-runs every n-th new config directly through the
	// façade to check the daemon's result.
	OracleEvery int
}

var tlsimdFull = tlsimdSize{Steps: 300, OpenRate: 8, OpenShare: 0.7, OracleEvery: 10}

// tlsimdSpec is the daemon workload: an in-process server.Server with
// two workers behind its HTTP handler on a loopback listener. An open
// loop submits on a fixed schedule, then a closed loop of two clients
// measures capacity. Each experiment is small, so admission, config
// hashing, the fsynced journal, the dedup cache, queueing and JSON
// dominate; every third submission repeats an earlier config.
type tlsimdSpec struct {
	size tlsimdSize
	// dir holds the daemons' journal directories.
	dir string
}

func tlsimdWorkload(sz tlsimdSize, dir string) *tlsimdSpec {
	return &tlsimdSpec{size: sz, dir: dir}
}

func (t *tlsimdSpec) workload() *workloadDef {
	return &workloadDef{
		name:      "tlsimd-submit",
		setup:     t.setup,
		setupReps: 20,
		leg:       t.leg,
		verify:    t.verify,
		traceRun:  t.traceRun,
	}
}

func (t *tlsimdSpec) config(seed int64) tensorlights.ExperimentConfig {
	return tensorlights.ExperimentConfig{Policy: tensorlights.TLsRR, Steps: t.size.Steps, Seed: seed}
}

// configStream is the deterministic submission sequence: new configs on
// consecutive seeds from the run's seed, except that every third
// submission repeats a uniformly drawn earlier config.
type configStream struct {
	mu   sync.Mutex
	rng  *rand.Rand
	next int64
	seen []int64
	n    int
}

func newConfigStream(seed int64) *configStream {
	return &configStream{rng: rand.New(rand.NewSource(seed)), next: seed}
}

func (c *configStream) draw() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.n++
	if c.n%3 == 0 {
		return c.seen[c.rng.Intn(len(c.seen))]
	}
	s := c.next
	c.next++
	c.seen = append(c.seen, s)
	return s
}

// daemon is one running tlsimd core plus its HTTP front end.
type daemon struct {
	srv    *server.Server
	hs     *http.Server
	dir    string
	url    string
	served chan error
	client *http.Client
}

type runnerFunc = func(context.Context, tensorlights.ExperimentConfig) (*tensorlights.Result, error)

// startDaemon builds a server on a fresh journal, starts its workers and
// returns once /readyz answers 200. A nil runner runs the façade.
func (t *tlsimdSpec) startDaemon(runner runnerFunc) (*daemon, error) {
	if err := os.MkdirAll(t.dir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(t.dir, "tlsimd-")
	if err != nil {
		return nil, err
	}
	srv, err := server.New(server.Config{
		JournalPath: filepath.Join(dir, "journal.jsonl"),
		Workers:     parallelism,
		Parallelism: 1,
		Runner:      runner,
		Logf:        func(string, ...any) {},
	})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	srv.Start()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Kill()
		os.RemoveAll(dir)
		return nil, err
	}
	d := &daemon{
		srv:    srv,
		hs:     &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second},
		dir:    dir,
		url:    "http://" + ln.Addr().String(),
		served: make(chan error, 1),
		// At most two connections: the load is sized for two cores.
		client: &http.Client{
			Timeout:   2 * time.Minute,
			Transport: &http.Transport{MaxConnsPerHost: parallelism, MaxIdleConnsPerHost: parallelism},
		},
	}
	go func() { d.served <- d.hs.Serve(ln) }()
	var ready map[string]string
	code, err := d.call(nil, 0, "", http.MethodGet, "/readyz", nil, &ready)
	if err == nil && code != http.StatusOK {
		err = fmt.Errorf("HTTP %d", code)
	}
	if err != nil {
		d.stop()
		return nil, fmt.Errorf("tlsimd: readiness probe: %w", err)
	}
	return d, nil
}

// stop drains the daemon, shuts the listener and removes the journal;
// it returns once the serving goroutine has exited.
func (d *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	err := d.srv.Drain(ctx)
	if serr := d.hs.Shutdown(ctx); serr != nil && err == nil {
		err = serr
	}
	if serr := <-d.served; serr != nil && !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	d.client.CloseIdleConnections()
	if rerr := os.RemoveAll(d.dir); rerr != nil && err == nil {
		err = rerr
	}
	return err
}

func (d *daemon) journalBytes() int64 {
	fi, err := os.Stat(filepath.Join(d.dir, "journal.jsonl"))
	if err != nil {
		return 0
	}
	return fi.Size()
}

// submission is one POST-wait-GET round trip as the client saw it.
type submission struct {
	key       int64
	due       time.Time
	sent      time.Time // POST started
	accepted  time.Time // POST response decoded
	fetchSent time.Time // GET started (= accepted on a cache hit)
	fetched   time.Time // GET response decoded (= accepted on a cache hit)
	deduped   bool
	result    *tensorlights.Result
	err       error
}

func (s *submission) latency() time.Duration { return s.fetched.Sub(s.due) }

// do submits cfg (no earlier than due), waits for the job through
// Server.Done — no polling, so latency carries no poll interval — and
// fetches the result. rec, when non-nil, gets POST and GET spans.
func (d *daemon) do(due time.Time, key int64, cfg tensorlights.ExperimentConfig, rec *spanRecorder) *submission {
	s := &submission{key: key, due: due}
	s.err = d.doInto(s, cfg, rec)
	return s
}

func (d *daemon) doInto(s *submission, cfg tensorlights.ExperimentConfig, rec *spanRecorder) error {
	body, err := json.Marshal(server.SubmitRequest{Config: cfg})
	if err != nil {
		return err
	}
	var st server.JobStatus
	s.sent = time.Now()
	code, err := d.call(rec, s.key, "http.submit", http.MethodPost, "/v1/jobs", body, &st)
	s.accepted = time.Now()
	if err != nil {
		return err
	}
	if code != http.StatusOK && code != http.StatusAccepted {
		return fmt.Errorf("POST /v1/jobs: HTTP %d", code)
	}
	s.deduped = st.Deduped
	s.fetchSent, s.fetched = s.accepted, s.accepted
	if st.State != server.JobDone {
		done, err := d.srv.Done(st.ID)
		if err != nil {
			return err
		}
		<-done
		s.fetchSent = time.Now()
		code, err = d.call(rec, s.key, "http.fetch", http.MethodGet, "/v1/jobs/"+st.ID, nil, &st)
		s.fetched = time.Now()
		if err != nil {
			return err
		}
		if code != http.StatusOK {
			return fmt.Errorf("GET /v1/jobs/%s: HTTP %d", st.ID, code)
		}
	}
	if st.State != server.JobDone || st.Result == nil {
		return fmt.Errorf("job %s ended %s: %s", st.ID, st.State, st.Error)
	}
	s.result = st.Result
	return nil
}

// call makes one request and decodes its JSON response into out, inside
// a span named name when rec is non-nil.
func (d *daemon) call(rec *spanRecorder, traceID int64, name, method, path string, body []byte, out any) (int, error) {
	if rec != nil {
		defer rec.end(rec.begin(traceID, 0, name))
	}
	req, err := http.NewRequest(method, d.url+path, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return resp.StatusCode, fmt.Errorf("%s %s: decode: %w", method, path, err)
	}
	return resp.StatusCode, nil
}

// openLoop submits at OpenRate on a fixed schedule from start until
// end, independent of how fast the daemon answers, and waits for every
// submission to finish.
func (t *tlsimdSpec) openLoop(d *daemon, stream *configStream, start, end time.Time, rec *spanRecorder) []*submission {
	var mu sync.Mutex
	var subs []*submission
	var wg sync.WaitGroup
	for i := 0; ; i++ {
		due := start.Add(time.Duration(float64(i) / t.size.OpenRate * float64(time.Second)))
		if !due.Before(end) {
			break
		}
		time.Sleep(time.Until(due))
		key := stream.draw()
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := d.do(due, key, t.config(key), rec)
			mu.Lock()
			subs = append(subs, s)
			mu.Unlock()
		}()
	}
	wg.Wait()
	sort.Slice(subs, func(i, j int) bool { return subs[i].due.Before(subs[j].due) })
	return subs
}

// closedLoop runs two clients, each submitting its next config as soon
// as the previous result arrives, until end.
func (t *tlsimdSpec) closedLoop(d *daemon, stream *configStream, end time.Time) []*submission {
	var mu sync.Mutex
	var subs []*submission
	var wg sync.WaitGroup
	for c := 0; c < parallelism; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(end) {
				key := stream.draw()
				s := d.do(time.Now(), key, t.config(key), nil)
				mu.Lock()
				subs = append(subs, s)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return subs
}

// ops turns submissions into checked operation records: a submission
// fails on any transport or HTTP error, a job that did not end done, a
// JCT under the compute-only bound, or a result that differs from the
// first result of the same config.
func (t *tlsimdSpec) ops(subs []*submission) []opRecord {
	first := map[int64]string{}
	out := make([]opRecord, 0, len(subs))
	for _, s := range subs {
		op := opRecord{Key: seedKey(s.key)}
		if s.err == nil {
			op.LatencyMS = ms(s.latency())
			op.Digest = resultOut(s.result).digest()
			if err := t.checkBound(s.result.JCTs); err != nil {
				op.Err = err.Error()
			} else if f, ok := first[s.key]; ok && f != op.Digest {
				op.Err = fmt.Sprintf("config seed %d: repeated submission got digest %.12s, first got %.12s", s.key, op.Digest, f)
			} else {
				first[s.key] = op.Digest
			}
		} else {
			op.Err = s.err.Error()
		}
		out = append(out, op)
	}
	return out
}

// resultOut is the digested part of a façade result.
func resultOut(r *tensorlights.Result) trialOut {
	return trialOut{JCTs: r.JCTs, Events: r.Events, SimTime: r.SimulatedSeconds, Reconfigs: r.TcReconfigurations}
}

func (t *tlsimdSpec) checkBound(jcts []float64) error {
	p1, err := cluster.PlacementByIndex(1)
	if err != nil {
		return err
	}
	specs, err := cluster.GridSearchSpecs(cluster.Config{}, dl.ResNet32, 21, 4, t.size.Steps, p1)
	if err != nil {
		return err
	}
	return checkComputeBound(specs, jcts)
}

// leg runs the open loop for OpenShare of d, waits for its last result,
// then runs the closed loop for the rest of d.
func (t *tlsimdSpec) leg(ctx context.Context, seed int64, d time.Duration) (*legResult, error) {
	dm, err := t.startDaemon(nil)
	if err != nil {
		return nil, err
	}
	stream := newConfigStream(seed)
	openDur := time.Duration(t.size.OpenShare * float64(d))
	start := time.Now()
	open := t.openLoop(dm, stream, start, start.Add(openDur), nil)
	closedStart := time.Now()
	closed := t.closedLoop(dm, stream, closedStart.Add(d-openDur))
	closedWall := time.Since(closedStart)
	journal := dm.journalBytes()
	if err := dm.stop(); err != nil {
		return nil, err
	}
	all := append(append([]*submission(nil), open...), closed...)
	res := &legResult{Ops: t.ops(all)}
	var lags, closedLat []float64
	dedup := 0
	for i, s := range all {
		if s.deduped {
			dedup++
		}
		switch {
		case i >= len(open):
			if s.err == nil {
				closedLat = append(closedLat, ms(s.latency()))
			}
		case s.err == nil:
			lags = append(lags, ms(s.sent.Sub(s.due)))
			res.LatencyMS = append(res.LatencyMS, ms(s.latency()))
		default:
			lags = append(lags, ms(s.sent.Sub(s.due)))
		}
	}
	if len(res.LatencyMS) == 0 || len(closedLat) == 0 {
		return nil, fmt.Errorf("tlsimd: no completed submissions (open %d, closed %d)", len(open), len(closed))
	}
	// Two clients always have a request outstanding, so by Little's law
	// the closed loop's throughput is two over its mean latency.
	res.OpsPerSec = parallelism / (mean(closedLat) / 1e3)
	q := tailQuantile(len(res.LatencyMS))
	res.Extra = append(res.Extra,
		extraMetric{"open_submissions", float64(len(open)), "count"},
		extraMetric{"closed_submissions", float64(len(closed)), "count"},
		extraMetric{"submit_to_result_ms_p50", median(res.LatencyMS), "ms"},
		extraMetric{fmt.Sprintf("submit_to_result_ms_p%02.0f", 100*q), quantile(res.LatencyMS, q), "ms"},
		extraMetric{"jobs_per_min", 60 * res.OpsPerSec, "jobs/min"},
		extraMetric{"closed_loop_completions_per_s", float64(len(closedLat)) / closedWall.Seconds(), "1/s"},
		extraMetric{"bench.generator_lag_ms_p95", quantile(lags, 0.95), "ms"},
		extraMetric{"daemon.dedup_hits", float64(dedup), "count"},
		extraMetric{"daemon.journal_bytes_per_job", float64(journal) / float64(len(all)-dedup), "bytes"},
	)
	return res, nil
}

// verify re-runs every OracleEvery-th new config straight through the
// façade and checks the daemon returned the same result.
func (t *tlsimdSpec) verify(ctx context.Context, seed int64, leg *legResult) []string {
	var fails []string
	seen := map[string]bool{}
	nth := 0
	for _, op := range leg.Ops {
		if seen[op.Key] || op.Err != "" {
			continue
		}
		seen[op.Key] = true
		nth++
		if (nth-1)%t.size.OracleEvery != 0 {
			continue
		}
		key, err := strconv.ParseInt(op.Key, 10, 64)
		if err != nil {
			fails = append(fails, fmt.Sprintf("op key %q: %v", op.Key, err))
			continue
		}
		r, err := tensorlights.RunExperimentContext(ctx, t.config(key))
		if err != nil {
			fails = append(fails, fmt.Sprintf("oracle config seed %d: %v", key, err))
			continue
		}
		if got := resultOut(r).digest(); got != op.Digest {
			fails = append(fails, fmt.Sprintf("config seed %d: daemon digest %.12s differs from direct run %.12s", key, op.Digest, got))
		}
	}
	return append(fails, checkPinned("tlsimd-submit", leg.Ops)...)
}

// setup is one daemon start: server.New (journal open and replay),
// Start, and the HTTP front end up until /readyz returns 200.
func (t *tlsimdSpec) setup(int64) error {
	d, err := t.startDaemon(nil)
	if err != nil {
		return err
	}
	return d.stop()
}

// traceRun drives the open loop for d against a daemon whose Runner is
// wrapped in a span. Alternate new configs run with the façade's trace
// output fed to a kind counter, the others plain, so the Runner wall
// clock of the two halves gives the tracing overhead.
func (t *tlsimdSpec) traceRun(ctx context.Context, seed int64, d time.Duration, rec *spanRecorder) (*traceResult, error) {
	var mu sync.Mutex
	runStart := map[int64]time.Time{}
	var runTraced, runPlain []float64
	var busy time.Duration
	var traced, all []trialOut
	runner := func(ctx context.Context, cfg tensorlights.ExperimentConfig) (*tensorlights.Result, error) {
		started := time.Now()
		var counter *csvKindCounter
		if (cfg.Seed-seed)%2 == 0 {
			counter = &csvKindCounter{counts: kindCounts{}}
			cfg.TraceCSV = counter
		}
		id := rec.begin(cfg.Seed, 0, "server.Runner")
		r, err := tensorlights.RunExperimentContext(ctx, cfg)
		rec.end(id)
		wall := time.Since(started)
		mu.Lock()
		defer mu.Unlock()
		busy += wall
		runStart[cfg.Seed] = started
		if err != nil {
			return r, err
		}
		out := resultOut(r)
		all = append(all, out)
		if counter == nil {
			runPlain = append(runPlain, ms(wall))
			return r, nil
		}
		runTraced = append(runTraced, ms(wall))
		out.Counts = map[string]float64{}
		for _, km := range kindMetrics {
			out.Counts[km.metric] = float64(counter.counts[km.kind])
		}
		traced = append(traced, out)
		return r, nil
	}
	dm, err := t.startDaemon(runner)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	subs := t.openLoop(dm, newConfigStream(seed), start, start.Add(d), rec)
	wall := time.Since(start)
	if err := dm.stop(); err != nil {
		return nil, err
	}
	leg := &legResult{Ops: t.ops(subs)}
	res := &traceResult{Metrics: map[string]float64{}, Attempted: len(leg.Ops)}
	res.Failures = append(leg.failures(), t.verify(ctx, seed, leg)...)
	if len(runTraced) == 0 || len(runPlain) == 0 {
		return res, nil
	}
	res.Metrics["bench.trace_overhead_frac"] = median(runTraced)/median(runPlain) - 1
	res.Metrics["bench.busy_frac"] = busy.Seconds() / (parallelism * wall.Seconds())
	for name, v := range meanCounts(traced) {
		res.Metrics[name] = v
	}
	for _, o := range all {
		res.Metrics["sim.events"] += float64(o.Events) / float64(len(all))
		res.Metrics["core.reconfigs"] += float64(o.Reconfigs) / float64(len(all))
	}

	var submitMS, waitMS, fetchMS []float64
	dedup := 0
	for _, s := range subs {
		if s.deduped {
			dedup++
		}
		if s.err == nil {
			submitMS = append(submitMS, ms(s.accepted.Sub(s.sent)))
			if s.fetched.After(s.fetchSent) { // not answered from the cache
				fetchMS = append(fetchMS, ms(s.fetched.Sub(s.fetchSent)))
			}
		}
		// The first submission of a config is the one the Runner ran.
		if at, ok := runStart[s.key]; ok {
			waitMS = append(waitMS, ms(at.Sub(s.sent)))
			delete(runStart, s.key)
		}
	}
	res.Extra = append(res.Extra,
		extraMetric{"daemon.submit_ms_p50", median(submitMS), "ms"},
		extraMetric{"daemon.post_to_run_ms_p50", median(waitMS), "ms"},
		extraMetric{"daemon.run_ms_p50", median(append(runTraced, runPlain...)), "ms"},
		extraMetric{"daemon.fetch_ms_p50", median(fetchMS), "ms"},
		extraMetric{"daemon.dedup_hits", float64(dedup), "count"},
	)
	return res, nil
}
