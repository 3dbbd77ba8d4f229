package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/trace"
)

// span is one timed call across a layer boundary, recorded from the
// benchmark's side of the call. Spans of one trial or one request share
// a Trace id; Parent is the id of the span that made the call (0 for a
// root span).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Trace  int64  `json:"trace"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// spanRecorder keeps spans in memory until the run ends. Several trials
// record concurrently, so it is locked; the lock is uncontended enough
// that its cost is part of the measured tracing overhead.
type spanRecorder struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newSpanRecorder() *spanRecorder { return &spanRecorder{epoch: time.Now()} }

// begin opens a span and returns its id.
func (r *spanRecorder) begin(traceID int64, parent int, name string) int {
	now := time.Since(r.epoch).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Trace: traceID, Name: name, Start: now, End: now})
	return id
}

// end closes the span begin returned.
func (r *spanRecorder) end(id int) {
	now := time.Since(r.epoch).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[id-1].End = now
}

// wrap runs fn inside a span.
func (r *spanRecorder) wrap(traceID int64, parent int, name string, fn func()) {
	id := r.begin(traceID, parent, name)
	fn()
	r.end(id)
}

func (r *spanRecorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// writeJSONL writes every span, one JSON object per line.
func (r *spanRecorder) writeJSONL(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns each span's duration minus the part of its interval
// that its children cover, indexed like spans. Overlapping children (a
// span with concurrent callees) are merged first, so covered time is
// never counted twice and self time never goes negative.
func selfTimes(spans []span) []int64 {
	idx := make(map[int]int, len(spans))
	for i, s := range spans {
		idx[s.ID] = i
	}
	children := make([][][2]int64, len(spans))
	for _, s := range spans {
		if p, ok := idx[s.Parent]; ok && s.Parent != 0 {
			children[p] = append(children[p], [2]int64{s.Start, s.End})
		}
	}
	out := make([]int64, len(spans))
	for i, s := range spans {
		ivs := children[i]
		for j := range ivs {
			ivs[j][0] = max(ivs[j][0], s.Start)
			ivs[j][1] = min(ivs[j][1], s.End)
		}
		sort.Slice(ivs, func(a, b int) bool { return ivs[a][0] < ivs[b][0] })
		var covered, curStart, curEnd int64
		open := false
		for _, iv := range ivs {
			if iv[1] <= iv[0] {
				continue
			}
			if open && iv[0] <= curEnd {
				curEnd = max(curEnd, iv[1])
				continue
			}
			if open {
				covered += curEnd - curStart
			}
			curStart, curEnd, open = iv[0], iv[1], true
		}
		if open {
			covered += curEnd - curStart
		}
		out[i] = s.dur() - covered
	}
	return out
}

// spanStat aggregates the spans of one name.
type spanStat struct {
	Name    string
	Count   int
	TotalNs int64
	SelfNs  int64
}

// summarize aggregates spans by name, in first-seen order.
func summarize(spans []span) []spanStat {
	self := selfTimes(spans)
	pos := map[string]int{}
	var out []spanStat
	for i, s := range spans {
		p, ok := pos[s.Name]
		if !ok {
			p = len(out)
			pos[s.Name] = p
			out = append(out, spanStat{Name: s.Name})
		}
		out[p].Count++
		out[p].TotalNs += s.dur()
		out[p].SelfNs += self[i]
	}
	return out
}

// kindCounts tallies simulation trace events by kind. One instance
// belongs to one trial, which is single-threaded.
type kindCounts map[trace.Kind]int

func (c kindCounts) tracer() trace.Tracer {
	return trace.FuncTracer(func(e trace.Event) { c[e.Kind]++ })
}

// kindMetrics maps trace event kinds onto per-layer count metrics. The
// layer is the package that emits the event.
var kindMetrics = []struct {
	metric string
	kind   trace.Kind
}{
	{"workload.jobs", trace.KindJobStart},
	{"dl.barriers", trace.KindBarrierRelease},
	{"simnet.flows", trace.KindFlowDone},
	{"core.tc_configs", trace.KindTcConfig},
	{"core.rotations", trace.KindPriorityRotate},
	{"collective.ring_steps", trace.KindRingStep},
	{"collective.buckets", trace.KindBucketDone},
	{"policy.rank_decisions", trace.KindPolicyRank},
	{"policy.feedback_samples", trace.KindFeedbackSample},
	{"scheduler.placements", trace.KindSchedPlace},
	{"scheduler.shifts", trace.KindSchedShift},
}

// csvKindCounter counts the kinds in a trace CSV stream (the façade's
// ExperimentConfig.TraceCSV format: a header, then at,kind,... rows).
// It is the only way to see inside a daemon-run experiment without
// changing the daemon.
type csvKindCounter struct {
	counts kindCounts
	line   []byte
}

func (c *csvKindCounter) Write(p []byte) (int, error) {
	for _, b := range p {
		if b != '\n' {
			c.line = append(c.line, b)
			continue
		}
		c.countLine()
		c.line = c.line[:0]
	}
	return len(p), nil
}

func (c *csvKindCounter) countLine() {
	if len(c.line) == 0 || c.line[0] == '#' {
		return
	}
	start := -1
	for i, b := range c.line {
		if b != ',' {
			continue
		}
		if start < 0 {
			start = i + 1
			continue
		}
		if kind := trace.Kind(c.line[start:i]); kind != "kind" {
			c.counts[kind]++
		}
		return
	}
}
