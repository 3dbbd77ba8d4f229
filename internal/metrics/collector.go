package metrics

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Collector is a minimal Prometheus-text-format metric registry for
// long-running processes (the tlsimd daemon exposes one at /metrics).
// It supports monotonically increasing counters, settable gauges, and
// gauge functions sampled at scrape time. Registration is idempotent:
// asking for an existing (name, labels) series returns the same
// underlying value, so package-level wiring can re-register freely.
//
// The exposition is deliberately tiny — no histogram/summary types, no
// client_golang dependency — but the output is valid Prometheus text
// (HELP/TYPE comments, label escaping, deterministic ordering) so any
// scraper can consume it.
type Collector struct {
	mu       sync.Mutex
	families map[string]*family
	names    []string // registration order is irrelevant; render sorts
}

// family groups every labeled series of one metric name.
type family struct {
	name   string
	help   string
	typ    string // "counter" or "gauge"
	series map[string]*series
	fns    map[string]func() float64 // gauge functions, by label key
}

// series is one (name, labels) time series.
type series struct {
	labels string // rendered label set, "" or `{k="v",...}`
	bits   atomic.Uint64
}

func (s *series) add(delta float64) {
	for {
		old := s.bits.Load()
		next := f2b(b2f(old) + delta)
		if s.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

func (s *series) set(v float64)  { s.bits.Store(f2b(v)) }
func (s *series) value() float64 { return b2f(s.bits.Load()) }
func f2b(f float64) uint64       { return math.Float64bits(f) }
func b2f(b uint64) float64       { return math.Float64frombits(b) }

// NewCollector returns an empty registry.
func NewCollector() *Collector {
	return &Collector{families: map[string]*family{}}
}

// Counter is a monotonically increasing metric.
type Counter struct{ s *series }

// Inc adds 1.
func (c *Counter) Inc() { c.s.add(1) }

// Add adds delta; negative deltas panic (counters only go up).
func (c *Counter) Add(delta float64) {
	if delta < 0 {
		panic("metrics: counter decrement")
	}
	c.s.add(delta)
}

// Value returns the current count (tests and status pages).
func (c *Counter) Value() float64 { return c.s.value() }

// Gauge is a metric that can go up and down.
type Gauge struct{ s *series }

// Set assigns the gauge.
func (g *Gauge) Set(v float64) { g.s.set(v) }

// Add shifts the gauge by delta (may be negative).
func (g *Gauge) Add(delta float64) { g.s.add(delta) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return g.s.value() }

// Label is one key=value metric label.
type Label struct{ Key, Value string }

// Counter registers (or retrieves) a counter series. Labels are
// optional; the same name may carry many label sets but only one help
// string and type (enforced: re-registering a name as a different type
// panics — it is always a programming error).
func (c *Collector) Counter(name, help string, labels ...Label) *Counter {
	s := c.register(name, help, "counter", labels)
	return &Counter{s: s}
}

// Gauge registers (or retrieves) a gauge series.
func (c *Collector) Gauge(name, help string, labels ...Label) *Gauge {
	s := c.register(name, help, "gauge", labels)
	return &Gauge{s: s}
}

// GaugeFunc registers a gauge sampled by calling fn at scrape time —
// for values that already live elsewhere (queue depth, cache size).
// fn must be safe to call from the scrape goroutine.
func (c *Collector) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	c.mu.Lock()
	defer c.mu.Unlock()
	f := c.familyLocked(name, help, "gauge")
	if f.fns == nil {
		f.fns = map[string]func() float64{}
	}
	f.fns[renderLabels(labels)] = fn
}

func (c *Collector) register(name, help, typ string, labels []Label) *series {
	c.mu.Lock()
	defer c.mu.Unlock()
	f := c.familyLocked(name, help, typ)
	key := renderLabels(labels)
	if s, ok := f.series[key]; ok {
		return s
	}
	s := &series{labels: key}
	f.series[key] = s
	return s
}

func (c *Collector) familyLocked(name, help, typ string) *family {
	f, ok := c.families[name]
	if !ok {
		f = &family{name: name, help: help, typ: typ, series: map[string]*series{}}
		c.families[name] = f
		c.names = append(c.names, name)
		return f
	}
	if f.typ != typ {
		panic(fmt.Sprintf("metrics: %s registered as %s and %s", name, f.typ, typ))
	}
	return f
}

// renderLabels renders a sorted, escaped Prometheus label block, "" for
// no labels. Sorting makes the series key canonical: the same label set
// in any order is the same series.
func renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `%s=%q`, l.Key, l.Value)
	}
	b.WriteByte('}')
	return b.String()
}

// WritePrometheus renders every family in Prometheus text exposition
// format. Families are sorted by name and series by label block, so the
// output is deterministic — scrape diffs and golden tests stay stable.
func (c *Collector) WritePrometheus(w io.Writer) error {
	c.mu.Lock()
	names := append([]string(nil), c.names...)
	sort.Strings(names)
	type line struct {
		labels string
		v      float64
	}
	type block struct {
		name, help, typ string
		lines           []line
	}
	blocks := make([]block, 0, len(names))
	for _, name := range names {
		f := c.families[name]
		b := block{name: f.name, help: f.help, typ: f.typ}
		for key, s := range f.series {
			b.lines = append(b.lines, line{labels: key, v: s.value()})
		}
		for key, fn := range f.fns {
			b.lines = append(b.lines, line{labels: key, v: fn()})
		}
		sort.Slice(b.lines, func(i, j int) bool { return b.lines[i].labels < b.lines[j].labels })
		blocks = append(blocks, b)
	}
	c.mu.Unlock()

	for _, b := range blocks {
		if b.help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", b.name, b.help); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", b.name, b.typ); err != nil {
			return err
		}
		for _, l := range b.lines {
			if _, err := fmt.Fprintf(w, "%s%s %v\n", b.name, l.labels, l.v); err != nil {
				return err
			}
		}
	}
	return nil
}
