package metrics

import (
	"fmt"

	"repro/internal/cpusim"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/trace"
)

// HostSnapshot captures one host's cumulative counters at an instant.
type HostSnapshot struct {
	At      float64
	CPUBusy float64 // thread-seconds
	NetOut  int64   // bytes
	NetIn   int64   // bytes
}

// HostUtil is utilization over a window, each in [0,1] of capacity.
type HostUtil struct {
	Host   int
	CPU    float64
	NetOut float64
	NetIn  float64
}

// UtilizationSampler periodically snapshots every host's CPU busy time
// and NIC byte counters, the simulated equivalent of running vmstat and
// ifstat on each server. Windowed utilization is computed from counter
// differences, so any [start, end] aligned to sample ticks is exact.
//
// Goroutine-safety: a sampler is bound to one kernel and is only ever
// touched from that kernel's goroutine (sweep.Run constructs one per
// trial), so it needs — and has — no locking. Do not share a sampler
// across trials run by sweep's parallel Engine.
type UtilizationSampler struct {
	k        *sim.Kernel
	fabric   *simnet.Fabric
	cpus     []*cpusim.CPU
	interval float64
	running  bool
	stopped  bool
	// series[host] is the snapshot time series.
	series [][]HostSnapshot
	// links are the fabric's core links (none on the flat topology)
	// and linkBusy their busy times at the previous tick, at lastAt.
	links    []*simnet.Link
	linkBusy []float64
	lastAt   float64
	// Tracer, when non-nil before Start, receives a link_util event per
	// core link per tick (Host = link ID, Value = busy fraction since
	// the previous tick).
	Tracer trace.Tracer
}

// NewUtilizationSampler creates a sampler; call Start to begin.
func NewUtilizationSampler(k *sim.Kernel, fabric *simnet.Fabric, cpus []*cpusim.CPU, intervalSec float64) *UtilizationSampler {
	if intervalSec <= 0 {
		intervalSec = 1
	}
	return &UtilizationSampler{
		k:        k,
		fabric:   fabric,
		cpus:     cpus,
		interval: intervalSec,
		series:   make([][]HostSnapshot, fabric.NumHosts()),
		links:    fabric.CoreLinks(),
	}
}

// Start takes the first snapshot now and schedules the rest.
func (s *UtilizationSampler) Start() {
	if s.running {
		return
	}
	s.running = true
	s.tick()
}

// Stop halts sampling after the current tick.
func (s *UtilizationSampler) Stop() { s.stopped = true }

func (s *UtilizationSampler) tick() {
	if s.stopped {
		s.running = false
		return
	}
	s.snapshot()
	s.k.PostAfter(s.interval, s.tick)
}

func (s *UtilizationSampler) snapshot() {
	now := s.k.Now()
	for h := 0; h < s.fabric.NumHosts(); h++ {
		host := s.fabric.Host(h)
		s.series[h] = append(s.series[h], HostSnapshot{
			At:      now,
			CPUBusy: s.cpus[h].BusyTime(),
			NetOut:  host.Egress.Bytes(),
			NetIn:   host.Ingress.Bytes(),
		})
	}
	if s.Tracer != nil {
		s.traceLinks(now)
	}
}

// Series returns the snapshot series for a host.
func (s *UtilizationSampler) Series(host int) []HostSnapshot { return s.series[host] }

func (s *UtilizationSampler) traceLinks(now float64) {
	first := s.linkBusy == nil
	if first {
		s.linkBusy = make([]float64, len(s.links))
	}
	for i, l := range s.links {
		busy := l.Port().BusyTime()
		util := 0.0
		if dt := now - s.lastAt; !first && dt > 0 {
			util = (busy - s.linkBusy[i]) / dt
		}
		s.Tracer.Emit(trace.Event{
			At: now, Kind: trace.KindLinkUtil, Job: -1, Host: l.ID,
			Worker: -1, Value: util, Detail: l.Name,
		})
		s.linkBusy[i] = busy
	}
	s.lastAt = now
}

// snapshotAtOrBefore finds the latest snapshot with At <= t.
func snapshotAtOrBefore(series []HostSnapshot, t float64) (HostSnapshot, error) {
	var found *HostSnapshot
	for i := range series {
		if series[i].At <= t+1e-9 {
			found = &series[i]
		} else {
			break
		}
	}
	if found == nil {
		return HostSnapshot{}, fmt.Errorf("metrics: no snapshot at or before t=%.3f", t)
	}
	return *found, nil
}

// Window computes per-host utilization over [start, end] — the paper's
// "active window" (100 s to 1250 s after launch for Table II).
func (s *UtilizationSampler) Window(start, end float64) ([]HostUtil, error) {
	if end <= start {
		return nil, fmt.Errorf("metrics: bad window [%.3f, %.3f]", start, end)
	}
	out := make([]HostUtil, 0, len(s.series))
	for h, series := range s.series {
		a, err := snapshotAtOrBefore(series, start)
		if err != nil {
			return nil, fmt.Errorf("host %d: %w", h, err)
		}
		b, err := snapshotAtOrBefore(series, end)
		if err != nil {
			return nil, fmt.Errorf("host %d: %w", h, err)
		}
		dt := b.At - a.At
		if dt <= 0 {
			return nil, fmt.Errorf("metrics: host %d window collapsed (%.3f)", h, dt)
		}
		host := s.fabric.Host(h)
		rate := host.Egress.RateBytes()
		out = append(out, HostUtil{
			Host:   h,
			CPU:    (b.CPUBusy - a.CPUBusy) / (dt * s.cpus[h].Threads()),
			NetOut: float64(b.NetOut-a.NetOut) / (dt * rate),
			NetIn:  float64(b.NetIn-a.NetIn) / (dt * rate),
		})
	}
	return out, nil
}

// AverageUtil averages utilization across the given host subset.
func AverageUtil(utils []HostUtil, hosts []int) HostUtil {
	if len(hosts) == 0 {
		return HostUtil{Host: -1}
	}
	want := make(map[int]bool, len(hosts))
	for _, h := range hosts {
		want[h] = true
	}
	var acc HostUtil
	n := 0
	for _, u := range utils {
		if !want[u.Host] {
			continue
		}
		acc.CPU += u.CPU
		acc.NetOut += u.NetOut
		acc.NetIn += u.NetIn
		n++
	}
	if n == 0 {
		return HostUtil{Host: -1}
	}
	acc.Host = -1
	acc.CPU /= float64(n)
	acc.NetOut /= float64(n)
	acc.NetIn /= float64(n)
	return acc
}
