package simnet

import (
	"fmt"

	"repro/internal/flownet"
	"repro/internal/qdisc"
	"repro/internal/trace"
)

// Fabric modes: the chunk fabric simulates every chunk through every
// hop as discrete events; the flow fabric models transfers as fluid
// flows on an analytic max-min bandwidth-sharing network
// (internal/flownet) and jumps straight to completion times. See
// DESIGN.md §13 for the model and its documented divergences.
const (
	ModeChunk = "chunk"
	ModeFlow  = "flow"
)

// classKey identifies one per-host shaping constraint: an HTB leaf
// class.
type classKey struct {
	host  int
	class int
}

// classLinkInfo is the engine link modelling one shaped class, plus the
// strict-priority band its flows compete in at the egress.
type classLinkInfo struct {
	link int
	band int
}

// flowMode is the fabric's analytic fast path: a flownet.Engine whose
// links mirror the fabric's capacity constraints.
//
// Link mapping:
//   - per host, an egress link and an ingress link at NIC payload rate
//     (rateBytes * rateFactor / WireOverhead; 0 when down, derated by
//     the injected chunk-drop probability);
//   - per core link of the routed topology, one engine link at the
//     core payload rate (ECMP route sets are reused verbatim: a flow
//     crosses exactly the links its chunks would);
//   - per HTB leaf class at an egress, one virtual link capping that
//     class's aggregate payload throughput at its Ceil — HTB charges
//     payload bytes, so no overhead factor.
//
// Band mapping: a flow's strict-priority band at its source egress is
// the HTB class Prio (direct traffic gets band -1: it dequeues before
// every class) or the prio qdisc band; its weight is the socket window,
// matching the chunk fabric's window-proportional FIFO sharing. HTB's
// guaranteed-rate (green) phase is approximated as pure strict priority
// by Prio + per-class Ceil: TensorLights configures tiny guarantees and
// large ceils, where borrowing order is what matters.
type flowMode struct {
	f   *Fabric
	eng *flownet.Engine

	egressLink  []int // per host
	ingressLink []int // per host
	coreLink    []int // per topology link ID
	classLinks  map[classKey]classLinkInfo

	// bandDone[host][band] accumulates payload bytes of completed flows
	// per egress band; FlowBandBytes adds in-flight progress on top.
	bandDone []map[int]int64

	// scratch chunk for running tc filter chains against a flow.
	scratch qdisc.Chunk
	// scratch link list for AddFlow/UpdateFlow (the engine copies it).
	linksBuf []int

	completeFn func(any)
}

// flowEngine returns the fabric's analytic engine, building it (and the
// topology) on first use. Call only after every AddHost.
func (f *Fabric) flowEngine() *flowMode {
	if f.flow == nil {
		f.Topology()
		f.flow = newFlowMode(f)
	}
	return f.flow
}

func newFlowMode(f *Fabric) *flowMode {
	fm := &flowMode{
		f:          f,
		classLinks: make(map[classKey]classLinkInfo),
		bandDone:   make([]map[int]int64, len(f.hosts)),
	}
	fm.eng = flownet.NewEngine(f.k, fm.flowDone)
	fm.completeFn = func(a any) { f.completeAnalyticFlow(a.(*Flow)) }
	fm.egressLink = make([]int, len(f.hosts))
	fm.ingressLink = make([]int, len(f.hosts))
	for i, h := range f.hosts {
		fm.egressLink[i] = fm.eng.AddLink(fm.portCap(h.Egress))
		h.Egress.flowLink = fm.egressLink[i]
		fm.ingressLink[i] = fm.eng.AddLink(fm.portCap(h.Ingress))
		h.Ingress.flowLink = fm.ingressLink[i]
	}
	links := f.topo.Links()
	fm.coreLink = make([]int, len(links))
	for _, l := range links {
		fm.coreLink[l.ID] = fm.eng.AddLink(fm.portCap(l.port))
		l.port.flowLink = fm.coreLink[l.ID]
	}
	return fm
}

// portCap is the port's current payload capacity in bytes/sec: the wire
// rate divided by the framing overhead, degraded by fault state. An
// injected chunk-drop probability derates the egress — the fluid
// analogue of losing (and later retransmitting) that fraction of
// chunks.
func (fm *flowMode) portCap(p *Port) float64 {
	if p.down {
		return 0
	}
	c := p.rateBytes * p.rateFactor / fm.f.cfg.WireOverhead
	if p.dir == "egress" && p.host.dropProb > 0 {
		c *= 1 - p.host.dropProb
	}
	return c
}

// notifyFlow pushes a port's current capacity into the analytic engine
// after a fault or reconfiguration; rates recompute immediately. A
// no-op before the engine exists or in chunk mode (flowLink < 0).
func (p *Port) notifyFlow() {
	if fm := p.fabric.flow; fm != nil && p.flowLink >= 0 {
		fm.eng.SetLinkCap(p.flowLink, fm.portCap(p))
	}
}

// classLink returns (creating or refreshing) the virtual link capping a
// shaped egress class.
func (fm *flowMode) classLink(host, class, band int, cap float64) classLinkInfo {
	k := classKey{host: host, class: class}
	info, ok := fm.classLinks[k]
	if !ok {
		info = classLinkInfo{link: fm.eng.AddLink(cap), band: band}
		fm.classLinks[k] = info
		return info
	}
	fm.eng.SetLinkCap(info.link, cap) // no-op when unchanged
	if info.band != band {
		info.band = band
		fm.classLinks[k] = info
	}
	return info
}

// classify runs host src's egress qdisc configuration over a flow and
// returns its strict-priority band and the virtual class link capping
// it (-1 when unshaped). This is the same decision the chunk fabric
// makes per chunk, evaluated once per flow.
func (fm *flowMode) classify(src int, fl *Flow) (band, classLink int) {
	fm.scratch = qdisc.Chunk{FlowID: fl.ID, SrcPort: fl.Spec.SrcPort}
	switch q := fm.f.Host(src).Egress.q.(type) {
	case *qdisc.HTB:
		cl := q.Class(q.Classifier().Classify(&fm.scratch))
		if cl == nil {
			cl = q.Class(q.DefaultClass())
		}
		if cl == nil {
			// Direct traffic dequeues before every class, unshaped.
			return -1, -1
		}
		cfg := cl.Config()
		info := fm.classLink(src, int(cl.ID), cfg.Prio, cfg.Ceil)
		return cfg.Prio, info.link
	case *qdisc.Prio:
		b := int(q.Classifier().Classify(&fm.scratch))
		if b < 0 || b >= q.Bands() {
			b = q.Bands() - 1 // Enqueue's out-of-range clamp
		}
		return b, -1
	default: // pfifo: single band, no shaping
		return 0, -1
	}
}

// sendBurstFlow is SendBurst on the analytic fabric: one engine flow
// per spec instead of per-chunk events. Window sampling and the
// interleave draws consume the same RNG sequence as the chunk fabric,
// so a mode switch never perturbs later draws from shared streams.
func (f *Fabric) sendBurstFlow(src int, specs []FlowSpec) []*Flow {
	now := f.k.Now()
	flows := make([]*Flow, len(specs))
	admitted := 0
	for i, spec := range specs {
		fl, w := f.sendOneFlow(src, spec, now)
		flows[i] = fl
		admitted += w
	}
	// Burn the injection-jitter draws the chunk fabric would make for
	// the first-window interleave: Intn's rejection sampling consumes a
	// draw count that depends on its argument, so the arguments must
	// match exactly.
	if f.cfg.InjectJitter > 0 && len(specs) > 1 {
		for remaining := admitted; remaining > 0; remaining-- {
			f.rng.Intn(remaining)
		}
	}
	return flows
}

// sendOneFlow admits one transfer to the analytic engine and returns
// the flow plus its first-window chunk count (the burst jitter burn;
// zero for loopback). Send calls it directly in flow mode so a single
// transfer skips the burst slices.
func (f *Fabric) sendOneFlow(src int, spec FlowSpec, now float64) (*Flow, int) {
	if spec.Src != src {
		panic("simnet: SendBurst specs must share src")
	}
	if spec.Bytes <= 0 {
		panic("simnet: flow bytes must be positive")
	}
	fm := f.flowEngine()
	fl := f.newFlow()
	fl.ID, fl.Spec, fl.Started, fl.FirstByte, fl.Finished = f.newFlowID(), spec, now, -1, -1
	fl.window = f.sampleWindow()
	f.flows[fl.ID] = fl
	if spec.Dst == src {
		// Loopback: memory-speed copy, propagation delay only.
		f.k.PostArgAfter(f.cfg.PropDelaySec, fm.completeFn, fl)
		return fl, 0
	}
	fl.route = f.Topology().Route(spec.Src, spec.Dst, spec.SrcPort, spec.DstPort)
	nchunks := int((spec.Bytes + f.cfg.ChunkBytes - 1) / f.cfg.ChunkBytes)
	w := fl.window
	if w > nchunks {
		w = nchunks
	}
	fm.startFlow(fl)
	return fl, w
}

// pathLinks assembles the engine link list for a flow from host src
// into the reusable scratch buffer (the engine copies it).
func (fm *flowMode) pathLinks(src, classLink int, fl *Flow) []int {
	links := fm.linksBuf[:0]
	if classLink >= 0 {
		links = append(links, classLink)
	}
	links = append(links, fm.egressLink[src])
	for _, l := range fl.route {
		links = append(links, fm.coreLink[l.ID])
	}
	links = append(links, fm.ingressLink[fl.Spec.Dst])
	fm.linksBuf = links
	return links
}

// startFlow registers one transfer with the analytic engine.
func (fm *flowMode) startFlow(fl *Flow) {
	src := fl.Spec.Src
	band, classLink := fm.classify(src, fl)
	fl.flowBand = band
	links := fm.pathLinks(src, classLink, fl)
	fl.flowLatency = fm.tailLatency(fl)
	fm.eng.AddFlow(flownet.FlowID(fl.ID), links, fm.egressLink[src], band,
		float64(fl.window), float64(fl.Spec.Bytes), fl)
}

// tailLatency is the store-and-forward pipeline-fill delay between the
// last byte clearing the source egress (when the engine's fluid demand
// reaches zero) and arriving at the destination: per downstream hop,
// one propagation delay plus one full-chunk serialization at that hop's
// healthy rate. Exact for an uncontended equal-rate path; an
// approximation when downstream hops are contended (the engine already
// stretches the bulk transfer, only this tail constant is frozen at
// send time).
func (fm *flowMode) tailLatency(fl *Flow) float64 {
	f := fm.f
	hopBytes := fl.Spec.Bytes
	if f.cfg.ChunkBytes < hopBytes {
		hopBytes = f.cfg.ChunkBytes
	}
	wire := float64(hopBytes) * f.cfg.WireOverhead
	ingress := f.Host(fl.Spec.Dst).Ingress
	if len(fl.route) == 0 {
		return f.cfg.PropDelaySec + wire/ingress.rateBytes
	}
	lat := float64(len(fl.route)+1) * f.cfg.Topology.HopDelaySec
	for _, l := range fl.route {
		lat += wire / l.port.rateBytes
	}
	return lat + wire/ingress.rateBytes
}

// flowDone fires inside the engine's completion event: the last byte
// has cleared the bottleneck; delivery completes after the frozen
// pipeline-fill tail.
func (fm *flowMode) flowDone(id flownet.FlowID, tag any) {
	fl := tag.(*Flow)
	fm.f.k.PostArgAfter(fl.flowLatency, fm.completeFn, fl)
}

// completeAnalyticFlow finishes a flow in flow mode, emitting the same
// trace event and completion callback as the chunk fabric's last-chunk
// delivery.
func (f *Fabric) completeAnalyticFlow(fl *Flow) {
	now := f.k.Now()
	if fl.FirstByte < 0 {
		// Approximate: the analytic model does not track the first
		// chunk's arrival; it lands one pipeline-fill before the last.
		fl.FirstByte = now
	}
	fl.deliveredBytes = fl.Spec.Bytes
	fl.Finished = now
	delete(f.flows, fl.ID)
	f.completed++
	if fm := f.flow; fm != nil && fl.Spec.Dst != fl.Spec.Src {
		m := fm.bandDone[fl.Spec.Src]
		if m == nil {
			m = make(map[int]int64)
			fm.bandDone[fl.Spec.Src] = m
		}
		m[fl.flowBand] += fl.Spec.Bytes
	}
	if f.Tracer != nil {
		f.Tracer.Emit(trace.Event{
			At: fl.Finished, Kind: trace.KindFlowDone,
			Job: fl.Spec.JobID, Host: fl.Spec.Dst, Worker: -1,
			Value:  fl.Finished - fl.Started,
			Detail: fmt.Sprintf("bytes=%d src=%d", fl.Spec.Bytes, fl.Spec.Src),
		})
	}
	if fl.Spec.OnComplete != nil {
		fl.Spec.OnComplete(fl)
	}
	if fl.Spec.Transient {
		f.releaseFlow(fl)
	}
}

// EgressReconfigured tells the analytic fabric that host's egress qdisc
// configuration changed (tc qdisc/class/filter command, or a direct
// SetEgressQdisc): in-flight flows from the host are reclassified in
// place and rates recompute. A no-op in chunk mode, where the qdisc
// itself is the mechanism.
func (f *Fabric) EgressReconfigured(host int) {
	fm := f.flow
	if fm == nil {
		return
	}
	fm.eng.ForEach(func(id flownet.FlowID, tag any) {
		fl := tag.(*Flow)
		if fl.Spec.Src != host {
			return
		}
		band, classLink := fm.classify(host, fl)
		fl.flowBand = band
		links := fm.pathLinks(host, classLink, fl)
		fm.eng.UpdateFlow(id, links, fm.egressLink[host], band, float64(fl.window))
	})
}

// FlowBandBytes returns, in flow mode, the cumulative payload bytes
// sent per egress priority band from host — the analytic analogue of
// the qdisc's per-band dequeued-bytes counters, which stay zero when no
// chunks exist. Returns nil in chunk mode (callers fall back to the
// qdisc counters). Every flow from host crosses the host's egress link
// and no other flow does, so only that link's flows are visited.
func (f *Fabric) FlowBandBytes(host int) map[int]uint64 {
	fm := f.flow
	if fm == nil {
		return nil
	}
	fm.eng.Sync()
	m := make(map[int]uint64)
	for band, b := range fm.bandDone[host] {
		m[band] = uint64(b)
	}
	fm.eng.ForEachOnLink(fm.egressLink[host], func(_ flownet.FlowID, tag any, rem float64) {
		fl := tag.(*Flow)
		m[fl.flowBand] += uint64(float64(fl.Spec.Bytes) - rem)
	})
	return m
}

// FlowEngineResolves returns how many times the analytic engine
// recomputed the allocation (0 in chunk mode) — a diagnostic for the
// rates-change-only-on-events contract.
func (f *Fabric) FlowEngineResolves() uint64 {
	if f.flow == nil {
		return 0
	}
	return f.flow.eng.Resolves()
}
