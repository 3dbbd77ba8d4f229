// Package simnet is a discrete-event network fabric: hosts with
// full-duplex NIC ports connected by a non-blocking switch. Transfers
// are flows split into chunks; each host's egress port drains a
// configurable queueing discipline (see internal/qdisc) at link rate,
// and each ingress port serializes arrivals FIFO at link rate. This is
// the substrate on which the paper's contention phenomena play out: the
// egress qdisc at a host running several parameter servers is exactly
// where TensorLights intervenes.
package simnet

import (
	"fmt"

	"repro/internal/flownet"
	"repro/internal/qdisc"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Config sets fabric-wide parameters.
type Config struct {
	// LinkRateBps is the NIC line rate in bits per second (both
	// directions; links are full duplex). Default 10 Gbps.
	LinkRateBps float64
	// PropDelaySec is the one-way propagation + switching delay.
	// Default 20 microseconds (one switch hop).
	PropDelaySec float64
	// ChunkBytes is the transfer granularity: the size of one
	// application-level socket write. Default 256 KiB.
	ChunkBytes int64
	// WireOverhead multiplies payload bytes to account for TCP/IP and
	// Ethernet framing plus the retransmission/goodput loss of heavily
	// contended TCP (incast). Default 1.25, calibrated so that a fully
	// saturated parameter-server host reproduces the paper's residual
	// contention that egress prioritization cannot remove.
	WireOverhead float64
	// InjectJitter controls the randomized interleaving of concurrent
	// flow writes from one sender (models TCP's noisy sharing).
	// 0 disables shuffling; default 1 shuffles every round.
	InjectJitter float64
	// MinWindowChunks and MaxWindowChunks bound the per-flow socket
	// window: how many chunks of one flow may sit in the egress qdisc
	// at once. Each flow draws a window uniformly from this range at
	// creation. Under backlogged FIFO service a flow's throughput
	// share is proportional to its window — the same mechanism that
	// makes concurrent TCP streams persistently unequal, and thus the
	// source of the paper's random per-worker model-update delays.
	// Defaults 1 and 4.
	MinWindowChunks int
	MaxWindowChunks int
	// WindowWeights, when non-empty, overrides the uniform window
	// draw: WindowWeights[i] is the relative probability of a window
	// of i+1 chunks. This shapes the tail of TCP unfairness — a small
	// probability of a 1-chunk window reproduces the occasional
	// starved connection whose delay scales with queue depth.
	// Default {0.02, 0.33, 0.25, 0.20, 0.20} for windows 1..5,
	// calibrated against the paper's Figure 2/3 contention ratios.
	WindowWeights []float64
	// RetransmitTimeoutSec is the sender's retransmission timeout for
	// chunks lost to an injected per-chunk drop probability (see
	// Host.SetChunkDropProb). Default 5 ms.
	RetransmitTimeoutSec float64
	// Topology selects the fabric behind the NIC ports (see
	// TopologyConfig). The zero value is the flat ideal switch the paper
	// assumes, which behaves exactly as the pre-topology fabric did.
	Topology TopologyConfig
	// Mode selects the fabric engine: ModeChunk (default) simulates
	// every chunk through every hop as discrete events; ModeFlow models
	// transfers as fluid flows on the analytic max-min network of
	// internal/flownet and jumps straight to completion times —
	// typically 10–100× fewer events per trial. See DESIGN.md §13 for
	// equivalence bounds and divergences.
	Mode string
}

// Validate reports configuration errors. New panics on an invalid
// config; callers that construct configs from external input should
// call Validate first and surface the error.
func (c Config) Validate() error {
	sum := 0.0
	for i, w := range c.WindowWeights {
		if w < 0 {
			return fmt.Errorf("simnet: WindowWeights[%d] = %g is negative", i, w)
		}
		sum += w
	}
	if len(c.WindowWeights) > 0 && sum <= 0 {
		return fmt.Errorf("simnet: WindowWeights sum to %g; need a positive total", sum)
	}
	if c.MinWindowChunks > 0 && c.MaxWindowChunks > 0 && c.MinWindowChunks > c.MaxWindowChunks {
		return fmt.Errorf("simnet: MinWindowChunks %d > MaxWindowChunks %d",
			c.MinWindowChunks, c.MaxWindowChunks)
	}
	if c.RetransmitTimeoutSec < 0 {
		return fmt.Errorf("simnet: RetransmitTimeoutSec %g is negative", c.RetransmitTimeoutSec)
	}
	switch c.Mode {
	case "", ModeChunk, ModeFlow:
	default:
		return fmt.Errorf("simnet: unknown fabric mode %q (want %q or %q)",
			c.Mode, ModeChunk, ModeFlow)
	}
	return c.Topology.Validate()
}

func (c *Config) fillDefaults() {
	if c.LinkRateBps <= 0 {
		c.LinkRateBps = 10e9
	}
	if c.PropDelaySec <= 0 {
		c.PropDelaySec = 20e-6
	}
	if c.ChunkBytes <= 0 {
		c.ChunkBytes = 256 * 1024
	}
	if c.WireOverhead < 1 {
		c.WireOverhead = 1.25
	}
	if c.InjectJitter < 0 {
		c.InjectJitter = 0
	}
	if len(c.WindowWeights) == 0 && c.MinWindowChunks <= 0 && c.MaxWindowChunks <= 0 {
		c.WindowWeights = []float64{0.02, 0.33, 0.25, 0.20, 0.20}
	}
	if c.MinWindowChunks <= 0 {
		c.MinWindowChunks = 1
	}
	if c.MaxWindowChunks < c.MinWindowChunks {
		// Validate rejects an explicit Min > Max; this only fills an
		// unset MaxWindowChunks.
		c.MaxWindowChunks = 4
		if c.MaxWindowChunks < c.MinWindowChunks {
			c.MaxWindowChunks = c.MinWindowChunks
		}
	}
	if c.RetransmitTimeoutSec <= 0 {
		c.RetransmitTimeoutSec = 5e-3
	}
	if c.Mode == "" {
		c.Mode = ModeChunk
	}
	c.Topology.fillDefaults(c.PropDelaySec)
}

// Fabric owns the hosts and moves chunks between them.
type Fabric struct {
	k          *sim.Kernel
	rng        *sim.RNG
	cfg        Config
	hosts      []*Host
	nextFlowID uint64
	active     int // flows started and not yet delivered
	completed  uint64
	// dropRNG is a dedicated stream for injected chunk loss so that
	// enabling fault injection never perturbs the window/jitter draws
	// of the main simnet stream.
	dropRNG       *sim.RNG
	droppedChunks uint64
	// topo is the routed fabric behind the NIC ports, built lazily on
	// first use (once the host set is final).
	topo Topology
	// chunkFree recycles chunk structs: a delivered chunk has no aliases
	// (qdiscs never retain chunks past Dequeue), so steady-state chunk
	// traffic allocates nothing.
	chunkFree []*qdisc.Chunk
	// flowArena hands out Flow structs from block allocations; flowFree
	// recycles the ones whose spec was marked Transient (the caller
	// promised not to retain them past completion), chunk list included.
	// Non-transient flows are never reused — Send returns them and
	// callers may read Finished/Delivered long after completion — so for
	// those the arena only amortizes the allocator.
	flowArena []Flow
	flowFree  []*Flow
	// burstFlows and burstLists are SendBurst's scratch: the flows it
	// returns and each flow's first window, reused burst after burst.
	burstFlows []*Flow
	burstLists [][]*qdisc.Chunk
	// Long-lived PostArg callbacks for the per-chunk hot paths; built in
	// New so scheduling a hop/delivery/retransmit allocates no closure.
	deliverIngressFn func(any)
	injectRouteFn    func(any)
	chunkDeliveredFn func(any)
	retransmitFn     func(any)
	// flow is the analytic engine behind ModeFlow, built lazily with
	// the topology; nil in chunk mode.
	flow *flowMode
	// Tracer, when non-nil, receives a flow_done event per completed
	// transfer (value = transfer seconds).
	Tracer trace.Tracer
}

// New creates a fabric on the given kernel. rng seeds the injection
// jitter stream; it must not be shared with other model components.
// New panics on an invalid config; call cfg.Validate to check first.
func New(k *sim.Kernel, rng *sim.RNG, cfg Config) *Fabric {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	cfg.fillDefaults()
	f := &Fabric{
		k:       k,
		rng:     rng.Stream("simnet"),
		dropRNG: rng.Stream("simnet-drop"),
		cfg:     cfg,
	}
	f.deliverIngressFn = func(a any) {
		c := a.(*qdisc.Chunk)
		f.Host(c.Payload.(*Flow).Spec.Dst).Ingress.Inject(c)
	}
	f.injectRouteFn = func(a any) {
		c := a.(*qdisc.Chunk)
		c.Payload.(*Flow).route[c.Hop].port.Inject(c)
	}
	f.chunkDeliveredFn = func(a any) { f.chunkDelivered(a.(*qdisc.Chunk)) }
	f.retransmitFn = func(a any) {
		c := a.(*qdisc.Chunk)
		f.Host(c.Payload.(*Flow).Spec.Src).Egress.Inject(c)
	}
	return f
}

// getChunk returns a zeroed chunk from the free list, or a fresh one.
func (f *Fabric) getChunk() *qdisc.Chunk {
	if n := len(f.chunkFree); n > 0 {
		c := f.chunkFree[n-1]
		f.chunkFree[n-1] = nil
		f.chunkFree = f.chunkFree[:n-1]
		return c
	}
	return &qdisc.Chunk{}
}

// putChunk recycles a delivered chunk.
func (f *Fabric) putChunk(c *qdisc.Chunk) {
	c.Reset()
	f.chunkFree = append(f.chunkFree, c)
}

// newFlow returns a zeroed Flow from the free list or the arena.
// Callers set every non-zero field themselves (ID, Spec, Started,
// FirstByte, Finished).
func (f *Fabric) newFlow() *Flow {
	if n := len(f.flowFree); n > 0 {
		fl := f.flowFree[n-1]
		f.flowFree[n-1] = nil
		f.flowFree = f.flowFree[:n-1]
		return fl
	}
	if len(f.flowArena) == 0 {
		f.flowArena = make([]Flow, 256)
	}
	fl := &f.flowArena[0]
	f.flowArena = f.flowArena[1:]
	return fl
}

// releaseFlow recycles a completed Transient flow: cleared back to the
// zero state newFlow promises, so pooled and arena flows are
// indistinguishable to the send paths. The emptied chunk list stays for
// makeChunks to refill.
func (f *Fabric) releaseFlow(fl *Flow) {
	chunks := fl.chunks
	clear(chunks)
	*fl = Flow{chunks: chunks[:0]}
	f.flowFree = append(f.flowFree, fl)
}

// Config returns the fabric configuration (defaults filled).
func (f *Fabric) Config() Config { return f.cfg }

// Kernel returns the simulation kernel the fabric runs on.
func (f *Fabric) Kernel() *sim.Kernel { return f.k }

// AddHost creates a host with default (pfifo) egress.
func (f *Fabric) AddHost(name string) *Host {
	rateBytes := f.cfg.LinkRateBps / 8
	h := &Host{
		ID:     len(f.hosts),
		Name:   name,
		fabric: f,
	}
	h.Egress = newPort(f, h, "egress", rateBytes, qdisc.NewPFIFO())
	h.Ingress = newPort(f, h, "ingress", rateBytes, qdisc.NewPFIFO())
	if f.topo != nil {
		panic("simnet: AddHost after the topology was built")
	}
	f.hosts = append(f.hosts, h)
	return h
}

// newFlowID assigns the next fabric-wide flow ID.
func (f *Fabric) newFlowID() uint64 {
	f.nextFlowID++
	return f.nextFlowID
}

// Host returns host i.
func (f *Fabric) Host(i int) *Host {
	if i < 0 || i >= len(f.hosts) {
		panic(fmt.Sprintf("simnet: host %d out of range [0,%d)", i, len(f.hosts)))
	}
	return f.hosts[i]
}

// NumHosts returns the host count.
func (f *Fabric) NumHosts() int { return len(f.hosts) }

// Topology returns the fabric's routed topology, building it on first
// call. Call only after every AddHost: the topology is sized to the
// host set and is immutable once built (AddHost afterwards panics).
func (f *Fabric) Topology() Topology {
	if f.topo == nil {
		f.topo = buildTopology(f)
	}
	return f.topo
}

// CoreLinks returns the fabric's contended core links in ID order
// (empty on the flat topology). Fault injection addresses links through
// this slice.
func (f *Fabric) CoreLinks() []*Link { return f.Topology().Links() }

// CoreLink returns the core link with the given ID.
func (f *Fabric) CoreLink(id int) *Link {
	links := f.CoreLinks()
	if id < 0 || id >= len(links) {
		panic(fmt.Sprintf("simnet: core link %d out of range [0,%d)", id, len(links)))
	}
	return links[id]
}

// Hosts returns the host slice (do not mutate).
func (f *Fabric) Hosts() []*Host { return f.hosts }

// ActiveFlows returns the number of in-flight flows.
func (f *Fabric) ActiveFlows() int { return f.active }

// DroppedChunks returns the number of chunks lost to injected drops
// (each was subsequently retransmitted).
func (f *Fabric) DroppedChunks() uint64 { return f.droppedChunks }

// chunkLost handles an egress chunk lost on the wire: the sender
// detects the loss after the retransmission timeout and re-injects the
// chunk into its egress qdisc. Delivery accounting is untouched — the
// destination never saw the bytes.
func (f *Fabric) chunkLost(p *Port, ch *qdisc.Chunk) {
	f.droppedChunks++
	if f.Tracer != nil {
		fl := ch.Payload.(*Flow)
		f.Tracer.Emit(trace.Event{
			At: f.k.Now(), Kind: trace.KindChunkDrop,
			Job: fl.Spec.JobID, Host: fl.Spec.Src, Worker: -1,
			Value:  float64(ch.Bytes),
			Detail: fmt.Sprintf("flow=%d seq=%d", fl.ID, ch.Seq),
		})
	}
	ch.Retrans = true
	f.k.PostArgAfter(f.cfg.RetransmitTimeoutSec, f.retransmitFn, ch)
}

// CompletedFlows returns the number of flows fully delivered.
func (f *Fabric) CompletedFlows() uint64 { return f.completed }

// Host is one server with a full-duplex NIC.
type Host struct {
	ID      int
	Name    string
	fabric  *Fabric
	Egress  *Port
	Ingress *Port
	// dropProb is the injected per-chunk loss probability on egress
	// transmissions from this host (0 = healthy NIC).
	dropProb float64
}

// SetNICDown takes the host's NIC down (both directions) or brings it
// back up. While down, queued and arriving chunks are held; no data is
// lost and all service resumes when the NIC comes back — the flap shows
// up purely as delay, the way a link flap under TCP does.
func (h *Host) SetNICDown(down bool) {
	h.Egress.SetDown(down)
	h.Ingress.SetDown(down)
}

// NICDown reports whether the host NIC is currently down.
func (h *Host) NICDown() bool { return h.Egress.Down() }

// SetChunkDropProb sets the injected per-chunk loss probability for
// egress transmissions from this host. Lost chunks are retransmitted by
// the sender after Config.RetransmitTimeoutSec, so flows still complete
// — slower, as under a lossy link with TCP retransmission.
func (h *Host) SetChunkDropProb(p float64) {
	if p < 0 || p >= 1 {
		panic(fmt.Sprintf("simnet: chunk drop probability %g outside [0,1)", p))
	}
	h.dropProb = p
	h.Egress.notifyFlow()
}

// ChunkDropProb returns the injected per-chunk loss probability.
func (h *Host) ChunkDropProb() float64 { return h.dropProb }

// SetEgressQdisc replaces the egress queueing discipline. Any chunks in
// the old qdisc are drained into the new one in dequeue order, so a tc
// reconfiguration never loses in-flight data.
func (h *Host) SetEgressQdisc(q qdisc.Qdisc) {
	h.Egress.replaceQdisc(q)
	h.fabric.EgressReconfigured(h.ID)
}

// FlowSpec describes one transfer.
type FlowSpec struct {
	Src, Dst         int // host ids
	SrcPort, DstPort int
	JobID            int
	Bytes            int64
	// OnComplete fires when the last byte is received at Dst.
	OnComplete func(fl *Flow)
	// Transient permits the fabric to recycle the Flow struct once the
	// transfer completes and OnComplete (if any) has returned. Callers
	// setting it must not retain the *Flow — neither Send's return value
	// nor the callback argument — past that point. The protocol layers
	// (dl, collective) send millions of fire-and-forget transfers and
	// set it; experiments that inspect flows after the run leave it off.
	Transient bool
}

// Flow is an in-flight or completed transfer.
type Flow struct {
	ID                uint64
	Spec              FlowSpec
	Started           float64
	FirstByte         float64 // first chunk delivery time; -1 until then
	Finished          float64 // completion time; -1 until then
	deliveredBytes    int64
	chunksOutstanding int
	// window is the socket window in chunks; chunks is the whole chunk
	// list and chunks[next:] the chunks not yet admitted to the egress
	// qdisc.
	window int
	chunks []*qdisc.Chunk
	next   int
	// route is the ordered core links the flow's chunks traverse
	// between the source egress and destination ingress NICs (nil on
	// single-hop paths: flat topology, or same-rack in leaf-spine).
	route []*Link
	// Flow-mode state: the frozen pipeline-fill tail between the fluid
	// demand draining and the last byte's arrival, the egress priority
	// band the flow was classified into, and its flownet handle (see
	// flowmode.go).
	flowLatency float64
	flowBand    int
	flowHandle  flownet.Handle
}

// Route returns the flow's core-link path (nil for single-hop paths).
func (fl *Flow) Route() []*Link { return fl.route }

// Window returns the flow's socket window in chunks.
func (fl *Flow) Window() int { return fl.window }

// Delivered returns bytes received so far at the destination.
func (fl *Flow) Delivered() int64 { return fl.deliveredBytes }

// Done reports whether the flow has fully arrived.
func (fl *Flow) Done() bool { return fl.Finished >= 0 }

// Send starts a single flow, enqueueing all its chunks in order.
func (f *Fabric) Send(spec FlowSpec) *Flow {
	// Both modes draw RNG exactly as a one-spec burst would.
	now := f.k.Now()
	if f.cfg.Mode == ModeFlow {
		fl, _ := f.sendOneFlow(spec.Src, spec, now)
		return fl
	}
	// A single flow's first window injects in order, with no jitter
	// draw, so no interleave is needed.
	fl, window := f.startChunkFlow(spec.Src, spec, now)
	egress := f.Host(spec.Src).Egress
	for _, ch := range window {
		egress.enqueue(ch, now)
	}
	egress.kick()
	return fl
}

// SendBurst starts several flows from one sender "simultaneously" — the
// way a parameter server writes a model update to all of its workers'
// sockets in one tight loop. Chunks are injected round robin across the
// flows (with seeded shuffling when InjectJitter > 0), which reproduces
// TCP's approximately-fair-but-noisy interleaving inside the egress
// queue: every flow's tail chunk lands near the end of the burst, so
// under FIFO contention the per-flow completion times spread across the
// whole service window.
//
// The returned flows, in specs order, sit in a slice the fabric reuses:
// it stays valid until the next SendBurst call.
func (f *Fabric) SendBurst(src int, specs []FlowSpec) []*Flow {
	if f.cfg.Mode == ModeFlow {
		return f.sendBurstFlow(src, specs)
	}
	now := f.k.Now()
	flows, lists := f.burstFlows[:0], f.burstLists[:0]
	for _, spec := range specs {
		fl, window := f.startChunkFlow(src, spec, now)
		flows = append(flows, fl)
		lists = append(lists, window)
	}
	srcHost := f.Host(src)
	f.interleave(srcHost.Egress, lists, now)
	srcHost.Egress.kick()
	clear(lists) // pin no flow's chunk list until the next burst
	f.burstFlows, f.burstLists = flows, lists
	return flows
}

// startChunkFlow creates one chunk-fabric flow from src and returns it
// with its first window: the chunks to inject now, the rest following
// as the window drains. Loopback flows bypass the NIC and return no
// window.
func (f *Fabric) startChunkFlow(src int, spec FlowSpec, now float64) (*Flow, []*qdisc.Chunk) {
	if spec.Src != src {
		panic("simnet: SendBurst specs must share src")
	}
	if spec.Bytes <= 0 {
		panic("simnet: flow bytes must be positive")
	}
	fl := f.newFlow()
	fl.ID, fl.Spec, fl.Started, fl.FirstByte, fl.Finished = f.newFlowID(), spec, now, -1, -1
	fl.window = f.sampleWindow()
	f.active++
	f.makeChunks(fl)
	fl.chunksOutstanding = len(fl.chunks)
	if spec.Dst == src {
		// Loopback: bypass the NIC (and windowing) entirely.
		for _, ch := range fl.chunks {
			f.deliverLoopback(fl, ch)
		}
		fl.next = len(fl.chunks)
		return fl, nil
	}
	// Routing is a pure flow-hash lookup (no RNG), so computing it
	// here perturbs nothing on the flat topology.
	fl.route = f.Topology().Route(spec.Src, spec.Dst, spec.SrcPort, spec.DstPort)
	fl.next = min(fl.window, len(fl.chunks))
	return fl, fl.chunks[:fl.next]
}

// sampleWindow draws a flow's socket window from the configured
// distribution.
func (f *Fabric) sampleWindow() int {
	if len(f.cfg.WindowWeights) > 0 {
		total := 0.0
		for _, w := range f.cfg.WindowWeights {
			if w > 0 {
				total += w
			}
		}
		if total > 0 {
			r := f.rng.Float64() * total
			for i, w := range f.cfg.WindowWeights {
				if w <= 0 {
					continue
				}
				if r < w {
					return i + 1
				}
				r -= w
			}
			return len(f.cfg.WindowWeights)
		}
	}
	w := f.cfg.MinWindowChunks
	if span := f.cfg.MaxWindowChunks - f.cfg.MinWindowChunks; span > 0 {
		w += f.rng.Intn(span + 1)
	}
	return w
}

// chunkDequeued fires when an egress port transmits a chunk: the flow's
// socket refills the freed qdisc space with its next pending chunk.
// Retransmissions occupy no fresh window space, so they trigger no
// refill.
func (f *Fabric) chunkDequeued(p *Port, ch *qdisc.Chunk) {
	if ch.Retrans {
		ch.Retrans = false
		return
	}
	fl := ch.Payload.(*Flow)
	if fl.next == len(fl.chunks) {
		return
	}
	next := fl.chunks[fl.next]
	fl.next++
	p.enqueue(next, f.k.Now())
}

// interleave enqueues the per-flow chunk lists into port p in one
// injection order, preserving each flow's internal order; it consumes
// lists. With InjectJitter > 0 the merge is a weighted-random interleave
// (each next chunk drawn from a flow with probability proportional to
// its remaining chunks), which models the persistent unfairness of
// concurrent TCP streams: some sockets randomly drain earlier than
// others, so per-flow completion times spread across the burst's
// service window. With jitter 0 the merge is a deterministic round
// robin.
func (f *Fabric) interleave(p *Port, lists [][]*qdisc.Chunk, now float64) {
	total := 0
	maxChunks := 0
	for _, cl := range lists {
		total += len(cl)
		if len(cl) > maxChunks {
			maxChunks = len(cl)
		}
	}
	if f.cfg.InjectJitter <= 0 || len(lists) == 1 {
		for r := 0; r < maxChunks; r++ {
			for _, cl := range lists {
				if r < len(cl) {
					p.enqueue(cl[r], now)
				}
			}
		}
		return
	}
	for remaining := total; remaining > 0; remaining-- {
		pick := f.rng.Intn(remaining)
		for i, cl := range lists {
			if pick < len(cl) {
				p.enqueue(cl[0], now)
				lists[i] = cl[1:]
				break
			}
			pick -= len(cl)
		}
	}
}

// makeChunks splits the flow into chunk descriptors, refilling the
// flow's chunk list in place.
func (f *Fabric) makeChunks(fl *Flow) {
	n := int((fl.Spec.Bytes + f.cfg.ChunkBytes - 1) / f.cfg.ChunkBytes)
	if cap(fl.chunks) < n {
		fl.chunks = make([]*qdisc.Chunk, n)
	}
	chunks := fl.chunks[:n]
	remaining := fl.Spec.Bytes
	for i := range chunks {
		sz := f.cfg.ChunkBytes
		if remaining < sz {
			sz = remaining
		}
		remaining -= sz
		c := f.getChunk()
		c.FlowID = fl.ID
		c.SrcPort = fl.Spec.SrcPort
		c.Bytes = sz
		c.Seq = i
		c.Last = i == n-1
		c.Payload = fl
		chunks[i] = c
	}
	fl.chunks = chunks
}

// forwardFromEgress routes a chunk leaving its source NIC: straight to
// the destination ingress on single-hop paths (the pre-topology
// behaviour, event-for-event), or onto the first core link of the
// flow's route.
func (f *Fabric) forwardFromEgress(c *qdisc.Chunk) {
	fl := c.Payload.(*Flow)
	if len(fl.route) == 0 {
		f.k.PostArgAfter(f.cfg.PropDelaySec, f.deliverIngressFn, c)
		return
	}
	c.Hop = 0
	f.k.PostArgAfter(f.cfg.Topology.HopDelaySec, f.injectRouteFn, c)
}

// forwardFromLink advances a chunk that finished serving on a core
// link: to the next link on the route, or into the destination ingress.
func (f *Fabric) forwardFromLink(c *qdisc.Chunk) {
	fl := c.Payload.(*Flow)
	c.Hop++
	hop := f.cfg.Topology.HopDelaySec
	if c.Hop < len(fl.route) {
		f.k.PostArgAfter(hop, f.injectRouteFn, c)
		return
	}
	f.k.PostArgAfter(hop, f.deliverIngressFn, c)
}

func (f *Fabric) deliverLoopback(fl *Flow, ch *qdisc.Chunk) {
	// Memory-speed copy: model as propagation delay only.
	f.k.PostArgAfter(f.cfg.PropDelaySec, f.chunkDeliveredFn, ch)
}

// chunkDelivered accounts a chunk's arrival at its destination and
// recycles the chunk struct: nothing retains a delivered chunk.
func (f *Fabric) chunkDelivered(ch *qdisc.Chunk) {
	fl := ch.Payload.(*Flow)
	if fl.FirstByte < 0 {
		fl.FirstByte = f.k.Now()
	}
	fl.deliveredBytes += ch.Bytes
	fl.chunksOutstanding--
	f.putChunk(ch)
	if fl.chunksOutstanding == 0 {
		if fl.deliveredBytes != fl.Spec.Bytes {
			panic(fmt.Sprintf("simnet: flow %d delivered %d of %d bytes",
				fl.ID, fl.deliveredBytes, fl.Spec.Bytes))
		}
		fl.Finished = f.k.Now()
		f.active--
		f.completed++
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
		} else {
			fl.chunks = nil // a retained flow need not pin its chunk list
		}
	}
}
