package simnet

import (
	"fmt"

	"repro/internal/qdisc"
	"repro/internal/sim"
)

// Port is a rate-limited server draining a queueing discipline: one
// direction of a host NIC, or a core link inside a routed topology.
// Egress ports carry the configurable qdisc (where tc — and thus
// TensorLights — operates); ingress ports are fixed FIFO, matching
// Linux, where tc shapes only outbound traffic; link ports serve a
// topology-owned core link (host is nil there, link is set).
type Port struct {
	fabric *Fabric
	host   *Host
	link   *Link
	dir    string // "egress" | "ingress" | "link"

	rateBytes float64 // bytes/sec service rate
	q         qdisc.Qdisc

	// Fault state: a down port holds its queue without serving; a
	// degraded port serves at rateBytes*rateFactor. Both model NIC and
	// link-level failures injected by internal/faults.
	down       bool
	rateFactor float64

	busy bool
	wake *sim.Event
	// serveDone is the long-lived transmission-complete callback; built
	// once per port so serving a chunk allocates no closure.
	serveDone func(any)
	// flowLink is this port's link ID in the analytic flow engine; -1
	// until flow mode builds its link map (always -1 in chunk mode).
	flowLink int
	// Accounting for utilization measurements.
	txBytes  int64
	txChunks int64
	busyTime float64
}

func newPort(f *Fabric, h *Host, dir string, rateBytes float64, q qdisc.Qdisc) *Port {
	p := &Port{fabric: f, host: h, dir: dir, rateBytes: rateBytes, rateFactor: 1, q: q, flowLink: -1}
	p.serveDone = p.finishService
	return p
}

func newLinkPort(f *Fabric, l *Link, rateBytes float64, q qdisc.Qdisc) *Port {
	p := &Port{fabric: f, link: l, dir: "link", rateBytes: rateBytes, rateFactor: 1, q: q, flowLink: -1}
	p.serveDone = p.finishService
	return p
}

// Link returns the core link this port serves, or nil for a NIC port.
func (p *Port) Link() *Link { return p.link }

// Down reports whether the port is administratively down.
func (p *Port) Down() bool { return p.down }

// SetDown raises or lowers the port. While down the port stops serving;
// queued and newly arriving chunks are held (nothing is lost — the
// switch buffers toward a down NIC) and service resumes on the next
// kick after the port comes back up. A chunk already on the wire when
// the port goes down completes its transmission.
func (p *Port) SetDown(down bool) {
	if p.down == down {
		return
	}
	p.down = down
	p.notifyFlow()
	if !down {
		p.kick()
	}
}

// RateFactor returns the current service-rate multiplier (1 = healthy).
func (p *Port) RateFactor() float64 { return p.rateFactor }

// SetRateFactor degrades (or restores) the port's service rate: the
// effective rate becomes rateBytes*f. Used by fault injection to model
// a flapping or auto-negotiated-down NIC. f must be positive.
func (p *Port) SetRateFactor(f float64) {
	if f <= 0 {
		panic(fmt.Sprintf("simnet: rate factor must be positive, got %g", f))
	}
	p.rateFactor = f
	p.notifyFlow()
}

// Qdisc returns the port's queueing discipline.
func (p *Port) Qdisc() qdisc.Qdisc { return p.q }

// RateBytes returns the service rate in bytes/sec.
func (p *Port) RateBytes() float64 { return p.rateBytes }

// flowStats returns the analytic engine and this port's link when flow
// mode is active for the port, syncing the fluid state to now so the
// counters read current.
func (p *Port) flowStats() (*flowMode, int, bool) {
	fm := p.fabric.flow
	if fm == nil || p.flowLink < 0 {
		return nil, 0, false
	}
	fm.eng.Sync()
	return fm, p.flowLink, true
}

// Bytes returns cumulative bytes transmitted through the port.
func (p *Port) Bytes() int64 {
	if fm, l, ok := p.flowStats(); ok {
		return int64(fm.eng.LinkServedBytes(l) + 0.5)
	}
	return p.txBytes
}

// Chunks returns cumulative chunks transmitted through the port. In
// flow mode no chunks exist; the count is the served bytes divided by
// the chunk size, so chunk-rate metrics stay comparable across modes.
func (p *Port) Chunks() int64 {
	if fm, l, ok := p.flowStats(); ok {
		return int64(fm.eng.LinkServedBytes(l) / float64(p.fabric.cfg.ChunkBytes))
	}
	return p.txChunks
}

// BusyTime returns cumulative seconds the port spent serving chunks.
// In flow mode this is the integral of the link's utilization — the
// analytic analogue used by the same metrics.
func (p *Port) BusyTime() float64 {
	if fm, l, ok := p.flowStats(); ok {
		return fm.eng.LinkBusySeconds(l)
	}
	return p.busyTime
}

// QueuedBytes returns the current qdisc backlog in bytes. In flow mode
// it is the bytes still to be served across the port's link — note this
// counts whole remaining transfers, where the chunk fabric counts only
// window-admitted chunks.
func (p *Port) QueuedBytes() int64 {
	if fm, l, ok := p.flowStats(); ok {
		return int64(fm.eng.LinkBacklogBytes(l))
	}
	return p.q.BacklogBytes()
}

// replaceQdisc swaps disciplines, draining queued chunks into the new
// one in the old discipline's dequeue order. Losing a queued chunk here
// would deadlock whichever transfer owned it, so a drain that cannot
// make progress is a model bug and panics.
func (p *Port) replaceQdisc(q qdisc.Qdisc) {
	now := p.fabric.k.Now()
	old := p.q
	p.q = q
	if old != nil {
		for old.Len() > 0 {
			c := old.Dequeue(now)
			if c == nil {
				// Shaped qdisc gating a non-empty queue: advance its
				// virtual clock so tokens refill; no data may be lost
				// on reconfiguration.
				c = forceDrain(old, now)
			}
			q.Enqueue(c, now)
		}
	}
	p.kick()
}

// forceDrain extracts one chunk from a gated, non-empty qdisc by
// advancing its virtual clock until tokens refill.
func forceDrain(q qdisc.Qdisc, now float64) *qdisc.Chunk {
	at := q.ReadyAt(now)
	for i := 0; i < 64; i++ {
		if at >= qdisc.Never {
			break
		}
		if c := q.Dequeue(at); c != nil {
			return c
		}
		// Defensive: nudge past any residual floating-point gating.
		at = q.ReadyAt(at) + 1e-9*float64(int64(1)<<i)
	}
	panic(fmt.Sprintf("simnet: cannot drain %s qdisc with %d chunks queued",
		q.Kind(), q.Len()))
}

// enqueue inserts a chunk without kicking the server; callers batch
// enqueues then kick once.
func (p *Port) enqueue(c *qdisc.Chunk, now float64) {
	p.q.Enqueue(c, now)
}

// Inject enqueues a chunk and kicks the port (used by the switch for
// ingress delivery and by tests).
func (p *Port) Inject(c *qdisc.Chunk) {
	p.q.Enqueue(c, p.fabric.k.Now())
	p.kick()
}

// kick starts service if the port is up, idle and the qdisc can
// transmit.
func (p *Port) kick() {
	if p.busy || p.down {
		return
	}
	now := p.fabric.k.Now()
	at := p.q.ReadyAt(now)
	if at >= qdisc.Never {
		return
	}
	if at <= now {
		p.serveNext()
		return
	}
	// Gated by shaping: arrange a wakeup, replacing any earlier one.
	if p.wake != nil && p.wake.Pending() && p.wake.At() <= at {
		return
	}
	p.fabric.k.Cancel(p.wake)
	p.wake = p.fabric.k.Schedule(at, func() {
		p.wake = nil
		p.kick()
	})
}

// serveNext dequeues one chunk and transmits it.
func (p *Port) serveNext() {
	now := p.fabric.k.Now()
	c := p.q.Dequeue(now)
	if c == nil {
		p.kick() // re-evaluate gating
		return
	}
	p.busy = true
	if p.dir == "egress" {
		// The chunk left the qdisc: the owning socket may admit its
		// next chunk into the freed space.
		p.fabric.chunkDequeued(p, c)
	}
	service := float64(c.Bytes) * p.fabric.cfg.WireOverhead / (p.rateBytes * p.rateFactor)
	p.busyTime += service
	p.txBytes += c.Bytes
	p.txChunks++
	p.fabric.k.PostArgAfter(service, p.serveDone, c)
}

// finishService is the transmission-complete event (serveDone).
func (p *Port) finishService(a any) {
	p.busy = false
	p.finishChunk(a.(*qdisc.Chunk))
	p.kick()
}

// finishChunk routes a served chunk onward: egress hands to the fabric
// topology (a propagation delay then the destination ingress or the
// first core link of the flow's route), a core link forwards along the
// route, and ingress delivers to the flow. An egress chunk may be lost
// on the wire when fault injection has set a drop probability on the
// host; the sender then retransmits it after the retransmission
// timeout, as TCP would.
func (p *Port) finishChunk(c *qdisc.Chunk) {
	switch p.dir {
	case "egress":
		if pr := p.host.dropProb; pr > 0 && p.fabric.dropRNG.Float64() < pr {
			p.fabric.chunkLost(p, c)
			return
		}
		p.fabric.forwardFromEgress(c)
	case "link":
		p.fabric.forwardFromLink(c)
	default:
		p.fabric.chunkDelivered(c)
	}
}
