package qdisc

// PFIFO is the default first-come-first-serve qdisc: chunks dequeue in
// arrival order. This is the paper's baseline ("FIFO"): when bursts from
// several colocated parameter servers overlap, their chunks interleave
// in arrival order and every flow's tail lands near the end of the
// combined backlog — the mechanism behind worker stragglers.
type PFIFO struct {
	q     fifoQueue
	stats Stats
}

// NewPFIFO returns an unbounded pfifo, which models a backpressured
// sender that never loses data.
func NewPFIFO() *PFIFO {
	return &PFIFO{}
}

// Enqueue appends the chunk.
func (p *PFIFO) Enqueue(c *Chunk, now float64) {
	c.enqueuedAt = now
	p.q.push(c)
	p.stats.EnqueuedPackets++
	p.stats.EnqueuedBytes += uint64(c.Bytes)
}

// Dequeue removes and returns the oldest chunk, or nil when empty.
func (p *PFIFO) Dequeue(now float64) *Chunk {
	c := p.q.pop()
	if c != nil {
		p.stats.DequeuedPackets++
		p.stats.DequeuedBytes += uint64(c.Bytes)
	}
	return c
}

// ReadyAt returns now when non-empty, Never otherwise.
func (p *PFIFO) ReadyAt(now float64) float64 {
	if p.q.len() > 0 {
		return now
	}
	return Never
}

// Len returns the number of queued chunks.
func (p *PFIFO) Len() int { return p.q.len() }

// BacklogBytes returns the queued byte count.
func (p *PFIFO) BacklogBytes() int64 { return p.q.bytes }

// Stats returns a copy of the counters.
func (p *PFIFO) Stats() Stats { return p.stats }

// Kind returns "pfifo".
func (p *PFIFO) Kind() string { return "pfifo" }
