package qdisc

import "fmt"

// Prio is a strict-priority qdisc with N bands (tc's `prio`). Chunks are
// classified into a band by the attached filter chain; Dequeue always
// serves the lowest-numbered non-empty band. Within a band, order is
// FIFO. Strict priority is work-conserving: the link never idles while
// any band holds a chunk, which is why TensorLights preserves aggregate
// throughput while reordering who finishes first.
type Prio struct {
	bands      []*PFIFO
	classifier *Classifier
	stats      Stats
}

// NewPrio returns a prio qdisc with the given number of bands (>= 1).
// Unmatched chunks fall into the last (lowest-priority) band.
func NewPrio(bands int) *Prio {
	if bands < 1 {
		panic(fmt.Sprintf("qdisc: prio needs >=1 band, got %d", bands))
	}
	p := &Prio{
		bands:      make([]*PFIFO, bands),
		classifier: NewClassifier(ClassID(bands - 1)),
	}
	for i := range p.bands {
		p.bands[i] = NewPFIFO()
	}
	return p
}

// Bands returns the number of priority bands.
func (p *Prio) Bands() int { return len(p.bands) }

// Classifier exposes the filter chain for configuration.
func (p *Prio) Classifier() *Classifier { return p.classifier }

// Band returns the backing FIFO for band i (for stats inspection).
func (p *Prio) Band(i int) *PFIFO { return p.bands[i] }

// Enqueue classifies the chunk into a band. Out-of-range targets clamp
// to the last band rather than dropping: misconfiguration should degrade
// to low priority, not lose traffic.
func (p *Prio) Enqueue(c *Chunk, now float64) {
	b := int(p.classifier.Classify(c))
	if b < 0 || b >= len(p.bands) {
		b = len(p.bands) - 1
	}
	p.bands[b].Enqueue(c, now)
	p.stats.EnqueuedPackets++
	p.stats.EnqueuedBytes += uint64(c.Bytes)
}

// Dequeue serves the lowest-numbered non-empty band.
func (p *Prio) Dequeue(now float64) *Chunk {
	for _, b := range p.bands {
		if c := b.Dequeue(now); c != nil {
			p.stats.DequeuedPackets++
			p.stats.DequeuedBytes += uint64(c.Bytes)
			return c
		}
	}
	return nil
}

// ReadyAt returns now when any band is non-empty.
func (p *Prio) ReadyAt(now float64) float64 {
	for _, b := range p.bands {
		if b.Len() > 0 {
			return now
		}
	}
	return Never
}

// Len returns the total queued chunks across bands.
func (p *Prio) Len() int {
	n := 0
	for _, b := range p.bands {
		n += b.Len()
	}
	return n
}

// BacklogBytes returns total queued bytes across bands.
func (p *Prio) BacklogBytes() int64 {
	var n int64
	for _, b := range p.bands {
		n += b.BacklogBytes()
	}
	return n
}

// Stats returns a copy of the aggregate counters; mutating it does not
// affect the qdisc.
func (p *Prio) Stats() Stats { return p.stats }

// BandDequeuedBytes returns cumulative dequeued bytes per band index
// as a fresh map (BandCounter).
func (p *Prio) BandDequeuedBytes() map[int]uint64 {
	out := make(map[int]uint64, len(p.bands))
	for i, b := range p.bands {
		out[i] = b.Stats().DequeuedBytes
	}
	return out
}

// Kind returns "prio".
func (p *Prio) Kind() string { return "prio" }
