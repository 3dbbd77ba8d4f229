// Package qdisc implements the queueing disciplines the simulated
// fabric and the TensorLights controller install: pfifo (every port's
// default), htb (the paper's actuator), prio (the strict-priority
// ablation), plus a source-port classifier. The unit of transmission
// is a Chunk (an application-level write of up to a few hundred KB);
// the network fabric in internal/simnet serializes chunks onto links,
// and the qdisc at each NIC egress decides ordering.
package qdisc

import "math"

// Never is returned by ReadyAt when a qdisc holds no dequeueable chunk.
const Never = math.MaxFloat64

// Chunk is the unit queued through a qdisc. Chunks belong to a Flow (a
// single logical transfer, e.g. one model update to one worker);
// SrcPort is the one field tc filters match on.
type Chunk struct {
	FlowID  uint64 // unique per transfer
	SrcPort int    // TCP source port at the sender (PS port for updates)
	Bytes   int64  // payload size of this chunk
	Seq     int    // index of this chunk within its flow
	Last    bool   // true on the final chunk of the flow
	Retrans bool   // true when re-injected after a wire loss
	// Hop is the index of the core link the chunk is currently
	// traversing on its flow's route (managed by internal/simnet's
	// fabric; always 0 on the flat topology, where flows take no core
	// links). Qdiscs never inspect it.
	Hop int

	// Payload carries opaque fabric state (e.g. delivery target);
	// qdiscs never inspect it.
	Payload any

	enqueuedAt float64
}

// EnqueuedAt returns the time the chunk entered its current qdisc.
func (c *Chunk) EnqueuedAt() float64 { return c.enqueuedAt }

// Reset zeroes the chunk for reuse through a free list. The fabric
// recycles chunk structs once delivered; qdiscs never retain a chunk
// after Dequeue, so a delivered chunk has no aliases.
func (c *Chunk) Reset() { *c = Chunk{} }

// Stats counts qdisc activity, mirroring `tc -s qdisc show`.
type Stats struct {
	EnqueuedPackets uint64
	EnqueuedBytes   uint64
	DequeuedPackets uint64
	DequeuedBytes   uint64
	DroppedPackets  uint64
	DroppedBytes    uint64
	Overlimits      uint64 // dequeue attempts gated by shaping
}

// Backlog returns queued bytes implied by the counters.
func (s *Stats) Backlog() int64 {
	return int64(s.EnqueuedBytes) - int64(s.DequeuedBytes) - int64(s.DroppedBytes)
}

// BandCounter is implemented by classful qdiscs that expose cumulative
// per-band dequeued bytes, keyed by band/class id. Implementations
// return a fresh map on every call: mutating the result cannot corrupt
// the live counters. TensorLights' feedback collector reads these to
// attribute attained service to jobs by their assigned band.
type BandCounter interface {
	BandDequeuedBytes() map[int]uint64
}

// Qdisc is a queueing discipline. Implementations are single-threaded:
// the simulation kernel serializes all calls.
//
// No discipline here drops: every queue is unbounded, modelling a
// backpressured sender that never loses data. Dequeue returns nil if nothing may be sent at `now` (empty, or
// gated by shaping); ReadyAt reports the earliest time a subsequent
// Dequeue can succeed, or Never when empty.
type Qdisc interface {
	Enqueue(c *Chunk, now float64)
	Dequeue(now float64) *Chunk
	ReadyAt(now float64) float64
	Len() int
	BacklogBytes() int64
	Stats() Stats
	Kind() string
}

// fifoQueue is a simple chunk ring used by every qdisc.
type fifoQueue struct {
	items []*Chunk
	head  int
	bytes int64
}

func (q *fifoQueue) push(c *Chunk) {
	q.items = append(q.items, c)
	q.bytes += c.Bytes
}

func (q *fifoQueue) pop() *Chunk {
	if q.head >= len(q.items) {
		return nil
	}
	c := q.items[q.head]
	q.items[q.head] = nil
	q.head++
	q.bytes -= c.Bytes
	if q.head == len(q.items) {
		// Drained: refill from the front of the same backing array
		// rather than appending past its end.
		q.items = q.items[:0]
		q.head = 0
		return c
	}
	// Compact occasionally so memory stays proportional to occupancy.
	if q.head > 64 && q.head*2 >= len(q.items) {
		n := copy(q.items, q.items[q.head:])
		for i := n; i < len(q.items); i++ {
			q.items[i] = nil
		}
		q.items = q.items[:n]
		q.head = 0
	}
	return c
}

func (q *fifoQueue) peek() *Chunk {
	if q.head >= len(q.items) {
		return nil
	}
	return q.items[q.head]
}

func (q *fifoQueue) len() int { return len(q.items) - q.head }
