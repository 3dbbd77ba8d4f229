package qdisc

import (
	"fmt"
	"slices"
	"sort"
)

// HTB is a two-level hierarchical token bucket: a root class bounded by
// the link ceil, and leaf classes each with a guaranteed rate, a ceil, a
// borrowing priority and a fixed DRR quantum. This mirrors how the paper
// deploys TensorLights: `tc qdisc add ... root htb` plus one leaf class
// per priority band, where each leaf has a tiny guaranteed rate and full
// ceil so that the borrowing priority realizes strict prioritization
// while remaining work-conserving.
//
// Semantics follow htb's documented behaviour:
//
//   - a leaf whose own token bucket is non-negative is "green" and may
//     send at its guaranteed rate regardless of priority;
//   - otherwise, if its ceil bucket and the root bucket are non-negative
//     it is "yellow" and may borrow, with lower Prio values offered the
//     excess bandwidth first;
//   - equal-priority leaves share via deficit round robin with an
//     equal quantum (htbQuantum), so they split borrowed bandwidth
//     evenly.
type HTB struct {
	rootRate   float64 // bytes/sec available for borrowing
	rootTokens float64
	lastUpdate float64

	// classes looks a leaf up by id; order holds the same leaves sorted
	// by id and is what every per-chunk loop walks, so the only map
	// accesses per chunk are Enqueue's class lookup and the DRR cursor.
	classes    map[ClassID]*HTBClass
	order      []*HTBClass
	classifier *Classifier
	defClass   ClassID
	stats      Stats

	// direct holds chunks that classify to a nonexistent class. Linux
	// htb sends such packets out unshaped at hardware speed ("direct
	// packets"); modelling this matters because a tc reconfiguration
	// momentarily has a classless htb root, and dropping in-flight
	// model updates there would deadlock synchronous training.
	direct        fifoQueue
	directPackets uint64

	// rrPos holds the round-robin cursor per priority level.
	rrPos map[int]int
	// levels is prioLevels' reused result buffer.
	levels []int
}

// HTBClassConfig configures a leaf class. Rates are bytes/sec; both of
// a class's buckets hold htbBurst bytes.
type HTBClassConfig struct {
	Rate float64
	Ceil float64
	Prio int
}

// HTBClass is a leaf class with its own FIFO.
type HTBClass struct {
	ID      ClassID
	cfg     HTBClassConfig
	tokens  float64
	ctokens float64
	deficit float64
	q       fifoQueue
	stats   Stats
}

// Config returns the class configuration.
func (c *HTBClass) Config() HTBClassConfig { return c.cfg }

// Stats returns per-class counters.
func (c *HTBClass) Stats() Stats { return c.stats }

// Len returns chunks queued in this class.
func (c *HTBClass) Len() int { return c.q.len() }

// htbBurst sizes every bucket (root, rate and ceil) so one
// maximum-size chunk always fits.
const htbBurst = 512 * 1024

// htbQuantum is every class's DRR quantum in bytes.
const htbQuantum = 256 * 1024

// NewHTB creates an htb with the given link rate (bytes/sec). Chunks
// that classify to a nonexistent class fall into defClass; if that is
// also missing at enqueue time the chunk is dropped (matching htb's
// behaviour for an invalid default class).
func NewHTB(linkRate float64, defClass ClassID) *HTB {
	if linkRate <= 0 {
		panic("qdisc: htb link rate must be positive")
	}
	return &HTB{
		rootRate:   linkRate,
		rootTokens: htbBurst,
		classes:    make(map[ClassID]*HTBClass),
		classifier: NewClassifier(defClass),
		defClass:   defClass,
		rrPos:      make(map[int]int),
	}
}

// Classifier exposes the filter chain.
func (h *HTB) Classifier() *Classifier { return h.classifier }

// DefaultClass returns the fallback class id.
func (h *HTB) DefaultClass() ClassID { return h.defClass }

// AddClass installs a new leaf class.
func (h *HTB) AddClass(id ClassID, cfg HTBClassConfig) error {
	if _, ok := h.classes[id]; ok {
		return fmt.Errorf("qdisc: htb class %d exists", id)
	}
	if cfg.Rate <= 0 {
		return fmt.Errorf("qdisc: htb class %d needs positive rate", id)
	}
	if cfg.Ceil <= 0 {
		cfg.Ceil = cfg.Rate
	}
	if cfg.Ceil < cfg.Rate {
		return fmt.Errorf("qdisc: htb class %d ceil %.0f < rate %.0f", id, cfg.Ceil, cfg.Rate)
	}
	if cfg.Prio < 0 {
		cfg.Prio = 0
	}
	c := &HTBClass{ID: id, cfg: cfg, tokens: htbBurst, ctokens: htbBurst}
	h.classes[id] = c
	i := sort.Search(len(h.order), func(i int) bool { return h.order[i].ID > id })
	h.order = slices.Insert(h.order, i, c)
	return nil
}

// Class returns the leaf with the given id, or nil.
func (h *HTB) Class(id ClassID) *HTBClass { return h.classes[id] }

// Classes returns leaf ids in stable order.
func (h *HTB) Classes() []ClassID {
	out := make([]ClassID, len(h.order))
	for i, cl := range h.order {
		out[i] = cl.ID
	}
	return out
}

// DirectPackets returns how many chunks bypassed shaping because they
// classified to a nonexistent class.
func (h *HTB) DirectPackets() uint64 { return h.directPackets }

// Enqueue classifies and queues the chunk. Chunks whose class (and the
// default class) do not exist go to the direct queue, as in Linux htb.
func (h *HTB) Enqueue(c *Chunk, now float64) {
	id := h.classifier.Classify(c)
	cl, ok := h.classes[id]
	if !ok {
		cl, ok = h.classes[h.defClass]
	}
	if !ok {
		c.enqueuedAt = now
		h.direct.push(c)
		h.directPackets++
		h.stats.EnqueuedPackets++
		h.stats.EnqueuedBytes += uint64(c.Bytes)
		return
	}
	c.enqueuedAt = now
	cl.q.push(c)
	cl.stats.EnqueuedPackets++
	cl.stats.EnqueuedBytes += uint64(c.Bytes)
	h.stats.EnqueuedPackets++
	h.stats.EnqueuedBytes += uint64(c.Bytes)
}

// tokEps absorbs floating-point residue in token arithmetic so that a
// Dequeue at the exact time ReadyAt promised always succeeds.
const tokEps = 1e-3 // bytes

// refill advances every token bucket to now.
func (h *HTB) refill(now float64) {
	dt := now - h.lastUpdate
	if dt <= 0 {
		return
	}
	h.lastUpdate = now
	h.rootTokens += h.rootRate * dt
	if h.rootTokens > htbBurst {
		h.rootTokens = htbBurst
	}
	for _, cl := range h.order {
		cl.tokens += cl.cfg.Rate * dt
		if cl.tokens > htbBurst {
			cl.tokens = htbBurst
		}
		cl.ctokens += cl.cfg.Ceil * dt
		if cl.ctokens > htbBurst {
			cl.ctokens = htbBurst
		}
	}
}

// prioLevels returns the sorted distinct priorities of non-empty
// classes in a buffer reused across calls (valid until the next call).
func (h *HTB) prioLevels() []int {
	levels := h.levels[:0]
	for _, cl := range h.order {
		if cl.q.len() == 0 {
			continue
		}
		// Insert into the sorted, de-duplicated list; there are only a
		// handful of levels.
		i := len(levels)
		for i > 0 && levels[i-1] > cl.cfg.Prio {
			i--
		}
		if i > 0 && levels[i-1] == cl.cfg.Prio {
			continue
		}
		levels = slices.Insert(levels, i, cl.cfg.Prio)
	}
	h.levels = levels
	return levels
}

// inRing reports whether a class takes part in a DRR pick at level:
// it is backlogged at that priority and may send in the green pass (own
// bucket) or the yellow pass (ceil bucket).
func (cl *HTBClass) inRing(level int, green bool) bool {
	if cl.cfg.Prio != level || cl.q.len() == 0 {
		return false
	}
	if green {
		return cl.tokens >= -tokEps
	}
	return cl.ctokens >= -tokEps
}

// pickDRR selects the next eligible class at a priority level using a
// deficit round robin cursor over the eligible classes in id
// order.
func (h *HTB) pickDRR(level int, green bool) *HTBClass {
	n := 0
	for _, cl := range h.order {
		if cl.inRing(level, green) {
			n++
		}
	}
	if n == 0 {
		return nil
	}
	pos := h.rrPos[level] % n
	var cl *HTBClass
	skip := pos
	for _, c := range h.order {
		if !c.inRing(level, green) {
			continue
		}
		if skip == 0 {
			cl = c
			break
		}
		skip--
	}
	head := cl.q.peek()
	cl.deficit -= float64(head.Bytes)
	if cl.deficit <= 0 {
		cl.deficit += htbQuantum
		if cl.deficit < 0 {
			cl.deficit = 0
		}
		h.rrPos[level] = (pos + 1) % n
	}
	return cl
}

// Dequeue returns the next chunk allowed to transmit at now, or nil if
// all non-empty classes are rate-gated.
func (h *HTB) Dequeue(now float64) *Chunk {
	// Token state is monotone: queries behind the token clock (e.g.
	// during a reconfiguration drain) evaluate at the clock instead.
	if now < h.lastUpdate {
		now = h.lastUpdate
	}
	h.refill(now)
	// Direct packets go out first, unshaped (Linux htb behaviour).
	if ch := h.direct.pop(); ch != nil {
		h.stats.DequeuedPackets++
		h.stats.DequeuedBytes += uint64(ch.Bytes)
		return ch
	}
	// Pass 1: green classes send on their own guaranteed rate. A pass
	// that picks nothing changes no state, so both passes share levels.
	levels := h.prioLevels()
	for _, level := range levels {
		cl := h.pickDRR(level, true)
		if cl == nil {
			continue
		}
		ch := cl.q.pop()
		cl.tokens -= float64(ch.Bytes)
		cl.ctokens -= float64(ch.Bytes)
		h.charge(cl, ch)
		return ch
	}
	// Pass 2: yellow classes borrow root bandwidth in priority order.
	if h.rootTokens >= -tokEps {
		for _, level := range levels {
			cl := h.pickDRR(level, false)
			if cl == nil {
				continue
			}
			ch := cl.q.pop()
			cl.ctokens -= float64(ch.Bytes)
			h.rootTokens -= float64(ch.Bytes)
			h.charge(cl, ch)
			return ch
		}
	}
	if h.Len() > 0 {
		h.stats.Overlimits++
	}
	return nil
}

func (h *HTB) charge(cl *HTBClass, ch *Chunk) {
	cl.stats.DequeuedPackets++
	cl.stats.DequeuedBytes += uint64(ch.Bytes)
	h.stats.DequeuedPackets++
	h.stats.DequeuedBytes += uint64(ch.Bytes)
}

// ReadyAt reports the earliest time some class can transmit.
func (h *HTB) ReadyAt(now float64) float64 {
	if now < h.lastUpdate {
		now = h.lastUpdate
	}
	h.refill(now)
	if h.direct.len() > 0 {
		return now
	}
	ready := Never
	for _, cl := range h.order {
		if cl.q.len() == 0 {
			continue
		}
		// Time until green: own bucket refills to zero.
		tGreen := now
		if cl.tokens < 0 {
			tGreen = now + -cl.tokens/cl.cfg.Rate
		}
		if tGreen < ready {
			ready = tGreen
		}
		// Time until yellow: both ceil bucket and root refill.
		tYellow := now
		if cl.ctokens < 0 {
			tYellow = now + -cl.ctokens/cl.cfg.Ceil
		}
		if h.rootTokens < 0 {
			tRoot := now + -h.rootTokens/h.rootRate
			if tRoot > tYellow {
				tYellow = tRoot
			}
		}
		if tYellow < ready {
			ready = tYellow
		}
	}
	return ready
}

// Len returns total queued chunks.
func (h *HTB) Len() int {
	n := h.direct.len()
	for _, cl := range h.order {
		n += cl.q.len()
	}
	return n
}

// BacklogBytes returns total queued bytes.
func (h *HTB) BacklogBytes() int64 {
	n := h.direct.bytes
	for _, cl := range h.order {
		n += cl.q.bytes
	}
	return n
}

// Stats returns a copy of the aggregate counters; mutating it does not
// affect the qdisc.
func (h *HTB) Stats() Stats { return h.stats }

// BandDequeuedBytes returns cumulative dequeued bytes per class id as
// a fresh map (BandCounter).
func (h *HTB) BandDequeuedBytes() map[int]uint64 {
	out := make(map[int]uint64, len(h.order))
	for _, cl := range h.order {
		out[int(cl.ID)] = cl.stats.DequeuedBytes
	}
	return out
}

// Kind returns "htb".
func (h *HTB) Kind() string { return "htb" }
