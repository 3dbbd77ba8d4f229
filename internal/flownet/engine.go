package flownet

import (
	"fmt"
	"math"
	"math/bits"
	"slices"

	"repro/internal/sim"
)

// FlowID identifies a flow in the engine; the fabric reuses its own
// flow IDs here.
type FlowID uint64

// settleLogLen bounds the interval log: when it fills, every link is
// settled and the log restarts, so memory stays constant on long runs.
const settleLogLen = 4096

// completionEps is the residual-demand slack (bytes) below which a flow
// counts as finished. Purely a performance knob: a flow that misses the
// threshold by floating-point residue completes on the next (immediate)
// completion event instead.
const completionEps = 1.0 / 16

// flowState is the engine's record of one active flow. Its remaining
// demand and current rate live in the engine's dense rem and rate
// arrays at index pos, so the advance reads contiguous floats.
type flowState struct {
	id       FlowID
	pos      int    // index in Engine.order, rem and rate
	gen      uint32 // bumped when the flow retires; stale Handles mismatch
	cls      *rateClass
	ci       int // index in cls.members
	links    []int
	bandLink int
	band     int
	weight   float64
	tag      any

	// attLinks is links plus bandLink (deduplicated) — every link whose
	// state couples this flow to others. attPos[i] is the flow's index
	// in linkFlows[attLinks[i]], for O(1) detach.
	attLinks []int
	attPos   []int
}

// Handle names one active flow: AddFlow returns it, and UpdateFlow,
// RemoveFlow, Remaining and Rate take it. A handle goes stale when its
// flow completes or is removed; methods then report the flow unknown.
// The zero Handle names no flow.
type Handle struct {
	fs  *flowState
	gen uint32
}

// rateClass groups the active flows whose rates have identical bits.
// Every advance takes the same r·dt off each member and clamps at zero,
// and IEEE rounding is monotone, so the order of the members' remaining
// demands never changes while they share the class. The member with
// the smallest rem therefore stays the one with the earliest projected
// finish, lastT + rem/r, and the class needs no per-advance upkeep.
type rateClass struct {
	bits    uint64 // math.Float64bits of every member's rate
	members []*flowState
	min     *flowState // smallest rem among members; nil when stale
	idx     int        // index in Engine.classes

	// resolve scratch: in the resolve stamped stamp, seen members of
	// the class were re-rated, all to bits next when uniform.
	stamp   uint64
	seen    int
	next    uint64
	uniform bool
}

// Engine advances fluid flows on a discrete-event kernel. It keeps the
// max-min allocation current across flow arrivals, departures, link
// capacity changes and band changes, accumulates per-link served-byte
// and busy-time counters (the analytic analogue of the chunk fabric's
// port accounting), and schedules exactly one kernel event: the next
// flow completion.
//
// Advancing the fluid state costs O(active flows) plus one append to
// an interval log; no link is touched. A link's rate and capacity are
// constant between the points that change them, so its counters are
// settled lazily by replaying the logged intervals at that rate: before
// a re-solve changes the rate, before SetLinkCap changes the capacity,
// when a counter is read, and for every link when the log fills. The
// replay performs the same float operations in the same order as
// accumulating on every advance would, so counters are bit-identical.
//
// Rate recomputation is scoped and batched so cost tracks the traffic
// footprint, not the cluster size:
//
//   - mutations mark their links dirty and defer the recompute to a
//     same-timestamp kernel event, so a burst of mutations at one
//     instant (a PS broadcasting its model adds one flow per worker —
//     hundreds at 10k-host scale) costs one solve instead of one per
//     mutation. No simulated time passes in between, so no fluid moves
//     at a stale rate;
//   - the recompute re-solves only the connected component of flows
//     reachable from the dirty links through shared links (including
//     strict-priority band links), discovered by BFS over a persistent
//     link->flows index. Flows in unrelated components keep their rates:
//     max-min allocations are independent across link-disjoint sets.
//
// Active flows are grouped into rate classes by the bits of their rate
// (see rateClass). The next completion time is the minimum over the
// classes' smallest-demand members, and a completion event sweeps only
// the classes whose smallest member has drained, so neither visits
// every active flow. Rate-0 flows sit in classes too: the completion
// sweep checks them and the scheduler skips them. A re-solve usually
// moves a whole class to one new rate, which relabels the class in
// place; only flows that split from their class move one by one.
//
// The engine is deterministic: flows advance and complete in insertion
// order, and each component's solver input is in insertion order too,
// so equal-seed runs produce identical event sequences. A departing
// flow leaves a tombstone in order, and an order-preserving compaction
// clears them once they pass an eighth of it, so a flow's position
// in order always ranks it by insertion: the BFS marks members in a
// position bitset and reads the component off it in order, with no
// sort.
type Engine struct {
	k      *sim.Kernel
	onDone func(id FlowID, tag any)

	caps     []float64
	linkRate []float64 // current aggregate rate on each link
	served   []float64 // cumulative payload bytes through each link
	busy     []float64 // cumulative busy-fraction-seconds per link

	// dts logs the advance intervals since the last full settle;
	// linkSynced[l] is the log index up to which served[l] and busy[l]
	// include them (see syncLink).
	dts        []float64
	linkSynced []int

	// linkFlows[l] holds the active flows attached to link l (path
	// links plus band links); dirtyLinks accumulates the links whose
	// coupled flows need a re-solve.
	linkFlows  [][]*flowState
	dirtyMark  []bool
	dirtyLinks []int
	visitMark  []bool // BFS scratch, always false between resolves

	// order holds the active flows in insertion order, with nil
	// tombstones (dead of them) where flows left; rem (payload bytes
	// still to serve) and rate (current allocation, bytes/sec) run
	// parallel to it, both 0 at a tombstone.
	order []*flowState
	rem   []float64
	rate  []float64
	dead  int
	free  []*flowState // retired flowStates for reuse

	// classes holds the non-empty rate classes in no fixed order, and
	// classPool the emptied ones for reuse.
	classes   []*rateClass
	classPool []*rateClass
	touched   []*rateClass // resolve scratch

	lastT  float64
	next   sim.Ticket // armed completion event (zero when none)
	nextAt float64

	// dirty marks the allocation stale; a pooled same-timestamp kernel
	// event (flushFn) performs the deferred recompute. Both callbacks
	// are bound once so posting them never allocates a closure.
	dirty         bool
	flushFn       func()
	completionsFn func()

	solver     Solver
	sflows     []Flow
	srates     []float64
	compFlows  []*flowState
	compLinks  []int
	compMark   []uint64 // BFS scratch bitset by pos, all zero between resolves
	queue      []int
	doneBuf    []*flowState
	backlogBuf []int
	resolves   uint64
}

// NewEngine creates an engine on the kernel. onDone fires — inside a
// kernel event, in flow insertion order — when a flow's demand reaches
// zero, i.e. when its last byte has cleared the bottleneck.
func NewEngine(k *sim.Kernel, onDone func(id FlowID, tag any)) *Engine {
	e := &Engine{
		k:      k,
		onDone: onDone,
	}
	e.flushFn = e.flush
	e.completionsFn = e.completions
	return e
}

// AddLink registers a link with the given capacity (payload bytes/sec;
// <= 0 means down) and returns its ID. Links are never removed; an
// unused link costs nothing per solve.
func (e *Engine) AddLink(capacity float64) int {
	id := len(e.caps)
	e.caps = append(e.caps, capacity)
	e.served = append(e.served, 0)
	e.busy = append(e.busy, 0)
	e.linkRate = append(e.linkRate, 0)
	e.linkSynced = append(e.linkSynced, len(e.dts))
	e.linkFlows = append(e.linkFlows, nil)
	e.dirtyMark = append(e.dirtyMark, false)
	e.visitMark = append(e.visitMark, false)
	return id
}

// NumLinks returns the number of registered links.
func (e *Engine) NumLinks() int { return len(e.caps) }

// SetLinkCap changes a link's capacity (faults: detach = 0, degrade =
// scaled) and recomputes the affected flows' rates. A no-op when the
// capacity is unchanged, so redundant fault/reconfig notifications stay
// cheap.
func (e *Engine) SetLinkCap(l int, capacity float64) {
	if e.caps[l] == capacity {
		return
	}
	e.Sync()
	e.syncLink(l)
	e.caps[l] = capacity
	e.markLinkDirty(l)
	e.markDirty()
}

// LinkServedBytes returns cumulative payload bytes pushed through link
// l up to the engine's fluid clock: the last Sync, mutation or
// completion. Call Sync first to read it at the kernel clock.
func (e *Engine) LinkServedBytes(l int) float64 {
	e.syncLink(l)
	return e.served[l]
}

// LinkBusySeconds returns the cumulative busy time of link l: the
// integral of min(1, aggregateRate/capacity), matching the chunk
// fabric's per-port busy-time accounting. Like LinkServedBytes it runs
// to the engine's fluid clock.
func (e *Engine) LinkBusySeconds(l int) float64 {
	e.syncLink(l)
	return e.busy[l]
}

// LinkBacklogBytes returns the bytes still to be served across link l —
// the fluid analogue of a port's queued backlog. It visits only the
// flows indexed under l, summing them in insertion order so the result
// does not depend on the index's swap-remove order.
func (e *Engine) LinkBacklogBytes(l int) float64 {
	buf := e.backlogBuf[:0]
	for _, fs := range e.linkFlows[l] {
		if slices.Contains(fs.links, l) {
			buf = append(buf, fs.pos)
		}
	}
	slices.Sort(buf)
	var b float64
	for _, p := range buf {
		b += e.rem[p]
	}
	e.backlogBuf = buf[:0]
	return b
}

// ForEachOnLink visits the active flows attached to link l — those
// crossing it and those it gates as their band link — with their
// remaining demand, in no fixed order. The callback must not mutate the
// engine.
func (e *Engine) ForEachOnLink(l int, fn func(id FlowID, tag any, remaining float64)) {
	for _, fs := range e.linkFlows[l] {
		fn(fs.id, fs.tag, e.rem[fs.pos])
	}
}

// ActiveFlows returns the number of in-flight flows.
func (e *Engine) ActiveFlows() int { return len(e.order) - e.dead }

// Resolves returns how many times the allocation was recomputed.
func (e *Engine) Resolves() uint64 { return e.resolves }

// Sync advances the fluid state (per-flow remaining demand, and the
// interval log the per-link counters settle from) to the kernel clock.
// Mutations do this implicitly; metric readers call it before sampling
// counters.
func (e *Engine) Sync() { e.advance(e.k.Now()) }

func (e *Engine) advance(now float64) {
	dt := now - e.lastT
	if dt <= 0 {
		return
	}
	e.lastT = now
	rem := e.rem
	for i, r := range e.rate {
		if r > 0 {
			rem[i] -= r * dt
			if rem[i] < 0 {
				rem[i] = 0
			}
		}
	}
	e.dts = append(e.dts, dt)
	if len(e.dts) == settleLogLen {
		for l := range e.linkSynced {
			e.syncLink(l)
			e.linkSynced[l] = 0
		}
		e.dts = e.dts[:0]
	}
}

// syncLink settles link l's counters through the end of the interval
// log. The link's rate and capacity have been constant since its last
// settle, so each logged interval adds exactly what an eager per-advance
// update would, in the same order; the sum is never collapsed into
// r*Σdt, which would round differently. Both counters settle in one
// pass: each keeps its own add chain, so interleaving them changes no
// bits.
func (e *Engine) syncLink(l int) {
	from := e.linkSynced[l]
	e.linkSynced[l] = len(e.dts)
	r := e.linkRate[l]
	if r <= 0 {
		return
	}
	dts := e.dts[from:]
	s := e.served[l]
	if c := e.caps[l]; c > 0 {
		u := r / c
		if u > 1 {
			u = 1
		}
		b := e.busy[l]
		for _, dt := range dts {
			s += r * dt
			b += u * dt
		}
		e.busy[l] = b
	} else {
		for _, dt := range dts {
			s += r * dt
		}
	}
	e.served[l] = s
}

// attach indexes the flow under every link that couples it to others.
func (e *Engine) attach(fs *flowState) {
	add := func(l int) {
		for _, a := range fs.attLinks {
			if a == l {
				return
			}
		}
		fs.attLinks = append(fs.attLinks, l)
		fs.attPos = append(fs.attPos, len(e.linkFlows[l]))
		e.linkFlows[l] = append(e.linkFlows[l], fs)
	}
	for _, l := range fs.links {
		add(l)
	}
	if fs.bandLink >= 0 {
		add(fs.bandLink)
	}
}

// detach removes the flow from the link index (swap-remove, fixing the
// moved flow's back-pointer).
func (e *Engine) detach(fs *flowState) {
	for i, l := range fs.attLinks {
		p := fs.attPos[i]
		lf := e.linkFlows[l]
		last := len(lf) - 1
		moved := lf[last]
		lf[p] = moved
		lf[last] = nil
		e.linkFlows[l] = lf[:last]
		if moved != fs {
			for j, ml := range moved.attLinks {
				if ml == l {
					moved.attPos[j] = p
					break
				}
			}
		}
	}
	fs.attLinks = fs.attLinks[:0]
	fs.attPos = fs.attPos[:0]
}

// markLinkDirty queues link l for the next component re-solve.
func (e *Engine) markLinkDirty(l int) {
	if !e.dirtyMark[l] {
		e.dirtyMark[l] = true
		e.dirtyLinks = append(e.dirtyLinks, l)
	}
}

// markFlowDirty queues every link the flow is attached to.
func (e *Engine) markFlowDirty(fs *flowState) {
	for _, l := range fs.attLinks {
		e.markLinkDirty(l)
	}
}

// AddFlow starts a flow of the given demand (payload bytes) across the
// listed links and returns its handle. id is the caller's label, passed
// back to onDone and ForEach. bandLink/band place the flow in the
// strict-priority order at its source egress (bandLink < 0 disables
// gating); weight scales its fair share. tag is returned to onDone
// untouched. links is copied, so callers may reuse the slice.
func (e *Engine) AddFlow(id FlowID, links []int, bandLink, band int, weight, bytes float64, tag any) Handle {
	if bytes <= 0 {
		panic(fmt.Sprintf("flownet: flow %d demand %g must be positive", id, bytes))
	}
	if len(links) == 0 {
		panic(fmt.Sprintf("flownet: flow %d needs at least one link", id))
	}
	e.Sync()
	var fs *flowState
	if n := len(e.free); n > 0 {
		fs = e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
	} else {
		fs = &flowState{}
	}
	fs.id = id
	fs.pos = len(e.order)
	fs.links = append(fs.links[:0], links...)
	fs.bandLink = bandLink
	fs.band = band
	fs.weight = weight
	fs.tag = tag
	e.order = append(e.order, fs)
	e.rem = append(e.rem, bytes)
	e.rate = append(e.rate, 0)
	e.join(fs, e.classFor(0))
	e.attach(fs)
	e.markFlowDirty(fs)
	e.markDirty()
	return Handle{fs: fs, gen: fs.gen}
}

// lookup returns the flow a handle names, or nil when it is stale.
func (e *Engine) lookup(h Handle) *flowState {
	if h.fs == nil || h.fs.gen != h.gen {
		return nil
	}
	return h.fs
}

// retire takes a detached flow out of its class and leaves a tombstone
// at its position. Handles to it go stale at once.
func (e *Engine) retire(fs *flowState) {
	if fs.cls != nil {
		e.leave(fs)
	}
	fs.gen++
	e.order[fs.pos] = nil
	e.rem[fs.pos], e.rate[fs.pos] = 0, 0
	e.dead++
}

// compact drops the tombstones from order once they pass an eighth of
// it, keeping the live flows in insertion order. Every advance walks
// the tombstones too, so they are kept few; a compaction moves each
// live flow once, and takes at least len(order)/8 departures to come
// due again.
func (e *Engine) compact() {
	if 8*e.dead <= len(e.order) {
		return
	}
	kept := 0
	for i, fs := range e.order {
		if fs == nil {
			continue
		}
		e.order[kept], e.rem[kept], e.rate[kept] = fs, e.rem[i], e.rate[i]
		fs.pos = kept
		kept++
	}
	clear(e.order[kept:])
	e.order, e.rem, e.rate = e.order[:kept], e.rem[:kept], e.rate[:kept]
	e.dead = 0
}

// release returns a retired, detached flowState to the free list.
func (e *Engine) release(fs *flowState) {
	fs.tag = nil
	e.free = append(e.free, fs)
}

// classFor returns the class holding rate bits b, reusing a pooled
// class when none does. Classes are few (about a hundred on the
// 10,240-host scenario), so a scan costs less than keeping a map.
func (e *Engine) classFor(b uint64) *rateClass {
	for _, c := range e.classes {
		if c.bits == b {
			return c
		}
	}
	var c *rateClass
	if n := len(e.classPool); n > 0 {
		c = e.classPool[n-1]
		e.classPool = e.classPool[:n-1]
	} else {
		c = &rateClass{}
	}
	c.bits, c.min = b, nil
	c.idx = len(e.classes)
	e.classes = append(e.classes, c)
	return c
}

// join adds fs to class c, keeping c's smallest-rem member current.
func (e *Engine) join(fs *flowState, c *rateClass) {
	fs.cls, fs.ci = c, len(c.members)
	c.members = append(c.members, fs)
	switch {
	case len(c.members) == 1:
		c.min = fs
	case c.min != nil && e.rem[fs.pos] < e.rem[c.min.pos]:
		c.min = fs
	}
}

// leave takes fs out of its class, pooling the class once it empties.
func (e *Engine) leave(fs *flowState) {
	c := fs.cls
	fs.cls = nil
	last := len(c.members) - 1
	moved := c.members[last]
	c.members[fs.ci], moved.ci = moved, fs.ci
	c.members[last] = nil
	c.members = c.members[:last]
	if c.min == fs {
		c.min = nil
	}
	if last == 0 {
		e.dropClass(c)
	}
}

// dropClass returns an empty class to the pool.
func (e *Engine) dropClass(c *rateClass) {
	last := len(e.classes) - 1
	moved := e.classes[last]
	e.classes[c.idx], moved.idx = moved, c.idx
	e.classes[last] = nil
	e.classes = e.classes[:last]
	e.classPool = append(e.classPool, c)
}

// classMin returns c's smallest-rem member, rescanning the class when a
// departure left it stale.
func (e *Engine) classMin(c *rateClass) *flowState {
	if c.min == nil {
		m := c.members[0]
		for _, fs := range c.members[1:] {
			if e.rem[fs.pos] < e.rem[m.pos] {
				m = fs
			}
		}
		c.min = m
	}
	return c.min
}

// UpdateFlow reroutes/rebands an active flow in place (tc reconfigured
// the source host), preserving its remaining demand and its position in
// the deterministic completion order. Returns false for a stale handle.
// A no-op resolve is skipped when nothing changed. links is copied, so
// callers may reuse the slice.
func (e *Engine) UpdateFlow(h Handle, links []int, bandLink, band int, weight float64) bool {
	fs := e.lookup(h)
	if fs == nil {
		return false
	}
	if fs.bandLink == bandLink && fs.band == band && fs.weight == weight && slices.Equal(fs.links, links) {
		return true
	}
	if len(links) == 0 {
		panic(fmt.Sprintf("flownet: flow %d needs at least one link", fs.id))
	}
	e.Sync()
	e.markFlowDirty(fs) // old coupling
	e.detach(fs)
	fs.links = append(fs.links[:0], links...)
	fs.bandLink = bandLink
	fs.band = band
	fs.weight = weight
	e.attach(fs)
	e.markFlowDirty(fs) // new coupling
	e.markDirty()
	return true
}

// RemoveFlow cancels an active flow without completing it (no onDone).
// Returns false for a stale handle.
func (e *Engine) RemoveFlow(h Handle) bool {
	fs := e.lookup(h)
	if fs == nil {
		return false
	}
	e.Sync()
	e.markFlowDirty(fs)
	e.detach(fs)
	e.retire(fs)
	e.compact()
	e.release(fs)
	e.markDirty()
	return true
}

// Remaining returns a flow's outstanding demand in bytes.
func (e *Engine) Remaining(h Handle) (float64, bool) {
	fs := e.lookup(h)
	if fs == nil {
		return 0, false
	}
	return e.rem[fs.pos], true
}

// Rate returns a flow's current allocation in bytes/sec.
func (e *Engine) Rate(h Handle) (float64, bool) {
	fs := e.lookup(h)
	if fs == nil {
		return 0, false
	}
	e.ensureResolved()
	return e.rate[fs.pos], true
}

// ForEach visits active flows in insertion order. The callback may call
// UpdateFlow (in-place mutation) but must not add or remove flows.
func (e *Engine) ForEach(fn func(id FlowID, tag any)) {
	for _, fs := range e.order {
		if fs != nil {
			fn(fs.id, fs.tag)
		}
	}
}

// markDirty defers the allocation recompute to a same-timestamp kernel
// event (or to the first rate read, whichever comes first). The flush
// runs before the kernel advances past the current instant, so stale
// rates are never integrated over a nonzero interval. The event is
// pooled (PostAfter, no handle) and takes the kernel's zero-delay lane:
// if a rate read resolves eagerly first, the flush fires as a cheap
// no-op.
func (e *Engine) markDirty() {
	if e.dirty {
		return
	}
	e.dirty = true
	e.k.PostAfter(0, e.flushFn)
}

func (e *Engine) flush() {
	if e.dirty {
		e.resolve()
	}
}

// ensureResolved recomputes eagerly when a caller needs current rates
// while a deferred flush is pending (e.g. Rate between two mutations at
// the same instant).
func (e *Engine) ensureResolved() {
	if e.dirty {
		e.resolve()
	}
}

// resolve recomputes the allocation for every flow coupled to a dirty
// link and rearms the next completion event. Callers must have advanced
// the fluid state to now first.
//
// The affected set is the BFS closure of the dirty links over the
// link->flows index: a flow joins when any of its links (path or band)
// is reached, and contributes all its links in turn. Flows outside the
// closure share no constraint with any mutated flow or link, so their
// max-min rates are unchanged by construction.
//
// Members are marked in the compMark bitset by position and read off
// it word by word, which yields them in insertion order. The solver's
// allocation is order-independent, but a fixed input order pins its
// floating-point evaluation, so results do not depend on the link
// index's swap-remove order.
func (e *Engine) resolve() {
	e.dirty = false
	e.resolves++

	if w := (len(e.order) + 63) / 64; len(e.compMark) < w {
		e.compMark = append(e.compMark, make([]uint64, w-len(e.compMark))...)
	}
	mark := e.compMark
	members := 0
	e.queue = e.queue[:0]
	e.compLinks = e.compLinks[:0]
	for _, l := range e.dirtyLinks {
		e.dirtyMark[l] = false
		if !e.visitMark[l] {
			e.visitMark[l] = true
			e.queue = append(e.queue, l)
		}
	}
	e.dirtyLinks = e.dirtyLinks[:0]
	for i := 0; i < len(e.queue); i++ {
		l := e.queue[i]
		e.compLinks = append(e.compLinks, l)
		for _, fs := range e.linkFlows[l] {
			w, b := fs.pos>>6, uint64(1)<<(fs.pos&63)
			if mark[w]&b != 0 {
				continue
			}
			mark[w] |= b
			members++
			for _, al := range fs.attLinks {
				if !e.visitMark[al] {
					e.visitMark[al] = true
					e.queue = append(e.queue, al)
				}
			}
		}
	}
	for _, l := range e.queue {
		e.visitMark[l] = false
	}

	cf := e.compFlows[:0]
	for w := 0; len(cf) < members; w++ {
		word := mark[w]
		mark[w] = 0
		for ; word != 0; word &= word - 1 {
			cf = append(cf, e.order[w<<6|bits.TrailingZeros64(word)])
		}
	}
	e.compFlows = cf

	if len(cf) > 0 {
		e.sflows = e.sflows[:0]
		for _, fs := range cf {
			e.sflows = append(e.sflows, Flow{
				Links: fs.links, Weight: fs.weight, Band: fs.band, BandLink: fs.bandLink,
			})
		}
		e.srates = e.solver.Solve(e.caps, e.sflows, e.srates[:0])
		e.rerate(cf)
	}
	// Refresh the component's link aggregates; untouched links keep
	// their rates (their flows were not in the component).
	for _, l := range e.compLinks {
		e.syncLink(l)
		e.linkRate[l] = 0
	}
	for _, fs := range cf {
		r := e.rate[fs.pos]
		if r <= 0 {
			continue
		}
		for _, l := range fs.links {
			e.linkRate[l] += r
		}
	}
	e.schedule()
}

// rerate stores the solver's rates for the component cf and brings the
// rate classes up to date. The per-flow pass only tallies, per class,
// how many members were re-rated and whether all got the same bits. A
// class whose every member moved to one rate is relabelled in place:
// its members and their rem order are unchanged. If another class this
// re-solve touched already holds the new rate, the smaller of the two
// merges into the larger. Only flows that split from their class move
// one by one, to the class of their new rate, which is looked for among
// the touched classes first.
//
// A relabelled class merges only with a class this re-solve touched.
// Classes of different components may hold the same rate: merging them
// would only have the next re-solve of either component split them
// again, one flow at a time.
func (e *Engine) rerate(cf []*flowState) {
	stamp := e.resolves
	touched := e.touched[:0]
	for i, fs := range cf {
		r := e.srates[i]
		e.rate[fs.pos] = r
		b := math.Float64bits(r)
		c := fs.cls
		if c.stamp != stamp {
			c.stamp, c.seen, c.next, c.uniform = stamp, 0, b, true
			touched = append(touched, c)
		}
		c.seen++
		if b != c.next {
			c.uniform = false
		}
	}
	split := false
	for _, c := range touched {
		switch {
		case c.uniform && c.next == c.bits:
			// The re-rated members kept their rate.
		case c.uniform && c.seen == len(c.members):
			c.bits = c.next
			if d := twin(touched, c.bits, c); d != nil {
				e.merge(c, d)
			}
		default:
			split = true
		}
	}
	if split {
		for _, fs := range cf {
			b := math.Float64bits(e.rate[fs.pos])
			if b == fs.cls.bits {
				continue
			}
			e.leave(fs)
			c := twin(touched, b, nil)
			if c == nil {
				c = e.classFor(b)
			}
			e.join(fs, c)
		}
	}
	e.touched = touched[:0]
}

// twin returns a non-empty class in cs, other than not, holding rate
// bits b, or nil.
func twin(cs []*rateClass, b uint64, not *rateClass) *rateClass {
	for _, d := range cs {
		if d != not && d.bits == b && len(d.members) > 0 {
			return d
		}
	}
	return nil
}

// merge empties the smaller of two equal-rate classes into the larger.
func (e *Engine) merge(a, b *rateClass) {
	if len(a.members) > len(b.members) {
		a, b = b, a
	}
	for n := len(a.members); n > 0; n-- {
		fs := a.members[n-1]
		e.leave(fs)
		e.join(fs, b)
	}
}

// schedule (re)arms the single completion event at the earliest
// projected flow finish: the minimum over the positive-rate classes of
// lastT + rem/r at each class's smallest-rem member, the same bits a
// scan of every flow yields. Kept in place when the target time is
// unchanged, sparing the event heap a cancel+push per resolve. The
// event is a ticketed pooled event (see sim.PostTicket), so the heavy
// re-arm traffic of a busy fabric recycles one struct instead of
// allocating per resolve.
func (e *Engine) schedule() {
	t := math.MaxFloat64
	for _, c := range e.classes {
		r := math.Float64frombits(c.bits)
		if r <= 0 {
			continue
		}
		if at := e.lastT + e.rem[e.classMin(c).pos]/r; at < t {
			t = at
		}
	}
	if t == math.MaxFloat64 {
		e.k.CancelTicket(e.next)
		e.next = sim.Ticket{}
		return
	}
	if now := e.k.Now(); t < now {
		t = now
	}
	if e.next.Active() && t == e.nextAt {
		return
	}
	e.k.CancelTicket(e.next)
	e.next = e.k.PostTicket(t, e.completionsFn)
	e.nextAt = t
}

// completions retires every flow whose demand has drained, recomputes
// the affected allocations once, then fires the completion callbacks in
// insertion order. Only classes whose smallest member has drained are
// swept, rate-0 classes included. Callbacks may start new flows
// (synchronous training reacts to transfer completion by sending the
// next update); the engine state is consistent before the first
// callback runs.
func (e *Engine) completions() {
	e.next = sim.Ticket{}
	e.advance(e.k.Now())
	done := e.doneBuf[:0]
	for i := 0; i < len(e.classes); {
		c := e.classes[i]
		if e.rem[e.classMin(c).pos] > completionEps {
			i++
			continue
		}
		kept := c.members[:0]
		var min *flowState
		for _, fs := range c.members {
			if e.rem[fs.pos] <= completionEps {
				fs.cls = nil
				done = append(done, fs)
				continue
			}
			fs.ci = len(kept)
			kept = append(kept, fs)
			if min == nil || e.rem[fs.pos] < e.rem[min.pos] {
				min = fs
			}
		}
		clear(c.members[len(kept):])
		c.members, c.min = kept, min
		if len(kept) == 0 {
			e.dropClass(c) // moves the last class to i
			continue
		}
		i++
	}
	slices.SortFunc(done, func(a, b *flowState) int { return a.pos - b.pos })
	for _, fs := range done {
		e.markFlowDirty(fs)
		e.detach(fs)
		e.retire(fs)
	}
	e.compact()
	e.doneBuf = done[:0]
	e.resolve()
	for _, fs := range done {
		e.onDone(fs.id, fs.tag)
	}
	for _, fs := range done {
		e.release(fs)
	}
}
