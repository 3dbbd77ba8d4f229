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
// arrays at index pos, so the per-flow scans read contiguous floats.
type flowState struct {
	id       FlowID
	pos      int // index in Engine.order, rem and rate
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
// The engine is deterministic: flows advance and complete in insertion
// order, and each component's solver input is in insertion order too,
// so equal-seed runs produce identical event sequences. order is kept
// in insertion order (removals splice, completions compact), so a
// flow's position in it is its insertion rank: the BFS marks members in
// a position bitset and reads the component off it in order, with no
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

	// order holds the active flows in insertion order; rem (payload
	// bytes still to serve) and rate (current allocation, bytes/sec)
	// run parallel to it.
	flows  map[FlowID]*flowState
	order  []*flowState
	rem    []float64
	rate   []float64
	free   []*flowState // retired flowStates for reuse
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
		flows:  make(map[FlowID]*flowState),
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
func (e *Engine) ActiveFlows() int { return len(e.order) }

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
// listed links. bandLink/band place it in the strict-priority order at
// its source egress (bandLink < 0 disables gating); weight scales its
// fair share. tag is returned to onDone untouched. links is copied, so
// callers may reuse the slice.
func (e *Engine) AddFlow(id FlowID, links []int, bandLink, band int, weight, bytes float64, tag any) {
	if bytes <= 0 {
		panic(fmt.Sprintf("flownet: flow %d demand %g must be positive", id, bytes))
	}
	if len(links) == 0 {
		panic(fmt.Sprintf("flownet: flow %d needs at least one link", id))
	}
	if _, ok := e.flows[id]; ok {
		panic(fmt.Sprintf("flownet: flow %d already active", id))
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
	e.flows[id] = fs
	e.order = append(e.order, fs)
	e.rem = append(e.rem, bytes)
	e.rate = append(e.rate, 0)
	e.attach(fs)
	e.markFlowDirty(fs)
	e.markDirty()
}

// release returns a detached, unlinked flowState to the free list.
func (e *Engine) release(fs *flowState) {
	fs.tag = nil
	e.free = append(e.free, fs)
}

// UpdateFlow reroutes/rebands an active flow in place (tc reconfigured
// the source host), preserving its remaining demand and its position in
// the deterministic completion order. Returns false for unknown IDs.
// A no-op resolve is skipped when nothing changed. links is copied, so
// callers may reuse the slice.
func (e *Engine) UpdateFlow(id FlowID, links []int, bandLink, band int, weight float64) bool {
	fs, ok := e.flows[id]
	if !ok {
		return false
	}
	if fs.bandLink == bandLink && fs.band == band && fs.weight == weight && slices.Equal(fs.links, links) {
		return true
	}
	if len(links) == 0 {
		panic(fmt.Sprintf("flownet: flow %d needs at least one link", id))
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
// Returns false for unknown IDs.
func (e *Engine) RemoveFlow(id FlowID) bool {
	fs, ok := e.flows[id]
	if !ok {
		return false
	}
	e.Sync()
	e.markFlowDirty(fs)
	e.detach(fs)
	delete(e.flows, id)
	i, n := fs.pos, len(e.order)-1
	copy(e.order[i:], e.order[i+1:])
	copy(e.rem[i:], e.rem[i+1:])
	copy(e.rate[i:], e.rate[i+1:])
	e.order[n] = nil
	e.order, e.rem, e.rate = e.order[:n], e.rem[:n], e.rate[:n]
	for j := i; j < n; j++ {
		e.order[j].pos = j
	}
	e.release(fs)
	e.markDirty()
	return true
}

// Remaining returns a flow's outstanding demand in bytes.
func (e *Engine) Remaining(id FlowID) (float64, bool) {
	fs, ok := e.flows[id]
	if !ok {
		return 0, false
	}
	return e.rem[fs.pos], true
}

// Rate returns a flow's current allocation in bytes/sec.
func (e *Engine) Rate(id FlowID) (float64, bool) {
	fs, ok := e.flows[id]
	if !ok {
		return 0, false
	}
	e.ensureResolved()
	return e.rate[fs.pos], true
}

// ForEach visits active flows in insertion order. The callback may call
// UpdateFlow (in-place mutation) but must not add or remove flows.
func (e *Engine) ForEach(fn func(id FlowID, tag any)) {
	for _, fs := range e.order {
		fn(fs.id, fs.tag)
	}
}

// markDirty defers the allocation recompute to a same-timestamp kernel
// event (or to the first rate read, whichever comes first). The flush
// runs before the kernel advances past the current instant, so stale
// rates are never integrated over a nonzero interval. The event is
// pooled (Post, no handle): if a rate read resolves eagerly first, the
// flush fires as a cheap no-op.
func (e *Engine) markDirty() {
	if e.dirty {
		return
	}
	e.dirty = true
	e.k.Post(e.k.Now(), e.flushFn)
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
		for i, fs := range cf {
			e.rate[fs.pos] = e.srates[i]
		}
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

// schedule (re)arms the single completion event at the earliest
// projected flow finish. Kept in place when the target time is
// unchanged, sparing the event heap a cancel+push per resolve. The
// event is a ticketed pooled event (see sim.PostTicket), so the heavy
// re-arm traffic of a busy fabric recycles one struct instead of
// allocating per resolve.
func (e *Engine) schedule() {
	t := math.MaxFloat64
	rem := e.rem
	for i, r := range e.rate {
		if r <= 0 {
			continue
		}
		if at := e.lastT + rem[i]/r; at < t {
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
// insertion order. Callbacks may start new flows (synchronous training
// reacts to transfer completion by sending the next update); the engine
// state is consistent before the first callback runs.
func (e *Engine) completions() {
	e.next = sim.Ticket{}
	e.advance(e.k.Now())
	done := e.doneBuf[:0]
	kept := 0
	for i, fs := range e.order {
		if e.rem[i] <= completionEps {
			done = append(done, fs)
			delete(e.flows, fs.id)
			e.markFlowDirty(fs)
			e.detach(fs)
			continue
		}
		if kept != i {
			e.order[kept], e.rem[kept], e.rate[kept] = fs, e.rem[i], e.rate[i]
			fs.pos = kept
		}
		kept++
	}
	clear(e.order[kept:])
	e.order, e.rem, e.rate = e.order[:kept], e.rem[:kept], e.rate[:kept]
	e.doneBuf = done[:0]
	e.resolve()
	for _, fs := range done {
		e.onDone(fs.id, fs.tag)
	}
	for _, fs := range done {
		e.release(fs)
	}
}
