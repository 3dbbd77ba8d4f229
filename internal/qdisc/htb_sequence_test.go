package qdisc

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"testing"
)

// htbSequenceGolden pins HTB's exact schedule: every dequeue decision
// and every ReadyAt bit pattern of a set of seeded random programs.
const htbSequenceGolden = "htb_sequence.golden"

// renderHTBSequence runs one seeded random program against an HTB and
// writes one line per observable: each Dequeue's FlowID (or nil), each
// ReadyAt as exact %x float bits, the outcome of each class addition,
// and the final Stats and per-class dequeued bytes.
//
// The programs cover class adds mid-run (including duplicates, which
// fail), filter-chain rewrites that move ports between classes (the
// controller's rotation), direct-queue traffic (chunks classifying to
// a missing class whose default is missing too), enqueues spread over
// four priority levels with several equal-prio classes (DRR rotation
// with deficit carry-over), and interleaved ReadyAt/Dequeue calls,
// some behind the token clock.
func renderHTBSequence(w *bytes.Buffer, seed int64, ops int) {
	r := rand.New(rand.NewSource(seed))
	const maxClass = 8
	linkRate := float64(1+r.Intn(8)) * 125_000
	h := NewHTB(linkRate, ClassID(r.Intn(maxClass+2)))
	filters := func(target func(id int) int) {
		h.Classifier().Clear()
		for id := 0; id < maxClass+2; id++ {
			h.Classifier().Add(Filter{Pref: id, Match: MatchSrcPort(5000 + id), Target: ClassID(target(id))})
		}
	}
	filters(func(id int) int { return id })
	classCfg := func() HTBClassConfig {
		rate := float64(1+r.Intn(50)) * 4_000
		return HTBClassConfig{
			Rate: rate,
			Ceil: rate + float64(r.Intn(4))*linkRate/4,
			Prio: r.Intn(4),
		}
	}
	fmt.Fprintf(w, "seed %d rate %g def %d\n", seed, linkRate, h.DefaultClass())
	for id := 0; id < maxClass; id += 2 {
		fmt.Fprintf(w, "add %d %v\n", id, h.AddClass(ClassID(id), classCfg()) == nil)
	}
	now := 0.0
	flow := uint64(0)
	dequeue := func(at float64) {
		if ch := h.Dequeue(at); ch != nil {
			fmt.Fprintf(w, "d %d\n", ch.FlowID)
			now = max(now, at) + float64(ch.Bytes)/(4*linkRate)
		} else {
			fmt.Fprintln(w, "d nil")
		}
	}
	for i := 0; i < ops; i++ {
		switch op := r.Intn(100); {
		case op < 40: // a small burst; ports 5008/5009 never have a class
			port := 5000 + r.Intn(maxClass+2)
			for n := 1 + r.Intn(3); n > 0; n-- {
				flow++
				h.Enqueue(&Chunk{FlowID: flow, SrcPort: port, Bytes: int64(1+r.Intn(4)) * 16_000}, now)
			}
		case op < 65:
			now += float64(r.Intn(4)) * 0.002
			dequeue(now)
		case op < 80: // ReadyAt, then Dequeue at the promised instant
			at := h.ReadyAt(now)
			fmt.Fprintf(w, "r %x\n", at)
			if at < Never {
				dequeue(at)
			}
		case op < 84: // a query behind the token clock
			at := h.ReadyAt(now - 0.01)
			fmt.Fprintf(w, "r %x\n", at)
			dequeue(now - 0.01)
		case op < 92:
			id := r.Intn(maxClass)
			fmt.Fprintf(w, "add %d %v\n", id, h.AddClass(ClassID(id), classCfg()) == nil)
		default: // rewrite the chain: every port to a random class or hole
			filters(func(int) int { return r.Intn(maxClass + 2) })
			fmt.Fprintln(w, "filters")
		}
	}
	fmt.Fprintf(w, "stats %+v direct %d len %d\n", h.Stats(), h.DirectPackets(), h.Len())
	band := h.BandDequeuedBytes()
	ids := make([]int, 0, len(band))
	for id := range band {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	fmt.Fprint(w, "band")
	for _, id := range ids {
		fmt.Fprintf(w, " %d:%d", id, band[id])
	}
	fmt.Fprintln(w)
}

// TestHTBSequenceGolden replays the seeded programs and requires the
// output to match testdata/htb_sequence.golden byte for byte, so any
// change to HTB's decisions or floating-point arithmetic shows here
// first rather than only in the end-to-end goldens.
func TestHTBSequenceGolden(t *testing.T) {
	var got bytes.Buffer
	for seed := int64(1); seed <= 16; seed++ {
		renderHTBSequence(&got, seed, 400)
	}
	want, err := os.ReadFile(filepath.Join("testdata", htbSequenceGolden))
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got.Bytes(), want) {
		return
	}
	gl, wl := bytes.Split(got.Bytes(), []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if !bytes.Equal(gl[i], wl[i]) {
			t.Fatalf("HTB schedule diverges from %s at line %d:\n got: %s\nwant: %s",
				htbSequenceGolden, i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("HTB schedule length differs from %s: got %d lines, want %d",
		htbSequenceGolden, len(gl), len(wl))
}
