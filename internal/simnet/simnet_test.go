package simnet

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/qdisc"
	"repro/internal/sim"
	"repro/internal/trace"
)

func newFabric(t *testing.T, cfg Config, hosts int) (*sim.Kernel, *Fabric) {
	t.Helper()
	k := sim.NewKernel()
	f := New(k, sim.NewRNG(5), cfg)
	for i := 0; i < hosts; i++ {
		f.AddHost("h")
	}
	return k, f
}

func TestSingleFlowTiming(t *testing.T) {
	cfg := Config{
		LinkRateBps:     8e9, // 1 GB/s for round numbers
		PropDelaySec:    1e-3,
		ChunkBytes:      1 << 20,
		WireOverhead:    1.0,
		MinWindowChunks: 4,
		MaxWindowChunks: 4,
	}
	k, f := newFabric(t, cfg, 2)
	var finished float64
	f.Send(FlowSpec{Src: 0, Dst: 1, Bytes: 4 << 20, OnComplete: func(fl *Flow) {
		finished = fl.Finished
	}})
	k.Run(nil)
	// 4 MB over 1 GB/s egress + 1 GB/s ingress pipelined by chunk:
	// egress finishes last chunk at 4 ms; +prop 1 ms; ingress adds one
	// chunk service (1 ms) after the last arrival: ~6 ms.
	want := 0.006
	if math.Abs(finished-want) > 5e-4 {
		t.Fatalf("flow finished at %v, want ~%v", finished, want)
	}
}

func TestFlowAccounting(t *testing.T) {
	k, f := newFabric(t, Config{}, 2)
	var got *Flow
	fl := f.Send(FlowSpec{Src: 0, Dst: 1, Bytes: 999_999, OnComplete: func(fl *Flow) { got = fl }})
	if f.ActiveFlows() != 1 {
		t.Fatal("active flows")
	}
	k.Run(nil)
	if got != fl || !fl.Done() {
		t.Fatal("completion callback")
	}
	if fl.Delivered() != 999_999 {
		t.Fatalf("delivered %d", fl.Delivered())
	}
	if fl.FirstByte < 0 || fl.FirstByte > fl.Finished {
		t.Fatalf("first byte %v finished %v", fl.FirstByte, fl.Finished)
	}
	if f.ActiveFlows() != 0 || f.CompletedFlows() != 1 {
		t.Fatal("fabric accounting")
	}
}

func TestLoopbackBypassesNIC(t *testing.T) {
	k, f := newFabric(t, Config{}, 2)
	done := false
	f.Send(FlowSpec{Src: 0, Dst: 0, Bytes: 10 << 20, OnComplete: func(fl *Flow) { done = true }})
	k.Run(nil)
	if !done {
		t.Fatal("loopback flow never completed")
	}
	if f.Host(0).Egress.Bytes() != 0 {
		t.Fatal("loopback used the NIC")
	}
}

func TestBurstWorkConservation(t *testing.T) {
	k, f := newFabric(t, Config{}, 4)
	var specs []FlowSpec
	total := int64(0)
	for d := 1; d < 4; d++ {
		for i := 0; i < 5; i++ {
			b := int64(1+i) * 100_000
			total += b
			specs = append(specs, FlowSpec{Src: 0, Dst: d, Bytes: b})
		}
	}
	flows := f.SendBurst(0, specs)
	k.Run(nil)
	var delivered int64
	for _, fl := range flows {
		if !fl.Done() {
			t.Fatal("flow incomplete")
		}
		delivered += fl.Delivered()
	}
	if delivered != total {
		t.Fatalf("delivered %d of %d", delivered, total)
	}
	if f.Host(0).Egress.Bytes() != total {
		t.Fatalf("egress bytes %d", f.Host(0).Egress.Bytes())
	}
}

func TestWindowProportionalShare(t *testing.T) {
	// Two flows, windows 1 and 4, fully backlogged on one egress: the
	// window-4 flow must finish well before the window-1 flow.
	cfg := Config{
		MinWindowChunks: 1,
		MaxWindowChunks: 1,
		InjectJitter:    0,
	}
	k := sim.NewKernel()
	f := New(k, sim.NewRNG(5), cfg)
	f.AddHost("src")
	f.AddHost("d1")
	f.AddHost("d2")
	// Hand-build flows with explicit windows via WindowWeights trick:
	// instead, send two bursts with different configured windows by
	// using two fabrics would be awkward — here we exploit sampleWindow
	// determinism: with Min=Max=1 both get window 1; then grow one
	// flow's share by splitting it across 4 parallel flows (same dst),
	// the aggregate behaving like window 4.
	bytes := int64(8 << 20)
	var slowDone, fastDone float64
	f.Send(FlowSpec{Src: 0, Dst: 1, Bytes: bytes, OnComplete: func(fl *Flow) { slowDone = fl.Finished }})
	per := bytes / 4
	fast := 0
	for i := 0; i < 4; i++ {
		f.Send(FlowSpec{Src: 0, Dst: 2, Bytes: per, OnComplete: func(fl *Flow) {
			fast++
			if fast == 4 {
				fastDone = fl.Finished
			}
		}})
	}
	k.Run(nil)
	if fastDone >= slowDone {
		t.Fatalf("4x window share finished at %v, single at %v", fastDone, slowDone)
	}
}

func TestQdiscReplacementMidFlight(t *testing.T) {
	k, f := newFabric(t, Config{}, 3)
	done := 0
	var specs []FlowSpec
	for d := 1; d < 3; d++ {
		for i := 0; i < 10; i++ {
			specs = append(specs, FlowSpec{Src: 0, Dst: d, Bytes: 2 << 20,
				OnComplete: func(*Flow) { done++ }})
		}
	}
	f.SendBurst(0, specs)
	// Swap the qdisc several times while the burst is in flight.
	for i := 1; i <= 3; i++ {
		i := i
		k.Schedule(float64(i)*0.002, func() {
			h := NewHTBForTest(f.Host(0).Egress.RateBytes())
			f.Host(0).SetEgressQdisc(h)
		})
	}
	k.Run(nil)
	if done != len(specs) {
		t.Fatalf("lost flows across qdisc replacement: %d of %d", done, len(specs))
	}
}

// NewHTBForTest builds an htb with one catch-all class, exercising the
// drain path against a shaped qdisc.
func NewHTBForTest(linkRate float64) qdisc.Qdisc {
	h := qdisc.NewHTB(linkRate, 0)
	if err := h.AddClass(0, qdisc.HTBClassConfig{Rate: 125_000, Ceil: linkRate}); err != nil {
		panic(err)
	}
	return h
}

func TestIngressSerialization(t *testing.T) {
	// Two senders each push 8 MB to the same receiver: the receiver's
	// ingress serializes, so total time ~= 2x one transfer.
	cfg := Config{LinkRateBps: 8e9, WireOverhead: 1.0, PropDelaySec: 1e-6}
	k, f := newFabric(t, cfg, 3)
	var last float64
	for src := 0; src < 2; src++ {
		f.Send(FlowSpec{Src: src, Dst: 2, Bytes: 8 << 20, OnComplete: func(fl *Flow) {
			if fl.Finished > last {
				last = fl.Finished
			}
		}})
	}
	k.Run(nil)
	oneTransfer := float64(8<<20) / 1e9
	if last < 1.8*oneTransfer {
		t.Fatalf("ingress did not serialize: last %v, one transfer %v", last, oneTransfer)
	}
	if got := f.Host(2).Ingress.Bytes(); got != 16<<20 {
		t.Fatalf("ingress bytes %d", got)
	}
}

func TestDeterminismSameSeed(t *testing.T) {
	run := func() []float64 {
		k := sim.NewKernel()
		f := New(k, sim.NewRNG(33), Config{})
		for i := 0; i < 4; i++ {
			f.AddHost("h")
		}
		var out []float64
		var specs []FlowSpec
		for d := 1; d < 4; d++ {
			for i := 0; i < 6; i++ {
				specs = append(specs, FlowSpec{Src: 0, Dst: d, Bytes: 3 << 20,
					OnComplete: func(fl *Flow) { out = append(out, fl.Finished) }})
			}
		}
		f.SendBurst(0, specs)
		k.Run(nil)
		return out
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatal("different completion counts")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed produced different timings")
		}
	}
}

func TestSendBurstPanics(t *testing.T) {
	k, f := newFabric(t, Config{}, 2)
	_ = k
	for _, spec := range []FlowSpec{
		{Src: 1, Dst: 0, Bytes: 100}, // src mismatch with burst src
		{Src: 0, Dst: 1, Bytes: 0},   // no bytes
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("spec %+v accepted", spec)
				}
			}()
			f.SendBurst(0, []FlowSpec{spec})
		}()
	}
}

func TestHostOutOfRangePanics(t *testing.T) {
	_, f := newFabric(t, Config{}, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range host accepted")
		}
	}()
	f.Host(5)
}

func TestConfigDefaults(t *testing.T) {
	_, f := newFabric(t, Config{}, 1)
	cfg := f.Config()
	if cfg.LinkRateBps != 10e9 || cfg.ChunkBytes != 256*1024 {
		t.Fatalf("defaults %+v", cfg)
	}
	if cfg.WireOverhead != 1.25 {
		t.Fatalf("wire overhead default %v", cfg.WireOverhead)
	}
	if len(cfg.WindowWeights) == 0 {
		t.Fatal("window weights default missing")
	}
	if f.NumHosts() != 1 || len(f.Hosts()) != 1 {
		t.Fatal("hosts")
	}
}

func TestSampleWindowDistribution(t *testing.T) {
	k := sim.NewKernel()
	f := New(k, sim.NewRNG(9), Config{WindowWeights: []float64{0, 1, 0, 1}})
	f.AddHost("a")
	f.AddHost("b")
	counts := map[int]int{}
	for i := 0; i < 400; i++ {
		fl := f.Send(FlowSpec{Src: 0, Dst: 1, Bytes: 100})
		counts[fl.Window()]++
	}
	k.Run(nil)
	if counts[1] != 0 || counts[3] != 0 {
		t.Fatalf("zero-weight windows drawn: %v", counts)
	}
	if counts[2] < 100 || counts[4] < 100 {
		t.Fatalf("weighted windows skewed: %v", counts)
	}
}

// Property: every flow in a random burst completes with exactly its
// byte count, regardless of sizes and destinations.
func TestBurstCompletionProperty(t *testing.T) {
	f := func(seed int64, sizes []uint16) bool {
		if len(sizes) == 0 {
			return true
		}
		if len(sizes) > 40 {
			sizes = sizes[:40]
		}
		k := sim.NewKernel()
		fab := New(k, sim.NewRNG(seed), Config{})
		for i := 0; i < 5; i++ {
			fab.AddHost("h")
		}
		var specs []FlowSpec
		for i, s := range sizes {
			specs = append(specs, FlowSpec{
				Src: 0, Dst: 1 + i%4, Bytes: int64(s) + 1,
			})
		}
		flows := fab.SendBurst(0, specs)
		k.MaxEvents = 10_000_000
		k.Run(nil)
		for i, fl := range flows {
			if !fl.Done() || fl.Delivered() != int64(sizes[i])+1 {
				return false
			}
		}
		return fab.ActiveFlows() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestFlowTracerEmitsCompletion(t *testing.T) {
	k, f := newFabric(t, Config{}, 2)
	buf := &trace.Buffer{}
	f.Tracer = buf
	f.Send(FlowSpec{Src: 0, Dst: 1, Bytes: 1 << 20, JobID: 3})
	k.Run(nil)
	events := buf.Filter(func(e trace.Event) bool { return e.Kind == trace.KindFlowDone })
	if len(events) != 1 {
		t.Fatalf("flow_done events %d", len(events))
	}
	e := events[0]
	if e.Job != 3 || e.Host != 1 || e.Value <= 0 {
		t.Fatalf("event %+v", e)
	}
}

func TestShapedEgressEndToEnd(t *testing.T) {
	// An htb class capped below line rate drives the port's
	// future-wakeup path: the device must sleep until tokens refill
	// rather than spin or stall.
	cfg := Config{LinkRateBps: 8e9, WireOverhead: 1.0}
	k, f := newFabric(t, cfg, 2)
	rate := 50e6 // 50 MB/s shaping on a 1 GB/s link
	h := qdisc.NewHTB(1e9, 0)
	if err := h.AddClass(0, qdisc.HTBClassConfig{Rate: rate, Ceil: rate}); err != nil {
		t.Fatal(err)
	}
	f.Host(0).SetEgressQdisc(h)
	var finished float64
	bytes := int64(16 << 20)
	f.Send(FlowSpec{Src: 0, Dst: 1, Bytes: bytes, OnComplete: func(fl *Flow) {
		finished = fl.Finished
	}})
	k.Run(nil)
	want := float64(bytes) / rate
	if finished < 0.8*want {
		t.Fatalf("shaped egress finished at %v, want >= %v", finished, 0.8*want)
	}
	if f.Host(0).Egress.Qdisc().Kind() != "htb" {
		t.Fatal("qdisc accessor")
	}
	if f.Host(0).Egress.BusyTime() <= 0 || f.Host(0).Egress.Chunks() == 0 {
		t.Fatal("port accounting")
	}
	if f.Host(0).Egress.QueuedBytes() != 0 {
		t.Fatal("backlog left after completion")
	}
	if f.Kernel() != k {
		t.Fatal("kernel accessor")
	}
}

func TestDeterministicInterleaveWithoutJitter(t *testing.T) {
	// InjectJitter 0 uses the round-robin merge: chunk injection order
	// must be exactly alternating across two equal flows.
	cfg := Config{InjectJitter: -1, MinWindowChunks: 8, MaxWindowChunks: 8}
	k := sim.NewKernel()
	f := New(k, sim.NewRNG(1), cfg)
	f.AddHost("src")
	f.AddHost("d1")
	f.AddHost("d2")
	specs := []FlowSpec{
		{Src: 0, Dst: 1, Bytes: 4 * 256 * 1024},
		{Src: 0, Dst: 2, Bytes: 4 * 256 * 1024},
	}
	flows := f.SendBurst(0, specs)
	// With equal windows and round-robin injection, both flows finish
	// within one chunk service time of each other.
	k.Run(nil)
	gap := flows[0].Finished - flows[1].Finished
	if gap < 0 {
		gap = -gap
	}
	chunkTime := 256 * 1024 * f.Config().WireOverhead / f.Host(0).Egress.RateBytes()
	if gap > 2.5*chunkTime {
		t.Fatalf("round-robin merge skewed: gap %v, chunk time %v", gap, chunkTime)
	}
}
