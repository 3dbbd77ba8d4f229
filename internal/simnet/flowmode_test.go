package simnet

import (
	"math"
	"testing"

	"repro/internal/qdisc"
	"repro/internal/sim"
)

// burstFinish runs one burst on a fresh fabric and returns per-flow
// finish times (plus the fabric, for post-run accounting checks).
func burstFinish(t *testing.T, cfg Config, hosts, src int, specs []FlowSpec) ([]float64, *Fabric) {
	t.Helper()
	k := sim.NewKernel()
	f := New(k, sim.NewRNG(7), cfg)
	for i := 0; i < hosts; i++ {
		f.AddHost("h")
	}
	flows := f.SendBurst(src, specs)
	k.Run(nil)
	out := make([]float64, len(flows))
	for i, fl := range flows {
		if !fl.Done() {
			t.Fatalf("flow %d (mode %q) never completed", i, cfg.Mode)
		}
		out[i] = fl.Finished
	}
	return out, f
}

func relClose(a, b, tol float64) bool {
	d := math.Abs(a - b)
	m := math.Max(math.Abs(a), math.Abs(b))
	return d <= tol*m || d < 1e-12
}

// TestFlowModeSingleFlowMatchesChunk: on an uncontended path the
// analytic model's completion time is the chunk fabric's exactly — the
// egress serializes Bytes*WO at rate, then one pipeline-fill tail.
func TestFlowModeSingleFlowMatchesChunk(t *testing.T) {
	for _, bytes := range []int64{100, 64 << 10, 1 << 20, 4 << 20, 10<<20 + 12345} {
		cfg := Config{
			LinkRateBps:  8e9,
			PropDelaySec: 1e-3,
			ChunkBytes:   1 << 20,
		}
		spec := []FlowSpec{{Src: 0, Dst: 1, SrcPort: 10, DstPort: 20, Bytes: bytes}}
		chunk, _ := burstFinish(t, cfg, 2, 0, spec)
		cfg.Mode = ModeFlow
		flow, _ := burstFinish(t, cfg, 2, 0, spec)
		if !relClose(chunk[0], flow[0], 1e-9) {
			t.Fatalf("bytes=%d: chunk finished %.9f, flow %.9f", bytes, chunk[0], flow[0])
		}
	}
}

// TestFlowModeLeafSpineCrossRackMatchesChunk: the tail term covers the
// routed pipeline too — per downstream hop one hop delay plus one chunk
// serialization.
func TestFlowModeLeafSpineCrossRackMatchesChunk(t *testing.T) {
	cfg := Config{
		LinkRateBps:  8e9,
		PropDelaySec: 1e-3,
		ChunkBytes:   1 << 20,
		Topology: TopologyConfig{
			Kind: TopologyLeafSpine, Racks: 2, UplinksPerLeaf: 2,
		},
	}
	for _, spec := range []FlowSpec{
		{Src: 0, Dst: 5, SrcPort: 10, DstPort: 20, Bytes: 6 << 20}, // cross-rack
		{Src: 0, Dst: 2, SrcPort: 11, DstPort: 21, Bytes: 6 << 20}, // same-rack
	} {
		chunk, _ := burstFinish(t, cfg, 8, 0, []FlowSpec{spec})
		fcfg := cfg
		fcfg.Mode = ModeFlow
		flow, _ := burstFinish(t, fcfg, 8, 0, []FlowSpec{spec})
		if !relClose(chunk[0], flow[0], 1e-9) {
			t.Fatalf("dst=%d: chunk finished %.9f, flow %.9f", spec.Dst, chunk[0], flow[0])
		}
	}
}

// TestFlowModeBurstLastCompletionMatchesChunk: under FIFO contention
// the two models share the egress differently flow-by-flow, but both
// are work-conserving, so the burst's last completion matches.
func TestFlowModeBurstLastCompletionMatchesChunk(t *testing.T) {
	cfg := Config{
		LinkRateBps:  8e9,
		PropDelaySec: 1e-3,
		ChunkBytes:   1 << 20,
	}
	specs := []FlowSpec{
		{Src: 0, Dst: 1, SrcPort: 10, DstPort: 20, Bytes: 8 << 20},
		{Src: 0, Dst: 2, SrcPort: 11, DstPort: 21, Bytes: 8 << 20},
		{Src: 0, Dst: 3, SrcPort: 12, DstPort: 22, Bytes: 8 << 20},
	}
	last := func(fin []float64) float64 {
		m := 0.0
		for _, v := range fin {
			m = math.Max(m, v)
		}
		return m
	}
	chunk, _ := burstFinish(t, cfg, 4, 0, specs)
	cfg.Mode = ModeFlow
	flow, _ := burstFinish(t, cfg, 4, 0, specs)
	if !relClose(last(chunk), last(flow), 0.02) {
		t.Fatalf("last completion: chunk %.6f, flow %.6f", last(chunk), last(flow))
	}
}

// TestFlowModeLoopback: intra-host flows bypass the NIC in both modes.
func TestFlowModeLoopback(t *testing.T) {
	cfg := Config{Mode: ModeFlow}
	fin, f := burstFinish(t, cfg, 2, 0, []FlowSpec{{Src: 0, Dst: 0, Bytes: 10 << 20}})
	if f.Host(0).Egress.Bytes() != 0 {
		t.Fatal("loopback used the NIC")
	}
	if fin[0] != f.Config().PropDelaySec {
		t.Fatalf("loopback finished at %g, want %g", fin[0], f.Config().PropDelaySec)
	}
}

// htbGreenYellow installs the TensorLights qdisc shape on host 0: HTB
// with a green class 0 (Prio 0) and yellow class 1 (Prio 1), both
// ceiled at the full payload rate, green selected by DstPort 100.
func htbGreenYellow(t *testing.T, f *Fabric, ceil float64) *qdisc.HTB {
	t.Helper()
	h := qdisc.NewHTB(ceil, 1)
	if err := h.AddClass(0, qdisc.HTBClassConfig{Rate: 1e6, Ceil: ceil, Prio: 0}); err != nil {
		t.Fatal(err)
	}
	if err := h.AddClass(1, qdisc.HTBClassConfig{Rate: 1e6, Ceil: ceil, Prio: 1}); err != nil {
		t.Fatal(err)
	}
	m := qdisc.MatchAll()
	m.DstPort = 100
	h.Classifier().Add(qdisc.Filter{Pref: 1, Match: m, Target: 0})
	f.Host(0).SetEgressQdisc(h)
	return h
}

// TestFlowModeHTBStrictPriority: a green flow takes the whole egress
// while a same-sized yellow flow waits, then yellow gets the residual —
// completion times 1x and 2x the line-rate transfer time.
func TestFlowModeHTBStrictPriority(t *testing.T) {
	cfg := Config{
		LinkRateBps:  8e9, // 1 GB/s wire
		WireOverhead: 1.0, // payload rate = 1 GB/s for round numbers
		PropDelaySec: 1e-3,
		ChunkBytes:   1 << 20,
		Mode:         ModeFlow,
	}
	k := sim.NewKernel()
	f := New(k, sim.NewRNG(7), cfg)
	for i := 0; i < 3; i++ {
		f.AddHost("h")
	}
	htbGreenYellow(t, f, 1e9)
	flows := f.SendBurst(0, []FlowSpec{
		{Src: 0, Dst: 1, SrcPort: 10, DstPort: 100, Bytes: 100 << 20}, // green
		{Src: 0, Dst: 2, SrcPort: 11, DstPort: 200, Bytes: 100 << 20}, // yellow
	})
	k.Run(nil)
	bulk := float64(100<<20) / 1e9
	green, yellow := flows[0].Finished, flows[1].Finished
	if !relClose(green, bulk, 0.05) {
		t.Fatalf("green finished %.4f, want ~%.4f (line rate, no sharing)", green, bulk)
	}
	if !relClose(yellow, 2*bulk, 0.05) {
		t.Fatalf("yellow finished %.4f, want ~%.4f (runs after green)", yellow, 2*bulk)
	}
	// Per-band accounting credits each flow to its egress band.
	bands := f.FlowBandBytes(0)
	if bands[0] != 100<<20 || bands[1] != 100<<20 {
		t.Fatalf("band bytes %v, want 100MB in bands 0 and 1", bands)
	}
}

// TestFlowModeReclassifyMidFlight: a tc-style reconfiguration promotes
// an in-flight flow out of a throttled class; the engine recomputes and
// the flow finishes at the new rate.
func TestFlowModeReclassifyMidFlight(t *testing.T) {
	cfg := Config{
		LinkRateBps:  8e9,
		WireOverhead: 1.0,
		PropDelaySec: 1e-3,
		ChunkBytes:   1 << 20,
		Mode:         ModeFlow,
	}
	k := sim.NewKernel()
	f := New(k, sim.NewRNG(7), cfg)
	f.AddHost("h")
	f.AddHost("h")
	h := qdisc.NewHTB(1e9, 1)
	if err := h.AddClass(0, qdisc.HTBClassConfig{Rate: 1e6, Ceil: 1e9, Prio: 0}); err != nil {
		t.Fatal(err)
	}
	// Default class throttled to a quarter of the line rate.
	if err := h.AddClass(1, qdisc.HTBClassConfig{Rate: 1e6, Ceil: 0.25e9, Prio: 1}); err != nil {
		t.Fatal(err)
	}
	f.Host(0).SetEgressQdisc(h)
	fl := f.Send(FlowSpec{Src: 0, Dst: 1, SrcPort: 10, DstPort: 200, Bytes: 100 << 20})
	// Unpromoted: 100MB at 0.25 GB/s = 0.4s. Promote at 0.1s; the
	// remaining 75MB runs at 1 GB/s: finish ~0.175s + tail.
	k.Schedule(0.1, func() {
		m := qdisc.MatchAll()
		m.DstPort = 200
		h.Classifier().Add(qdisc.Filter{Pref: 1, Match: m, Target: 0})
		f.EgressReconfigured(0)
	})
	k.Run(nil)
	if !fl.Done() {
		t.Fatal("flow never completed")
	}
	if !relClose(fl.Finished, 0.175, 0.05) {
		t.Fatalf("promoted flow finished %.4f, want ~0.175", fl.Finished)
	}
}

// TestFlowModeNICFaultStallsAndResumes: downing the source NIC freezes
// the flow; the completion slips by exactly the outage.
func TestFlowModeNICFaultStallsAndResumes(t *testing.T) {
	cfg := Config{
		LinkRateBps:  8e9,
		WireOverhead: 1.0,
		PropDelaySec: 1e-3,
		ChunkBytes:   1 << 20,
		Mode:         ModeFlow,
	}
	k := sim.NewKernel()
	f := New(k, sim.NewRNG(7), cfg)
	f.AddHost("h")
	f.AddHost("h")
	fl := f.Send(FlowSpec{Src: 0, Dst: 1, Bytes: 100 << 20}) // 0.1s at line rate
	k.Schedule(0.02, func() { f.Host(0).SetNICDown(true) })
	k.Schedule(0.07, func() { f.Host(0).SetNICDown(false) })
	k.Run(nil)
	if !relClose(fl.Finished, 0.15, 0.05) {
		t.Fatalf("finished %.4f, want ~0.15 (0.1s transfer + 0.05s outage)", fl.Finished)
	}
}

// TestFlowModeDropProbDeratesEgress: an injected chunk-loss probability
// becomes a fluid capacity derate (the goodput TCP would sustain while
// retransmitting that fraction).
func TestFlowModeDropProbDeratesEgress(t *testing.T) {
	cfg := Config{
		LinkRateBps:  8e9,
		WireOverhead: 1.0,
		PropDelaySec: 1e-3,
		ChunkBytes:   1 << 20,
		Mode:         ModeFlow,
	}
	k := sim.NewKernel()
	f := New(k, sim.NewRNG(7), cfg)
	f.AddHost("h")
	f.AddHost("h")
	f.Host(0).SetChunkDropProb(0.5)
	fl := f.Send(FlowSpec{Src: 0, Dst: 1, Bytes: 100 << 20})
	k.Run(nil)
	bulk := float64(100<<20) / 0.5e9
	if !relClose(fl.Finished, bulk, 0.05) {
		t.Fatalf("finished %.4f, want ~%.4f (half the 1 GB/s line)", fl.Finished, bulk)
	}
	if f.DroppedChunks() != 0 {
		t.Fatal("flow mode simulates no discrete losses")
	}
}

// TestFlowModePortAccessors: the utilization accessors read from the
// analytic engine so metrics work unchanged across modes.
func TestFlowModePortAccessors(t *testing.T) {
	cfg := Config{
		LinkRateBps:  8e9,
		WireOverhead: 1.0,
		PropDelaySec: 1e-3,
		ChunkBytes:   1 << 20,
		Mode:         ModeFlow,
	}
	k := sim.NewKernel()
	f := New(k, sim.NewRNG(7), cfg)
	f.AddHost("h")
	f.AddHost("h")
	const bytes = 100 << 20
	f.Send(FlowSpec{Src: 0, Dst: 1, Bytes: bytes})
	k.Schedule(0.05, func() {
		eg := f.Host(0).Egress
		if q := eg.QueuedBytes(); q <= 0 || q >= bytes {
			t.Errorf("mid-flight backlog %d, want in (0, %d)", q, int64(bytes))
		}
		if b := eg.Bytes(); b <= 0 || b >= bytes {
			t.Errorf("mid-flight served %d, want in (0, %d)", b, int64(bytes))
		}
	})
	k.Run(nil)
	eg := f.Host(0).Egress
	if eg.Bytes() != bytes {
		t.Fatalf("egress served %d, want %d", eg.Bytes(), int64(bytes))
	}
	if got, want := eg.Chunks(), int64(bytes/(1<<20)); got != want {
		t.Fatalf("egress chunks %d, want %d", got, want)
	}
	if bt, want := eg.BusyTime(), float64(bytes)/1e9; !relClose(bt, want, 0.01) {
		t.Fatalf("busy time %.4f, want ~%.4f", bt, want)
	}
	if eg.QueuedBytes() != 0 {
		t.Fatalf("backlog %d after completion", eg.QueuedBytes())
	}
	if f.FlowEngineResolves() == 0 {
		t.Fatal("engine never resolved")
	}
}

// TestFlowModeDeterminism: same seed, same completion times.
func TestFlowModeDeterminism(t *testing.T) {
	cfg := Config{Mode: ModeFlow, InjectJitter: 1}
	specs := []FlowSpec{
		{Src: 0, Dst: 1, SrcPort: 10, DstPort: 20, Bytes: 3 << 20},
		{Src: 0, Dst: 2, SrcPort: 11, DstPort: 21, Bytes: 5 << 20},
		{Src: 0, Dst: 3, SrcPort: 12, DstPort: 22, Bytes: 7 << 20},
	}
	a, _ := burstFinish(t, cfg, 4, 0, specs)
	b, _ := burstFinish(t, cfg, 4, 0, specs)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("flow %d: %v vs %v", i, a[i], b[i])
		}
	}
}
