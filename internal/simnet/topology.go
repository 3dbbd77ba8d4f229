package simnet

import (
	"fmt"

	"repro/internal/qdisc"
)

// This file makes the fabric behind the NIC ports pluggable. The paper's
// testbed is a single non-blocking switch, which the original simnet
// hard-coded: one propagation hop, host NICs the only contention points.
// A Topology generalizes that: it owns the fabric's internal ("core")
// links — each one a rate-limited Port draining a qdisc, exactly like a
// NIC — and answers route lookups. The flat topology has no core links
// and reproduces the ideal switch byte-for-byte; the leaf-spine topology
// adds two contended hops (leaf uplink, spine downlink) to every
// cross-rack flow, opening the in-network-contention regime that
// CASSINI-style placement work studies.

// TopologyKind names a fabric topology.
type TopologyKind string

const (
	// TopologyFlat is the paper's single non-blocking switch: every
	// host pair is one propagation hop apart and only the NICs contend.
	// It is the default and is behaviour-identical to the pre-topology
	// fabric.
	TopologyFlat TopologyKind = "flat"
	// TopologyLeafSpine is a two-tier Clos fabric: hosts partition into
	// racks, each rack's leaf switch connects to every spine, and
	// cross-rack flows traverse a leaf uplink and a spine downlink —
	// both modelled as contended, rate-limited Ports. Flows pick their
	// spine by a deterministic ECMP flow hash.
	TopologyLeafSpine TopologyKind = "leafspine"
)

// TopologyError is a typed topology-configuration error, mirroring the
// fabric's Config validation but carrying the offending field so tests
// and callers can match on it with errors.As.
type TopologyError struct {
	Field  string // the TopologyConfig field at fault
	Reason string
}

// Error implements error.
func (e *TopologyError) Error() string {
	return fmt.Sprintf("simnet: topology %s: %s", e.Field, e.Reason)
}

func topoErrf(field, format string, args ...any) *TopologyError {
	return &TopologyError{Field: field, Reason: fmt.Sprintf(format, args...)}
}

// TopologyConfig selects and sizes the fabric topology. The zero value
// is the flat (ideal switch) topology.
type TopologyConfig struct {
	// Kind picks the topology ("" = flat).
	Kind TopologyKind
	// Racks is the number of racks (= leaf switches) in a leaf-spine
	// fabric. Hosts must divide evenly into racks: host h lives in rack
	// h / (hosts/Racks). Required (>= 1) when Kind is leafspine.
	Racks int
	// UplinksPerLeaf is how many spines each leaf connects to (default
	// 2). Cross-rack flows are ECMP-hashed over the uplinks.
	UplinksPerLeaf int
	// Oversubscription is the rack's host bandwidth divided by its
	// total uplink bandwidth (default 1, non-blocking). Each uplink and
	// downlink serves at hostsPerRack*LinkRate/(UplinksPerLeaf*ratio)
	// bytes/sec, so 2 means cross-rack flows compete for half the
	// bandwidth the hosts can offer — the classic oversubscribed core.
	Oversubscription float64
	// HopDelaySec is the per-segment propagation delay on multi-hop
	// routes (default Config.PropDelaySec). A cross-rack leaf-spine
	// path has three segments: NIC->leaf uplink, uplink->downlink,
	// downlink->NIC.
	HopDelaySec float64
}

// Validate reports static configuration errors (those detectable
// without knowing the host count). All errors are *TopologyError.
func (tc TopologyConfig) Validate() error {
	switch tc.Kind {
	case "", TopologyFlat, TopologyLeafSpine:
	default:
		return topoErrf("Kind", "unknown topology %q", tc.Kind)
	}
	if tc.Racks < 0 {
		return topoErrf("Racks", "%d is negative", tc.Racks)
	}
	if tc.Kind == TopologyLeafSpine && tc.Racks < 1 {
		return topoErrf("Racks", "leafspine needs Racks >= 1, got %d", tc.Racks)
	}
	if tc.UplinksPerLeaf < 0 {
		return topoErrf("UplinksPerLeaf", "%d is negative", tc.UplinksPerLeaf)
	}
	if tc.Oversubscription < 0 {
		return topoErrf("Oversubscription", "%g is negative", tc.Oversubscription)
	}
	if tc.HopDelaySec < 0 {
		return topoErrf("HopDelaySec", "%g is negative", tc.HopDelaySec)
	}
	return nil
}

// ValidateFor additionally checks the host-count-dependent assumptions;
// callers that know the cluster size (e.g. cluster.NewTestbed) should
// use it to surface errors before the fabric panics at build time.
func (tc TopologyConfig) ValidateFor(numHosts int) error {
	if err := tc.Validate(); err != nil {
		return err
	}
	if tc.Kind != TopologyLeafSpine {
		return nil
	}
	if numHosts < 1 {
		return topoErrf("Racks", "leafspine needs >= 1 host, got %d", numHosts)
	}
	if tc.Racks > numHosts {
		return topoErrf("Racks", "%d racks exceed %d hosts", tc.Racks, numHosts)
	}
	if numHosts%tc.Racks != 0 {
		return topoErrf("Racks", "%d hosts do not divide evenly into %d racks",
			numHosts, tc.Racks)
	}
	return nil
}

func (tc *TopologyConfig) fillDefaults(propDelaySec float64) {
	if tc.Kind == "" {
		tc.Kind = TopologyFlat
	}
	if tc.UplinksPerLeaf <= 0 {
		tc.UplinksPerLeaf = 2
	}
	if tc.Oversubscription <= 0 {
		tc.Oversubscription = 1
	}
	if tc.HopDelaySec <= 0 {
		tc.HopDelaySec = propDelaySec
	}
}

// RackOfHost returns the rack of a host under this config without
// building a fabric — placement code uses it to reason about a topology
// before any simulation exists. The flat topology is one rack.
func (tc TopologyConfig) RackOfHost(host, numHosts int) int {
	if tc.Kind != TopologyLeafSpine || tc.Racks < 1 || numHosts < tc.Racks {
		return 0
	}
	return host / (numHosts / tc.Racks)
}

// NumRacksFor returns the rack count for a cluster of numHosts hosts.
func (tc TopologyConfig) NumRacksFor(numHosts int) int {
	if tc.Kind != TopologyLeafSpine || tc.Racks < 1 {
		return 1
	}
	return tc.Racks
}

// Link is one contended core link of the fabric (a leaf uplink or spine
// downlink in the leaf-spine topology). It is built from the same Port
// machinery as host NICs, so qdiscs, band counters and fault
// detach/reattach all work on core links unchanged.
type Link struct {
	// ID is the link's index in the fabric's CoreLinks slice; fault
	// plans address links by it.
	ID int
	// Name is a human-readable identity ("leaf0->spine1" /
	// "spine1->leaf2").
	Name string
	port *Port
}

// Port returns the link's rate-limited server. SetDown, SetRateFactor
// and Qdisc stats all behave exactly as on a host NIC port.
func (l *Link) Port() *Port { return l.port }

// Topology is the routed fabric behind the NIC ports: a route lookup
// over per-link contended Ports plus a per-hop delay (held in
// TopologyConfig.HopDelaySec). Implementations are built once, after
// all hosts exist, and are immutable afterwards.
type Topology interface {
	// Kind names the topology.
	Kind() TopologyKind
	// Links returns the core links in ID order (empty for flat).
	Links() []*Link
	// Route returns the core links, in traversal order, that a flow
	// from src to dst crosses. An empty route is a single-hop path
	// (same switch or same rack): the chunk goes straight from the
	// source NIC to the destination NIC after one propagation delay.
	// Routing is per-flow (ECMP by flow hash) and deterministic: the
	// same four-tuple always takes the same path, independent of seed
	// or call order.
	Route(src, dst, srcPort, dstPort int) []*Link
	// RackOf returns the host's rack (always 0 for flat).
	RackOf(host int) int
	// NumRacks returns the rack count (1 for flat).
	NumRacks() int
}

// --- flat -----------------------------------------------------------

// flatTopology is the ideal single switch: no core links, one rack.
type flatTopology struct{}

func (flatTopology) Kind() TopologyKind                 { return TopologyFlat }
func (flatTopology) Links() []*Link                     { return nil }
func (flatTopology) Route(src, dst, sp, dp int) []*Link { return nil }
func (flatTopology) RackOf(host int) int                { return 0 }
func (flatTopology) NumRacks() int                      { return 1 }

// --- leaf-spine -----------------------------------------------------

// leafSpine is a two-tier Clos fabric. up[r][s] is rack r's uplink to
// spine s; down[r][s] is spine s's downlink into rack r. A cross-rack
// flow hashes onto spine s and traverses up[srcRack][s] then
// down[dstRack][s]; same-rack flows stay inside the non-blocking leaf.
type leafSpine struct {
	cfg          TopologyConfig
	hostsPerRack int
	links        []*Link
	up           [][]*Link
	down         [][]*Link
}

func newLeafSpine(f *Fabric, cfg TopologyConfig) *leafSpine {
	numHosts := f.NumHosts()
	if err := cfg.ValidateFor(numHosts); err != nil {
		panic(err)
	}
	t := &leafSpine{cfg: cfg, hostsPerRack: numHosts / cfg.Racks}
	// Each uplink/downlink carries an equal ECMP share of the rack's
	// core bandwidth: hostBW / (uplinks * oversubscription).
	rackHostBytes := float64(t.hostsPerRack) * f.cfg.LinkRateBps / 8
	linkRate := rackHostBytes / (float64(cfg.UplinksPerLeaf) * cfg.Oversubscription)
	mk := func(name string) *Link {
		l := &Link{ID: len(t.links), Name: name}
		l.port = newLinkPort(f, l, linkRate, qdisc.NewPFIFO(0))
		t.links = append(t.links, l)
		return l
	}
	t.up = make([][]*Link, cfg.Racks)
	t.down = make([][]*Link, cfg.Racks)
	for r := 0; r < cfg.Racks; r++ {
		t.up[r] = make([]*Link, cfg.UplinksPerLeaf)
		t.down[r] = make([]*Link, cfg.UplinksPerLeaf)
		for s := 0; s < cfg.UplinksPerLeaf; s++ {
			t.up[r][s] = mk(fmt.Sprintf("leaf%d->spine%d", r, s))
			t.down[r][s] = mk(fmt.Sprintf("spine%d->leaf%d", s, r))
		}
	}
	return t
}

func (t *leafSpine) Kind() TopologyKind { return TopologyLeafSpine }
func (t *leafSpine) Links() []*Link     { return t.links }
func (t *leafSpine) RackOf(host int) int {
	return host / t.hostsPerRack
}
func (t *leafSpine) NumRacks() int { return t.cfg.Racks }

// Route ECMP-hashes the flow's four-tuple onto a spine. The hash is a
// pure function of the tuple — no RNG, no per-run state — so routing is
// stable across runs and seeds, and every chunk of a flow (including
// retransmissions) takes the same path, as flow-hash ECMP does.
func (t *leafSpine) Route(src, dst, srcPort, dstPort int) []*Link {
	rs, rd := t.RackOf(src), t.RackOf(dst)
	if rs == rd {
		return nil
	}
	s := int(flowHash(src, dst, srcPort, dstPort) % uint64(t.cfg.UplinksPerLeaf))
	return []*Link{t.up[rs][s], t.down[rd][s]}
}

// flowHash is FNV-1a over the flow four-tuple.
func flowHash(vals ...int) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, v := range vals {
		u := uint64(v)
		for i := 0; i < 8; i++ {
			h ^= u & 0xff
			h *= prime64
			u >>= 8
		}
	}
	return h
}

// buildTopology constructs the configured topology for the fabric's
// current host set.
func buildTopology(f *Fabric) Topology {
	switch f.cfg.Topology.Kind {
	case "", TopologyFlat:
		return flatTopology{}
	case TopologyLeafSpine:
		return newLeafSpine(f, f.cfg.Topology)
	}
	panic(topoErrf("Kind", "unknown topology %q", f.cfg.Topology.Kind))
}
