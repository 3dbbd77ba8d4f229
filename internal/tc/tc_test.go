package tc

import (
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/qdisc"
	"repro/internal/sim"
	"repro/internal/simnet"
)

func newTestFabric(t *testing.T) (*simnet.Fabric, *Controller) {
	t.Helper()
	k := sim.NewKernel()
	fab := simnet.New(k, sim.NewRNG(1), simnet.Config{})
	fab.AddHost("h0")
	fab.AddHost("h1")
	return fab, NewController(fab)
}

func TestParseRate(t *testing.T) {
	cases := []struct {
		in   string
		want float64 // bytes/sec
	}{
		{"10gbit", 1.25e9},
		{"1gbit", 1.25e8},
		{"100mbit", 1.25e7},
		{"1mbit", 125000},
		{"8kbit", 1000},
		{"8bit", 1},
		{"1gbps", 1e9},
		{"1mbps", 1e6},
		{"1kbps", 1e3},
		{"80bps", 80},
		{"800", 100}, // bare bits/sec
	}
	for _, c := range cases {
		got, err := ParseRate(c.in)
		if err != nil {
			t.Fatalf("%s: %v", c.in, err)
		}
		if got != c.want {
			t.Fatalf("%s: got %v want %v", c.in, got, c.want)
		}
	}
	for _, bad := range []string{"", "fast", "-3mbit", "0gbit", "mbit"} {
		if _, err := ParseRate(bad); err == nil {
			t.Fatalf("%q accepted", bad)
		}
	}
}

func TestQdiscAddKinds(t *testing.T) {
	fab, ctl := newTestFabric(t)
	cases := []struct {
		cmd  string
		kind string
	}{
		{"qdisc add dev eth0 root prio bands 6", "prio"},
		{"qdisc add dev eth0 root htb default 5", "htb"},
		{"qdisc del dev eth0 root", "pfifo"},
	}
	for _, c := range cases {
		if err := ctl.Exec(0, c.cmd); err != nil {
			t.Fatalf("%s: %v", c.cmd, err)
		}
		if got := fab.Host(0).Egress.Qdisc().Kind(); got != c.kind {
			t.Fatalf("%s installed %s", c.cmd, got)
		}
	}
	if ctl.ExecCount() != len(cases) {
		t.Fatalf("exec count %d", ctl.ExecCount())
	}
}

func TestQdiscDelRestoresPfifo(t *testing.T) {
	fab, ctl := newTestFabric(t)
	ctl.MustExec(0, "qdisc add dev eth0 root htb default 0")
	ctl.MustExec(0, "qdisc del dev eth0 root")
	if fab.Host(0).Egress.Qdisc().Kind() != "pfifo" {
		t.Fatal("del did not restore pfifo")
	}
}

func TestFullTensorLightsSequence(t *testing.T) {
	fab, ctl := newTestFabric(t)
	seq := []string{
		"qdisc add dev eth0 root htb default 2",
		"class add dev eth0 classid 0 rate 1mbit ceil 10gbit prio 0",
		"class add dev eth0 classid 1 rate 1mbit ceil 10gbit prio 1",
		"class add dev eth0 classid 2 rate 1mbit ceil 10gbit prio 2",
		"filter add dev eth0 pref 0 match sport 5000 flowid 0",
		"filter add dev eth0 pref 1 match sport 5001 flowid 1",
	}
	for _, c := range seq {
		if err := ctl.Exec(0, c); err != nil {
			t.Fatalf("%s: %v", c, err)
		}
	}
	htb := fab.Host(0).Egress.Qdisc().(*qdisc.HTB)
	if len(htb.Classes()) != 3 {
		t.Fatalf("classes %v", htb.Classes())
	}
	if htb.Classifier().Len() != 2 {
		t.Fatal("filters missing")
	}
	// Classification works end to end.
	got := htb.Classifier().Classify(&qdisc.Chunk{SrcPort: 5001})
	if got != 1 {
		t.Fatalf("classified to %d", got)
	}
	// Unmatched goes to default.
	got = htb.Classifier().Classify(&qdisc.Chunk{SrcPort: 9999})
	if got != 2 {
		t.Fatalf("default classified to %d", got)
	}
}

func TestClassRequiresHTB(t *testing.T) {
	_, ctl := newTestFabric(t)
	ctl.MustExec(0, "qdisc add dev eth0 root prio bands 3")
	err := ctl.Exec(0, "class add dev eth0 classid 0 rate 1mbit ceil 10gbit prio 0")
	if err == nil || !strings.Contains(err.Error(), "require an htb root") {
		t.Fatalf("class add on prio: %v", err)
	}
}

func TestFilterDel(t *testing.T) {
	fab, ctl := newTestFabric(t)
	ctl.MustExec(0, "qdisc add dev eth0 root prio bands 3")
	ctl.MustExec(0, "filter add dev eth0 pref 1 match sport 5000 flowid 0")
	ctl.MustExec(0, "filter add dev eth0 pref 2 match sport 5001 flowid 1")
	pr := fab.Host(0).Egress.Qdisc().(*qdisc.Prio)
	ctl.MustExec(0, "filter del dev eth0 all")
	if pr.Classifier().Len() != 0 {
		t.Fatal("filter del all left filters")
	}
	// Without a classful root there is no chain to clear.
	ctl.MustExec(0, "qdisc del dev eth0 root")
	if err := ctl.Exec(0, "filter del dev eth0 all"); err == nil {
		t.Fatal("filter del on pfifo accepted")
	}
}

func TestFilterMatchKeys(t *testing.T) {
	fab, ctl := newTestFabric(t)
	ctl.MustExec(0, "qdisc add dev eth0 root prio bands 4")
	ctl.MustExec(0, "filter add dev eth0 pref 0 match sport 5000 flowid 2")
	pr := fab.Host(0).Egress.Qdisc().(*qdisc.Prio)
	f := pr.Classifier().Filters()[0]
	if f.Match != qdisc.MatchSrcPort(5000) || f.Target != 2 {
		t.Fatalf("filter %+v", f)
	}
	// sport is the only key: a second one is rejected, not ignored.
	err := ctl.Exec(0, "filter add dev eth0 pref 0 match sport 5000 dport 80 flowid 2")
	if err == nil || !strings.Contains(err.Error(), `"dport"`) {
		t.Fatalf("second match key: %v", err)
	}
}

func TestErrors(t *testing.T) {
	_, ctl := newTestFabric(t)
	bad := []string{
		"",
		"qdisc",
		"blah add dev eth0 root htb default 0",
		"qdisc add dev eth1 root htb default 0", // unknown device
		"qdisc add dev eth0 parent htb default 0",     // non-root
		"qdisc add dev eth0 root mystery",             // unknown kind
		"qdisc add dev eth0 root prio bands 99",       // out of range
		"qdisc add dev eth0 root htb",                 // missing default
		"qdisc frobnicate dev eth0 root",              // unknown verb
		"filter add dev eth0 pref 0 match sport 5000", // no flowid
	}
	for _, cmd := range bad {
		if err := ctl.Exec(0, cmd); err == nil {
			t.Fatalf("%q accepted", cmd)
		}
	}
	if ctl.ExecErrors() != len(bad) {
		t.Fatalf("exec errors %d, want %d", ctl.ExecErrors(), len(bad))
	}
	// Filters require a classful root.
	ctl.MustExec(0, "qdisc del dev eth0 root")
	if err := ctl.Exec(0, "filter add dev eth0 pref 0 match sport 1 flowid 0"); err == nil {
		t.Fatal("filter on pfifo accepted")
	}
	if ctl.ExecCount() != 1 {
		t.Fatalf("failed commands counted: %d", ctl.ExecCount())
	}
}

func TestMustExecPanics(t *testing.T) {
	_, ctl := newTestFabric(t)
	defer func() {
		if recover() == nil {
			t.Fatal("MustExec did not panic on error")
		}
	}()
	ctl.MustExec(0, "qdisc add dev eth0 root mystery")
}

func TestShow(t *testing.T) {
	_, ctl := newTestFabric(t)
	ctl.MustExec(0, "qdisc add dev eth0 root htb default 1")
	ctl.MustExec(0, "class add dev eth0 classid 0 rate 1mbit ceil 10gbit prio 0")
	ctl.MustExec(0, "filter add dev eth0 pref 3 match sport 5000 flowid 0")
	out := ctl.Show(0)
	for _, want := range []string{"qdisc htb root", "class htb 1:0 prio 0", "filter pref 3", "sport 5000"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Show missing %q:\n%s", want, out)
		}
	}
}

func TestLinkRateBps(t *testing.T) {
	_, ctl := newTestFabric(t)
	if got := ctl.LinkRateBps(0); got != 10e9 {
		t.Fatalf("link rate %v", got)
	}
}

// Property: ParseRate on generated "<n>mbit" strings scales linearly.
func TestParseRateProperty(t *testing.T) {
	f := func(n uint16) bool {
		v := int(n%10000) + 1
		got, err := ParseRate(formatMbit(v))
		return err == nil && got == float64(v)*1e6/8
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func formatMbit(v int) string {
	return fmtInt(v) + "mbit"
}

func fmtInt(v int) string {
	if v == 0 {
		return "0"
	}
	var digits []byte
	for v > 0 {
		digits = append([]byte{byte('0' + v%10)}, digits...)
		v /= 10
	}
	return string(digits)
}

func TestClassCommandErrors(t *testing.T) {
	_, ctl := newTestFabric(t)
	ctl.MustExec(0, "qdisc add dev eth0 root htb default 0")
	bad := []string{
		"class add dev eth0 classid 0 rate nonsense ceil 1mbit prio 0",
		"class add dev eth0 classid 0 rate 1mbit ceil nonsense prio 0",
		"class add dev eth0 classid 0 rate 2mbit ceil 1mbit prio 0", // ceil < rate
		"class add dev eth0 classid 0 rate 1mbit ceil 1mbit prio x",
		"class add dev eth0 classid 0 rate 1mbit ceil 1mbit",
		"class add dev eth0 classid 0 rate 1mbit bogus 3",
		"class add dev eth0 nochassid 0 rate 1mbit",
		"class frobnicate dev eth0 classid 0 rate 1mbit",
		"class add dev eth0 classid zzz rate 1mbit ceil 1mbit prio 0",
	}
	for _, cmd := range bad {
		if err := ctl.Exec(0, cmd); err == nil {
			t.Fatalf("%q accepted", cmd)
		}
	}
	ctl.MustExec(0, "class add dev eth0 classid 3 rate 1mbit ceil 2mbit prio 4")
	if err := ctl.Exec(0, "class add dev eth0 classid 3 rate 1mbit ceil 2mbit prio 4"); err == nil {
		t.Fatal("duplicate class accepted")
	}
}

func TestShowPrioBands(t *testing.T) {
	_, ctl := newTestFabric(t)
	ctl.MustExec(0, "qdisc add dev eth0 root prio bands 3")
	out := ctl.Show(0)
	if !strings.Contains(out, "band 0:") || !strings.Contains(out, "band 2:") {
		t.Fatalf("prio Show:\n%s", out)
	}
}

func TestFilterErrors(t *testing.T) {
	_, ctl := newTestFabric(t)
	ctl.MustExec(0, "qdisc add dev eth0 root prio bands 3")
	bad := []string{
		"filter add dev eth0 pref x match sport 1 flowid 0",
		"filter add dev eth0 pref 0 match sport nonsense flowid 0",
		"filter add dev eth0 pref 0 match job 3 flowid 0",
		"filter add dev eth0 pref 0 match mark 7 flowid 0",
		"filter add dev eth0 match sport 1 flowid 0", // pref is required
		"filter add dev eth0 bogus flowid 0",
		"filter del dev eth0",
		"filter frobnicate dev eth0 pref 1",
		"filter add dev eth0 pref 0 match sport 1 flowid zzz",
		"filter add dev eth0 pref 0 match sport 1 flowid 3", // past the last band
	}
	for _, cmd := range bad {
		if err := ctl.Exec(0, cmd); err == nil {
			t.Fatalf("%q accepted", cmd)
		}
	}
}
