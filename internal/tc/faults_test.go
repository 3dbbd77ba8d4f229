package tc

import (
	"errors"
	"fmt"
	"strings"
	"testing"
)

// TestExecErrorMessagesNameOffendingToken drives every rejection path
// and asserts the error text pinpoints what was wrong — a controller
// retrying failed actuation needs errors it can log usefully — and
// that a rejected command counts as an error and changes nothing.
func TestExecErrorMessagesNameOffendingToken(t *testing.T) {
	_, ctl := newTestFabric(t)
	// An htb root with one class and one filter, so class/filter
	// commands have a target and a wrongly accepted one shows in the
	// fingerprint.
	ctl.MustExec(0, "qdisc add dev eth0 root htb default 5")
	ctl.MustExec(0, "class add dev eth0 classid 5 rate 1mbit ceil 10gbit prio 0")
	ctl.MustExec(0, "filter add dev eth0 pref 1 match sport 5001 flowid 5")
	fp := ctl.Fingerprint(0)

	cases := []struct {
		name string
		cmd  string
		want string // substring the error must contain
	}{
		{"empty", "", `command "" ends early (want qdisc or class or filter next)`},
		{"lone word", "qdisc", `command "qdisc" ends early (want add or del next)`},
		{"unknown object", "frob add dev eth0", `unexpected "frob" (want qdisc or class or filter)`},
		{"leading tc word", "tc qdisc del dev eth0 root", `unexpected "tc"`},
		{"missing dev", "qdisc add", `command "qdisc add" ends early (want dev next)`},
		{"wrong dev keyword", "qdisc add veth eth0 root htb default 5", `unexpected "veth" (want dev)`},
		{"unknown device", "qdisc add dev wlan0 root htb default 5", `unexpected "wlan0" (want eth0)`},
		{"not root", "qdisc add dev eth0 parent htb default 5", `unexpected "parent" (want root)`},
		{"unknown qdisc verb", "qdisc tweak dev eth0 root", `unexpected "tweak" (want add or del)`},
		{"replace verb", "qdisc replace dev eth0 root htb default 5", `unexpected "replace"`},
		{"unknown qdisc kind", "qdisc add dev eth0 root codel", `unexpected "codel" (want htb or prio)`},
		{"pfifo root", "qdisc add dev eth0 root pfifo limit 10", `unexpected "pfifo"`},
		{"pfifo_fast root", "qdisc add dev eth0 root pfifo_fast", `unexpected "pfifo_fast"`},
		{"sfq root", "qdisc add dev eth0 root sfq buckets 64", `unexpected "sfq"`},
		{"tbf root", "qdisc add dev eth0 root tbf rate 1gbit burst 32kb", `unexpected "tbf"`},
		{"prio bands range", "qdisc add dev eth0 root prio bands 99", "bands 99 out of range"},
		{"htb bad default", "qdisc add dev eth0 root htb default x", `bad default "x"`},
		{"htb trailing word", "qdisc add dev eth0 root htb default 5 r2q 10", `unexpected "r2q" at end of command`},
		{"class missing classid", "class add dev eth0 rate 1mbit", `unexpected "rate" (want classid)`},
		{"class bad classid", "class add dev eth0 classid five rate 1mbit ceil 1mbit prio 0", `bad classid "five"`},
		{"class negative classid", "class add dev eth0 classid -3 rate 1mbit ceil 1mbit prio 0", "negative classid -3"},
		{"class bad rate", "class add dev eth0 classid 7 rate warp9 ceil 1mbit prio 0", `bad rate "warp9"`},
		{"class bad option", "class add dev eth0 classid 7 weight 2", `unexpected "weight" (want rate)`},
		{"class burst", "class add dev eth0 classid 7 rate 1mbit ceil 1mbit prio 0 burst 32kb", `unexpected "burst"`},
		{"class change", "class change dev eth0 classid 5 rate 1mbit ceil 10gbit prio 1", `unexpected "change" (want add)`},
		{"class del", "class del dev eth0 classid 5", `unexpected "del" (want add)`},
		{"class existing", "class add dev eth0 classid 5 rate 1mbit ceil 10gbit prio 0", "class 5 exists"},
		{"filter negative pref", "filter add dev eth0 pref -2 match sport 1 flowid 5", "negative pref -2"},
		{"filter prio alias", "filter add dev eth0 prio 1 match sport 80 flowid 5", `unexpected "prio" (want pref)`},
		{"filter bad sport", "filter add dev eth0 pref 1 match sport http flowid 5", `bad sport "http"`},
		{"filter match dport", "filter add dev eth0 pref 1 match dport 80 flowid 5", `unexpected "dport" (want sport)`},
		{"filter classid alias", "filter add dev eth0 pref 1 match sport 80 classid 5", `unexpected "classid" (want flowid)`},
		{"filter negative flowid", "filter add dev eth0 pref 1 match sport 1 flowid -5", "negative flowid -5"},
		{"filter missing flowid", "filter add dev eth0 pref 1 match sport 80", "ends early (want flowid next)"},
		{"filter missing class", "filter add dev eth0 pref 1 match sport 1 flowid 9", "flowid 9: no such htb class"},
		{"filter bad option", "filter add dev eth0 pref 1 match sport 1 flowid 5 police", `unexpected "police" at end of command`},
		{"filter del no all", "filter del dev eth0", "ends early (want all next)"},
		{"filter del pref", "filter del dev eth0 pref 1", `unexpected "pref" (want all)`},
	}
	for i, tc := range cases {
		err := ctl.Exec(0, tc.cmd)
		if err == nil {
			t.Errorf("%s: %q accepted", tc.name, tc.cmd)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not name the problem (want substring %q)",
				tc.name, err, tc.want)
		}
		if got := ctl.ExecErrors(); got != i+1 {
			t.Errorf("%s: ExecErrors = %d after %d rejections", tc.name, got, i+1)
		}
		if got := ctl.Fingerprint(0); got != fp {
			t.Errorf("%s: rejected command changed the tc state:\n%s\nwant\n%s", tc.name, got, fp)
		}
	}
	if ctl.ExecCount() != 3 {
		t.Fatalf("exec count %d, want the 3 set-up commands", ctl.ExecCount())
	}
}

func TestFilterFlowidMustExist(t *testing.T) {
	_, ctl := newTestFabric(t)
	ctl.MustExec(1, "qdisc add dev eth0 root prio bands 4")
	if err := ctl.Exec(1, "filter add dev eth0 pref 0 match sport 80 flowid 4"); err == nil ||
		!strings.Contains(err.Error(), "out of prio band range") {
		t.Fatalf("prio filter past last band accepted: %v", err)
	}
	if err := ctl.Exec(1, "filter add dev eth0 pref 0 match sport 80 flowid 3"); err != nil {
		t.Fatalf("in-range prio filter rejected: %v", err)
	}
}

func TestExecHookInterceptsAndCounts(t *testing.T) {
	_, ctl := newTestFabric(t)
	boom := errors.New("tc: injected: binary wedged")
	failing := true
	var seen []string
	ctl.SetExecHook(func(hostID int, cmd string) error {
		seen = append(seen, fmt.Sprintf("%d:%s", hostID, cmd))
		if failing {
			return boom
		}
		return nil
	})
	cmd := "qdisc add dev eth0 root htb default 5"
	if err := ctl.Exec(0, cmd); !errors.Is(err, boom) {
		t.Fatalf("hook error not surfaced: %v", err)
	}
	if ctl.ExecCount() != 0 || ctl.ExecErrors() != 1 {
		t.Fatalf("counters after failed exec: count=%d errors=%d", ctl.ExecCount(), ctl.ExecErrors())
	}
	if ctl.Fingerprint(0) != "pfifo" {
		t.Fatalf("failed command mutated state: %s", ctl.Fingerprint(0))
	}
	failing = false
	if err := ctl.Exec(0, cmd); err != nil {
		t.Fatal(err)
	}
	if ctl.ExecCount() != 1 {
		t.Fatalf("exec count %d", ctl.ExecCount())
	}
	if len(seen) != 2 || seen[0] != "0:"+cmd {
		t.Fatalf("hook observations: %v", seen)
	}
	ctl.SetExecHook(nil)
	if err := ctl.Exec(0, "qdisc del dev eth0 root"); err != nil {
		t.Fatal(err)
	}
}

func TestFingerprintReflectsState(t *testing.T) {
	_, ctl := newTestFabric(t)
	if fp := ctl.Fingerprint(0); fp != "pfifo" {
		t.Fatalf("default fingerprint %q", fp)
	}
	ctl.MustExec(0, "qdisc add dev eth0 root htb default 5")
	ctl.MustExec(0, "class add dev eth0 classid 5 rate 1mbit ceil 10gbit prio 5")
	ctl.MustExec(0, "class add dev eth0 classid 1 rate 1mbit ceil 10gbit prio 1")
	ctl.MustExec(0, "filter add dev eth0 pref 10 match sport 5001 flowid 1")
	fp := ctl.Fingerprint(0)
	for _, want := range []string{"htb", "default:5", "class:5", "class:1", "prio:1", "filter:10", "->1"} {
		if !strings.Contains(fp, want) {
			t.Fatalf("fingerprint %q missing %q", fp, want)
		}
	}
	// Identical configuration on another host yields the same fingerprint.
	ctl.MustExec(1, "qdisc add dev eth0 root htb default 5")
	ctl.MustExec(1, "class add dev eth0 classid 5 rate 1mbit ceil 10gbit prio 5")
	ctl.MustExec(1, "class add dev eth0 classid 1 rate 1mbit ceil 10gbit prio 1")
	ctl.MustExec(1, "filter add dev eth0 pref 10 match sport 5001 flowid 1")
	if fp2 := ctl.Fingerprint(1); fp2 != fp {
		t.Fatalf("equal configs, unequal fingerprints:\n%s\n%s", fp, fp2)
	}
	// Drift (a cleared filter chain) changes the fingerprint.
	ctl.MustExec(1, "filter del dev eth0 all")
	if ctl.Fingerprint(1) == fp {
		t.Fatal("fingerprint blind to a cleared filter chain")
	}
}
