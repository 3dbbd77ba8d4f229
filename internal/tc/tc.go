// Package tc emulates the Linux traffic-control command line over the
// simulated network fabric. TensorLights' entire actuation path in the
// paper is "run tc on the hosts with contending parameter servers";
// this package accepts exactly the commands internal/core emits (an
// htb or prio root, htb classes, source-port filters, and their
// teardown) against the egress port of a simulated host, plus a
// `-s`-style stats dump. Every other command is rejected.
package tc

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"repro/internal/qdisc"
	"repro/internal/simnet"
)

// Controller applies tc commands to hosts in a fabric.
type Controller struct {
	fabric *simnet.Fabric
	// execCount tracks configuration commands applied, a proxy for the
	// "amount of tc reconfigurations" the paper tries to limit.
	execCount int
	// execErrors counts commands that failed (parse errors, semantic
	// errors, and injected actuation faults alike).
	execErrors int
	// execHook, when set, intercepts every command before it is applied.
	// A non-nil return aborts the command with that error — this is how
	// internal/faults models a wedged tc binary or an unreachable host
	// agent.
	execHook func(hostID int, cmd string) error
}

// NewController creates a controller over the fabric.
func NewController(f *simnet.Fabric) *Controller {
	return &Controller{fabric: f}
}

// ExecCount returns how many state-changing commands have been applied.
func (c *Controller) ExecCount() int { return c.execCount }

// ExecErrors returns how many commands failed.
func (c *Controller) ExecErrors() int { return c.execErrors }

// SetExecHook installs (or, with nil, removes) a pre-execution hook.
// See Controller.execHook.
func (c *Controller) SetExecHook(hook func(hostID int, cmd string) error) {
	c.execHook = hook
}

// LinkRateBps returns the host NIC's line rate in bits/sec, which
// callers use to set work-conserving ceils.
func (c *Controller) LinkRateBps(hostID int) float64 {
	return c.fabric.Host(hostID).Egress.RateBytes() * 8
}

// The command forms Exec accepts, indexing dialect.
const (
	htbRoot = iota
	prioRoot
	delRoot
	classAdd
	filterAdd
	filterDelAll
)

// dialect spells out each accepted command form: a word in angle
// brackets is a value slot (<n> a non-negative integer, <rate> a
// ParseRate rate); every other word must appear verbatim.
var dialect = [...]string{
	htbRoot:      "qdisc add dev eth0 root htb default <n>",
	prioRoot:     "qdisc add dev eth0 root prio bands <n>",
	delRoot:      "qdisc del dev eth0 root",
	classAdd:     "class add dev eth0 classid <n> rate <rate> ceil <rate> prio <n>",
	filterAdd:    "filter add dev eth0 pref <n> match sport <n> flowid <n>",
	filterDelAll: "filter del dev eth0 all",
}

// forms is dialect split into words.
var forms = func() [][]string {
	out := make([][]string, len(dialect))
	for i, d := range dialect {
		out[i] = strings.Fields(d)
	}
	return out
}()

// Exec parses and applies one tc command on the given host. It accepts
// exactly these six forms, the commands internal/core emits:
//
//	qdisc add dev eth0 root htb default <n>
//	qdisc add dev eth0 root prio bands <n>
//	qdisc del dev eth0 root
//	class add dev eth0 classid <n> rate <rate> ceil <rate> prio <n>
//	filter add dev eth0 pref <n> match sport <n> flowid <n>
//	filter del dev eth0 all
//
// Adding a root replaces the previous tree; deleting it restores
// pfifo. Any other command fails with an error naming the first word
// no form accepts, and counts in ExecErrors.
func (c *Controller) Exec(hostID int, cmd string) error {
	if c.execHook != nil {
		if err := c.execHook(hostID, cmd); err != nil {
			c.execErrors++
			return err
		}
	}
	form, vals, err := parse(strings.Fields(cmd))
	if err == nil {
		err = apply(c.fabric.Host(hostID), form, vals)
	}
	if err != nil {
		c.execErrors++
		return err
	}
	c.execCount++
	// In flow mode the analytic fabric reclassifies in-flight flows
	// against the new configuration; a no-op on the chunk fabric.
	c.fabric.EgressReconfigured(hostID)
	return nil
}

// MustExec is Exec that panics on error, for static configuration code.
func (c *Controller) MustExec(hostID int, cmd string) {
	if err := c.Exec(hostID, cmd); err != nil {
		panic(err)
	}
}

// ParseRate converts tc rate syntax to bytes/sec. Accepted suffixes:
// bit, kbit, mbit, gbit (decimal, bits/sec) and bps, kbps, mbps, gbps
// (bytes/sec ×1000^k, matching tc's meaning of "bps" = bytes/sec).
func ParseRate(s string) (float64, error) {
	ls := strings.ToLower(s)
	suffixes := []struct {
		suf  string
		mult float64 // to bytes/sec
	}{
		{"gbit", 1e9 / 8}, {"mbit", 1e6 / 8}, {"kbit", 1e3 / 8}, {"bit", 1.0 / 8},
		{"gbps", 1e9}, {"mbps", 1e6}, {"kbps", 1e3}, {"bps", 1},
	}
	for _, sf := range suffixes {
		if strings.HasSuffix(ls, sf.suf) {
			v, err := strconv.ParseFloat(strings.TrimSuffix(ls, sf.suf), 64)
			if err != nil {
				return 0, fmt.Errorf("tc: bad rate %q", s)
			}
			if v <= 0 {
				return 0, fmt.Errorf("tc: non-positive rate %q", s)
			}
			return v * sf.mult, nil
		}
	}
	v, err := strconv.ParseFloat(ls, 64)
	if err != nil || v <= 0 {
		return 0, fmt.Errorf("tc: bad rate %q", s)
	}
	return v / 8, nil // bare numbers are bits/sec, like tc
}

// parse matches a command's words against the dialect and returns the
// form and its slot values in order. A command no form accepts is
// rejected naming the first word at which even the closest form stops
// matching, and what that form wanted there.
func parse(toks []string) (form int, vals []float64, err error) {
	reach := 0 // longest literal prefix any form matches
	for i, f := range forms {
		n := matchLen(f, toks)
		if n == len(f) && n == len(toks) {
			vals, err := slotValues(f, toks)
			return i, vals, err
		}
		reach = max(reach, n)
	}
	var want []string
	for _, f := range forms {
		if matchLen(f, toks) == reach && reach < len(f) && !slices.Contains(want, f[reach]) {
			want = append(want, f[reach])
		}
	}
	switch {
	case reach == len(toks):
		return 0, nil, fmt.Errorf("tc: command %q ends early (want %s next)",
			strings.Join(toks, " "), strings.Join(want, " or "))
	case len(want) == 0:
		return 0, nil, fmt.Errorf("tc: unexpected %q at end of command", toks[reach])
	default:
		return 0, nil, fmt.Errorf("tc: unexpected %q (want %s)", toks[reach], strings.Join(want, " or "))
	}
}

// matchLen returns how many leading words of toks the form accepts,
// counting any word as a match for a value slot.
func matchLen(form, toks []string) int {
	n := 0
	for n < len(form) && n < len(toks) && (isSlot(form[n]) || form[n] == toks[n]) {
		n++
	}
	return n
}

func isSlot(w string) bool { return strings.HasPrefix(w, "<") }

// slotValues parses the values in a command that matches form. Every
// slot follows the keyword it is named by in errors ("bad classid").
func slotValues(form, toks []string) ([]float64, error) {
	var vals []float64
	for i, w := range form {
		if !isSlot(w) {
			continue
		}
		if w == "<rate>" {
			r, err := ParseRate(toks[i])
			if err != nil {
				return nil, err
			}
			vals = append(vals, r)
			continue
		}
		n, err := strconv.Atoi(toks[i])
		if err != nil {
			return nil, fmt.Errorf("tc: bad %s %q", form[i-1], toks[i])
		}
		if n < 0 {
			return nil, fmt.Errorf("tc: negative %s %d", form[i-1], n)
		}
		vals = append(vals, float64(n))
	}
	return vals, nil
}

// apply installs one parsed command on the host's egress.
func apply(host *simnet.Host, form int, v []float64) error {
	switch form {
	case htbRoot:
		host.SetEgressQdisc(qdisc.NewHTB(host.Egress.RateBytes(), qdisc.ClassID(v[0])))
	case prioRoot:
		bands := int(v[0])
		if bands < 1 || bands > 16 {
			return fmt.Errorf("tc: prio: bands %d out of range [1,16]", bands)
		}
		host.SetEgressQdisc(qdisc.NewPrio(bands))
	case delRoot:
		host.SetEgressQdisc(qdisc.NewPFIFO())
	case classAdd:
		htb, ok := host.Egress.Qdisc().(*qdisc.HTB)
		if !ok {
			return fmt.Errorf("tc: class commands require an htb root (have %s)",
				host.Egress.Qdisc().Kind())
		}
		return htb.AddClass(qdisc.ClassID(v[0]),
			qdisc.HTBClassConfig{Rate: v[1], Ceil: v[2], Prio: int(v[3])})
	case filterAdd:
		cl, err := classifierOf(host)
		if err != nil {
			return err
		}
		target := qdisc.ClassID(v[2])
		// The flowid must name an existing destination, as real tc
		// enforces: an htb class already added, or a prio band in range.
		switch q := host.Egress.Qdisc().(type) {
		case *qdisc.HTB:
			if q.Class(target) == nil {
				return fmt.Errorf("tc: filter flowid %d: no such htb class", target)
			}
		case *qdisc.Prio:
			if int(target) >= q.Bands() {
				return fmt.Errorf("tc: filter flowid %d out of prio band range [0,%d)",
					target, q.Bands())
			}
		}
		cl.Add(qdisc.Filter{Pref: int(v[0]), Match: qdisc.MatchSrcPort(int(v[1])), Target: target})
	case filterDelAll:
		cl, err := classifierOf(host)
		if err != nil {
			return err
		}
		cl.Clear()
	}
	return nil
}

// classifierOf returns the filter chain of a classful root qdisc.
func classifierOf(host *simnet.Host) (*qdisc.Classifier, error) {
	switch q := host.Egress.Qdisc().(type) {
	case *qdisc.HTB:
		return q.Classifier(), nil
	case *qdisc.Prio:
		return q.Classifier(), nil
	default:
		return nil, fmt.Errorf("tc: filters require a classful root (have %s)", q.Kind())
	}
}

// Show renders a `tc -s qdisc show dev eth0` style summary for a host.
func (c *Controller) Show(hostID int) string {
	host := c.fabric.Host(hostID)
	q := host.Egress.Qdisc()
	var b strings.Builder
	st := q.Stats()
	fmt.Fprintf(&b, "qdisc %s root dev eth0\n", q.Kind())
	fmt.Fprintf(&b, " Sent %d bytes %d pkt (dropped %d, overlimits %d)\n",
		st.DequeuedBytes, st.DequeuedPackets, st.DroppedPackets, st.Overlimits)
	fmt.Fprintf(&b, " backlog %db %dp\n", q.BacklogBytes(), q.Len())
	if htb, ok := q.(*qdisc.HTB); ok {
		for _, id := range htb.Classes() {
			cls := htb.Class(id)
			cs := cls.Stats()
			cfg := cls.Config()
			fmt.Fprintf(&b, "class htb 1:%d prio %d rate %.0fbps ceil %.0fbps\n",
				id, cfg.Prio, cfg.Rate, cfg.Ceil)
			fmt.Fprintf(&b, " Sent %d bytes %d pkt backlog %dp\n",
				cs.DequeuedBytes, cs.DequeuedPackets, cls.Len())
		}
	}
	if pr, ok := q.(*qdisc.Prio); ok {
		for i := 0; i < pr.Bands(); i++ {
			bs := pr.Band(i).Stats()
			fmt.Fprintf(&b, "band %d: Sent %d bytes %d pkt backlog %dp\n",
				i, bs.DequeuedBytes, bs.DequeuedPackets, pr.Band(i).Len())
		}
	}
	if cl, err := classifierOf(host); err == nil {
		for _, f := range cl.Filters() {
			fmt.Fprintf(&b, "filter pref %d %s flowid %d\n", f.Pref, f.Match, f.Target)
		}
	}
	return b.String()
}

// Fingerprint returns a canonical one-line summary of a host's egress
// traffic-control state: root qdisc kind plus, where classful, its
// classes/bands and filter chain. Two hosts with equal fingerprints are
// configured identically (modulo traffic counters). internal/core's
// reconcile loop compares the fingerprint it last installed against the
// one read back here to detect drift after actuation failures and
// repair it.
func (c *Controller) Fingerprint(hostID int) string {
	host := c.fabric.Host(hostID)
	q := host.Egress.Qdisc()
	var b strings.Builder
	b.WriteString(q.Kind())
	switch q := q.(type) {
	case *qdisc.HTB:
		fmt.Fprintf(&b, " default:%d", q.DefaultClass())
		for _, id := range q.Classes() {
			cfg := q.Class(id).Config()
			fmt.Fprintf(&b, " class:%d(rate:%.0f,ceil:%.0f,prio:%d)",
				id, cfg.Rate, cfg.Ceil, cfg.Prio)
		}
	case *qdisc.Prio:
		fmt.Fprintf(&b, " bands:%d", q.Bands())
	}
	if cl, err := classifierOf(host); err == nil {
		for _, f := range cl.Filters() {
			fmt.Fprintf(&b, " filter:%d(%s->%d)", f.Pref, f.Match, f.Target)
		}
	}
	return b.String()
}
