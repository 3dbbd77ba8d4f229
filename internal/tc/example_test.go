package tc_test

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/tc"
)

// ExampleController installs the qdisc tree TensorLights uses on a
// sender's NIC (htb root, one priority class per job, per-port
// filters) and pushes two simultaneous 8 MB bursts through it: PS1 on
// the green band finishes first while PS2 on the yellow band yields,
// then the `tc -s`-style statistics show both bursts fully sent.
func ExampleController() {
	k := sim.NewKernel()
	fab := simnet.New(k, sim.NewRNG(7), simnet.Config{})
	sender := fab.AddHost("sender")
	fab.AddHost("receiver")

	ctl := tc.NewController(fab)
	for _, cmd := range []string{
		"qdisc add dev eth0 root htb default 1",
		"class add dev eth0 classid 0 rate 1mbit ceil 10gbit prio 0",
		"class add dev eth0 classid 1 rate 1mbit ceil 10gbit prio 1",
		"filter add dev eth0 pref 0 match sport 5000 flowid 0",
		"filter add dev eth0 pref 1 match sport 5001 flowid 1",
	} {
		ctl.MustExec(sender.ID, cmd)
	}

	send := func(port int, name string) {
		fab.Send(simnet.FlowSpec{
			Src: 0, Dst: 1, SrcPort: port, DstPort: 9000 + port,
			Bytes: 8 << 20,
			OnComplete: func(fl *simnet.Flow) {
				fmt.Printf("%s finished at %.2f ms\n", name, fl.Finished*1e3)
			},
		})
	}
	send(5000, "PS1")
	send(5001, "PS2")
	k.Run(nil)

	fmt.Print(ctl.Show(sender.ID))
	// Output:
	// PS1 finished at 9.46 ms
	// PS2 finished at 17.06 ms
	// qdisc htb root dev eth0
	//  Sent 16777216 bytes 64 pkt (dropped 0, overlimits 0)
	//  backlog 0b 0p
	// class htb 1:0 prio 0 rate 125000bps ceil 1250000000bps
	//  Sent 8388608 bytes 32 pkt backlog 0p
	// class htb 1:1 prio 1 rate 125000bps ceil 1250000000bps
	//  Sent 8388608 bytes 32 pkt backlog 0p
	// filter pref 0 match sport 5000 flowid 0
	// filter pref 1 match sport 5001 flowid 1
}
