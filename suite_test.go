package netdebug_test

import (
	"fmt"

	"netdebug"
	"netdebug/internal/packet"
)

// suiteSpecs builds n independent ExpectPort specs with count packets
// each.
func suiteSpecs(n, count int) []*netdebug.TestSpec {
	specs := make([]*netdebug.TestSpec, n)
	for i := range specs {
		frame := packet.BuildUDPv4(srcMAC, gwMAC, srcIP,
			packet.IPv4Addr{10, 0, byte(i), 9}, uint16(4000+i), 53, make([]byte, 26))
		specs[i] = &netdebug.TestSpec{
			Name: fmt.Sprintf("suite-%d", i),
			Gen: netdebug.GenSpec{Streams: []netdebug.StreamSpec{{
				Name: "probe", Template: frame, Count: count, RatePPS: 1e6,
			}}},
			Check: netdebug.CheckSpec{Rules: []netdebug.Rule{{
				Name: "fwd", Stream: "probe", ExpectPort: 1,
			}}},
		}
	}
	return specs
}

// routerSuiteOptions declares an sdnet-target router with the 10/8
// route as a baseline.
func routerSuiteOptions() netdebug.Options {
	return netdebug.Options{
		Target: netdebug.TargetSDNet,
		Baseline: []netdebug.Entry{{
			Table:  "ipv4_lpm",
			Keys:   []netdebug.KeyValue{{Value: netdebug.NewValue(0x0a000000, 32), PrefixLen: 8}},
			Action: "ipv4_forward",
			Args:   []netdebug.Value{netdebug.ValueFromBytes(gwMAC[:]), netdebug.NewValue(1, 9)},
		}},
	}
}
