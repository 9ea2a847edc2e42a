package core

import (
	"fmt"
	"time"

	"netdebug/internal/device"
)

// Diagnosis is the localizer's conclusion about where a fault lives.
type Diagnosis struct {
	// Stage is the faulty element: "none", the data plane's own
	// Trace.DropStage (the parser, a control), "mac-in port N", or
	// "egress port N" (output queue or MAC-out).
	Stage string
	// Evidence lists the observations that support the conclusion.
	Evidence []string
}

func (d Diagnosis) String() string {
	return fmt.Sprintf("fault at %s (%d observations)", d.Stage, len(d.Evidence))
}

// LocalizeFault determines where a probe packet is lost, exploiting
// NetDebug's position inside the device: it can inject below the MACs and
// read the internal port counters, so it can tell apart interface faults,
// data-plane drops (per stage), and egress faults — even when the device
// emits nothing at all. probe must be a packet the (healthy) program
// forwards; expectPort is its expected egress.
func LocalizeFault(dev *device.Device, probe []byte, ingress int, expectPort int) Diagnosis {
	var diag Diagnosis
	note := func(format string, args ...any) {
		diag.Evidence = append(diag.Evidence, fmt.Sprintf(format, args...))
	}

	// Step 1: inject directly into the data plane, bypassing the MACs.
	res := dev.InjectInternal(probe, uint64(ingress), dev.Now(), true)
	if res.Dropped() {
		diag.Stage = res.Trace.DropStage()
		note("internal injection dropped at stage %q (parser path %v)",
			diag.Stage, res.Trace.ParserPath())
		for _, te := range res.Trace.Tables {
			table, action := res.Trace.Names(te)
			note("table %s: hit=%v action=%s", table, te.Hit, action)
		}
		return diag
	}
	note("internal injection forwarded to port %d: data plane is healthy",
		res.Outputs[0].Port)

	// Step 2: the data plane works. Send the same probe externally and
	// read the device's port counters around it to see how far it got:
	// an ingress frame not lost to a down link reached the data plane,
	// and a transmitted frame on any port left through a MAC. Capture is
	// off for the probe, so it leaves nothing in the capture ring.
	before := dev.Counters.Values()
	capturing := dev.CaptureEnabled()
	dev.SetCaptureEnabled(false)
	dev.SendExternal(ingress, probe, dev.Now()+time.Microsecond)
	dev.SetCaptureEnabled(capturing)
	after := dev.Counters.Values()
	delta := func(name string) uint64 { return after[name] - before[name] }
	var tx uint64
	for i := range dev.Config().NumPorts {
		tx += delta(fmt.Sprintf("port%d.tx.frames", i))
	}

	switch {
	case delta(fmt.Sprintf("port%d.rx.frames", ingress)) == delta(fmt.Sprintf("port%d.rx.link_down", ingress)):
		note("external frame on port %d never reached the data plane: interface fault", ingress)
		diag.Stage = fmt.Sprintf("mac-in port %d", ingress)
	case tx == 0:
		note("data plane emitted the frame but port %d never transmitted it", expectPort)
		diag.Stage = fmt.Sprintf("egress port %d", expectPort)
	default:
		note("external path delivered the frame end to end")
		diag.Stage = "none"
	}
	return diag
}
