package main

// fwd64 and fwd1518: the external tester floods the router on the
// reference backend; every frame is forwarded port 0 -> 1.

import (
	"bytes"
	"fmt"
	"math/rand"
	"time"

	"netdebug"
	"netdebug/internal/core"
	"netdebug/internal/p4/p4test"
)

type fwdWL struct {
	sz       sizes
	template []byte
	route    netdebug.Entry

	sys     *netdebug.System
	tst     *netdebug.ExternalTester
	streams []netdebug.ExternalStream
	want    fwdSig

	// traced pass only
	tracedState
	arena core.FrameArena
	rtts  []time.Duration
}

// fwdSig is the virtual-time outcome of one tester run. It must not
// change from round to round: the frames are the same.
type fwdSig struct {
	sent, received, lost, unexpected uint64
	p50, p99, max                    int64
}

func newFwd(seed int64, sz sizes, frameSize int) *fwdWL {
	rng := rand.New(rand.NewSource(seed))
	src := 0x0a000000 | uint32(rng.Intn(1<<24))
	dst := 0x0a000000 | uint32(rng.Intn(1<<24))
	return &fwdWL{
		sz:       sz,
		template: udpFrame(frameSize, src, dst, 53),
		route:    routerRoute(0x0a000000, 8, 1),
	}
}

func (w *fwdWL) setup() error {
	sys, err := netdebug.Open(p4test.Router, netdebug.Options{
		Target: netdebug.TargetReference, Baseline: []netdebug.Entry{w.route},
	})
	if err != nil {
		return err
	}
	w.sys = sys
	w.tst = sys.NewExternalTester()
	w.streams = []netdebug.ExternalStream{{
		Name: "flood", Frame: w.template, Count: w.sz.fwdFrames,
		TxPort: 0, RxPort: 1, SeqLoc: seqLoc,
	}}
	if err := w.checkBytes(); err != nil {
		return err
	}
	rep, err := w.tst.Run(w.streams)
	if err != nil {
		return err
	}
	w.want = sigOf(rep)
	n := uint64(w.sz.fwdFrames)
	if w.want.sent != n || w.want.received != n || w.want.lost != 0 || w.want.unexpected != 0 || !rep.Pass {
		return fmt.Errorf("warm round: %s, want all %d frames back", rep, n)
	}
	return nil
}

// checkBytes sends a short burst and checks the captured frames byte by
// byte against the rewrite the router must do: TTL down by one, source
// MAC taken from the old destination, destination MAC from the route,
// everything else (sequence tag included) untouched.
func (w *fwdWL) checkBytes() error {
	dev := w.sys.Device()
	const n = 16
	frames := make([][]byte, n)
	for i := range frames {
		f := append([]byte(nil), w.template...)
		if err := seqLoc.Inject(f, uint64(i)); err != nil {
			return err
		}
		frames[i] = f
	}
	if err := dev.SendExternalBurst(0, frames, dev.Now(), 0); err != nil {
		return err
	}
	caps := dev.Captures(1)
	defer dev.ReleaseCaptures(1)
	if len(caps) != n {
		return fmt.Errorf("byte check: %d frames captured on port 1, want %d", len(caps), n)
	}
	for i, c := range caps {
		want := append([]byte(nil), frames[i]...)
		copy(want[6:12], want[0:6])
		copy(want[0:6], gwMAC[:])
		want[offTTL]--
		if !bytes.Equal(c.Data, want) {
			return fmt.Errorf("byte check: frame %d came back as %x, want %x", i, c.Data[:offPayload+4], want[:offPayload+4])
		}
	}
	return nil
}

func sigOf(r *netdebug.ExternalReport) fwdSig {
	return fwdSig{r.Sent, r.Received, r.Lost, r.Unexpected, r.RTTP50Ns, r.RTTP99Ns, r.RTTMaxNs}
}

func (w *fwdWL) round() (ops, failed int) {
	ops = w.sz.fwdFrames
	rep, err := w.tst.Run(w.streams)
	if err != nil || sigOf(rep) != w.want {
		return ops, ops
	}
	return ops, int(rep.Lost + rep.Unexpected)
}

func (w *fwdWL) digest() string { return hashOf(w.want) }

func (w *fwdWL) close() {
	if w.sys != nil {
		w.sys.Close()
	}
}
