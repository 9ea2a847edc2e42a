package dataplane

// Tests for a burst run one context per frame, the way the target's
// frame loop drives the engine: every context's Process must match
// single-context Process exactly, keep its output alive while the other
// contexts run, and stay allocation-free in steady state.

import (
	"bytes"
	"testing"

	"netdebug/internal/packet"
)

func TestProcessBatchMatchesProcess(t *testing.T) {
	e := routerEngine(t)
	frames := [][]byte{
		packet.BuildUDPv4(macA, macB, ipA, ipB, 100, 200, []byte("one")),
		packet.BuildUDPv4(macA, macB, ipA, packet.IPv4Addr{10, 9, 9, 9}, 1, 2, []byte("two")),
		packet.BuildUDPv4(macA, macB, ipA, packet.IPv4Addr{192, 168, 0, 1}, 1, 2, nil), // miss -> drop
	}
	// Reference results from one context, copied out.
	var wantOut [][]byte
	var wantEgress []uint64
	ref := e.NewContext()
	for _, f := range frames {
		out, eg := e.Process(ref, f, 0)
		wantOut = append(wantOut, append([]byte(nil), out...))
		wantEgress = append(wantEgress, eg)
	}

	ctxs := make([]*Context, len(frames))
	for i := range ctxs {
		ctxs[i] = e.NewContext()
	}
	outs := make([][]byte, len(frames))
	egress := make([]uint64, len(frames))
	for i, f := range frames {
		outs[i], egress[i] = e.Process(ctxs[i], f, 0)
	}
	// Every output is checked only now that the whole burst ran — the
	// simultaneous validity one context cannot offer.
	for i := range frames {
		if (outs[i] == nil) != (wantOut[i] == nil) || !bytes.Equal(outs[i], wantOut[i]) {
			t.Errorf("packet %d: burst out %x, want %x", i, outs[i], wantOut[i])
		}
		if outs[i] != nil && egress[i] != wantEgress[i] {
			t.Errorf("packet %d: burst egress %d, want %d", i, egress[i], wantEgress[i])
		}
	}
}

func TestProcessBatchAllocFree(t *testing.T) {
	e := routerEngine(t)
	frame := packet.BuildUDPv4(macA, macB, ipA, ipB, 100, 200, []byte("data"))
	ctxs := make([]*Context, 8)
	for i := range ctxs {
		ctxs[i] = e.NewContext()
	}
	burst := func() {
		for _, ctx := range ctxs {
			e.Process(ctx, frame, 0)
		}
	}
	burst() // warm up per-context buffers
	perPacket := testing.AllocsPerRun(200, burst) / float64(len(ctxs))
	if perPacket > maxProcessAllocs {
		t.Errorf("burst: %v allocs/packet, want <= %d", perPacket, maxProcessAllocs)
	}
}
