package dataplane

// Tests for the batched packet API: ProcessBatch must preserve Process
// semantics exactly, keep every context's output alive for the whole
// batch, and stay allocation-free in steady state.

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
	// Reference results from the single-packet path, copied out.
	var wantOut [][]byte
	var wantEgress []uint64
	ref := e.NewContext()
	for _, f := range frames {
		out, eg := e.Process(ref, f, 0)
		wantOut = append(wantOut, append([]byte(nil), out...))
		wantEgress = append(wantEgress, eg)
	}

	var pkts []*Context
	for _, f := range frames {
		ctx := e.NewContext()
		ctx.In = f
		pkts = append(pkts, ctx)
	}
	e.ProcessBatch(pkts)
	for i, ctx := range pkts {
		if (ctx.Out == nil) != (wantOut[i] == nil) || !bytes.Equal(ctx.Out, wantOut[i]) {
			t.Errorf("packet %d: batch out %x, want %x", i, ctx.Out, wantOut[i])
		}
		if ctx.Out != nil && ctx.Egress != wantEgress[i] {
			t.Errorf("packet %d: batch egress %d, want %d", i, ctx.Egress, wantEgress[i])
		}
	}
	// Every output must still be intact now that the whole batch ran —
	// the simultaneous-validity contract single-context Process lacks.
	if !bytes.Equal(pkts[0].Out, wantOut[0]) {
		t.Error("first batch output clobbered by later packets")
	}
}

func TestProcessBatchAllocFree(t *testing.T) {
	e := routerEngine(t)
	frame := packet.BuildUDPv4(macA, macB, ipA, ipB, 100, 200, []byte("data"))
	pkts := make([]*Context, 8)
	for i := range pkts {
		pkts[i] = e.NewContext()
		pkts[i].In = frame
	}
	e.ProcessBatch(pkts) // warm up per-context buffers
	allocs := testing.AllocsPerRun(200, func() {
		e.ProcessBatch(pkts)
	})
	perPacket := allocs / float64(len(pkts))
	if perPacket > maxProcessAllocs {
		t.Errorf("batch: %v allocs/packet, want <= %d", perPacket, maxProcessAllocs)
	}
}
