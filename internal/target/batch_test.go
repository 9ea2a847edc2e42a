package target

// Tests for Target.ProcessBatch: per-frame results must match the
// single-packet path, stay simultaneously valid across the batch, and
// survive interleaved single-packet Process calls.

import (
	"bytes"
	"testing"

	"netdebug/internal/packet"
)

func batchRouter(t *testing.T, tgt Target) Target {
	t.Helper()
	loadRouter(t, tgt)
	return tgt
}

func batchFrames() [][]byte {
	var out [][]byte
	for i := 0; i < 5; i++ {
		out = append(out, packet.BuildUDPv4(macA, macB,
			ipA, packet.IPv4Addr{10, 0, 1, byte(i + 1)},
			uint16(4000+i), 53, []byte{byte(i)}))
	}
	// A malformed frame that the reference parser rejects.
	out = append(out, badVersionFrame())
	return out
}

func TestProcessBatchMatchesProcess(t *testing.T) {
	for _, mk := range []func() Target{
		NewReference,
		func() Target { return NewSDNet(DefaultErrata()) },
	} {
		tgt := batchRouter(t, mk())
		frames := batchFrames()
		var wantDropped []bool
		var wantData [][]byte
		for _, f := range frames {
			r := tgt.Process(f, 0, false)
			wantDropped = append(wantDropped, r.Dropped())
			if r.Dropped() {
				wantData = append(wantData, nil)
			} else {
				wantData = append(wantData, append([]byte(nil), r.Outputs[0].Data...))
			}
		}
		results := tgt.ProcessBatch(frames, 0, false)
		if len(results) != len(frames) {
			t.Fatalf("%s: %d results, want %d", tgt.Name(), len(results), len(frames))
		}
		for i, r := range results {
			if r.Dropped() != wantDropped[i] {
				t.Errorf("%s frame %d: dropped %v, want %v", tgt.Name(), i, r.Dropped(), wantDropped[i])
				continue
			}
			if !r.Dropped() && !bytes.Equal(r.Outputs[0].Data, wantData[i]) {
				t.Errorf("%s frame %d: output differs from single-packet path", tgt.Name(), i)
			}
		}
		// All batch outputs must be valid simultaneously, even after an
		// interleaved single-packet Process on the same target.
		tgt.Process(frames[0], 0, false)
		for i, r := range results {
			if !r.Dropped() && !bytes.Equal(r.Outputs[0].Data, wantData[i]) {
				t.Errorf("%s frame %d: batch output clobbered by later Process", tgt.Name(), i)
			}
		}
	}
}

func TestProcessBatchTrace(t *testing.T) {
	tgt := batchRouter(t, NewReference())
	frames := batchFrames()
	results := tgt.ProcessBatch(frames, 0, true)
	for i, r := range results {
		if len(r.Trace.States) == 0 {
			t.Errorf("frame %d: no parser path with trace on", i)
		}
	}
	// The malformed tail frame must be rejected by the reference parser.
	last := results[len(results)-1]
	if !last.Dropped() || last.Trace.DropStage() != "parser" {
		t.Errorf("malformed frame: dropped=%v stage=%q, want parser drop", last.Dropped(), last.Trace.DropStage())
	}
}
