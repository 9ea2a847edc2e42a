package target

// Tests for Target.ProcessBatch: per-frame results must match the
// single-packet path and stay simultaneously valid across the batch.

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"netdebug/internal/dataplane"
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

// equivalenceFrames is the burst every kind is held to: frames that hit,
// miss, get rejected by the parser (forwarded by the sdnet erratum and the
// smartnic fail-open exception path), are too short to parse, and are
// longer than the smartnic punt MTU — well formed (punted on the firewall,
// whose acl is core-resident) and malformed (the fail-open re-run), so a
// punted forward is truncated. Far fewer than a punt ring's worth: past
// the ring a burst and the same frames one by one differ by design.
func equivalenceFrames() [][]byte {
	frames := batchFrames()
	long := packet.BuildUDPv4(macA, macB, ipA, ipB, 40000, 53, make([]byte, 300))
	longBad := append([]byte(nil), long...)
	longBad[14] = 0x65
	return append(frames,
		packet.BuildUDPv4(macA, macB, ipA, packet.IPv4Addr{172, 16, 5, 9}, 40000, 53, make([]byte, 26)),
		goodFrame()[:16],
		long, longBad,
		packet.BuildUDPv4(macA, macB, ipA, ipB, 40000, 53, make([]byte, 6)))
}

// observed is everything of a Result the equivalence compares, with the
// output bytes copied out of the target's scratch.
type observed struct {
	out     Outcome
	latency time.Duration
	path    string
	key     uint64
	dropped bool
	drop    dataplane.DropReason
	control uint16
}

func observe(r Result) observed {
	return observed{OutcomeOf(r), r.Latency, r.Trace.Format(), r.Trace.Key(0), r.Trace.Dropped, r.Trace.Drop, r.Trace.DropControl}
}

// statusDelta is what a run added to each of the target's counters.
func statusDelta(before, after map[string]uint64) map[string]uint64 {
	d := make(map[string]uint64, len(after))
	for k, v := range after {
		if v != before[k] {
			d[k] = v - before[k]
		}
	}
	return d
}

// TestProcessBatchMatchesProcess: on every kind of the kind table, a burst
// through ProcessBatch and the same frames one by one through Process are
// the same observation frame for frame — output bytes, egress port,
// latency, the rendered path and its key, drop reason — and move the same
// counters by the same amounts. The burst's results are read only after
// the whole burst: each trace lives in its own slot's context, so all are
// valid at once and none aliases another.
func TestProcessBatchMatchesProcess(t *testing.T) {
	fixtures := []struct {
		name string
		load func(testing.TB, Target)
	}{
		{"router", loadRouter},
		{"firewall", firewallFixture},
	}
	frames := equivalenceFrames()
	for _, kind := range Kinds {
		for _, fx := range fixtures {
			tgt, err := ForKind(kind)
			if err != nil {
				t.Fatal(err)
			}
			fx.load(t, tgt)
			for _, trace := range []bool{false, true} {
				name := fmt.Sprintf("%s/%s/trace=%v", kind, fx.name, trace)
				s0 := tgt.Status()
				var want []observed
				for _, f := range frames {
					want = append(want, observe(tgt.Process(f, 0, trace)))
				}
				s1 := tgt.Status()
				results := tgt.ProcessBatch(frames, 0, trace)
				s2 := tgt.Status()
				if len(results) != len(frames) {
					t.Fatalf("%s: %d results, want %d", name, len(results), len(frames))
				}
				forwarded := 0
				for i, r := range results {
					if got := observe(r); got != want[i] {
						t.Errorf("%s frame %d: batch %+v, single %+v", name, i, got, want[i])
					}
					if trace && len(r.Trace.States) == 0 {
						t.Errorf("%s frame %d: no parser path with trace on", name, i)
					}
					if !r.Dropped() {
						forwarded++
					}
				}
				// The shipped smartnic must have taken every branch of its
				// exception path: a table punt, a fail-open re-run (a
				// parser punt that forwards) and a truncated forward.
				if kind == KindSmartNIC {
					d := statusDelta(s1, s2)
					clipped := false
					for _, r := range results {
						clipped = clipped || !r.Dropped() && len(r.Outputs[0].Data) == smartnicPuntMTU
					}
					if d["smartnic.punt.parser"] == 0 || d["smartnic.punt.total"] <= d["smartnic.punt.parser"] || !clipped {
						t.Errorf("%s: exception path not covered: %v, clipped %v", name, d, clipped)
					}
				}
				if forwarded == 0 || forwarded == len(frames) {
					t.Errorf("%s: %d of %d frames forwarded, the burst should mix verdicts", name, forwarded, len(frames))
				}
				if single, batch := statusDelta(s0, s1), statusDelta(s1, s2); !reflect.DeepEqual(single, batch) {
					t.Errorf("%s: status moved by %v frame by frame, by %v as a burst", name, single, batch)
				}
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
