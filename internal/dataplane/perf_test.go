package dataplane

import (
	"slices"
	"testing"
	"unsafe"

	"netdebug/internal/bitfield"
	"netdebug/internal/p4/p4test"
	"netdebug/internal/packet"
)

// maxProcessAllocs is the allocation floor asserted for the packet hot
// path (PR 1 acceptance criterion: <= 2 allocs/packet steady state; the
// implementation currently reaches 0).
const maxProcessAllocs = 2

// l2Engine returns an engine loaded with the exact-match L2 switch and
// one MAC entry.
func l2Engine(t testing.TB) *Engine {
	return installed(t, mustEngine(t, p4test.L2Switch), l2Entry())
}

func l2Entry() Entry {
	return Entry{
		Table:  "mac_table",
		Keys:   []KeyValue{{Value: bitfield.FromBytes(macB[:])}},
		Action: "forward",
		Args:   []bitfield.Value{bitfield.New(2, 9)},
	}
}

func assertProcessAllocs(t *testing.T, name string, e *Engine, frame []byte, wantForward bool) {
	t.Helper()
	ctx := e.NewContext()
	out, _ := e.Process(ctx, frame, 0)
	if wantForward && out == nil {
		t.Fatalf("%s: packet dropped, fixture broken", name)
	}
	allocs := testing.AllocsPerRun(500, func() {
		e.Process(ctx, frame, 0)
	})
	if allocs > maxProcessAllocs {
		t.Errorf("%s: %v allocs/packet, want <= %d", name, allocs, maxProcessAllocs)
	}
	t.Logf("%s: %v allocs/packet", name, allocs)
}

// TestProcessAllocsExact pins the steady-state allocation floor for an
// exact-match table program.
func TestProcessAllocsExact(t *testing.T) {
	frame := packet.BuildUDPv4(macA, macB, ipA, ipB, 100, 200, []byte("data"))
	assertProcessAllocs(t, "exact/hit", l2Engine(t), frame, true)
	miss := packet.BuildUDPv4(macA, packet.MAC{9, 9, 9, 9, 9, 9}, ipA, ipB, 1, 2, nil)
	assertProcessAllocs(t, "exact/miss", l2Engine(t), miss, false)
}

// TestProcessAllocsLPM pins the floor for an LPM table program.
func TestProcessAllocsLPM(t *testing.T) {
	frame := packet.BuildUDPv4(macA, macB, ipA, ipB, 100, 200, []byte("data"))
	assertProcessAllocs(t, "lpm/hit", routerEngine(t), frame, true)
}

// TestProcessAllocsTernary pins the floor for a ternary table program
// (which also exercises the LPM routing stage behind it).
func TestProcessAllocsTernary(t *testing.T) {
	frame := packet.BuildTCPv4(macA, macB, ipA, ipB, 1234, 443, packet.TCPSyn, nil)
	assertProcessAllocs(t, "ternary/allow", firewallEngine(t), frame, true)
	denied := packet.BuildTCPv4(macA, macB, ipA, ipB, 1234, 80, packet.TCPSyn, nil)
	assertProcessAllocs(t, "ternary/deny", firewallEngine(t), denied, false)
}

// TestProcessAllocsRejectPath pins the floor for parser-rejected packets.
func TestProcessAllocsRejectPath(t *testing.T) {
	bad := packet.BuildUDPv4(macA, macB, ipA, ipB, 1, 2, nil)
	bad[14] = 0x65
	assertProcessAllocs(t, "reject", routerEngine(t), bad, false)
}

// TestTraceStillRecordedWhenEnabled guards against the zero-cost-trace
// optimization silencing tracing entirely.
func TestTraceStillRecordedWhenEnabled(t *testing.T) {
	e := routerEngine(t)
	ctx := e.NewContext()
	ctx.CollectTrace = true
	frame := packet.BuildUDPv4(macA, macB, ipA, ipB, 100, 200, nil)
	e.Process(ctx, frame, 0)
	if len(ctx.Trace.States) == 0 || len(ctx.Trace.Tables) == 0 {
		t.Fatalf("trace empty with CollectTrace on: %+v", ctx.Trace)
	}
	// The context owns the slices: the next packet records into the same
	// storage, so a caller that wants a trace longer clones it first.
	first := ctx.Trace
	states, tables := slices.Clone(first.States), slices.Clone(first.Tables)
	e.Process(ctx, arpRequest(), 0)
	if slices.Equal(ctx.Trace.States, states) || slices.Equal(ctx.Trace.Tables, tables) {
		t.Fatal("fixture: the second packet takes the first one's path")
	}
	if &ctx.Trace.States[:1][0] != &first.States[0] || &ctx.Trace.Tables[:1][0] != &first.Tables[0] {
		t.Fatal("the second packet's trace is not in the context's storage")
	}
}

// TestContextSizeClass: a device batch holds thousands of contexts, so a
// field that tips Context into the allocator's next size class (288 to
// 320 bytes) shows as live heap on every workload.
func TestContextSizeClass(t *testing.T) {
	if got := unsafe.Sizeof(Context{}); got > 288 {
		t.Fatalf("Context is %d bytes, over the 288-byte size class", got)
	}
}

// TestTraceAllocsSizedOnce pins what a collected trace allocates: the
// parser states and the table events, each once in a context's life at
// the program's bound however many states and tables a frame visits —
// at most two allocations on the context's first traced frame, none on
// any frame after it.
func TestTraceAllocsSizedOnce(t *testing.T) {
	udp := packet.BuildUDPv4(macA, macB, ipA, ipB, 100, 200, []byte("data"))
	rejected := append([]byte(nil), udp...)
	rejected[14] = 0x65
	for _, c := range []struct {
		name   string
		e      *Engine
		frame  []byte
		tables int
	}{
		{"router", routerEngine(t), udp, 1},
		{"router/rejected", routerEngine(t), rejected, 0},
		{"firewall", firewallEngine(t), packet.BuildTCPv4(macA, macB, ipA, ipB, 1234, 443, packet.TCPSyn, nil), 2},
	} {
		ctx := c.e.NewContext()
		ctx.CollectTrace = true
		// Dropping the trace's storage puts the context back at its first
		// traced frame, with the output buffer already grown.
		first := testing.AllocsPerRun(50, func() {
			ctx.Trace = Trace{}
			c.e.Process(ctx, c.frame, 0)
		})
		if first > 2 {
			t.Errorf("%s: %v allocs on a context's first traced frame, want at most 2", c.name, first)
		}
		if len(ctx.Trace.Tables) != c.tables {
			t.Fatalf("%s: %d table events, fixture expects %d", c.name, len(ctx.Trace.Tables), c.tables)
		}
		if got := testing.AllocsPerRun(200, func() { c.e.Process(ctx, c.frame, 0) }); got != 0 {
			t.Errorf("%s: %v allocs per traced frame in steady state, want 0", c.name, got)
		}
	}
}

func BenchmarkProcessRouter(b *testing.B) {
	e := routerEngine(b)
	ctx := e.NewContext()
	frame := packet.BuildUDPv4(macA, macB, ipA, ipB, 100, 200, make([]byte, 26))
	b.SetBytes(int64(len(frame)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if out, _ := e.Process(ctx, frame, 0); out == nil {
			b.Fatal("dropped")
		}
	}
}

func BenchmarkProcessFirewallTernary(b *testing.B) {
	e := firewallEngine(b)
	ctx := e.NewContext()
	frame := packet.BuildTCPv4(macA, macB, ipA, ipB, 1234, 443, packet.TCPSyn, make([]byte, 26))
	b.SetBytes(int64(len(frame)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Process(ctx, frame, 0)
	}
}
