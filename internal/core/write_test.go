package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"netdebug/internal/bitfield"
	"netdebug/internal/control"
	"netdebug/internal/dataplane"
	"netdebug/internal/device"
	"netdebug/internal/p4/compile"
	"netdebug/internal/p4/p4test"
	"netdebug/internal/packet"
	"netdebug/internal/target"
)

// writeRoute is route k of the sixteen /24s the write tests draw from:
// twice what the cut-down route table below holds.
func writeRoute(k int) dataplane.Entry {
	e := routeEntry()
	e.Keys = []dataplane.KeyValue{{Value: bitfield.New(0x0a000000|uint64(k)<<8, 32), PrefixLen: 24}}
	return e
}

// writeBatch is one write of a seeded sequence.
type writeBatch struct {
	del     bool
	entries []dataplane.Entry
}

// writeSequence draws install and delete batches of one to eight entries.
// Besides routes it draws the failures a write can meet: an unknown table,
// an action with the wrong number of arguments, and — from the routes
// themselves — duplicates, deletes of absent keys and a full table.
func writeSequence(rng *rand.Rand, n int) []writeBatch {
	out := make([]writeBatch, n)
	for i := range out {
		b := &out[i]
		b.del = rng.Intn(3) == 0
		for j := 1 + rng.Intn(8); j > 0; j-- {
			e := writeRoute(rng.Intn(16))
			switch rng.Intn(10) {
			case 0:
				e.Table = "ghost"
			case 1:
				e.Args = e.Args[:1]
			}
			b.entries = append(b.entries, e)
		}
	}
	return out
}

// writeSystem is a controller on an agent whose router holds eight routes.
func writeSystem(t *testing.T, kind string) (*Controller, target.Target) {
	t.Helper()
	prog, err := compile.Compile(strings.Replace(p4test.Router, "size = 1024;", "size = 8;", 1))
	if err != nil {
		t.Fatal(err)
	}
	tgt, err := target.ForKind(kind)
	if err != nil {
		t.Fatal(err)
	}
	if err := tgt.Load(prog); err != nil {
		t.Fatal(err)
	}
	dev, err := device.New(device.Config{Target: tgt})
	if err != nil {
		t.Fatal(err)
	}
	return Connect(NewAgent(dev)), tgt
}

// TestBatchWritesEqualSingles: a batch is the single calls it replaces.
// On every shipped backend, a seeded sequence of install and delete
// batches, sent once as batches and once as one call per entry, stops at
// the same entry with the same error, and leaves the same resource report
// after every write and the same routes installed at the end.
func TestBatchWritesEqualSingles(t *testing.T) {
	for ki, kind := range target.ShippedKinds {
		batched, bt := writeSystem(t, kind)
		single, st := writeSystem(t, kind)
		full := 0
		for i, b := range writeSequence(rand.New(rand.NewSource(int64(ki+1))), 60) {
			op, one := control.ReqInstallEntry, single.InstallEntry
			if b.del {
				op, one = control.ReqDeleteEntry, single.DeleteEntry
			}
			done, err := batched.Write(op, b.entries)
			var want error
			wantDone := 0
			for ; wantDone < len(b.entries); wantDone++ {
				if want = one(b.entries[wantDone]); want != nil {
					want = fmt.Errorf("entry %d (%s): %w", wantDone, b.entries[wantDone].Table, want)
					break
				}
			}
			if done != wantDone || fmt.Sprint(err) != fmt.Sprint(want) {
				t.Fatalf("%s: write %d: batch stopped at %d (%v), singles at %d (%v)", kind, i, done, err, wantDone, want)
			}
			if err != nil && strings.Contains(err.Error(), "is full") {
				full++
			}
			if got, want := bt.Resources(), st.Resources(); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: write %d: resources %+v, singles %+v", kind, i, got, want)
			}
		}
		var installed [2][]int
		for side, tgt := range []target.Target{bt, st} {
			for k := 0; k < 16; k++ {
				if tgt.DeleteEntry(writeRoute(k)) == nil {
					installed[side] = append(installed[side], k)
				}
			}
		}
		if !reflect.DeepEqual(installed[0], installed[1]) {
			t.Errorf("%s: routes installed: batch %v, singles %v", kind, installed[0], installed[1])
		}
		if full == 0 || len(installed[0]) == 0 {
			t.Errorf("%s: fixture: %d full-table refusals, routes %v at the end", kind, full, installed[0])
		}
		batched.Close()
		single.Close()
	}
}

// TestSingleWriteAllocsPerRun pins what one install and one delete cost
// over the control channel, agent included: 30 allocations while an entry
// crossed as a gob value, 16 once it crossed in the entries block, whose
// names decode to the strings already seen and whose keys and args took
// one allocation each, 12 since a call is one hand-written frame each
// way (the request head and the answer are no gob values either), and 9
// since keys and args decode into storage the next frame reuses and the
// engine copies what it keeps: a route's args, its key living in the trie.
func TestSingleWriteAllocsPerRun(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under the race detector")
	}
	ctl := Connect(kindAgent(t, target.KindReference))
	defer ctl.Close()
	e := writeRoute(1)
	run := func() {
		if err := ctl.InstallEntry(e); err != nil {
			t.Fatal(err)
		}
		if err := ctl.DeleteEntry(e); err != nil {
			t.Fatal(err)
		}
	}
	run() // the names the connection keeps, the frames' and tables' storage
	if got := testing.AllocsPerRun(200, run); got > 9 {
		t.Errorf("%v allocs per install and delete, want at most 9", got)
	}
}

// TestAgentRefusesEmptyWrite: a write of no entries is refused, not
// answered as a write that did nothing.
func TestAgentRefusesEmptyWrite(t *testing.T) {
	ctl := Connect(kindAgent(t, target.KindReference))
	defer ctl.Close()
	for _, kind := range []control.ReqKind{control.ReqInstallEntry, control.ReqDeleteEntry} {
		resp, err := ctl.Call(&control.Request{Kind: kind})
		if want := kind.String() + " without entries"; err != nil || resp.Err != want {
			t.Errorf("empty %s: %+v, %v; want the error %q", kind, resp, err, want)
		}
	}
}

// TestSecondWriteLeavesFirstEntries: the agent's control channel decodes
// every write frame into the storage of the one before, and the engine
// keeps copies of what it installs, so the entries of a first frame still
// match after a second frame of the same shape: frames take the routes the
// first frame's acl entries and routes give them, and those entries delete
// by the keys they were sent with.
func TestSecondWriteLeavesFirstEntries(t *testing.T) {
	prog, err := compile.Compile(p4test.Firewall)
	if err != nil {
		t.Fatal(err)
	}
	tgt, err := target.ForKind(target.KindReference)
	if err != nil {
		t.Fatal(err)
	}
	if err := tgt.Load(prog); err != nil {
		t.Fatal(err)
	}
	dev, err := device.New(device.Config{Target: tgt})
	if err != nil {
		t.Fatal(err)
	}
	ctl := Connect(NewAgent(dev))
	defer ctl.Close()
	addr := func(ip packet.IPv4Addr) bitfield.Value { return bitfield.FromBytes(ip[:]) }
	write := func(src, dst packet.IPv4Addr, port uint64) []dataplane.Entry {
		return []dataplane.Entry{{
			Table: "acl", Action: "allow", Priority: 1,
			Keys: []dataplane.KeyValue{
				{Value: addr(src), Mask: bitfield.Mask(32)},
				{Value: bitfield.New(0, 32), Mask: bitfield.New(0, 32)},
				{Value: bitfield.New(0, 16), Mask: bitfield.New(0, 16)},
			},
		}, {
			Table: "routing", Action: "route",
			Keys: []dataplane.KeyValue{{Value: addr(dst), PrefixLen: 32}},
			Args: []bitfield.Value{bitfield.New(port, 9)},
		}}
	}
	ipC, ipD := packet.IPv4Addr{10, 0, 2, 3}, packet.IPv4Addr{10, 0, 3, 4}
	first, second := write(ipA, ipB, 1), write(ipC, ipD, 2)
	for _, w := range [][]dataplane.Entry{first, second} {
		if err := ctl.InstallEntries(w); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range []struct {
		src, dst packet.IPv4Addr
		port     uint64
	}{{ipA, ipB, 1}, {ipC, ipD, 2}} {
		frame := packet.BuildUDPv4(macA, macB, c.src, c.dst, 40000, 53, make([]byte, 26))
		if res := dev.InjectInternal(frame, 0, dev.Now(), false); res.Dropped() || res.Outputs[0].Port != c.port {
			t.Errorf("%v to %v: outputs %+v, want port %d", c.src, c.dst, res.Outputs, c.port)
		}
	}
	if done, err := ctl.Write(control.ReqDeleteEntry, first); err != nil || done != len(first) {
		t.Errorf("deleting the first frame's entries: %d done, %v", done, err)
	}
}
