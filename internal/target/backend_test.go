package target

import (
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"netdebug/internal/dataplane"
	"netdebug/internal/p4/ir"
	"netdebug/internal/packet"
)

// TestPlace drives the one placement pass with hand-built claims: what a
// table asks (granule·⌈entries/per⌉), how a pool is water-filled among
// its claimants, what the grant holds (⌊grant/granule⌋·per, at most the
// entries asked for), and what a table granted nothing does under each
// starvation policy.
func TestPlace(t *testing.T) {
	errStarved := errors.New("starved")
	type want struct{ request, grant, capacity int }
	for _, c := range []struct {
		name    string
		pools   []pool
		claims  map[string]claim // by table name; absent: unplaced
		sizes   []int            // declared sizes of tables t0, t1, ...
		starved bool             // the model fails a starved load
		want    []want
		err     error
	}{
		{
			name:   "a lone claim under budget keeps its declared size",
			pools:  []pool{{"mem", 100}},
			claims: map[string]claim{"t0": {pool: "mem", granule: 3, per: 4}},
			sizes:  []int{10},
			want:   []want{{9, 9, 10}}, // 3 row-groups of 4 hold 12, clipped to 10
		},
		{
			name:   "the grant rounds down to whole row-groups",
			pools:  []pool{{"mem", 8}},
			claims: map[string]claim{"t0": {pool: "mem", granule: 3, per: 4}},
			sizes:  []int{100},
			want:   []want{{75, 8, 8}},
		},
		{
			name:  "a small claim keeps what it needs, the rest split the remainder",
			pools: []pool{{"mem", 100}},
			claims: map[string]claim{
				"t0": {pool: "mem", granule: 1, per: 1},
				"t1": {pool: "mem", granule: 1, per: 1},
				"t2": {pool: "mem", granule: 1, per: 1},
			},
			sizes: []int{10, 1000, 1000},
			want:  []want{{10, 10, 10}, {1000, 45, 45}, {1000, 45, 45}},
		},
		{
			name:  "pools do not compete and an unplaced table is left alone",
			pools: []pool{{"a", 10}, {"b", 10}},
			claims: map[string]claim{
				"t0": {pool: "a", granule: 1, per: 1},
				"t2": {pool: "b", granule: 2, per: 1},
			},
			sizes: []int{50, 50, 50},
			want:  []want{{50, 10, 10}, {0, 0, 0}, {100, 10, 5}},
		},
		{
			name:   "a claim may ask for fewer entries than declared",
			pools:  []pool{{"mem", 1 << 30}},
			claims: map[string]claim{"t0": {pool: "mem", granule: 1, per: 1, entries: 9}},
			sizes:  []int{10},
			want:   []want{{9, 9, 9}},
		},
		{
			name:   "a starved table holds nothing where the model allows it",
			pools:  []pool{{"mem", 2}},
			claims: map[string]claim{"t0": {pool: "mem", granule: 3, per: 1}},
			sizes:  []int{10},
			want:   []want{{30, 2, 0}},
		},
		{
			name:    "and fails the load where it does not",
			pools:   []pool{{"mem", 2}},
			claims:  map[string]claim{"t0": {pool: "mem", granule: 3, per: 1}},
			sizes:   []int{10},
			starved: true,
			err:     errStarved,
		},
	} {
		m := model{pools: c.pools, claim: func(t *ir.Table) (claim, error) { return c.claims[t.Name], nil }}
		if c.starved {
			m.starved = func(*placement) error { return errStarved }
		}
		var tables []*ir.Table
		for i, size := range c.sizes {
			tables = append(tables, &ir.Table{Name: "t" + string(rune('0'+i)), Size: size})
		}
		placed, err := m.place(tables)
		if err != c.err {
			t.Errorf("%s: err %v, want %v", c.name, err, c.err)
			continue
		}
		var got []want
		for _, p := range placed {
			got = append(got, want{p.request, p.grant, p.capacity})
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s: (request, grant, capacity) = %v, want %v", c.name, got, c.want)
		}
	}
	if _, err := (model{claim: func(*ir.Table) (claim, error) { return claim{}, errStarved }}).
		place([]*ir.Table{{Name: "t"}}); err != errStarved {
		t.Errorf("a refused claim: err %v, want it passed up", err)
	}
}

// TestClearTableFollowsTableState: a clear goes down the same write path
// as an install or a delete, so everything that follows table state
// follows it — the eBPF latency loses its mask-set sections, a spilled
// SmartNIC table returns to the accelerator and the core-complex mirror
// is emptied with it.
func TestClearTableFollowsTableState(t *testing.T) {
	eb := NewEBPF(DefaultEBPFErrata())
	firewallFixture(t, eb)
	frame := packet.BuildUDPv4(macA, macB, ipA, ipB, 40000, 53, make([]byte, 6))
	loaded := eb.Process(frame, 0, false).Latency
	if err := eb.ClearTable("acl"); err != nil {
		t.Fatal(err)
	}
	if got, want := eb.Process(frame, 0, false).Latency, loaded-2*time.Duration(ebpfInsnsPerMask*ebpfNsPerInsn); got != want {
		t.Errorf("ebpf latency after clearing the fixture's two masks = %v, want %v", got, want)
	}

	e := DefaultSmartNICErrata()
	e.AccelTableBytes = smartnicLPMEntryBytes // grant: one LPM entry
	sn := NewSmartNIC(e)
	loadRouter(t, sn)
	if err := sn.InstallEntry(routeEntry24(0, 1)); err != nil {
		t.Fatal(err)
	}
	if r := sn.Resources(); r.CoreTables != 1 {
		t.Fatalf("two entries on a one-entry grant must spill: %+v", r)
	}
	if err := sn.ClearTable("ipv4_lpm"); err != nil {
		t.Fatal(err)
	}
	if r := sn.Resources(); r.CoreTables != 0 || r.AccelTables != 1 {
		t.Errorf("a cleared table is back on the accelerator: %+v", r)
	}
	if res := sn.Process(badVersionFrame(), 0, false); !res.Dropped() {
		t.Error("the fail-open re-run still finds a route: the core-complex mirror was not cleared")
	}
	if err := sn.ClearTable("no_such_table"); err == nil {
		t.Error("clearing an undeclared table must fail")
	}
}

// TestUnloadedTarget: before Load there is no engine, and every kind says
// so rather than panicking on a control-plane call.
func TestUnloadedTarget(t *testing.T) {
	for _, kind := range Kinds {
		tgt, err := ForKind(kind)
		if err != nil {
			t.Fatal(err)
		}
		if err := tgt.InstallEntry(dataplane.Entry{Table: "t"}); err == nil || !strings.Contains(err.Error(), "no program loaded") {
			t.Errorf("%s: InstallEntry before Load = %v", kind, err)
		}
		if tgt.Program() != nil || tgt.Status() != nil || tgt.TernaryGroups("t") != 0 {
			t.Errorf("%s: an unloaded target has a program, counters or mask groups", kind)
		}
		if err := tgt.Load(nil); err == nil || !strings.Contains(err.Error(), "target: "+tgt.Name()+": nil program") {
			t.Errorf("%s: Load(nil) = %v", kind, err)
		}
	}
	if _, err := ForKind("fpga-9000"); err == nil || !strings.Contains(err.Error(), KindSmartNICFixed) {
		t.Errorf("ForKind(unknown) = %v, want an error listing the kinds", err)
	}
}
