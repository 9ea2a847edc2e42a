package faultplan

import (
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"netdebug/internal/bitfield"
	"netdebug/internal/control"
	"netdebug/internal/dataplane"
	"netdebug/internal/device"
	"netdebug/internal/p4/compile"
	"netdebug/internal/p4/p4test"
	"netdebug/internal/target"
)

func loadedFirewall(t *testing.T) target.Target {
	t.Helper()
	prog, err := compile.Compile(p4test.Firewall)
	if err != nil {
		t.Fatal(err)
	}
	tgt := target.NewReference()
	if err := tgt.Load(prog); err != nil {
		t.Fatal(err)
	}
	return tgt
}

func aclEntry(src uint64, prio int) dataplane.Entry {
	return dataplane.Entry{
		Table:    "acl",
		Priority: prio,
		Keys: []dataplane.KeyValue{
			{Value: bitfield.New(src, 32), Mask: bitfield.New(0xffffffff, 32)},
			{Value: bitfield.New(0, 32), Mask: bitfield.New(0, 32)},
			{Value: bitfield.New(0, 16), Mask: bitfield.New(0, 16)},
		},
		Action: "allow",
	}
}

func routeEntry(dst uint64) dataplane.Entry {
	return dataplane.Entry{
		Table:  "routing",
		Keys:   []dataplane.KeyValue{{Value: bitfield.New(dst, 32), PrefixLen: 24}},
		Action: "route",
		Args:   []bitfield.Value{bitfield.New(1, 9)},
	}
}

func TestSchedulerReleasesInOrder(t *testing.T) {
	plan := Plan{Events: []Event{
		{At: 30 * time.Microsecond, Kind: ClearFaults},
		{At: 10 * time.Microsecond, Kind: PortDown, Port: 1},
		{At: 10 * time.Microsecond, Kind: MapFull, Table: "acl"},
		{At: 20 * time.Microsecond, Kind: InstallFlap, Count: 2},
	}}
	if err := plan.Validate(); err != nil {
		t.Fatal(err)
	}
	s := NewScheduler(plan)
	if got := s.DueBy(5 * time.Microsecond); len(got) != 0 {
		t.Fatalf("events due at 5us: %v", got)
	}
	due := s.DueBy(10 * time.Microsecond)
	if len(due) != 2 || due[0].Kind != PortDown || due[1].Kind != MapFull {
		t.Fatalf("events due at 10us: %v", due)
	}
	// Same-time events keep plan order (stable sort) — PortDown was
	// listed before MapFull.
	if got := s.DueBy(10 * time.Microsecond); len(got) != 0 {
		t.Fatalf("re-poll released events again: %v", got)
	}
	if s.Pending() != 2 {
		t.Fatalf("pending = %d, want 2", s.Pending())
	}
	due = s.DueBy(time.Second)
	if len(due) != 2 || due[0].Kind != InstallFlap || due[1].Kind != ClearFaults {
		t.Fatalf("final events: %v", due)
	}
	if s.Pending() != 0 {
		t.Fatalf("pending = %d after drain", s.Pending())
	}
}

func TestPlanValidate(t *testing.T) {
	bad := []Plan{
		{Events: []Event{{At: -time.Second, Kind: ClearFaults}}},
		{Events: []Event{{Kind: PortDown, Port: -1}}},
		{Events: []Event{{Kind: MapFull}}},
		{Events: []Event{{Kind: MaskBudget, Budget: -1}}},
		{Events: []Event{{Kind: InstallFlap, Count: 0}}},
		{Events: []Event{{Kind: Kind(99)}}},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("plan %d validated: %+v", i, p.Events)
		}
	}
}

func TestInjectorMapFull(t *testing.T) {
	inj := Wrap(loadedFirewall(t))
	inj.SetMapFull("acl", true)
	err := inj.InstallEntry(aclEntry(1, 1))
	var mfe *MapFullError
	if !errors.As(err, &mfe) || mfe.Table != "acl" {
		t.Fatalf("install under map-full: %v", err)
	}
	if control.IsTransient(err) {
		t.Fatal("map-full must not be transient")
	}
	// Other tables are unaffected.
	if err := inj.InstallEntry(routeEntry(0x0a000000)); err != nil {
		t.Fatalf("routing install under acl map-full: %v", err)
	}
	inj.SetMapFull("acl", false)
	if err := inj.InstallEntry(aclEntry(1, 1)); err != nil {
		t.Fatalf("install after map-full-clear: %v", err)
	}
	if inj.Denials()["map-full"] != 1 {
		t.Fatalf("denials = %v", inj.Denials())
	}
}

func TestInjectorMaskBudget(t *testing.T) {
	inj := Wrap(loadedFirewall(t))
	inj.ArmMaskBudget(2)
	if err := inj.InstallEntry(aclEntry(1, 1)); err != nil {
		t.Fatal(err)
	}
	if err := inj.InstallEntry(aclEntry(2, 2)); err != nil {
		t.Fatal(err)
	}
	var mbe *MaskBudgetError
	if err := inj.InstallEntry(aclEntry(3, 3)); !errors.As(err, &mbe) {
		t.Fatalf("install past mask budget: %v", err)
	}
	// LPM installs carry no ternary mask and are not budgeted.
	if err := inj.InstallEntry(routeEntry(0x0a000000)); err != nil {
		t.Fatalf("lpm install under mask budget: %v", err)
	}
	inj.Reset()
	if err := inj.InstallEntry(aclEntry(3, 3)); err != nil {
		t.Fatalf("ternary install after reset: %v", err)
	}
}

func TestInjectorInstallFlapIsTransient(t *testing.T) {
	inj := Wrap(loadedFirewall(t))
	inj.ArmInstallFlap(2)
	err := inj.InstallEntry(aclEntry(1, 1))
	var tie *TransientInstallError
	if !errors.As(err, &tie) || tie.Op != "install" {
		t.Fatalf("first flapped write: %v", err)
	}
	if !control.IsTransient(err) {
		t.Fatalf("flap error not transient: %v", err)
	}
	if err := inj.DeleteEntry(aclEntry(1, 1)); !control.IsTransient(err) {
		t.Fatalf("second flapped write (delete): %v", err)
	}
	// Flap exhausted: the install lands, and the delete finds it.
	if err := inj.InstallEntry(aclEntry(1, 1)); err != nil {
		t.Fatalf("post-flap install: %v", err)
	}
	if err := inj.DeleteEntry(aclEntry(1, 1)); err != nil {
		t.Fatalf("post-flap delete: %v", err)
	}
	if got := inj.Denials()["install-flap"]; got != 2 {
		t.Fatalf("flap denials = %d, want 2", got)
	}
}

// TestFlapRetriesThroughControlChannel closes the loop the seam exists
// for: an agent-side flap fault surfaces as a retryable response, and a
// client with a retry policy rides it out transparently.
func TestFlapRetriesThroughControlChannel(t *testing.T) {
	inj := Wrap(loadedFirewall(t))
	inj.ArmInstallFlap(2)
	cli := control.Pipe(&controlHandler{inj: inj})
	defer cli.Close()
	cli.SetRetryPolicy(control.RetryPolicy{MaxAttempts: 4, Sleep: func(time.Duration) {}})
	if err := cli.InstallEntry(aclEntry(7, 1)); err != nil {
		t.Fatalf("install through flap with retry: %v", err)
	}
	if got := inj.Denials()["install-flap"]; got != 2 {
		t.Fatalf("flap denials = %d, want 2", got)
	}
}

// TestBatchRetryResumesLikeSingles: a write is a batch, and a flap in
// the middle of one must cost what it costs a loop of single calls. A
// retry resumes after the entries already applied (re-sending them would
// fail them as duplicates), and each entry has the whole retry budget (a
// second flap later in the batch is ridden out again). Installed table,
// denials, sleeps and the index the write stops at all match.
func TestBatchRetryResumesLikeSingles(t *testing.T) {
	entries := make([]dataplane.Entry, 64)
	for i := range entries {
		entries[i] = aclEntry(uint64(i+1), i+1)
	}
	type outcome struct {
		Done      int
		Err       string
		Denials   map[string]uint64
		Sleeps    int
		Installed []int
	}
	run := func(flap int, batch bool) outcome {
		h := &controlHandler{inj: Wrap(loadedFirewall(t)), flapAt: map[int]int{16: flap, 48: flap}}
		cli := control.Pipe(h)
		defer cli.Close()
		var o outcome
		cli.SetRetryPolicy(control.RetryPolicy{MaxAttempts: 3, BaseBackoff: time.Millisecond, Sleep: func(time.Duration) { o.Sleeps++ }})
		var err error
		if batch {
			o.Done, err = cli.Write(control.ReqInstallEntry, entries)
		} else {
			for ; o.Done < len(entries); o.Done++ {
				if err = cli.InstallEntry(entries[o.Done]); err != nil {
					err = fmt.Errorf("entry %d (%s): %w", o.Done, entries[o.Done].Table, err)
					break
				}
			}
		}
		if err != nil {
			o.Err = err.Error()
		}
		o.Denials = h.inj.Denials()
		for i, e := range entries {
			if h.inj.Target.DeleteEntry(e) == nil {
				o.Installed = append(o.Installed, i)
			}
		}
		return o
	}
	for _, flap := range []int{1, 2, 5} {
		single, batch := run(flap, false), run(flap, true)
		if !reflect.DeepEqual(batch, single) {
			t.Errorf("flap %d: batch %+v\nsingles %+v", flap, batch, single)
		}
		if stopped := flap >= 3; stopped != (single.Err != "") || single.Denials["install-flap"] == 0 || single.Sleeps == 0 {
			t.Errorf("flap %d: fixture: singles %+v", flap, single)
		}
	}
}

// controlHandler adapts an Injector-wrapped target to the control
// protocol for the retry round-trip tests (the full agent lives in
// package core; this isolates the Retryable classification). Before its
// install call number k it arms a flap of flapAt[k] writes.
type controlHandler struct {
	inj    *Injector
	flapAt map[int]int
	writes int
}

func (h *controlHandler) Handle(req *control.Request) *control.Response {
	if req.Kind != control.ReqInstallEntry {
		return &control.Response{Err: "unexpected " + req.Kind.String()}
	}
	for i, e := range req.Entries {
		if n := h.flapAt[h.writes]; n > 0 {
			h.inj.ArmInstallFlap(n)
		}
		h.writes++
		if err := h.inj.InstallEntry(e); err != nil {
			return &control.Response{Err: err.Error(), Done: i, Retryable: control.IsTransient(err)}
		}
	}
	return &control.Response{Done: len(req.Entries)}
}

func TestApplyInterfaceFaults(t *testing.T) {
	tgt := loadedFirewall(t)
	inj := Wrap(tgt)
	dev, err := device.New(device.Config{Target: inj})
	if err != nil {
		t.Fatal(err)
	}
	if err := Apply(Event{Kind: PortDown, Port: 2}, dev, inj); err != nil {
		t.Fatal(err)
	}
	if dev.LinkUp(2) {
		t.Fatal("port 2 still up after PortDown apply")
	}
	if err := Apply(Event{Kind: QueueStuck, Port: 1}, dev, inj); err != nil {
		t.Fatal(err)
	}
	if err := Apply(Event{Kind: MapFull, Table: "acl"}, dev, inj); err != nil {
		t.Fatal(err)
	}
	var mfe *MapFullError
	if err := inj.InstallEntry(aclEntry(1, 1)); !errors.As(err, &mfe) {
		t.Fatalf("map-full not applied: %v", err)
	}
	if err := Apply(Event{Kind: ClearFaults}, dev, inj); err != nil {
		t.Fatal(err)
	}
	if !dev.LinkUp(2) {
		t.Fatal("port 2 down after ClearFaults apply")
	}
	// ClearFaults is a device-level event; control-plane faults are
	// lifted by their own events (MapFullClear) or Injector.Reset.
	if err := inj.InstallEntry(aclEntry(1, 1)); !errors.As(err, &mfe) {
		t.Fatalf("map-full unexpectedly lifted by device clear: %v", err)
	}
	if err := Apply(Event{Kind: MapFullClear, Table: "acl"}, dev, inj); err != nil {
		t.Fatal(err)
	}
	if err := inj.InstallEntry(aclEntry(1, 1)); err != nil {
		t.Fatalf("install after map-full-clear: %v", err)
	}
	if err := Apply(Event{Kind: Kind(99)}, dev, inj); err == nil {
		t.Fatal("unknown kind applied without error")
	}
}
