package session

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"netdebug/internal/bitfield"
	"netdebug/internal/core"
	"netdebug/internal/dataplane"
	"netdebug/internal/faultplan"
	"netdebug/internal/p4/p4test"
	"netdebug/internal/packet"
)

var (
	srcMAC = packet.MAC{2, 0, 0, 0, 0, 0xa}
	gwMAC  = packet.MAC{2, 0, 0, 0, 0xff, 1}
	srcIP  = packet.IPv4Addr{10, 0, 0, 1}
	dstIP  = packet.IPv4Addr{10, 0, 1, 2}
)

func routerHostConfig() HostConfig {
	return HostConfig{
		Source: p4test.Router,
		Target: "reference",
		Baseline: []dataplane.Entry{{
			Table:  "ipv4_lpm",
			Keys:   []dataplane.KeyValue{{Value: bitfield.New(0x0a000000, 32), PrefixLen: 8}},
			Action: "ipv4_forward",
			Args:   []bitfield.Value{bitfield.FromBytes(gwMAC[:]), bitfield.New(1, 9)},
		}},
		CallTimeout: time.Second,
		Retry:       RetrySpec{MaxAttempts: 4, BaseBackoff: time.Microsecond, MaxBackoff: 10 * time.Microsecond},
	}
}

func probeFrame() []byte {
	return packet.BuildUDPv4(srcMAC, gwMAC, srcIP, dstIP, 40000, 53, make([]byte, 26))
}

func routerTestSpec(count int) core.TestSpec {
	return core.TestSpec{
		Name: "fwd",
		Gen: core.GenSpec{Streams: []core.StreamSpec{{
			Name: "probe", Template: probeFrame(), Count: count, RatePPS: 1e6,
		}}},
		Check: core.CheckSpec{Rules: []core.Rule{{
			Name: "to-port-1", Stream: "probe", ExpectPort: 1,
		}}},
	}
}

// churnySpec is a session with churn, a fault plan covering interface
// and control-plane faults, and a probe leg — the full vocabulary.
func churnySpec(name string) SessionSpec {
	return SessionSpec{
		Name:   name,
		Spec:   routerTestSpec(40),
		Rounds: 4,
		Plan: faultplan.Plan{Events: []faultplan.Event{
			{At: 0, Kind: faultplan.InstallFlap, Count: 2},
			{At: 50 * time.Microsecond, Kind: faultplan.QueueStuck, Port: 1},
			{At: 100 * time.Microsecond, Kind: faultplan.ClearFaults},
			{At: 100 * time.Microsecond, Kind: faultplan.MapFull, Table: "ipv4_lpm"},
			{At: 150 * time.Microsecond, Kind: faultplan.MapFullClear, Table: "ipv4_lpm"},
		}},
		Churn:    &ChurnSpec{Table: "ipv4_lpm", Installs: 6, Deletes: 3},
		Probe:    &ProbeSpec{Port: 0, Frame: probeFrame(), Count: 8},
		SLOBound: time.Millisecond,
	}
}

func quietSpec(name string) SessionSpec {
	return SessionSpec{
		Name:     name,
		Spec:     routerTestSpec(25),
		Rounds:   2,
		Churn:    &ChurnSpec{Table: "ipv4_lpm", Installs: 3, Deletes: 3},
		SLOBound: time.Millisecond,
	}
}

func batchSpecs() []SessionSpec {
	return []SessionSpec{
		churnySpec("alpha"), quietSpec("beta"), churnySpec("gamma"),
		quietSpec("delta"), churnySpec("epsilon"), quietSpec("zeta"),
	}
}

func recordBatch(t *testing.T, hosts int, specs []SessionSpec) []byte {
	t.Helper()
	var buf bytes.Buffer
	m, err := NewManager(routerHostConfig(), hosts, NewRecorder(&buf))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	results, err := m.RunAll(specs)
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range results {
		if res == nil {
			t.Fatalf("session %d returned no result", i)
		}
	}
	return buf.Bytes()
}

// TestStreamDeterministicAcrossConcurrency is the heart of the
// record/replay contract: the same batch of sessions produces a
// byte-identical JSONL stream on a 1-host pool (fully serialized, warm
// hosts) and a 4-host pool (concurrent, fresh hosts).
func TestStreamDeterministicAcrossConcurrency(t *testing.T) {
	specs := batchSpecs()
	one := recordBatch(t, 1, specs)
	four := recordBatch(t, 4, specs)
	if len(one) == 0 {
		t.Fatal("empty stream")
	}
	if !bytes.Equal(one, four) {
		l1 := bytes.Split(one, []byte("\n"))
		l4 := bytes.Split(four, []byte("\n"))
		for i := 0; i < len(l1) && i < len(l4); i++ {
			if !bytes.Equal(l1[i], l4[i]) {
				t.Fatalf("streams diverge at line %d:\n 1-host: %s\n 4-host: %s", i+1, l1[i], l4[i])
			}
		}
		t.Fatalf("stream lengths differ: %d vs %d lines", len(l1), len(l4))
	}
}

// TestReplayByteIdentical re-executes a recorded stream from nothing
// but its own bytes and asserts the re-recorded stream matches exactly.
func TestReplayByteIdentical(t *testing.T) {
	stream := recordBatch(t, 2, batchSpecs())
	if err := ReplayCheck(stream); err != nil {
		t.Fatal(err)
	}
}

var updateStream = flag.Bool("update", false, "rewrite testdata/batch.jsonl from this tree")

// committedStream is a recording of batchSpecs on one host, kept in the
// repository so a change to anything a stream records — a record field,
// or a field of a struct the session header carries, such as HostConfig
// — has to regenerate it on purpose (go test -run
// TestCommittedStreamReplays ./internal/session/ -update).
const committedStream = "testdata/batch.jsonl"

// TestCommittedStreamReplays: today's recording of the batch is the
// committed one byte for byte, and the committed stream replays from its
// own bytes.
func TestCommittedStreamReplays(t *testing.T) {
	stream := recordBatch(t, 1, batchSpecs())
	if *updateStream {
		if err := os.WriteFile(committedStream, stream, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	committed, err := os.ReadFile(committedStream)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(stream, committed) {
		t.Fatalf("the recording differs from %s; regenerate it with -update if the change is deliberate", committedStream)
	}
	if err := ReplayCheck(committed); err != nil {
		t.Fatal(err)
	}
}

// TestReplayRejectsUnknownSchema guards the versioning contract: a
// version from the future is refused, and so is a schema-1 stream, whose
// session header carried gob blobs where this one carries JSON.
func TestReplayRejectsUnknownSchema(t *testing.T) {
	stream := recordBatch(t, 1, []SessionSpec{quietSpec("solo")})
	current := fmt.Sprintf(`{"schema":%d,`, SchemaVersion)
	mangled := bytes.Replace(stream, []byte(current), []byte(`{"schema":9,`), 1)
	if _, err := Replay(mangled); err == nil || !strings.Contains(err.Error(), "schema") {
		t.Fatalf("mangled schema replayed: %v", err)
	}
	old := []byte(`{"schema":1,"type":"session","session":"solo","seq":0,"spec":"ZP+RAwEBC1Nlc3Npb25TcGVj"}` + "\n")
	want := fmt.Sprintf("schema 1, want %d", SchemaVersion)
	if _, err := Replay(old); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("schema-1 stream: %v, want %q", err, want)
	}
}

// TestSessionHeaderIsPlainJSON: a recorded header decodes with nothing
// but encoding/json, carrying the program text verbatim, the session's
// name and its fault plan's kinds by name.
func TestSessionHeaderIsPlainJSON(t *testing.T) {
	stream := recordBatch(t, 1, []SessionSpec{churnySpec("alpha")})
	line, _, _ := bytes.Cut(stream, []byte("\n"))
	var header map[string]any
	if err := json.Unmarshal(line, &header); err != nil {
		t.Fatal(err)
	}
	if header["type"] != "session" {
		t.Fatalf("first record is %v, want the session header", header["type"])
	}
	host, _ := header["host"].(map[string]any)
	spec, _ := header["spec"].(map[string]any)
	plan, _ := spec["Plan"].(map[string]any)
	events, _ := plan["Events"].([]any)
	if host["Source"] != p4test.Router {
		t.Errorf("host.Source is not the program text: %.80v", host["Source"])
	}
	if spec["Name"] != "alpha" {
		t.Errorf("spec.Name = %v, want alpha", spec["Name"])
	}
	if len(events) == 0 {
		t.Fatalf("spec.Plan has no events: %v", spec["Plan"])
	}
	if first, _ := events[0].(map[string]any); first["Kind"] != "install-flap" {
		t.Errorf("spec.Plan.Events = %v, want install-flap first, by name", events)
	}
}

// TestParseStreamNamesPhysicalLine: a parse error counts blank lines, so
// it names the line an editor shows.
func TestParseStreamNamesPhysicalLine(t *testing.T) {
	stream := fmt.Sprintf(`{"schema":%d,"type":"end"}`, SchemaVersion) + "\n\n{bad\n"
	if _, err := ParseStream([]byte(stream)); err == nil || !strings.Contains(err.Error(), "stream line 3:") {
		t.Fatalf("ParseStream(%q) = %v, want an error on stream line 3", stream, err)
	}
}

// FuzzParseStream feeds arbitrary bytes to ParseStream, the one decoder
// of a recorded stream. It must not panic, and a stream it accepts must
// re-record through the Recorder into one that parses back to the same
// records — up to what the encoder canonicalises (see canonical).
func FuzzParseStream(f *testing.F) {
	f.Fuzz(func(t *testing.T, stream []byte) {
		first, err := ParseStream(stream)
		if err != nil {
			return
		}
		var again bytes.Buffer
		rec := NewRecorder(&again)
		if err := rec.commit(rec.reserveN(1), first); err != nil {
			t.Fatalf("parsed records do not re-record: %v", err)
		}
		second, err := ParseStream(again.Bytes())
		if err != nil {
			t.Fatalf("re-recorded stream refused: %v\n%s", err, again.Bytes())
		}
		if want := canonical(first); !reflect.DeepEqual(want, second) {
			t.Fatalf("re-recorded stream parses differently:\n first: %+v\nsecond: %+v", want, second)
		}
	})
}

// canonical is a parsed record as the recorder writes it: json.Marshal
// writes a RawMessage compact and HTML-escaped, and omits an empty map
// whose field says omitempty.
func canonical(recs []Record) []Record {
	for i := range recs {
		r := &recs[i]
		for _, raw := range []*json.RawMessage{&r.Spec, &r.Host} {
			if *raw != nil {
				var compact, escaped bytes.Buffer
				_ = json.Compact(&compact, *raw) // parsed, so valid JSON
				json.HTMLEscape(&escaped, compact.Bytes())
				*raw = escaped.Bytes()
			}
		}
		if r.Churn != nil && len(r.Churn.Denials) == 0 {
			r.Churn.Denials = nil
		}
		if r.Probe != nil && len(r.Probe.Captured) == 0 {
			r.Probe.Captured = nil
		}
		if r.Probe != nil && len(r.Probe.QueueOccupancy) == 0 {
			r.Probe.QueueOccupancy = nil
		}
	}
	return recs
}

// TestSessionDegradation: a session whose plan downs the probe ingress
// port and marks the churn table's map full completes with a failing
// verdict and records the degradation, instead of erroring out.
func TestSessionDegradation(t *testing.T) {
	m, err := NewManager(routerHostConfig(), 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	res, err := m.Run(SessionSpec{
		Name:   "degraded",
		Spec:   routerTestSpec(30),
		Rounds: 2,
		Plan: faultplan.Plan{Events: []faultplan.Event{
			{At: 0, Kind: faultplan.PortDown, Port: 0},
			{At: 0, Kind: faultplan.MapFull, Table: "ipv4_lpm"},
		}},
		Churn: &ChurnSpec{Table: "ipv4_lpm", Installs: 4, Deletes: 2},
		Probe: &ProbeSpec{Port: 0, Frame: probeFrame(), Count: 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Pass {
		t.Fatal("degraded session reported pass")
	}
	var sawChurnDenial, sawProbeLoss, sawPassingReport bool
	for _, rec := range res.Records {
		switch rec.Type {
		case "churn":
			if rec.Churn.DeniedInstalls == 4 && rec.Churn.Installed == 0 {
				sawChurnDenial = true
			}
		case "probe":
			if rec.Probe.RxLost == 5 && len(rec.Probe.Captured) == 0 {
				sawProbeLoss = true
			}
		case "report":
			// Internal injection bypasses the downed MAC — the paper's
			// defining capability — so validation itself still passes.
			if rec.Report != nil && rec.Report.Pass {
				sawPassingReport = true
			}
		}
	}
	if !sawChurnDenial || !sawProbeLoss || !sawPassingReport {
		t.Fatalf("degradation not fully recorded: churn=%v probe=%v report=%v",
			sawChurnDenial, sawProbeLoss, sawPassingReport)
	}
}

// TestFlapAbsorbedByRetry: an install-flap shorter than the host's
// retry budget is invisible to the churn driver (no denied writes, the
// session passes) but still visible in the round's denial breakdown.
func TestFlapAbsorbedByRetry(t *testing.T) {
	m, err := NewManager(routerHostConfig(), 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	res, err := m.Run(SessionSpec{
		Name:   "flappy",
		Spec:   routerTestSpec(20),
		Rounds: 2,
		Plan: faultplan.Plan{Events: []faultplan.Event{
			{At: 0, Kind: faultplan.InstallFlap, Count: 2},
		}},
		Churn:    &ChurnSpec{Table: "ipv4_lpm", Installs: 3, Deletes: 1},
		SLOBound: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Pass {
		t.Fatalf("flap within retry budget failed the session: %+v", res)
	}
	round0 := res.Records[2] // session, fault, churn
	if round0.Type != "churn" {
		t.Fatalf("record layout changed: %+v", round0)
	}
	if round0.Churn.DeniedInstalls != 0 || round0.Churn.Denials["install-flap"] != 2 {
		t.Fatalf("flap absorption not recorded: %+v", round0.Churn)
	}
}

// TestQueueStuckVisibleThenDrained: probes frozen by a stuck egress
// queue show up as queue occupancy, and the scheduled clear releases
// them into a later round's captures.
func TestQueueStuckVisibleThenDrained(t *testing.T) {
	m, err := NewManager(routerHostConfig(), 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	res, err := m.Run(SessionSpec{
		Name:   "stuck",
		Spec:   routerTestSpec(10),
		Rounds: 3,
		Plan: faultplan.Plan{Events: []faultplan.Event{
			{At: 0, Kind: faultplan.QueueStuck, Port: 1},
			{At: 20 * time.Microsecond, Kind: faultplan.ClearFaults},
		}},
		Probe: &ProbeSpec{Port: 0, Frame: probeFrame(), Count: 6},
	})
	if err != nil {
		t.Fatal(err)
	}
	var frozen, drained bool
	for _, rec := range res.Records {
		if rec.Type != "probe" {
			continue
		}
		if rec.Probe.QueueOccupancy["1"] > 0 {
			frozen = true
		}
		if frozen && rec.Probe.Captured["1"] > rec.Probe.Sent {
			drained = true // this round's captures include released backlog
		}
	}
	if !frozen || !drained {
		t.Fatalf("stuck/drain cycle not observed: frozen=%v drained=%v\n%+v", frozen, drained, res.Records)
	}
}

// TestDrainGraceful: Drain lets in-flight sessions finish and refuses
// new ones.
func TestDrainGraceful(t *testing.T) {
	var buf bytes.Buffer
	rec := NewRecorder(&buf)
	m, err := NewManager(routerHostConfig(), 2, rec)
	if err != nil {
		t.Fatal(err)
	}
	const inFlight = 4
	var wg sync.WaitGroup
	results := make([]*Result, inFlight)
	for i := 0; i < inFlight; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], _ = m.Run(quietSpec("drain"))
		}(i)
	}
	// Let the workers reserve their slots before draining.
	for deadline := time.Now().Add(5 * time.Second); ; {
		rec.mu.Lock()
		reserved := rec.nextIdx
		rec.mu.Unlock()
		if reserved == inFlight {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("sessions never reserved slots")
		}
		time.Sleep(time.Millisecond)
	}
	m.Drain()
	wg.Wait()
	for i, res := range results {
		if res == nil {
			t.Fatalf("in-flight session %d was not completed by drain", i)
		}
	}
	if _, err := m.Run(quietSpec("late")); !errors.Is(err, ErrDraining) {
		t.Fatalf("post-drain run: %v, want ErrDraining", err)
	}
	if _, err := m.RunAll(batchSpecs()); !errors.Is(err, ErrDraining) {
		t.Fatalf("post-drain batch: %v, want ErrDraining", err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if recs, err := ParseStream(buf.Bytes()); err != nil || len(recs) == 0 {
		t.Fatalf("drained stream unreadable: %d recs, %v", len(recs), err)
	}
}

// TestSpecErrorsRefuseSession: hard spec errors are reported up front
// and leave no partial block in the stream.
func TestSpecErrorsRefuseSession(t *testing.T) {
	var buf bytes.Buffer
	m, err := NewManager(routerHostConfig(), 1, NewRecorder(&buf))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if _, err := m.Run(SessionSpec{
		Name:  "bad-churn",
		Spec:  routerTestSpec(5),
		Churn: &ChurnSpec{Table: "ghost", Installs: 1},
	}); err == nil {
		t.Fatal("unknown churn table accepted")
	}
	if _, err := m.Run(SessionSpec{
		Name:  "bad-probe",
		Spec:  routerTestSpec(5),
		Probe: &ProbeSpec{Port: 99, Frame: probeFrame(), Count: 1},
	}); err == nil {
		t.Fatal("out-of-range probe port accepted")
	}
	// A valid session after refusals still lands as block 3 of the
	// stream (refused sessions consume their slot but write nothing).
	if _, err := m.Run(quietSpec("ok")); err != nil {
		t.Fatal(err)
	}
	recs, err := ParseStream(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) == 0 || recs[0].Type != "session" || recs[0].Session != "ok" {
		t.Fatalf("stream after refusals: %+v", recs)
	}
}

func BenchmarkSessionThroughput(b *testing.B) {
	m, err := NewManager(routerHostConfig(), 2, nil)
	if err != nil {
		b.Fatal(err)
	}
	defer m.Close()
	spec := SessionSpec{
		Name:   "bench",
		Spec:   routerTestSpec(64),
		Rounds: 2,
		Churn:  &ChurnSpec{Table: "ipv4_lpm", Installs: 4, Deletes: 4},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Run(spec); err != nil {
			b.Fatal(err)
		}
	}
}
