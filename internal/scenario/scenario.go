// Package scenario defines the experiment suite behind Figure 2 of the
// paper: for each of the seven use cases (§3) it builds concrete bug/
// measurement scenarios and runs all three tools against them —
//
//   - NetDebug (package core): in-device generator + checker + taps,
//   - software formal verification (package verify): p4v-style symbolic
//     program analysis,
//   - external network tester (package tester): OSNT-style port-attached
//     traffic generator/capture.
//
// Each tool's cell in the capability matrix is scored empirically: Full
// when it handles every scenario of the use case, Partial when some, None
// when none. The expected shape matches the paper: NetDebug is Full
// everywhere; formal verification covers only program-level functional
// properties; the external tester is partial wherever internal visibility
// or control-plane access is required and blind to resources and status.
//
// A Figure-2 cell is a row. A Scenario names the bug or measurement and
// holds three attempts — NetDebug, Formal, External, in Tools order —
// each returning its Outcome; cannot(why) is the attempt of a tool with
// no way to try, why being its detail line. What a row's attempts share
// is said once:
//
//   - a fixture (program + table entries) that on(target) boots into a
//     fresh device, so both traffic tools meet the same device;
//   - a stream (frame, count, rate, forward-or-drop) that validated()
//     runs as the in-device agent's TestSpec and transmitted() as the
//     external tester's tagged port-0→port-1 stream, so the two tools
//     are put the same experiment by construction;
//   - sentBoth and filled: the external pair comparison and the
//     fill-until-refused loop.
//
// What stays a closure is what a row cannot share: the judgement on a
// report and the one-off cells (fault localization, queue flood, session
// runs, fuzz fleets, path exploration).
//
// The comparison row's vote-localization cells are data too: one voteCell
// row per cell (fixture, probe, observation, expected dissenters, the
// three tools' detail lines) driven by one function. The vote itself is
// target.Vote — OddOneOut and OddOneOutExternal only collect each
// device's observation and name the dissenters; this package holds no
// majority or tie-break policy of its own.
package scenario

import (
	"fmt"
	"maps"
	"slices"
	"strings"
	"time"

	"netdebug/internal/bitfield"
	"netdebug/internal/core"
	"netdebug/internal/dataplane"
	"netdebug/internal/device"
	"netdebug/internal/p4/compile"
	"netdebug/internal/p4/ir"
	"netdebug/internal/p4/p4test"
	"netdebug/internal/packet"
	"netdebug/internal/target"
	"netdebug/internal/tester"
	"netdebug/internal/verify"
	"netdebug/internal/verify/solver"
)

// UseCase enumerates the paper's §3 use cases.
type UseCase string

// The seven use cases of Figure 2, plus the resident-service row this
// reproduction adds (long-lived sessions, churn, scheduled faults,
// record/replay — §Resident in docs/robustness.md).
const (
	Functional   UseCase = "functional testing"
	Performance  UseCase = "performance testing"
	Compiler     UseCase = "compiler check"
	Architecture UseCase = "architecture check"
	Resources    UseCase = "resources quantification"
	Status       UseCase = "status monitoring"
	Comparison   UseCase = "comparison"
	Resident     UseCase = "resident validation"
	Fuzzing      UseCase = "differential fuzzing"
)

// UseCases lists the rows of Figure 2 in paper order, with the added
// resident-validation and differential-fuzzing rows last.
var UseCases = []UseCase{
	Functional, Performance, Compiler, Architecture, Resources, Status, Comparison, Resident, Fuzzing,
}

// Tool names (columns of Figure 2).
const (
	ToolNetDebug = "NetDebug"
	ToolFormal   = "software formal verification"
	ToolExternal = "external network tester"
)

// Tools lists the columns in paper order.
var Tools = []string{ToolNetDebug, ToolFormal, ToolExternal}

// Outcome is one tool's result on one scenario.
type Outcome struct {
	// Supported reports whether the tool can attempt the scenario at all.
	Supported bool
	// Detected reports whether the tool found the bug / produced the
	// measurement the scenario demands.
	Detected bool
	// Detail is a one-line human-readable explanation.
	Detail string
}

// cannot is the attempt of a tool that has no way to try the scenario;
// why becomes the cell's detail line.
func cannot(why string) func() Outcome {
	return func() Outcome { return Outcome{Detail: why} }
}

func detected(format string, args ...any) Outcome {
	return Outcome{Supported: true, Detected: true, Detail: fmt.Sprintf(format, args...)}
}

func missed(format string, args ...any) Outcome {
	return Outcome{Supported: true, Detail: fmt.Sprintf(format, args...)}
}

// Scenario is one concrete experiment: a row of three attempts, one per
// tool in Tools order. Each attempt builds a fresh environment, so cells
// are independent and may run on any worker.
type Scenario struct {
	Name                       string
	UseCase                    UseCase
	NetDebug, Formal, External func() Outcome
}

// attempts lists the row's attempts in Tools order.
func (s Scenario) attempts() [3]func() Outcome {
	return [3]func() Outcome{s.NetDebug, s.Formal, s.External}
}

// --- shared fixtures ---------------------------------------------------

var (
	macA = packet.MAC{2, 0, 0, 0, 0, 0xa}
	macB = packet.MAC{2, 0, 0, 0, 0, 0xb}
	gw   = packet.MAC{2, 0, 0, 0, 0xff, 1}
	ipA  = packet.IPv4Addr{10, 0, 0, 1}
	ipB  = packet.IPv4Addr{10, 0, 1, 2}
)

func mustProg(src string) *ir.Program {
	prog, err := compile.Compile(src)
	if err != nil {
		panic(fmt.Sprintf("scenario: sample program failed to compile: %v", err))
	}
	return prog
}

// lpmRoute routes prefix/plen to port via the gateway.
func lpmRoute(prefix uint64, plen int, port uint64) dataplane.Entry {
	return dataplane.Entry{
		Table:  "ipv4_lpm",
		Keys:   []dataplane.KeyValue{{Value: bitfield.New(prefix, 32), PrefixLen: plen}},
		Action: "ipv4_forward",
		Args:   []bitfield.Value{bitfield.FromBytes(gw[:]), bitfield.New(port, 9)},
	}
}

// routeEntry is the suite's baseline 10/8 route.
func routeEntry(port uint64) dataplane.Entry { return lpmRoute(0x0a000000, 8, port) }

// backend builds a fresh target of one of target.Kinds.
func backend(kind string) target.Target {
	tg, err := target.ForKind(kind)
	if err != nil {
		panic(fmt.Sprintf("scenario: %v", err))
	}
	return tg
}

// fixture is what a cell's device runs: a program and the table entries
// installed before the first frame. A row names its fixture once and
// every tool that needs a device boots it.
type fixture struct {
	src     string
	entries []dataplane.Entry
}

// The fixtures more than one cell boots.
var (
	// router forwards 10/8 to port 1.
	router = fixture{p4test.Router, []dataplane.Entry{routeEntry(1)}}
	// defaultRouteRouter adds the /0 fallback route every other
	// destination misses down to (port 2), so both shipped router errata
	// have a probe surface: the fixture they are localized and fuzzed on.
	defaultRouteRouter = fixture{p4test.Router, []dataplane.Entry{routeEntry(1), lpmRoute(0, 0, 2)}}
	// aclTie is the firewall with two overlapping equal-priority ACL
	// entries — a match-any allow installed first, an exact-dst drop
	// installed second — plus a route for the drop entry's destination. A
	// conforming target resolves the tie first-installed-wins and forwards
	// aclTieProbe; the shipped Tofino driver resolves newest-first and
	// drops it.
	aclTie = fixture{p4test.Firewall, aclTieEntries()}
)

// on boots the fixture on tg. A fixture that cannot boot is a broken
// suite, not an outcome: it panics.
func (f fixture) on(tg target.Target) *device.Device {
	if err := tg.Load(mustProg(f.src)); err != nil {
		panic(fmt.Sprintf("scenario: load: %v", err))
	}
	for _, e := range f.entries {
		if err := tg.InstallEntry(e); err != nil {
			panic(fmt.Sprintf("scenario: install: %v", err))
		}
	}
	dev, err := device.New(device.Config{Target: tg})
	if err != nil {
		panic(err)
	}
	return dev
}

// fleet boots the fixture on a fresh backend of every kind — the devices
// a vote runs over.
func (f fixture) fleet(kinds []string) map[string]*device.Device {
	devs := make(map[string]*device.Device, len(kinds))
	for _, kind := range kinds {
		devs[kind] = f.on(backend(kind))
	}
	return devs
}

func goodFrame() []byte {
	return packet.BuildUDPv4(macA, macB, ipA, ipB, 40000, 53, make([]byte, 26))
}

// corrupted is goodFrame with one IPv4 header byte overwritten and the
// header checksum made good again.
func corrupted(off int, b byte) []byte {
	f := goodFrame()
	f[14+off] = b
	packet.FixIPv4Checksum(f)
	return f
}

func ttlZeroFrame() []byte    { return corrupted(8, 0) }
func badVersionFrame() []byte { return corrupted(0, 0x65) }

// stream is one traffic experiment, stated once for both traffic tools:
// count copies of frame at ratePPS (zero: line rate) that the device
// must either drop (wantDrop) or forward to port 1.
type stream struct {
	frame    []byte
	count    int
	ratePPS  float64
	wantDrop bool
}

// spec renders the stream as the in-device agent's test: generate it
// below the MACs, check every packet is dropped or egresses port 1.
func (s stream) spec() *core.TestSpec {
	rule := core.Rule{Name: "to-port-1", Stream: "probe", ExpectPort: 1}
	if s.wantDrop {
		rule = core.Rule{Name: "dropped", Stream: "probe", ExpectDrop: true}
	}
	return &core.TestSpec{
		Name: "stream",
		Gen: core.GenSpec{Streams: []core.StreamSpec{{
			Name: "probe", Template: s.frame, Count: s.count, RatePPS: s.ratePPS,
		}}},
		Check: core.CheckSpec{Rules: []core.Rule{rule}},
	}
}

// validated runs the stream through NetDebug — over the control channel
// to the agent on dev — and hands the checker's report to judge.
func (s stream) validated(dev *device.Device, judge func(*core.Report) Outcome) Outcome {
	ctl := core.Connect(core.NewAgent(dev))
	defer ctl.Close()
	rep, err := ctl.RunTest(s.spec())
	if err != nil {
		return missed("test error: %v", err)
	}
	return judge(rep)
}

// transmitted runs the same stream through the external tester — into
// port 0, expected (or, wantDrop, expected not) out of port 1, matched by
// a 32-bit sequence tag in the UDP payload — and hands its report to
// judge.
func (s stream) transmitted(dev *device.Device, judge func(*tester.Report) Outcome) Outcome {
	rep, err := tester.New(dev).Run([]tester.Stream{{
		Name: "probe", Frame: s.frame, Count: s.count, RatePPS: s.ratePPS,
		TxPort: 0, RxPort: 1, ExpectLoss: s.wantDrop,
		SeqLoc: core.FieldLoc{BitOff: (14 + 20 + 8) * 8, Bits: 32},
	}})
	if err != nil {
		return missed("tester error: %v", err)
	}
	return judge(rep)
}

// sentBoth sends the same frames, 10µs apart, into port 0 of two devices
// and returns how many each emitted on rxPort — all an external tester
// can compare two devices by.
func sentBoth(a, b *device.Device, rxPort int, frames ...[]byte) (gotA, gotB int) {
	for i, f := range frames {
		at := time.Duration(i) * 10 * time.Microsecond
		a.SendExternal(0, f, at)
		b.SendExternal(0, f, at)
	}
	gotA, gotB = len(a.Captures(rxPort)), len(b.Captures(rxPort))
	a.ReleaseCaptures(rxPort)
	b.ReleaseCaptures(rxPort)
	return gotA, gotB
}

// filled installs entry(0), entry(1), … over dev's control channel until
// one is refused or n are in, and returns how many were accepted.
func filled(dev *device.Device, n int, entry func(i int) dataplane.Entry) int {
	ctl := core.Connect(core.NewAgent(dev))
	defer ctl.Close()
	for i := 0; i < n; i++ {
		if err := ctl.InstallEntry(entry(i)); err != nil {
			return i
		}
	}
	return n
}

// --- scenario suite -----------------------------------------------------

// All builds the complete Figure 2 scenario suite.
func All() []Scenario {
	return slices.Concat(functionalScenarios(), performanceScenarios(), compilerScenarios(),
		architectureScenarios(), resourceScenarios(), statusScenarios(),
		comparisonScenarios(), residentScenarios(), fuzzingScenarios())
}

func functionalScenarios() []Scenario {
	noTTLGuard := fixture{p4test.RouterNoTTLCheck, router.entries}
	ttlZero := stream{frame: ttlZeroFrame(), count: 20, ratePPS: 1e6, wantDrop: true}
	wrongPort := fixture{p4test.Router, []dataplane.Entry{routeEntry(3)}} // should be 1
	probe := stream{frame: goodFrame(), count: 10, ratePPS: 1e6}
	stuckQueue := func() *device.Device {
		dev := router.on(target.NewReference())
		dev.InjectFault(device.Fault{Kind: device.FaultQueueStuck, Port: 1})
		return dev
	}
	return []Scenario{
		{
			Name: "program bug: missing TTL=0 guard", UseCase: Functional,
			NetDebug: func() Outcome {
				return ttlZero.validated(noTTLGuard.on(target.NewReference()), func(rep *core.Report) Outcome {
					if !rep.Pass {
						return detected("checker: %d TTL=0 packets forwarded, want drop", rep.Failures())
					}
					return missed("ttl=0 packets were dropped")
				})
			},
			Formal: func() Outcome {
				prop := ttlZeroForwardProp()
				res, err := verify.Check(mustProg(noTTLGuard.src), prop, verify.Options{})
				if err != nil {
					return missed("verification error: %v", err)
				}
				if !res.Holds {
					return detected("property %s violated: program forwards TTL=0", prop.Name)
				}
				return missed("property verified; bug not found")
			},
			External: func() Outcome {
				return ttlZero.transmitted(noTTLGuard.on(target.NewReference()), func(rep *tester.Report) Outcome {
					if !rep.Pass {
						return detected("captured %d TTL=0 frames on egress, want none", rep.Received)
					}
					return missed("no TTL=0 frames escaped")
				})
			},
		},
		{
			Name: "control-plane bug: route installed to wrong port", UseCase: Functional,
			NetDebug: func() Outcome {
				return probe.validated(wrongPort.on(target.NewReference()), func(rep *core.Report) Outcome {
					if !rep.Pass {
						return detected("checker: packets egress port 3, want 1")
					}
					return missed("egress port as expected")
				})
			},
			Formal: cannot("table contents are runtime state; program-level verification cannot see installed entries"),
			External: func() Outcome {
				return probe.transmitted(wrongPort.on(target.NewReference()), func(rep *tester.Report) Outcome {
					if !rep.Pass {
						return detected("expected frames on port 1 never arrived (loss=%d)", rep.Lost)
					}
					return missed("frames arrived on expected port")
				})
			},
		},
		{
			Name: "silent internal drop: localize the faulty stage", UseCase: Functional,
			NetDebug: func() Outcome {
				diag := core.LocalizeFault(stuckQueue(), goodFrame(), 0, 1)
				if diag.Stage == "egress port 1" {
					return detected("localized fault to %s", diag.Stage)
				}
				return missed("localized to %q, want egress port 1", diag.Stage)
			},
			Formal: cannot("hardware faults are invisible to program verification"),
			External: func() Outcome {
				// The tester sees 100% loss but cannot name the stage:
				// a MAC fault, parser drop, and stuck queue look identical.
				return probe.transmitted(stuckQueue(), func(rep *tester.Report) Outcome {
					if rep.Lost > 0 {
						return missed("observed %d lost frames but cannot localize the stage", rep.Lost)
					}
					return missed("no loss observed")
				})
			},
		},
	}
}

// ttlZeroForwardProp: packets arriving with TTL 0 must not be forwarded.
// Encoded on the input variable (the extract-time value, before the
// pipeline decrements it).
func ttlZeroForwardProp() verify.Property {
	return verify.Property{
		Name:        "ttl-zero-input-dropped",
		Description: "packets arriving with ipv4.ttl==0 are never forwarded",
		Violation: func(prog *ir.Program, p *verify.Path) (bool, []solver.BV) {
			inst := prog.Instance("ipv4")
			if inst == nil || p.Dropped || !p.Valid[inst.Index] {
				return false, nil
			}
			// The extract-time TTL is the earliest fresh variable named
			// "ipv4.ttl#N" in the path's terms; pin it to 0.
			v, ok := p.ExtractVars()["ipv4.ttl"]
			if !ok {
				return false, nil
			}
			return true, []solver.BV{solver.Eq(v, solver.ConstUint(0, v.Width()))}
		},
	}
}

func performanceScenarios() []Scenario {
	// A 1024B frame on the shipped SDNet flow, flooded at line rate and
	// paced at 100 kpps.
	frame := packet.BuildUDPv4(macA, macB, ipA, ipB, 40000, 53, make([]byte, 1024-42))
	flood := stream{frame: frame, count: 2000}
	paced := stream{frame: frame, count: 200, ratePPS: 1e5}
	lineRatePPS := 10e9 / float64((1024+20)*8)
	return []Scenario{
		{
			Name: "throughput and packet rate at line rate", UseCase: Performance,
			NetDebug: func() Outcome {
				return flood.validated(router.on(backend(target.KindSDNet)), func(rep *core.Report) Outcome {
					if !rep.Pass {
						return missed("rate test failed: %v", rep)
					}
					if rep.OutPPS > 0.95*lineRatePPS && rep.OutPPS < 1.05*lineRatePPS {
						return detected("measured %.0f pps / %.2f Gbps at line rate", rep.OutPPS, rep.OutBPS/1e9)
					}
					return missed("pps %.0f outside line-rate window", rep.OutPPS)
				})
			},
			Formal: cannot("verification is static; it measures no rates"),
			External: func() Outcome {
				return flood.transmitted(router.on(backend(target.KindSDNet)), func(rep *tester.Report) Outcome {
					if rep.RxPPS > 0.9*lineRatePPS {
						return detected("measured %.0f pps / %.2f Gbps externally", rep.RxPPS, rep.RxBPS/1e9)
					}
					return missed("external pps %.0f below line rate", rep.RxPPS)
				})
			},
		},
		{
			Name: "pipeline latency isolated from wire time", UseCase: Performance,
			NetDebug: func() Outcome {
				return paced.validated(router.on(backend(target.KindSDNet)), func(rep *core.Report) Outcome {
					if !rep.Pass {
						return missed("latency test failed")
					}
					// Pipeline latency for a 1024B frame on the sdnet model
					// is well under a microsecond; wire time alone is 835ns.
					if rep.LatP50Ns > 0 && rep.LatP50Ns < 800 {
						return detected("pipeline p50 latency %dns, isolated from wire time", rep.LatP50Ns)
					}
					return missed("p50 latency %dns not isolated", rep.LatP50Ns)
				})
			},
			Formal: cannot("verification is static; it measures no latency"),
			External: func() Outcome {
				return paced.transmitted(router.on(backend(target.KindSDNet)), func(rep *tester.Report) Outcome {
					if !rep.Pass {
						return missed("tester run failed")
					}
					// RTT includes two serialization times; the tester cannot
					// isolate the pipeline component.
					if rep.RTTP50Ns >= 800 {
						return missed("RTT p50 %dns includes wire time; pipeline latency not isolable", rep.RTTP50Ns)
					}
					return detected("RTT %dns", rep.RTTP50Ns)
				})
			},
		},
	}
}

func compilerScenarios() []Scenario {
	malformed := stream{frame: badVersionFrame(), count: 20, ratePPS: 1e6, wantDrop: true}
	return []Scenario{
		{
			Name: "SDNet reject parser state not implemented", UseCase: Compiler,
			NetDebug: func() Outcome {
				return malformed.validated(router.on(backend(target.KindSDNet)), func(rep *core.Report) Outcome {
					if !rep.Pass {
						return detected("malformed packets forwarded: reject state not implemented")
					}
					return missed("malformed packets dropped correctly")
				})
			},
			Formal: func() Outcome {
				// The paper's headline: the program verifies, so the
				// compiler bug is invisible.
				res, err := verify.Check(mustProg(router.src), verify.PropRejectedDropped, verify.Options{})
				if err != nil {
					return missed("verification error: %v", err)
				}
				if res.Holds {
					return missed("program verified correct; compiler defect invisible to software verification")
				}
				return detected("property violated (unexpected)")
			},
			External: func() Outcome {
				return malformed.transmitted(router.on(backend(target.KindSDNet)), func(rep *tester.Report) Outcome {
					if !rep.Pass {
						return detected("malformed frames captured on egress: drop not enforced")
					}
					return missed("malformed frames were dropped")
				})
			},
		},
		{
			Name: "compiler rejects wide ternary keys", UseCase: Compiler,
			NetDebug: func() Outcome {
				if err := backend(target.KindSDNet).Load(mustProg(wideTernaryProgram)); err != nil {
					return detected("compilation failed as a limitation: %v", err)
				}
				return missed("wide ternary program loaded")
			},
			Formal:   cannot("verification sees the language, not the backend's limits"),
			External: cannot("an external tester never interacts with the compiler"),
		},
	}
}

const wideTernaryProgram = `
header h_t { bit<128> x; } struct hs { h_t h; }
parser P(packet_in p, out hs hdr) { state start { p.extract(hdr.h); transition accept; } }
control I(inout hs hdr, inout standard_metadata_t sm) {
  action fwd(bit<9> port) { sm.egress_spec = port; }
  table t { key = { hdr.h.x: ternary; } actions = { fwd; } }
  apply { t.apply(); }
}
control D(packet_out p, in hs hdr) { apply { p.emit(hdr.h); } }
S(P(), I(), D()) main;`

func architectureScenarios() []Scenario {
	return []Scenario{
		{
			Name: "usable table capacity below declared size", UseCase: Architecture,
			NetDebug: func() Outcome {
				installed := filled(router.on(backend(target.KindSDNet)), 1024, func(i int) dataplane.Entry {
					return lpmRoute(uint64(0x0b000000+i*256), 24, 1)
				})
				if installed < 1024 {
					return detected("table full after %d entries; declared size 1024", installed+1)
				}
				return missed("all 1024 entries installed")
			},
			Formal:   cannot("resource layout is a target property; not in the program semantics"),
			External: cannot("the tester has no control-plane access to install entries"),
		},
		{
			Name: "tofino placement grants less capacity than declared", UseCase: Architecture,
			NetDebug: func() Outcome {
				// A 1-stage, 2-block pipeline grants the 4096-entry
				// table 2048 rows; the control channel sees the
				// placement limit trip mid-fill.
				tf := target.NewTofino(target.TofinoErrata{Stages: 1, SRAMBlocks: 2})
				installed := filled(fixture{src: p4test.BigExactTable}.on(tf), 4096, func(i int) dataplane.Entry {
					return dataplane.Entry{
						Table:  "big",
						Keys:   []dataplane.KeyValue{{Value: bitfield.New(uint64(i), 32)}},
						Action: "fwd",
						Args:   []bitfield.Value{bitfield.New(1, 9)},
					}
				})
				if installed < 4096 {
					return detected("placement grant full after %d entries; declared size 4096", installed)
				}
				return missed("all 4096 entries installed")
			},
			Formal:   cannot("table placement is a target property; not in the program semantics"),
			External: cannot("the tester has no control-plane access to install entries"),
		},
		{
			Name: "output queue depth limit under 2:1 oversubscription", UseCase: Architecture,
			NetDebug: func() Outcome {
				dev := router.on(target.NewReference())
				floodTwoToOne(dev)
				drops := dev.Status()["port1.tx.queue_drops"]
				if drops > 0 {
					return detected("status registers report %d queue tail-drops", drops)
				}
				return missed("no queue drops recorded")
			},
			Formal: cannot("queueing is not part of the program semantics"),
			External: func() Outcome {
				sent, got := floodTwoToOne(router.on(target.NewReference()))
				if got < sent {
					return detected("received %d of %d frames: loss implies a queue limit", got, sent)
				}
				return missed("no loss under oversubscription")
			},
		},
	}
}

// floodTwoToOne sends line-rate streams from ports 0 and 2 both destined
// to port 1 and returns (sent, received).
func floodTwoToOne(dev *device.Device) (sent, received int) {
	frame := goodFrame()
	wire := time.Duration(float64(len(frame)+20) * 8 / 10e9 * 1e9)
	for i := 0; i < 400; i++ {
		at := time.Duration(i) * wire
		dev.SendExternal(0, frame, at)
		dev.SendExternal(2, frame, at)
		sent += 2
	}
	received = len(dev.Captures(1))
	dev.ReleaseCaptures(1)
	return sent, received
}

func resourceScenarios() []Scenario {
	return []Scenario{{
		Name: "hardware resource usage per program", UseCase: Resources,
		NetDebug: func() Outcome {
			ctl := core.Connect(core.NewAgent(router.on(backend(target.KindSDNet))))
			defer ctl.Close()
			small, err := ctl.Resources()
			if err != nil || small.LUTs <= 0 {
				return missed("no resource report: %v", err)
			}
			big := backend(target.KindSDNet)
			if err := big.Load(mustProg(p4test.Firewall)); err != nil {
				return missed("firewall load: %v", err)
			}
			if big.Resources().LUTs > small.LUTs {
				return detected("router %.1f%% LUT vs firewall %.1f%% LUT: consumption quantified",
					small.LUTPct, big.Resources().LUTPct)
			}
			return missed("resource model not discriminating")
		},
		Formal:   cannot("verification has no view of hardware resources"),
		External: cannot("resource usage is invisible at the network interfaces"),
	}}
}

func statusScenarios() []Scenario {
	return []Scenario{{
		Name: "periodic internal status registers", UseCase: Status,
		NetDebug: func() Outcome {
			dev := router.on(target.NewReference())
			ctl := core.Connect(core.NewAgent(dev))
			defer ctl.Close()
			dev.SendExternal(0, goodFrame(), 0)
			st, err := ctl.Status()
			if err != nil {
				return missed("status read: %v", err)
			}
			if st["target.parser.accept"] == 1 && st["port1.tx.frames"] == 1 {
				return detected("per-stage counters and queue state readable over the control channel")
			}
			return missed("status registers incomplete: %v", st)
		},
		Formal:   cannot("no runtime status in a static analysis"),
		External: cannot("internal registers are not observable at the interfaces"),
	}}
}

func comparisonScenarios() []Scenario {
	var probes [][]byte
	for i := 0; i < 20; i++ {
		probes = append(probes, packet.BuildUDPv4(macA, macB, ipA,
			packet.IPv4Addr{10, 0, byte(i), 9}, uint16(4000+i), 53, []byte{byte(i)}))
	}
	splitRouter := fixture{p4test.RouterSplit, []dataplane.Entry{
		{
			Table:  "lpm_nexthop",
			Keys:   []dataplane.KeyValue{{Value: bitfield.New(0x0a000000, 32), PrefixLen: 8}},
			Action: "set_nexthop",
			Args:   []bitfield.Value{bitfield.New(7, 16)},
		},
		{
			Table:  "nexthop_egress",
			Keys:   []dataplane.KeyValue{{Value: bitfield.New(7, 16)}},
			Action: "set_egress",
			Args:   []bitfield.Value{bitfield.FromBytes(gw[:]), bitfield.New(1, 9)},
		},
	}}
	acceptThenDrop := fixture{src: acceptThenDropProgram}
	cells := []Scenario{
		{
			Name: "two specifications compute the same function", UseCase: Comparison,
			NetDebug: func() Outcome {
				devA, devB := router.on(target.NewReference()), splitRouter.on(target.NewReference())
				diff := 0
				for _, p := range probes {
					ra := devA.InjectInternal(p, 0, devA.Now(), false)
					rb := devB.InjectInternal(p, 0, devB.Now(), false)
					if !target.SameOutputs(ra, rb) {
						diff++
					}
				}
				if diff == 0 {
					return detected("differential injection: specifications agree on all %d probes", len(probes))
				}
				return missed("%d probes diverged", diff)
			},
			Formal: func() Outcome {
				// Compare verification verdicts property-by-property.
				pa, pb := mustProg(router.src), mustProg(splitRouter.src)
				props := []verify.Property{verify.PropRejectedDropped, ttlZeroForwardProp()}
				for _, prop := range props {
					ra, err := verify.Check(pa, prop, verify.Options{})
					if err != nil {
						return missed("verify error: %v", err)
					}
					rb, err := verify.Check(pb, prop, verify.Options{})
					if err != nil {
						return missed("verify error: %v", err)
					}
					if ra.Holds != rb.Holds {
						return missed("specifications differ on %s", prop.Name)
					}
				}
				return detected("both specifications verify the same %d properties", len(props))
			},
			External: func() Outcome {
				ca, cb := sentBoth(router.on(target.NewReference()), splitRouter.on(target.NewReference()), 1, probes...)
				if ca == cb {
					return detected("external differential run: %d captures on both devices", ca)
				}
				return missed("capture counts diverge")
			},
		},
		{
			Name: "one specification across three hardware models", UseCase: Comparison,
			NetDebug: func() Outcome {
				// With every erratum repaired, the three backends must
				// compute the same function; the shipped SDNet flow must
				// diverge exactly on malformed input.
				devs := []*device.Device{
					router.on(target.NewReference()),
					router.on(backend(target.KindSDNetFixed)),
					router.on(backend(target.KindTofinoFixed)),
				}
				for _, p := range probes {
					ra := devs[0].InjectInternal(p, 0, devs[0].Now(), false)
					for _, dev := range devs[1:] {
						if rb := dev.InjectInternal(p, 0, dev.Now(), false); !target.SameOutputs(ra, rb) {
							return missed("erratum-free backends diverge")
						}
					}
				}
				shipped := router.on(backend(target.KindSDNet))
				ra := devs[0].InjectInternal(badVersionFrame(), 0, devs[0].Now(), false)
				rb := shipped.InjectInternal(badVersionFrame(), 0, shipped.Now(), false)
				if target.SameOutputs(ra, rb) {
					return missed("shipped sdnet flow did not diverge on malformed input")
				}
				return detected("3 fixed backends agree on %d probes; shipped sdnet diverges on malformed input", len(probes))
			},
			Formal: cannot("all deployments share one program; backend table state is invisible to verification"),
			External: func() Outcome {
				ca, cb := sentBoth(router.on(target.NewReference()), router.on(backend(target.KindTofino)), 1, probes...)
				if ca == cb {
					return detected("external differential run across hardware models: outputs agree")
				}
				return missed("capture counts diverge")
			},
		},
		{
			Name: "ternary priority tie resolved differently on tofino", UseCase: Comparison,
			NetDebug: func() Outcome {
				ra := aclTie.on(target.NewReference()).InjectInternal(aclTieProbe(), 0, 0, true)
				rb := aclTie.on(backend(target.KindTofino)).InjectInternal(aclTieProbe(), 0, 0, true)
				if !ra.Dropped() && rb.Dropped() {
					return detected("tofino driver resolves the equal-priority tie newest-first: drop vs forward")
				}
				return missed("tie resolution identical: a=%v b=%v", ra.Dropped(), rb.Dropped())
			},
			Formal: cannot("tie-break order is table-driver state; both deployments verify identically"),
			External: func() Outcome {
				// The divergence is externally visible as loss, though the
				// tester cannot attribute it to the tie-break order.
				ca, cb := sentBoth(aclTie.on(target.NewReference()), aclTie.on(backend(target.KindTofino)), 2, aclTieProbe())
				if ca == 1 && cb == 0 {
					return detected("frame emerges from one device and not the other")
				}
				return missed("no external divergence observed")
			},
		},
	}
	for _, c := range comparisonVotes() {
		cells = append(cells, c.scenario())
	}
	return append(cells,
		Scenario{
			Name: "specifications differ only in internal drop stage", UseCase: Comparison,
			NetDebug: func() Outcome {
				// Router drops bad-version packets in the parser;
				// RouterNoTTLCheck also rejects them in the parser, but a
				// variant that accepts-then-drops differs internally.
				ra := router.on(target.NewReference()).InjectInternal(badVersionFrame(), 0, 0, true)
				rb := acceptThenDrop.on(target.NewReference()).InjectInternal(badVersionFrame(), 0, 0, true)
				if ra.Dropped() && rb.Dropped() && ra.Trace.DropStage() != rb.Trace.DropStage() {
					return detected("both drop, but at %q vs %q — distinguishable only internally",
						ra.Trace.DropStage(), rb.Trace.DropStage())
				}
				return missed("drop stages identical: %q vs %q", ra.Trace.DropStage(), rb.Trace.DropStage())
			},
			Formal: cannot("both programs satisfy identical I/O properties; stage is not expressible"),
			External: func() Outcome {
				ca, cb := sentBoth(router.on(target.NewReference()), acceptThenDrop.on(target.NewReference()), 1, badVersionFrame())
				if ca == 0 && cb == 0 {
					return missed("externally identical: both devices emit nothing")
				}
				return detected("external outputs differ")
			},
		},
		Scenario{
			// The verify-throughput cell: each tool compares its fast path
			// against its reference path on the same workload and must get
			// identical results — parallel path exploration vs sequential
			// for the verifier, batched probe injection vs per-packet for
			// NetDebug.
			Name: "fast paths reproduce the reference results", UseCase: Comparison,
			NetDebug: func() Outcome {
				spec := stream{frame: goodFrame(), count: 2000, ratePPS: 1e6}.spec()
				// Batched agent run (Target.ProcessBatch under the hood).
				agent := core.NewAgent(router.on(target.NewReference()))
				if err := agent.Configure(spec); err != nil {
					return missed("configure: %v", err)
				}
				batched, err := agent.Run()
				if err != nil {
					return missed("batched run: %v", err)
				}
				// Reference: the same stream injected one packet at a
				// time, each scored as a block of one.
				dev := router.on(target.NewReference())
				gen, err := core.NewGenerator(spec.Gen)
				if err != nil {
					return missed("generator: %v", err)
				}
				checker, err := core.NewChecker(spec.Check)
				if err != nil {
					return missed("checker: %v", err)
				}
				pkts := gen.Packets(dev.Now())
				for i, tp := range pkts {
					res := dev.InjectInternal(tp.Data, tp.IngressPort, tp.At, true)
					checker.OnResults(pkts[i:i+1], []target.Result{res}, []time.Duration{tp.At})
				}
				seq := checker.Finish()
				if !batched.Pass || !seq.Pass ||
					batched.Forwarded != seq.Forwarded || batched.LatP99Ns != seq.LatP99Ns {
					return missed("batched path diverged: %v vs %v", batched, seq)
				}
				return detected("batched generator path matches per-packet injection on %d probes at %.0f pps",
					batched.Injected, batched.OutPPS)
			},
			Formal: func() Outcome {
				prog := mustProg(p4test.Firewall)
				digest := func(exp *verify.Exploration) string {
					var b strings.Builder
					fmt.Fprintf(&b, "%d/%d|", len(exp.Paths), exp.Pruned)
					for _, p := range exp.Paths {
						fmt.Fprintf(&b, "%s:%d;", p.Format(), len(p.Model))
					}
					return b.String()
				}
				seq, err := verify.ExploreWithStats(prog, verify.Options{Workers: 1, SolvePaths: true})
				if err != nil {
					return missed("sequential explore: %v", err)
				}
				par, err := verify.ExploreWithStats(prog, verify.Options{Workers: 8, SolvePaths: true})
				if err != nil {
					return missed("parallel explore: %v", err)
				}
				if digest(par) != digest(seq) {
					return missed("parallel exploration diverged from sequential")
				}
				return detected("8-worker exploration matches sequential: %d feasible paths (%d pruned), %d propagations",
					len(par.Paths), par.Pruned, par.Solver.Propagations)
			},
			External: cannot("the tester observes wire traffic; program paths and the in-device generator are out of reach"),
		},
	)
}

// offSubnetFrame is covered only by the /0 default route.
func offSubnetFrame() []byte {
	return packet.BuildUDPv4(macA, macB, ipA, packet.IPv4Addr{172, 16, 5, 9}, 40100, 53, make([]byte, 26))
}

// The voter sets of the comparison cells besides the full shipped
// matrix (target.ShippedKinds): its first four kinds, where each
// signature defect is outvoted 3-1, and the even subset whose fail-open
// pair splits 2-2.
var (
	fourWayKinds = target.ShippedKinds[:4]
	tieKinds     = []string{target.KindReference, target.KindTofino, target.KindSDNet, target.KindSmartNIC}
)

// fourWayRouters is the fixture both router errata are localized on.
func fourWayRouters() map[string]*device.Device { return defaultRouteRouter.fleet(fourWayKinds) }

// voteCell is one vote-localization cell of the comparison row: the
// same probe goes through every device of a fixture; NetDebug votes on
// the data-plane results, the external tester on what one port captured
// (observe nil: it cannot attempt the cell), and formal verification
// never can — every deployment shares one verified program.
type voteCell struct {
	name    string
	devices func() map[string]*device.Device
	frame   func() []byte
	rxPort  int
	observe func([]device.CapturedFrame) int
	// want is the expected dissenter set, sorted; every name means the
	// vote must refuse to localize.
	want                       []string
	netdebug, formal, external string // the three tools' detail lines
}

func (c voteCell) scenario() Scenario {
	sc := Scenario{Name: c.name, UseCase: Comparison, Formal: cannot(c.formal), External: cannot(c.external)}
	sc.NetDebug = func() Outcome {
		if odd := OddOneOut(c.devices(), c.frame()); !slices.Equal(odd, c.want) {
			return missed("diverging backends %v, want exactly %v", odd, c.want)
		}
		return detected("%s", c.netdebug)
	}
	if c.observe != nil {
		sc.External = func() Outcome {
			if odd := OddOneOutExternal(c.devices(), c.frame(), c.rxPort, c.observe); !slices.Equal(odd, c.want) {
				return missed("external vote names %v, want %v", odd, c.want)
			}
			return detected("%s", c.external)
		}
	}
	return sc
}

func comparisonVotes() []voteCell {
	return []voteCell{
		{
			name:    "three-way split: malformed input isolates the sdnet flow",
			devices: fourWayRouters, frame: badVersionFrame, rxPort: 1, observe: captureCount,
			want:     []string{"sdnet"},
			netdebug: "3 backends drop the malformed probe, sdnet forwards: the reject erratum is localized",
			formal:   "all four deployments share one verified program; the deviation is the compiler's",
			external: "capture vote across 4 devices: only sdnet emits the malformed frame",
		},
		{
			name:    "three-way split: default-route traffic isolates the ebpf driver",
			devices: fourWayRouters, frame: offSubnetFrame, rxPort: 2, observe: captureCount,
			want:     []string{"ebpf"},
			netdebug: "3 backends forward via the /0 route, ebpf misses: the lpm-trie /0 defect is localized",
			formal:   "the /0 miss lives in the map driver; installed routes are invisible to program verification",
			external: "capture vote across 4 devices: only ebpf loses default-route traffic",
		},
		{
			name:    "three-way split: acl priority tie isolates the tofino driver",
			devices: func() map[string]*device.Device { return aclTie.fleet(fourWayKinds) },
			frame:   aclTieProbe, rxPort: 2, observe: captureCount,
			want:     []string{"tofino"},
			netdebug: "3 backends resolve the tie first-installed-wins, tofino drops: the LIFO quirk is localized",
			formal:   "tie-break order is table-driver state; all four deployments verify identically",
			external: "capture vote across 4 devices: only tofino drops the tied flow",
		},
		{
			// A frame only the allow-any ACL entry matches, long enough to
			// overflow the punt MTU: the 80-bit ternary key keeps the ACL
			// core-resident on the SmartNIC, so the frame punts and the
			// shipped driver re-emits it truncated. Externally the loss is
			// not a missing capture — the truncated frame still emerges —
			// so the tester votes on the captured length.
			name:    "four-way split: punt truncation isolates the smartnic driver",
			devices: func() map[string]*device.Device { return aclTie.fleet(target.ShippedKinds) },
			frame:   largeAllowedFrame, rxPort: 2, observe: captureLength,
			want:     []string{"smartnic"},
			netdebug: fmt.Sprintf("4 backends forward the %dB frame intact, smartnic truncates it at the punt MTU", len(largeAllowedFrame())),
			formal:   "the truncation lives in the punt DMA driver; all five deployments verify identically",
			external: "capture-length vote across 5 devices: only smartnic emits a short frame",
		},
		{
			// With an even voter subset, the malformed probe splits 2-2:
			// reference and tofino drop it, while sdnet and the smartnic
			// exception path both fail open and forward byte-identical
			// frames. Strict majority cannot localize; the reference
			// anchor — corroborated by tofino — names the failing pair.
			name:    "2-2 tie re-scored against the reference anchor",
			devices: func() map[string]*device.Device { return defaultRouteRouter.fleet(tieKinds) },
			frame:   badVersionFrame, rxPort: 1, observe: captureCount,
			want:     []string{"sdnet", "smartnic"},
			netdebug: "2-2 split resolved: the corroborated reference anchor names the fail-open pair [sdnet smartnic]",
			formal:   "both fail-open flows execute a reject-stripped program; the split is a deployment artifact",
			external: "capture vote 2-2; the reference anchor names both emitting devices",
		},
		{
			// A misconfigured reference device (route to port 9) dissents
			// inside the tie: the anchor is uncorroborated, so the vote
			// must refuse to localize and return every name rather than
			// blame the two-backend plurality's opposition.
			name: "tie with a divergent reference stays unresolved",
			devices: func() map[string]*device.Device {
				devs := map[string]*device.Device{}
				for kind, port := range map[string]uint64{"reference": 9, "sdnet": 1, "smartnic": 1, "tofino": 2} {
					devs[kind] = fixture{p4test.Router, []dataplane.Entry{routeEntry(port)}}.on(backend(kind))
				}
				return devs
			},
			frame:    goodFrame,
			want:     []string{"reference", "sdnet", "smartnic", "tofino"},
			netdebug: "uncorroborated anchor: the vote surfaces all 4 backends as unresolved instead of guessing",
			formal:   "the divergence is injected table state; the programs verify identically",
			external: "the split spans three egress ports; single-port capture voting cannot tally it",
		},
	}
}

// dissenters returns the names whose observation diverges from what
// target.Vote settles on, sorted; the member named "reference" is the
// vote's anchor. An unresolved vote returns every name, so callers
// expecting a specific dissenter set correctly report no localization.
func dissenters[O comparable](got map[string]O) []string {
	names := slices.Sorted(maps.Keys(got))
	outs := make([]O, len(names))
	ref := -1
	for i, name := range names {
		outs[i] = got[name]
		if name == target.KindReference {
			ref = i
		}
	}
	agreed, _, ok := target.Vote(outs, ref)
	if !ok {
		return names
	}
	var odd []string
	for i, o := range outs {
		if o != agreed {
			odd = append(odd, names[i])
		}
	}
	return odd
}

// OddOneOut injects frame into every device and returns the backends
// whose result diverges from the vote outcome, sorted — the
// three-way-split localization a pairwise comparison cannot make.
func OddOneOut(devs map[string]*device.Device, frame []byte) []string {
	got := make(map[string]target.Outcome, len(devs))
	for name, dev := range devs {
		got[name] = target.OutcomeOf(dev.InjectInternal(frame, 0, dev.Now(), false))
	}
	return dissenters(got)
}

// OddOneOutExternal sends frame through every device's external port 0
// and votes on one observation of what rxPort captured (captureCount or
// captureLength) — the same localization made with interface-level
// visibility only.
func OddOneOutExternal(devs map[string]*device.Device, frame []byte, rxPort int, observe func([]device.CapturedFrame) int) []string {
	got := make(map[string]int, len(devs))
	for name, dev := range devs {
		dev.SendExternal(0, frame, 0)
		got[name] = observe(dev.Captures(rxPort))
		dev.ReleaseCaptures(rxPort)
	}
	return dissenters(got)
}

// captureCount votes on how many frames emerged.
func captureCount(caps []device.CapturedFrame) int { return len(caps) }

// captureLength votes on the length of a lone captured frame (0 for
// anything else) — it catches divergences visible only as a size
// change, like the SmartNIC punt-MTU truncation.
func captureLength(caps []device.CapturedFrame) int {
	if len(caps) == 1 {
		return len(caps[0].Data)
	}
	return 0
}

// largeAllowedFrame is a firewall probe only the allow-any ACL entry
// matches, with enough payload to overflow the SmartNIC punt MTU.
func largeAllowedFrame() []byte {
	return packet.BuildUDPv4(macA, macB, ipA, packet.IPv4Addr{10, 0, 1, 7}, 40000, 53, make([]byte, 300))
}

// aclTieEntries is the overlapping-equal-priority ACL table state: an
// allow-any entry installed first, an exact-dst drop at the same
// priority, and a /24 route for the tied destination.
func aclTieEntries() []dataplane.Entry {
	anyAddr := bitfield.New(0, 32)
	anyPort := bitfield.New(0, 16)
	dstIP := bitfield.New(0x0a000102, 32) // 10.0.1.2 == ipB
	return []dataplane.Entry{
		{
			Table: "acl", Action: "allow", Priority: 3,
			Keys: []dataplane.KeyValue{
				{Value: anyAddr, Mask: anyAddr},
				{Value: anyAddr, Mask: anyAddr},
				{Value: anyPort, Mask: anyPort},
			},
		},
		{
			Table: "acl", Action: "drop", Priority: 3,
			Keys: []dataplane.KeyValue{
				{Value: anyAddr, Mask: anyAddr},
				{Value: dstIP, Mask: bitfield.Mask(32)},
				{Value: anyPort, Mask: anyPort},
			},
		},
		{
			Table:  "routing",
			Keys:   []dataplane.KeyValue{{Value: dstIP, PrefixLen: 24}},
			Action: "route",
			Args:   []bitfield.Value{bitfield.New(2, 9)},
		},
	}
}

// aclTieProbe is a frame both overlapping ACL entries match.
func aclTieProbe() []byte {
	return packet.BuildUDPv4(macA, macB, ipA, ipB, 40000, 53, make([]byte, 6))
}

// acceptThenDropProgram drops malformed IPv4 in the ingress control rather
// than the parser — externally identical to Router on malformed input,
// internally different.
const acceptThenDropProgram = `
const bit<16> TYPE_IPV4 = 0x0800;
header ethernet_t { bit<48> dstAddr; bit<48> srcAddr; bit<16> etherType; }
header ipv4_t {
  bit<4> version; bit<4> ihl; bit<8> diffserv; bit<16> totalLen;
  bit<16> identification; bit<3> flags; bit<13> fragOffset;
  bit<8> ttl; bit<8> protocol; bit<16> hdrChecksum;
  bit<32> srcAddr; bit<32> dstAddr;
}
struct headers_t { ethernet_t ethernet; ipv4_t ipv4; }
parser AParser(packet_in pkt, out headers_t hdr, inout standard_metadata_t sm) {
  state start {
    pkt.extract(hdr.ethernet);
    transition select(hdr.ethernet.etherType) {
      TYPE_IPV4: parse_ipv4;
      default: accept;
    }
  }
  state parse_ipv4 { pkt.extract(hdr.ipv4); transition accept; }
}
control AIngress(inout headers_t hdr, inout standard_metadata_t sm) {
  apply {
    if (hdr.ipv4.isValid()) {
      if (hdr.ipv4.version != 4w4) {
        mark_to_drop();
      } else {
        sm.egress_spec = 9w1;
      }
    } else {
      mark_to_drop();
    }
  }
}
control ADeparser(packet_out pkt, in headers_t hdr) {
  apply { pkt.emit(hdr.ethernet); pkt.emit(hdr.ipv4); }
}
V1Switch(AParser(), AIngress(), ADeparser()) main;
`

// --- matrix -------------------------------------------------------------

// Cell is one Figure 2 entry.
type Cell int

// Cells.
const (
	None Cell = iota
	Partial
	Full
)

// String renders the cell as in the paper's figure.
func (c Cell) String() string {
	switch c {
	case Full:
		return "Full"
	case Partial:
		return "Partial"
	}
	return "None"
}

// Matrix is the computed Figure 2: use case -> tool -> cell.
type Matrix struct {
	Cells   map[UseCase]map[string]Cell
	Details []string // per-scenario outcome lines
}

// BuildMatrix runs every scenario under every tool across workers (as
// RunCells takes them: 1 is sequential, <= 0 one per CPU) and scores the
// cells. Every cell builds its own devices, so the result — including
// the order of the detail lines — does not depend on workers.
func BuildMatrix(scenarios []Scenario, workers int) *Matrix {
	m := &Matrix{Cells: make(map[UseCase]map[string]Cell)}
	type column struct {
		uc   UseCase
		tool string
	}
	var total, found = map[column]int{}, map[column]int{}
	for _, cell := range RunCells(scenarios, workers) {
		col := column{cell.UseCase, cell.Tool}
		total[col]++
		mark := "✗"
		if cell.Outcome.Detected {
			found[col]++
			mark = "✓"
		}
		m.Details = append(m.Details,
			fmt.Sprintf("[%s] %s / %s: %s %s", cell.UseCase, cell.Scenario, cell.Tool, mark, cell.Outcome.Detail))
	}
	for _, uc := range UseCases {
		m.Cells[uc] = map[string]Cell{}
		for _, tool := range Tools {
			col := column{uc, tool}
			switch {
			case found[col] == total[col] && total[col] > 0:
				m.Cells[uc][tool] = Full
			case found[col] > 0:
				m.Cells[uc][tool] = Partial
			default:
				m.Cells[uc][tool] = None
			}
		}
	}
	return m
}

// Render prints the matrix as the paper's Figure 2 table.
func (m *Matrix) Render() string {
	var b strings.Builder
	w := 28
	fmt.Fprintf(&b, "%-*s", w, "use case")
	for _, tool := range Tools {
		fmt.Fprintf(&b, "| %-30s", tool)
	}
	b.WriteString("\n")
	b.WriteString(strings.Repeat("-", w+3*33) + "\n")
	for _, uc := range UseCases {
		fmt.Fprintf(&b, "%-*s", w, string(uc))
		for _, tool := range Tools {
			fmt.Fprintf(&b, "| %-30s", m.Cells[uc][tool].String())
		}
		b.WriteString("\n")
	}
	return b.String()
}

// SortedDetails returns detail lines sorted for stable output.
func (m *Matrix) SortedDetails() []string {
	return slices.Sorted(slices.Values(m.Details))
}
