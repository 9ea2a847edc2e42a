// Package device models the network platform NetDebug is deployed inside:
// a NetFPGA-SUME-like device with four 10 GbE ports, MAC/interface logic,
// an output-queueing stage, and a programmable data plane (package target)
// in the middle.
//
// The simulation is synchronous with a virtual clock: every frame carries a
// timestamp, serialization delays follow line rate, and the pipeline delay
// comes from the target's latency model. This makes every measurement
// (throughput, packet rate, latency) exactly reproducible.
//
// The device exposes two attachment levels, which is the heart of the
// paper's comparison:
//
//   - External ports (SendExternal/Captures): what an external network
//     tester can reach. Frames pass through the MAC layer, where
//     interface-level faults live, and through the output queues.
//   - Internal taps (InjectInternal, tap callbacks, Status): what NetDebug's
//     in-device generator and checker reach — injection directly into the
//     data plane, observation before the MACs, and internal status
//     registers.
//
// Every entry point is a burst: SendExternal and InjectInternal are
// bursts of one of SendExternalBurst and InjectInternalBatch, which do
// only their own step (MAC-in; the clock and the injection count) and
// hand the burst to one dispatch loop. The data plane runs the whole
// burst, then the taps fire frame by frame in packet order. Together
// with the borrow-semantics capture ring (ring.go: Captures returns
// zero-copy views, ReleaseCaptures recycles segments) this keeps the
// steady-state frame path at 0 allocs/frame with capture on — the
// economics docs/scaling.md quantifies. The differential tests in
// burst_test.go and ring_test.go hold a burst to a per-frame model.
package device

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"netdebug/internal/stats"
	"netdebug/internal/target"
)

// Config sizes the device.
type Config struct {
	// NumPorts is the number of external ports (default 4, like SUME).
	NumPorts int
	// QueueDepth is the per-port output queue capacity in frames
	// (default 128).
	QueueDepth int
	// DisableCapture turns off external frame capture: Captures returns
	// nothing and the TX path stops copying every transmitted frame.
	// Capture is the only consumer that needs ownership of frame bytes
	// (taps observe synchronously and must not retain), so workloads
	// that read status registers or taps instead of captures — the
	// NetDebug attachment model — save the per-frame copy, leaving the
	// external send path allocation-free in steady state. Toggle at
	// runtime with SetCaptureEnabled.
	DisableCapture bool
	// Target is the loaded data plane under test.
	Target target.Target
}

func (c *Config) fill() {
	if c.NumPorts == 0 {
		c.NumPorts = 4
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = 128
	}
}

// TapPoint identifies an internal observation point.
type TapPoint int

// Tap points, in packet order.
const (
	TapMACIn TapPoint = iota
	TapDataplaneIn
	TapDataplaneOut
	TapMACOut
)

// String names the tap point.
func (t TapPoint) String() string {
	switch t {
	case TapMACIn:
		return "mac-in"
	case TapDataplaneIn:
		return "dataplane-in"
	case TapDataplaneOut:
		return "dataplane-out"
	case TapMACOut:
		return "mac-out"
	}
	return fmt.Sprintf("tap(%d)", int(t))
}

// TapEvent is delivered to tap callbacks.
type TapEvent struct {
	Point TapPoint
	Port  int
	Data  []byte
	At    time.Duration
	// Result carries the data-plane execution record for TapDataplaneOut
	// events (including drops, which produce a TapDataplaneOut event with
	// nil Data).
	Result *target.Result
}

// TapFunc observes packets at a tap point. Callbacks run synchronously on
// the simulation path, after the data plane has run the frame's burst,
// and must not retain Data. A callback must not inject a frame into the
// device it observes: the device panics if one does.
type TapFunc func(TapEvent)

// CapturedFrame is a frame seen leaving an external port.
type CapturedFrame struct {
	Data []byte
	At   time.Duration
}

// FaultKind enumerates injectable hardware faults.
type FaultKind int

// Fault kinds.
const (
	// FaultPortDown takes the port's link down: all RX and TX on the port
	// is lost silently.
	FaultPortDown FaultKind = iota
	// FaultBitFlip corrupts one random bit per arriving frame at the MAC,
	// before the data plane sees it.
	FaultBitFlip
	// FaultQueueStuck freezes the port's output queue: frames enqueue
	// until the queue fills, then tail-drop. Frames held in the frozen
	// queue are not lost — ClearFaults releases them through normal TX
	// serialization starting at the clear time.
	FaultQueueStuck
)

// String names the fault.
func (k FaultKind) String() string {
	switch k {
	case FaultPortDown:
		return "port-down"
	case FaultBitFlip:
		return "bit-flip"
	case FaultQueueStuck:
		return "queue-stuck"
	}
	return fmt.Sprintf("fault(%d)", int(k))
}

// Fault is one injected hardware fault.
type Fault struct {
	Kind FaultKind
	Port int
	Seed int64 // for FaultBitFlip
}

// stuckFrame is one frame held in a frozen output queue, retained so a
// later ClearFaults can release it. Data is an owned copy: the enqueue
// path's bytes alias the target's per-packet scratch.
type stuckFrame struct {
	data  []byte
	ready time.Duration
}

type portState struct {
	idx        int
	up         bool
	bitFlip    *rand.Rand
	queueStuck bool
	// nextTxFree is when the TX line finishes its current frame.
	nextTxFree time.Duration
	// stuck holds the frames frozen in the output queue under
	// FaultQueueStuck, in arrival order; its length is the occupancy.
	stuck []stuckFrame
	// seg accumulates captures; borrowed holds segments drained
	// by Captures and not yet returned via ReleaseCaptures; segFree is
	// the port's own recycle list (bounded — overflow spills to the
	// device-level spillway), which keeps a port's capture slabs cycling
	// through that port so their grown capacity matches its traffic.
	seg      *capSegment
	borrowed []*capSegment
	segFree  []*capSegment
	// Per-port counters, resolved once at boot so the packet path never
	// formats counter names.
	cRxFrames, cRxLinkDown, cRxBitFlips   *stats.Counter
	cTxFrames, cTxLinkDown, cTxQueueDrops *stats.Counter
}

// portNames are the ports' counter names, six a port in New's order,
// formatted once and shared by every device: a fuzz round boots five.
var portNames []string
var portNamesMu sync.Mutex

// Device is one simulated network platform.
type Device struct {
	cfg      Config
	now      time.Duration
	ports    []*portState
	taps     map[TapPoint][]TapFunc
	Counters *stats.Set
	// Burst-path scratch (SendExternalBurst): post-MAC frame data and
	// per-frame RX-complete timestamps, reused across bursts. one and
	// oneAt carry SendExternal's and InjectInternal's burst of one.
	batchData [][]byte
	batchAt   []time.Duration
	one       [1][]byte
	oneAt     [1]time.Duration
	// dispatching is set while a burst is in dispatch; see errTapInjects.
	dispatching bool
	// captureOn gates frame retention on the TX path; see
	// Config.DisableCapture.
	captureOn bool
	// segSpill is the device-level overflow spillway for capture
	// segments: ports recycle into their own bounded free lists first
	// (portState.segFree) and spill the excess here, where any port may
	// grab it.
	segSpill []*capSegment

	cDropped, cInjected, cFaults, cBadPort, cSegHomeMismatch *stats.Counter
}

// New boots a device around the given (already loaded) target.
func New(cfg Config) (*Device, error) {
	cfg.fill()
	if cfg.Target == nil {
		return nil, fmt.Errorf("device: config has no target")
	}
	if cfg.Target.Program() == nil {
		return nil, fmt.Errorf("device: target has no loaded program")
	}
	d := &Device{
		cfg:       cfg,
		taps:      make(map[TapPoint][]TapFunc),
		Counters:  stats.NewSet(),
		captureOn: !cfg.DisableCapture,
	}
	d.cDropped = d.Counters.Counter("dataplane.dropped")
	d.cInjected = d.Counters.Counter("netdebug.injected")
	d.cFaults = d.Counters.Counter("faults.injected")
	d.cBadPort = d.Counters.Counter("tx.bad_port")
	d.cSegHomeMismatch = d.Counters.Counter("capture.segment_home_mismatch")
	portNamesMu.Lock()
	for i := len(portNames) / 6; i < cfg.NumPorts; i++ {
		for _, s := range [...]string{"rx.frames", "rx.link_down", "rx.bit_flips", "tx.frames", "tx.link_down", "tx.queue_drops"} {
			portNames = append(portNames, fmt.Sprintf("port%d.%s", i, s))
		}
	}
	n, c := portNames, d.Counters.Counter
	portNamesMu.Unlock()
	for i := 0; i < cfg.NumPorts; i, n = i+1, n[6:] {
		p := &portState{idx: i, up: true}
		p.cRxFrames, p.cRxLinkDown, p.cRxBitFlips = c(n[0]), c(n[1]), c(n[2])
		p.cTxFrames, p.cTxLinkDown, p.cTxQueueDrops = c(n[3]), c(n[4]), c(n[5])
		d.ports = append(d.ports, p)
	}
	return d, nil
}

// Config returns the device configuration.
func (d *Device) Config() Config { return d.cfg }

// Target returns the data plane under test.
func (d *Device) Target() target.Target { return d.cfg.Target }

// Now returns the current virtual time.
func (d *Device) Now() time.Duration { return d.now }

// AdvanceTo moves the virtual clock forward (it never moves backwards).
func (d *Device) AdvanceTo(t time.Duration) {
	if t > d.now {
		d.now = t
	}
}

// Tap registers a callback at a tap point. Taps are internal: only
// NetDebug-style in-device tooling can install them.
func (d *Device) Tap(p TapPoint, fn TapFunc) {
	d.taps[p] = append(d.taps[p], fn)
}

func (d *Device) fire(ev TapEvent) {
	for _, fn := range d.taps[ev.Point] {
		fn(ev)
	}
}

// InjectFault applies a hardware fault.
func (d *Device) InjectFault(f Fault) error {
	if f.Port < 0 || f.Port >= len(d.ports) {
		return fmt.Errorf("device: no port %d", f.Port)
	}
	p := d.ports[f.Port]
	switch f.Kind {
	case FaultPortDown:
		p.up = false
	case FaultBitFlip:
		p.bitFlip = rand.New(rand.NewSource(f.Seed))
	case FaultQueueStuck:
		p.queueStuck = true
	default:
		return fmt.Errorf("device: unknown fault %v", f.Kind)
	}
	d.cFaults.Inc()
	return nil
}

// ClearFaults restores healthy hardware. Frames held in a frozen output
// queue (FaultQueueStuck) are not discarded: they drain through normal
// TX serialization in arrival order, starting no earlier than the
// current virtual time, exactly as a real queue resumes when its
// scheduler unwedges. Frames that still overflow the restored queue
// tail-drop and are counted.
func (d *Device) ClearFaults() {
	for _, p := range d.ports {
		p.up = true
		p.bitFlip = nil
		p.queueStuck = false
	}
	for port, p := range d.ports {
		if len(p.stuck) == 0 {
			continue
		}
		stuck := p.stuck
		p.stuck = nil
		for _, f := range stuck {
			ready := f.ready
			if d.now > ready {
				ready = d.now
			}
			d.enqueue(port, f.data, ready)
		}
	}
}

// Every port runs at 10 GbE, and each frame on the wire carries
// WireOverhead bytes of preamble and inter-frame gap beyond its own.
const (
	LineRateBps  = 10e9
	WireOverhead = 20
)

// wireTime is the serialization delay of an n-byte frame at line rate,
// including the preamble+IFG overhead.
func (d *Device) wireTime(n int) time.Duration {
	bits := float64(n+WireOverhead) * 8
	return time.Duration(bits / LineRateBps * 1e9)
}

// SendExternal delivers a frame to an external port at virtual time at,
// exactly as a connected cable would. The frame traverses the MAC (where
// interface faults apply), the data plane, and the output queues. It is
// a burst of one.
func (d *Device) SendExternal(port int, frame []byte, at time.Duration) error {
	d.one[0] = frame
	err := d.SendExternalBurst(port, d.one[:], at, 0)
	d.one[0] = nil
	return err
}

// wantExternalTrace reports whether any consumer can observe a
// data-plane execution record on the externally-injected path: only
// TapDataplaneOut callbacks receive the Result, so with no tap
// installed the per-packet trace recording (parser path, table events)
// is pure allocation overhead and is skipped. Internal injection
// (InjectInternal) returns its Result to the caller and keeps its
// explicit trace parameter.
func (d *Device) wantExternalTrace() bool {
	return len(d.taps[TapDataplaneOut]) > 0
}

// SendExternalBurst delivers a burst of frames to one external port,
// frame i at virtual time start+i*interval. Each frame passes the MAC
// (counters, link-down loss, bit flips), then the whole burst runs
// through the data plane and the output queues in frame order.
func (d *Device) SendExternalBurst(port int, frames [][]byte, start, interval time.Duration) error {
	if port < 0 || port >= len(d.ports) {
		return fmt.Errorf("device: no port %d", port)
	}
	p := d.ports[port]
	d.batchData = d.batchData[:0]
	d.batchAt = d.batchAt[:0]
	for i, frame := range frames {
		at := start + time.Duration(i)*interval
		d.AdvanceTo(at)
		p.cRxFrames.Inc()
		if !p.up {
			p.cRxLinkDown.Inc()
			continue // silently lost, as on real hardware
		}
		data := frame
		if p.bitFlip != nil && len(frame) > 0 {
			data = append([]byte(nil), frame...)
			bit := p.bitFlip.Intn(len(data) * 8)
			data[bit/8] ^= 1 << uint(7-bit%8)
			p.cRxBitFlips.Inc()
		}
		d.batchData = append(d.batchData, data)
		d.batchAt = append(d.batchAt, at+d.wireTime(len(frame)))
	}
	if len(d.batchData) > 0 {
		d.dispatch(uint64(port), d.batchData, d.batchAt, d.wantExternalTrace(), true)
	}
	return nil
}

// InjectInternal pushes a frame directly into the data plane under test,
// bypassing the MACs — the NetDebug generator's attachment point. It is
// a burst of one: the returned result carries the full internal trace
// and is valid until the next burst on this device.
func (d *Device) InjectInternal(frame []byte, ingressPort uint64, at time.Duration, trace bool) target.Result {
	d.one[0], d.oneAt[0] = frame, at
	res := d.InjectInternalBatch(d.one[:], ingressPort, d.oneAt[:], trace)[0]
	d.one[0] = nil
	return res
}

// InjectInternalBatch pushes a run of frames from one ingress port
// through the data plane — how the in-device generator drives its probe
// streams. Frame i is injected at at[i]. The returned results (and the
// output bytes they reference) are valid until the next burst on this
// device.
func (d *Device) InjectInternalBatch(frames [][]byte, ingressPort uint64, at []time.Duration, trace bool) []target.Result {
	for _, t := range at {
		d.AdvanceTo(t)
	}
	d.cInjected.Add(uint64(len(frames)))
	return d.dispatch(ingressPort, frames, at, trace, false)
}

// errTapInjects is the panic of a tap that injects: the burst it fires
// from still reads the device's scratch and the target's results.
const errTapInjects = "device: a tap must not inject frames (SendExternal, InjectInternal or their bursts)"

// dispatch is the data-plane step of every entry point: it runs the
// burst through the target once, then per frame, in order, fires
// TapMACIn (external frames only) and TapDataplaneIn, counts a drop or
// fires TapDataplaneOut for each output, and queues the outputs of an
// external frame for transmission. Frame i arrived at at[i].
func (d *Device) dispatch(port uint64, frames [][]byte, at []time.Duration, trace, external bool) []target.Result {
	if d.dispatching {
		panic(errTapInjects)
	}
	d.dispatching = true
	defer func() { d.dispatching = false }()
	results := d.cfg.Target.ProcessBatch(frames, port, trace)
	for i := range results {
		res := &results[i]
		if external {
			d.fire(TapEvent{Point: TapMACIn, Port: int(port), Data: frames[i], At: at[i]})
		}
		d.fire(TapEvent{Point: TapDataplaneIn, Port: int(port), Data: frames[i], At: at[i]})
		done := at[i] + res.Latency
		if res.Dropped() {
			d.cDropped.Inc()
			d.fire(TapEvent{Point: TapDataplaneOut, Port: -1, Data: nil, At: done, Result: res})
			continue
		}
		for _, out := range res.Outputs {
			d.fire(TapEvent{Point: TapDataplaneOut, Port: int(out.Port), Data: out.Data, At: done, Result: res})
			if external {
				d.enqueue(int(out.Port), out.Data, done)
			}
		}
	}
	return results
}

// enqueue models the output queue and TX serialization of one port.
func (d *Device) enqueue(port int, data []byte, ready time.Duration) {
	if port < 0 || port >= len(d.ports) {
		d.cBadPort.Inc()
		return
	}
	p := d.ports[port]
	if !p.up {
		p.cTxLinkDown.Inc()
		return
	}
	if p.queueStuck {
		if len(p.stuck) < d.cfg.QueueDepth {
			p.stuck = append(p.stuck, stuckFrame{
				data:  append([]byte(nil), data...),
				ready: ready,
			})
		} else {
			p.cTxQueueDrops.Inc()
		}
		return
	}
	// Queue occupancy: frames waiting for the TX line. If the backlog in
	// flight exceeds the queue depth, tail-drop.
	txStart := p.nextTxFree
	if ready > txStart {
		txStart = ready
	}
	wire := d.wireTime(len(data))
	backlog := int((txStart - ready) / wire)
	if wire > 0 && backlog >= d.cfg.QueueDepth {
		p.cTxQueueDrops.Inc()
		return
	}
	txDone := txStart + wire
	p.nextTxFree = txDone
	d.AdvanceTo(txDone)
	p.cTxFrames.Inc()
	d.fire(TapEvent{Point: TapMACOut, Port: port, Data: data, At: txDone})
	// Only the capture store retains frame bytes beyond this call (data
	// aliases the target's per-packet scratch; taps observe it
	// synchronously without keeping it), so bytes move into the capture
	// ring only when capture needs them.
	if d.captureOn {
		d.capture(p, data, txDone)
	}
}

// SetCaptureEnabled toggles external frame capture at runtime; see
// Config.DisableCapture. Frames transmitted while capture is off are
// not retained (counters and taps still see them).
func (d *Device) SetCaptureEnabled(on bool) { d.captureOn = on }

// CaptureEnabled reports whether external frame capture is on.
func (d *Device) CaptureEnabled() bool { return d.captureOn }

// QueueOccupancy returns the stuck-queue depth of a port (nonzero only
// under FaultQueueStuck; ClearFaults drains it back to zero).
func (d *Device) QueueOccupancy(port int) int {
	if port < 0 || port >= len(d.ports) {
		return 0
	}
	return len(d.ports[port].stuck)
}

// LinkUp reports port link state.
func (d *Device) LinkUp(port int) bool {
	if port < 0 || port >= len(d.ports) {
		return false
	}
	return d.ports[port].up
}

// Status merges device counters with the target's internal status
// registers — the view available over NetDebug's dedicated interface.
func (d *Device) Status() map[string]uint64 {
	out := d.Counters.Values()
	for k, v := range d.cfg.Target.Status() {
		out["target."+k] = v
	}
	for i, p := range d.ports {
		out[fmt.Sprintf("port%d.queue_occupancy", i)] = uint64(len(p.stuck))
		if p.up {
			out[fmt.Sprintf("port%d.link_up", i)] = 1
		} else {
			out[fmt.Sprintf("port%d.link_up", i)] = 0
		}
	}
	return out
}
