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
// Both levels have batched forms (SendExternalBurst,
// InjectInternalBatch) that amortize context traffic over a burst and,
// together with the borrow-semantics capture ring (ring.go: Captures
// returns zero-copy views, ReleaseCaptures recycles segments), keep the
// steady-state frame path at 0 allocs/frame with capture on — the
// economics docs/scaling.md quantifies. Burst and per-frame paths are
// behaviourally equivalent; the differential tests in burst_test.go and
// ring_test.go hold them to that.
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
	// PortSpeedBps is the line rate per port (default 10e9).
	PortSpeedBps float64
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
	if c.PortSpeedBps == 0 {
		c.PortSpeedBps = 10e9
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
// the simulation path and must not retain Data.
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
	// resScratch stages per-packet results so taking their address for
	// tap events does not heap-allocate per packet. It is indexed by
	// packet-path reentrancy depth (a tap callback that injects a
	// follow-up packet gets its own slot), so an outer call's returned
	// Result struct is never clobbered by a nested one. Note the target
	// layer still reuses its output buffers per Process call, so nested
	// injection into the same device invalidates the outer result's
	// Outputs data — see the target.Result contract.
	resScratch []target.Result
	procDepth  int
	// Burst-path scratch (SendExternalBurst): post-MAC frame data and
	// per-frame RX-complete timestamps, reused across bursts.
	batchData [][]byte
	batchAt   []time.Duration
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

// wireTime is the serialization delay of an n-byte frame at line rate,
// including the 20-byte preamble+IFG overhead.
func (d *Device) wireTime(n int) time.Duration {
	bits := float64(n+20) * 8
	return time.Duration(bits / d.cfg.PortSpeedBps * 1e9)
}

// SendExternal delivers a frame to an external port at virtual time at,
// exactly as a connected cable would. The frame traverses the MAC (where
// interface faults apply), the data plane, and the output queues.
func (d *Device) SendExternal(port int, frame []byte, at time.Duration) error {
	if port < 0 || port >= len(d.ports) {
		return fmt.Errorf("device: no port %d", port)
	}
	d.AdvanceTo(at)
	p := d.ports[port]
	p.cRxFrames.Inc()
	if !p.up {
		p.cRxLinkDown.Inc()
		return nil // silently lost, as on real hardware
	}
	data := frame
	if p.bitFlip != nil && len(frame) > 0 {
		data = append([]byte(nil), frame...)
		bit := p.bitFlip.Intn(len(data) * 8)
		data[bit/8] ^= 1 << uint(7-bit%8)
		p.cRxBitFlips.Inc()
	}
	rxDone := at + d.wireTime(len(frame))
	d.fire(TapEvent{Point: TapMACIn, Port: port, Data: data, At: rxDone})
	d.processAndQueue(data, uint64(port), rxDone, d.wantExternalTrace())
	return nil
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
// frame i at virtual time start+i*interval, through the batched
// data-plane path (target.ProcessBatch). It is behaviourally equivalent
// to one SendExternal call per frame — the same MAC faults, taps in the
// same per-frame order, the same queueing — but amortizes the per-packet
// result staging over the burst. The one observable difference is that
// the data plane executes the whole burst before the first tap fires, so
// tap callbacks cannot influence the processing of later frames in the
// same burst.
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
	if len(d.batchData) == 0 {
		return nil
	}
	results := d.cfg.Target.ProcessBatch(d.batchData, uint64(port), d.wantExternalTrace())
	for i := range results {
		res := &results[i]
		rxDone := d.batchAt[i]
		d.fire(TapEvent{Point: TapMACIn, Port: port, Data: d.batchData[i], At: rxDone})
		d.fire(TapEvent{Point: TapDataplaneIn, Port: port, Data: d.batchData[i], At: rxDone})
		done := rxDone + res.Latency
		if res.Dropped() {
			d.cDropped.Inc()
			d.fire(TapEvent{Point: TapDataplaneOut, Port: -1, Data: nil, At: done, Result: res})
			continue
		}
		for _, out := range res.Outputs {
			d.fire(TapEvent{Point: TapDataplaneOut, Port: int(out.Port), Data: out.Data, At: done, Result: res})
			d.enqueue(int(out.Port), out.Data, done)
		}
	}
	return nil
}

// InjectInternal pushes a frame directly into the data plane under test,
// bypassing the MACs — the NetDebug generator's attachment point. The
// returned result carries the full internal trace.
func (d *Device) InjectInternal(frame []byte, ingressPort uint64, at time.Duration, trace bool) target.Result {
	d.AdvanceTo(at)
	d.cInjected.Inc()
	return d.process(frame, ingressPort, at, trace)
}

// InjectInternalBatch pushes a run of frames from one ingress port
// through the batched data-plane path (target.ProcessBatch) — how the
// in-device generator drives its probe streams. Frame i is injected at
// at[i]. It is behaviourally equivalent to one InjectInternal call per
// frame — the same counters, the same per-frame dataplane taps in order
// — but amortizes per-packet dispatch over the run; as with
// SendExternalBurst, the whole run executes before the first tap fires.
// The returned results (and the output bytes they reference) are valid
// until the next batch on this device's target.
func (d *Device) InjectInternalBatch(frames [][]byte, ingressPort uint64, at []time.Duration, trace bool) []target.Result {
	for _, t := range at {
		d.AdvanceTo(t)
	}
	d.cInjected.Add(uint64(len(frames)))
	results := d.cfg.Target.ProcessBatch(frames, ingressPort, trace)
	for i := range results {
		res := &results[i]
		d.fire(TapEvent{Point: TapDataplaneIn, Port: int(ingressPort), Data: frames[i], At: at[i]})
		done := at[i] + res.Latency
		if res.Dropped() {
			d.cDropped.Inc()
			d.fire(TapEvent{Point: TapDataplaneOut, Port: -1, Data: nil, At: done, Result: res})
			continue
		}
		for _, out := range res.Outputs {
			d.fire(TapEvent{Point: TapDataplaneOut, Port: int(out.Port), Data: out.Data, At: done, Result: res})
		}
	}
	return results
}

// process runs the data plane and fires dataplane taps; it returns the
// result without queueing outputs. The result is staged in a
// depth-indexed scratch slot so tap events can carry a pointer without
// a per-packet heap allocation; like target results, it is valid until
// the next packet at the same depth.
func (d *Device) process(frame []byte, ingressPort uint64, at time.Duration, trace bool) target.Result {
	depth := d.procDepth
	d.procDepth++
	defer func() { d.procDepth-- }()
	if depth >= len(d.resScratch) {
		d.resScratch = append(d.resScratch, target.Result{})
	}
	d.fire(TapEvent{Point: TapDataplaneIn, Port: int(ingressPort), Data: frame, At: at})
	d.resScratch[depth] = d.cfg.Target.Process(frame, ingressPort, trace)
	res := &d.resScratch[depth]
	done := at + res.Latency
	if res.Dropped() {
		d.cDropped.Inc()
		d.fire(TapEvent{Point: TapDataplaneOut, Port: -1, Data: nil, At: done, Result: res})
		return *res
	}
	for _, out := range res.Outputs {
		d.fire(TapEvent{Point: TapDataplaneOut, Port: int(out.Port), Data: out.Data, At: done, Result: res})
	}
	return *res
}

// processAndQueue runs the data plane and forwards outputs through the
// output queues to the external ports.
func (d *Device) processAndQueue(frame []byte, ingressPort uint64, at time.Duration, trace bool) {
	res := d.process(frame, ingressPort, at, trace)
	done := at + res.Latency
	for _, out := range res.Outputs {
		d.enqueue(int(out.Port), out.Data, done)
	}
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
