// Package target models the hardware backends a P4 program can be
// deployed onto: the data plane under test, as distinct from the device
// platform around it (package device) and the P4 reference semantics
// (package dataplane).
//
// # Interface contract
//
// A Target is a loadable data-plane backend. The lifecycle is:
//
//	tgt := target.NewReference()          // or NewSDNet(errata), NewTofino(errata)
//	err := tgt.Load(prog)                 // compile/transform + allocate state
//	tgt.InstallEntry(e)                   // control-plane writes, any time after Load
//	res := tgt.Process(frame, port, trace)
//
// Load may be called again to load a different program; it resets all
// table state. Targets that transform the program (SDNet) expose the
// transformed IR through Program — callers such as package verify analyze
// that IR to see the deployed (rather than the specified) semantics.
//
// Process runs one packet through the loaded pipeline and returns a
// Result. Results and the buffers they reference (output frame bytes,
// trace slices) are only valid until the next Process call on the same
// target: the hot path reuses per-target scratch state so that a
// steady-state Process performs no heap allocations. Callers that need to
// retain output bytes must copy them (the device model does this when it
// captures frames).
//
// A Target is NOT safe for concurrent use. Parallel harnesses (package
// scenario's worker pool, package tester's Fleet, netdebug.RunSuite)
// shard work by building one target/device per worker, never by sharing
// one behind a lock.
//
// Status exposes the target's internal counters (per parser state, per
// table hit/miss, per deparser emit) — the registers NetDebug reads over
// its dedicated control interface. Resources reports the estimated FPGA
// footprint of the loaded program; the software reference reports zero.
package target

import (
	"fmt"
	"time"

	"netdebug/internal/dataplane"
	"netdebug/internal/p4/ir"
)

// Output is one output frame of a processed packet.
type Output struct {
	// Port is the egress port (standard_metadata.egress_spec).
	Port uint64
	// Data is the deparsed frame. Valid until the next Process call on
	// the originating target.
	Data []byte
}

// Result is the outcome of processing one packet through a target.
type Result struct {
	// Outputs holds the emitted frames (empty when dropped). The current
	// targets emit at most one frame per packet.
	Outputs []Output
	// Latency is the pipeline delay from the target's latency model,
	// excluding any wire/serialization time (the device adds that).
	Latency time.Duration
	// Trace is the internal execution record. Parser states and table
	// events are populated only when Process was called with trace=true;
	// the verdict, drop flag, and drop reason are always set.
	Trace dataplane.Trace
}

// Dropped reports whether the packet produced no output.
func (r Result) Dropped() bool { return len(r.Outputs) == 0 }

// Target is a loadable data-plane backend. See the package comment for
// the full interface contract.
type Target interface {
	// Name identifies the backend ("reference", "sdnet", ...).
	Name() string
	// Load compiles/transforms prog onto the target, replacing any
	// previously loaded program and clearing all tables.
	Load(prog *ir.Program) error
	// Program returns the IR the target actually executes (after any
	// errata transforms), or nil before Load.
	Program() *ir.Program
	// Process runs one frame through the pipeline. The Result is valid
	// until the next Process call.
	Process(frame []byte, ingressPort uint64, trace bool) Result
	// ProcessBatch runs a burst of frames, all from the same ingress
	// port, and returns one Result per frame. Unlike Process, every
	// result of the batch is valid simultaneously; the whole slice is
	// invalidated by the next ProcessBatch call on this target (results
	// survive interleaved single-packet Process calls, which use
	// separate scratch). This is the amortized path burst harnesses
	// (device.SendExternalBurst, the external tester) drive.
	ProcessBatch(frames [][]byte, ingressPort uint64, trace bool) []Result
	// InstallEntry installs a match-action table entry.
	InstallEntry(e dataplane.Entry) error
	// DeleteEntry removes one table entry by its match identity (see
	// dataplane.Engine.DeleteEntry) — the control-plane write rule
	// churn is made of. Deleting an absent key returns a
	// *dataplane.NoSuchEntryError.
	DeleteEntry(e dataplane.Entry) error
	// ClearTable removes every entry from a table.
	ClearTable(name string) error
	// Status reads the target's internal counters.
	Status() map[string]uint64
	// Resources estimates the hardware footprint of the loaded program.
	Resources() ResourceReport
	// TernaryGroups reports the number of distinct mask tuples installed
	// in a ternary table — the tuple-space probe count the occupancy
	// sweep's mask-diversity axis measures. 0 for non-ternary tables.
	TernaryGroups(table string) int
}

// ResourceReport estimates hardware resource consumption of a loaded
// program. FPGA targets (SDNet) fill the LUT/FF/BRAM fields, as
// percentages of the NetFPGA-SUME-class part (Virtex-7 690T) the paper
// targets; fixed-pipeline ASIC targets (Tofino) fill the stage, memory
// block, and PHV fields instead. The software reference reports zero
// everywhere.
type ResourceReport struct {
	LUTs, FFs, BRAMs       int
	LUTPct, FFPct, BRAMPct float64
	// ASIC-style footprint: pipeline stages occupied, SRAM/TCAM memory
	// blocks allocated by table placement, and PHV container bits
	// assigned to header fields. Zero on FPGA targets.
	Stages, SRAMBlocks, TCAMBlocks, PHVBits int
	StagePct, SRAMPct, TCAMPct, PHVPct      float64
	// Software-offload footprint (eBPF): generated program length
	// against the verifier budget, and BPF map count/bytes against the
	// memlock budget. Zero on hardware targets.
	Insns, Maps, MapBytes int
	InsnPct, MemlockPct   float64
	// SmartNIC/DPU footprint: table residency (accelerator vs core
	// complex, where spilled tables count as core-resident), the
	// accelerator grant in flow entries and bytes (including NIC TCAM
	// rows), and the punt economics — queue depth plus cumulative
	// per-table punt counters (keyed by table name, with "parser" for
	// exception-path punts of rejected frames). Zero/nil on the other
	// target classes.
	AccelTables, CoreTables, AccelEntries, AccelBytes int
	NICTCAMRows, PuntQueueDepth                       int
	AccelPct                                          float64
	TablePunts                                        map[string]uint64
}

// String renders the estimate.
func (r ResourceReport) String() string {
	if r.Stages > 0 {
		return fmt.Sprintf("stages %d (%.1f%%), SRAM %d (%.1f%%), TCAM %d (%.1f%%), PHV %db (%.1f%%)",
			r.Stages, r.StagePct, r.SRAMBlocks, r.SRAMPct, r.TCAMBlocks, r.TCAMPct, r.PHVBits, r.PHVPct)
	}
	if r.Maps > 0 {
		return fmt.Sprintf("insns %d (%.2f%%), maps %d, map bytes %d (%.1f%% of memlock)",
			r.Insns, r.InsnPct, r.Maps, r.MapBytes, r.MemlockPct)
	}
	if r.AccelTables > 0 || r.CoreTables > 0 {
		var punts uint64
		for _, n := range r.TablePunts {
			punts += n
		}
		return fmt.Sprintf("accel tables %d (%d flows, %d B, %.1f%% of NIC SRAM), core-resident %d, NIC TCAM %d rows, punt queue %d, punts %d",
			r.AccelTables, r.AccelEntries, r.AccelBytes, r.AccelPct, r.CoreTables, r.NICTCAMRows, r.PuntQueueDepth, punts)
	}
	if r.LUTs == 0 && r.FFs == 0 && r.BRAMs == 0 {
		return "no hardware cost (software target)"
	}
	return fmt.Sprintf("LUTs %d (%.1f%%), FFs %d (%.1f%%), BRAMs %d (%.1f%%)",
		r.LUTs, r.LUTPct, r.FFs, r.FFPct, r.BRAMs, r.BRAMPct)
}

// ModelBytes converts the report's form-specific footprint into bytes
// of modelled table memory, so the occupancy sweep can print one
// memory-per-entry column across backend classes. Each form charges
// what the architecture actually reserves: the eBPF offload its
// memlock map grants, the ASIC its placed SRAM/TCAM blocks, the FPGA
// its BRAM blocks. The reference target has no resource model and
// returns 0 — callers fall back to measured heap there.
func (r ResourceReport) ModelBytes() uint64 {
	switch {
	case r.Maps > 0:
		return uint64(r.MapBytes)
	case r.Stages > 0:
		sram := uint64(r.SRAMBlocks) * tofinoSRAMWidth * tofinoSRAMRows / 8
		tcam := uint64(r.TCAMBlocks) * tofinoTCAMWidth * tofinoTCAMRows / 8
		return sram + tcam
	case r.BRAMs > 0:
		return uint64(r.BRAMs) * sumeBRAMBytes
	case r.AccelBytes > 0:
		return uint64(r.AccelBytes)
	}
	return 0
}

// Virtex-7 690T capacity, the FPGA on the NetFPGA SUME.
const (
	sumeLUTs  = 433200
	sumeFFs   = 866400
	sumeBRAMs = 1470
	// One 36Kb block RAM, in bytes.
	sumeBRAMBytes = 36 * 1024 / 8
)

// pct caps a utilization percentage at 100.
func pct(n, capacity int) float64 {
	p := float64(n) / float64(capacity) * 100
	if p > 100 {
		p = 100
	}
	return p
}
