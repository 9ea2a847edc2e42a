// Package target models the hardware backends a P4 program can be
// deployed onto: the data plane under test, as distinct from the device
// platform around it (package device) and the P4 reference semantics
// (package dataplane).
//
// There is one implementation of Target, backend (backend.go), run from a
// model: the backend's row, which each New… constructor builds from its
// errata struct. The kind table (kind.go) names the nine shipped rows.
//
// # Interface contract
//
//	tgt := target.NewReference()          // or NewSDNet(errata), ForKind(kind)
//	err := tgt.Load(prog)                 // compile/transform + allocate state
//	tgt.InstallEntry(e)                   // control-plane writes, any time after Load
//	res := tgt.Process(frame, port, trace)
//
// Load may be called again to load a different program; it resets all
// table state, and a program it refuses leaves the loaded one running.
// Targets that transform the program (SDNet) expose the transformed IR
// through Program — callers such as package verify analyze that IR to
// see the deployed (rather than the specified) semantics.
//
// ProcessBatch runs a burst of frames from one ingress port through the
// loaded pipeline and returns one Result per frame, all valid at once.
// Results and the buffers they reference (output frame bytes, trace
// slices) live in per-target scratch, so that a steady-state frame costs
// no heap allocation: they are valid until the next ProcessBatch call,
// and callers that need to retain output bytes must copy them (the
// device model does this when it captures frames). Process is a burst of
// one on a scratch set of its own — the same contract, between Process
// calls — so single-packet calls leave a live burst's results alone.
//
// A Target is NOT safe for concurrent use. Parallel harnesses (package
// scenario's worker pool, package session's host pool) build one
// target/device per worker, never share one behind a lock.
//
// Status exposes the target's internal counters (per parser state, per
// table hit/miss, per deparser emit) — the registers NetDebug reads over
// its dedicated control interface. Resources reports the estimated
// footprint of the loaded program in the form of its backend class; the
// software reference reports zero.
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
	// Data is the deparsed frame, in the originating target's scratch.
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
func (r *Result) Dropped() bool { return len(r.Outputs) == 0 }

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
	// Process runs one frame through the pipeline: a burst of one.
	Process(frame []byte, ingressPort uint64, trace bool) Result
	// ProcessBatch runs a burst of frames, all from the same ingress
	// port, and returns one Result per frame — the amortized path burst
	// harnesses (device.SendExternalBurst, the external tester) drive.
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
	// in a ternary table — on ebpf the number of mask-set scan sections.
	// 0 for non-ternary tables.
	TernaryGroups(table string) int
}

// Form names the group of ResourceReport fields a backend fills and how
// the report renders. It is a column of the backend's row, not something
// to guess from the numbers: a program with no tables has no maps and no
// accelerator tables, and is still an offload or a SmartNIC program.
type Form uint8

// Resource forms. The zero value is the software reference's.
const (
	FormSoftware Form = iota // no hardware cost
	FormFPGA                 // LUT/FF/BRAM, of the NetFPGA-SUME-class part (Virtex-7 690T) the paper targets
	FormASIC                 // stages, SRAM/TCAM blocks, PHV bits (Tofino)
	FormOffload              // generated instructions, BPF maps, memlock (eBPF)
	FormSmartNIC             // accelerator residency and punt economics
)

// ResourceReport estimates hardware resource consumption of a loaded
// program: the group of fields its Form names, zero everywhere else. It
// is the one definition of the report: the netdebug facade aliases it,
// and it crosses the control wire gob-encoded as it is.
type ResourceReport struct {
	Form Form

	LUTs, FFs, BRAMs       int
	LUTPct, FFPct, BRAMPct float64
	// ASIC-style footprint: pipeline stages occupied, SRAM/TCAM memory
	// blocks allocated by table placement, and PHV container bits
	// assigned to header fields.
	Stages, SRAMBlocks, TCAMBlocks, PHVBits int
	StagePct, SRAMPct, TCAMPct, PHVPct      float64
	// Software-offload footprint (eBPF): generated program length
	// against the verifier budget, and BPF map count/bytes against the
	// memlock budget.
	Insns, Maps, MapBytes int
	InsnPct, MemlockPct   float64
	// SmartNIC/DPU footprint: table residency (accelerator vs core
	// complex, where spilled tables count as core-resident), the
	// accelerator grant in flow entries and bytes (including NIC TCAM
	// rows), and the punt economics — queue depth plus cumulative
	// per-table punt counters (keyed by table name, with "parser" for
	// exception-path punts of rejected frames).
	AccelTables, CoreTables, AccelEntries, AccelBytes int
	NICTCAMRows, PuntQueueDepth                       int
	AccelPct                                          float64
	TablePunts                                        map[string]uint64
}

// String renders the estimate in its form.
func (r ResourceReport) String() string {
	switch r.Form {
	case FormFPGA:
		return fmt.Sprintf("LUTs %d (%.1f%%), FFs %d (%.1f%%), BRAMs %d (%.1f%%)",
			r.LUTs, r.LUTPct, r.FFs, r.FFPct, r.BRAMs, r.BRAMPct)
	case FormASIC:
		return fmt.Sprintf("stages %d (%.1f%%), SRAM %d (%.1f%%), TCAM %d (%.1f%%), PHV %db (%.1f%%)",
			r.Stages, r.StagePct, r.SRAMBlocks, r.SRAMPct, r.TCAMBlocks, r.TCAMPct, r.PHVBits, r.PHVPct)
	case FormOffload:
		return fmt.Sprintf("insns %d (%.2f%%), maps %d, map bytes %d (%.1f%% of memlock)",
			r.Insns, r.InsnPct, r.Maps, r.MapBytes, r.MemlockPct)
	case FormSmartNIC:
		var punts uint64
		for _, n := range r.TablePunts {
			punts += n
		}
		return fmt.Sprintf("accel tables %d (%d flows, %d B, %.1f%% of NIC SRAM), core-resident %d, NIC TCAM %d rows, punt queue %d, punts %d",
			r.AccelTables, r.AccelEntries, r.AccelBytes, r.AccelPct, r.CoreTables, r.NICTCAMRows, r.PuntQueueDepth, punts)
	}
	return "no hardware cost (software target)"
}

// ModelBytes converts the report's form-specific footprint into bytes
// of modelled table memory, one figure comparable across backend
// classes (resources.golden's model-bytes lines). Each form charges
// what the architecture actually reserves: the eBPF offload its
// memlock map grants, the ASIC its placed SRAM/TCAM blocks, the FPGA
// its BRAM blocks. The reference target has no resource model and
// returns 0.
func (r ResourceReport) ModelBytes() uint64 {
	switch r.Form {
	case FormFPGA:
		return uint64(r.BRAMs) * sumeBRAMBytes
	case FormASIC:
		sram := uint64(r.SRAMBlocks) * tofinoSRAMWidth * tofinoSRAMRows / 8
		tcam := uint64(r.TCAMBlocks) * tofinoTCAMWidth * tofinoTCAMRows / 8
		return sram + tcam
	case FormOffload:
		return uint64(r.MapBytes)
	case FormSmartNIC:
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
func pct(n, capacity int) float64 { return min(100, float64(n)/float64(capacity)*100) }
