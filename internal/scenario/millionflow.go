package scenario

// The million-flow occupancy sweep: the validation methodology only pays
// off if the simulated data plane behaves like hardware at realistic
// table occupancies, so this workload populates exact, LPM, and ternary
// tables at 10^2..10^6 entries per target backend and measures lookup
// latency and memory versus occupancy. Each backend's capacity model
// trips mid-sweep exactly as the architecture-check use case predicts —
// SDNet's usable-capacity erratum clips installs to ~90% of declared
// size at 10^6, and Tofino's per-stage placement grants clip the SRAM
// tables near 491k and the TCAM table near 74k — and the sweep records
// each finding instead of failing. A distinct-mask-count axis measures
// the tuple-space lookup's degradation toward the linear scan as mask
// diversity approaches the entry count.

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"time"

	"netdebug/internal/bitfield"
	"netdebug/internal/dataplane"
	"netdebug/internal/p4/compile"
	"netdebug/internal/target"
)

// millionFlowProgram declares one table per match kind, each sized to
// %d entries, over a compact synthetic key header.
const millionFlowProgram = `
header key_t { bit<48> dmac; bit<48> smac; bit<32> dst; bit<32> src; bit<16> sport; }
struct hs { key_t k; }
parser MFParser(packet_in p, out hs hdr) {
  state start { p.extract(hdr.k); transition accept; }
}
control MFIngress(inout hs hdr, inout standard_metadata_t sm) {
  action fwd(bit<9> port) { sm.egress_spec = port; }
  table t_exact {
    key = { hdr.k.dst: exact; }
    actions = { fwd; NoAction; }
    size = %d;
  }
  table t_lpm {
    key = { hdr.k.dst: lpm; }
    actions = { fwd; NoAction; }
    size = %d;
  }
  table t_acl {
    key = { hdr.k.dst: ternary; hdr.k.src: ternary; hdr.k.sport: ternary; }
    actions = { fwd; NoAction; }
    size = %d;
  }
  apply { t_exact.apply(); t_lpm.apply(); t_acl.apply(); }
}
control MFDeparser(packet_out p, in hs hdr) { apply { p.emit(hdr.k); } }
S(MFParser(), MFIngress(), MFDeparser()) main;`

// SweepTables lists the swept tables in apply order.
var SweepTables = []string{"t_exact", "t_lpm", "t_acl"}

// SweepOptions configures MillionFlowSweep.
type SweepOptions struct {
	// Backends are the target backends to sweep; empty means the full
	// shipped matrix (target.ShippedKinds). Any target.ForKind name is
	// accepted, including the -fixed variants.
	Backends []string
	// Occupancies are the per-table entry counts; empty means
	// 10^2..10^6 in decades.
	Occupancies []int
	// TableSize is the declared size of each table (the denominator the
	// SDNet usable-capacity erratum scales); 0 means 1<<20, which puts
	// the erratum trip point between the 10^5 and 10^6 occupancies.
	TableSize int
	// Probes is the number of lookup packets timed per point; 0 means
	// 4096.
	Probes int
	// BatchSize is the burst size driven through the batched target
	// path; 0 means 256.
	BatchSize int
	// Tables selects the subset of SweepTables to populate; empty means
	// all three. The 10^7-flow tier sweeps {"t_lpm"} alone — populating
	// three tables at that scale measures mostly the exact map, while
	// the LPM-only run isolates the multibit trie the tier exists to
	// size. Unknown names are rejected.
	Tables []string
	// DistinctMasks is the number of distinct mask tuples the ternary
	// table's entries cycle through; 0 means 8, the "few templates,
	// many flows" shape of real ACLs. Raising it toward the entry count
	// degrades the tuple-space lookup toward the linear scan — the
	// worst case this parameter exists to measure. More distinct masks
	// than entries is impossible (each entry carries one tuple), so a
	// value above a point's occupancy is clamped to it, and the point
	// records the clamped value. Negative values are rejected.
	DistinctMasks int
}

func (o *SweepOptions) fill() {
	if len(o.Backends) == 0 {
		o.Backends = append([]string(nil), target.ShippedKinds...)
	}
	if len(o.Occupancies) == 0 {
		o.Occupancies = []int{100, 1000, 10000, 100000, 1000000}
	}
	if o.TableSize == 0 {
		o.TableSize = 1 << 20
	}
	if o.Probes == 0 {
		o.Probes = 4096
	}
	if o.BatchSize == 0 {
		o.BatchSize = 256
	}
	if len(o.Tables) == 0 {
		o.Tables = SweepTables
	}
	if o.DistinctMasks == 0 {
		o.DistinctMasks = len(aclMaskTemplates)
	}
}

// SweepPoint is one (backend, occupancy) measurement.
type SweepPoint struct {
	Backend   string
	Occupancy int
	// DistinctMasks is the mask-diversity setting the point ran with.
	DistinctMasks int
	// MaskGroups is the number of distinct mask tuples actually indexed
	// in the ternary table — the per-lookup tuple-space probe count.
	MaskGroups int
	// Installed maps table name to the number of entries actually
	// installed — below Occupancy when the backend's usable capacity
	// tripped first.
	Installed map[string]int
	// CapacityNote records a capacity erratum observed while populating
	// ("" when every install succeeded). This is the architecture-check
	// finding the sweep is designed to surface on SDNet.
	CapacityNote string
	// InstallNs is the mean install latency per entry, over all tables.
	InstallNs float64
	// LookupNs is the mean per-packet pipeline latency (parse + three
	// table lookups + deparse) over the probe burst.
	LookupNs float64
	// ModelNs is the backend's *modelled* per-packet latency at this
	// point — what the simulated hardware would take, as opposed to
	// LookupNs, which is what the simulation takes. This is where the
	// mask-diversity axis separates the architectures: a TCAM compares
	// every mask in parallel (Tofino stays flat), while the eBPF
	// mask-set scan pays one section per distinct mask (linear).
	ModelNs float64
	// HeapBytes is the heap growth attributable to the populated tables.
	HeapBytes uint64
	// ModelBytes is the backend's *modelled* table memory at this point
	// (ResourceReport.ModelBytes): memlock map grants on ebpf, placed
	// SRAM/TCAM blocks on tofino, BRAM blocks on sdnet. 0 on the
	// reference target, which has no resource model.
	ModelBytes uint64
	// BytesPerEntry is the memory cost per installed entry: ModelBytes
	// over total installs where the backend models memory, measured
	// heap over total installs on the reference — the column that makes
	// the multibit trie's footprint comparable across backend classes.
	BytesPerEntry float64
	// PuntRate is the fraction of timed probes the backend punted to
	// its exception path (the SmartNIC core complex); 0 on backends
	// with no punt path. This is the axis that surfaces offload
	// fallback: the SmartNIC never refuses an install (no
	// CapacityNote), but once a table spills past its accelerator grant
	// every lookup on it punts and the rate jumps to 1.
	PuntRate float64
}

// aclMaskTemplates is the default pool of ternary mask tuples — the
// "few templates, many flows" shape of real ACLs.
var aclMaskTemplates = func() [][3]bitfield.Value {
	fullDst := bitfield.Mask(32)
	fullSrc := bitfield.Mask(32)
	fullPort := bitfield.Mask(16)
	none32 := bitfield.New(0, 32)
	return [][3]bitfield.Value{
		{fullDst, fullSrc, fullPort},
		{fullDst, fullSrc, bitfield.New(0, 16)},
		{fullDst, none32, fullPort},
		{bitfield.Mask(32).Shl(8).WithWidth(32), fullSrc, fullPort},
		{fullDst, bitfield.Mask(32).Shl(16).WithWidth(32), bitfield.New(0, 16)},
		{bitfield.Mask(32).Shl(4).WithWidth(32), none32, fullPort},
		{fullDst, bitfield.Mask(32).Shl(24).WithWidth(32), fullPort},
		{bitfield.Mask(32).Shl(12).WithWidth(32), fullSrc, bitfield.New(0, 16)},
	}
}()

// aclMaskTuple returns the j-th distinct mask tuple. The first
// len(aclMaskTemplates) tuples come from the realistic template pool;
// beyond that, tuples are generated by encoding j into the port and dst
// masks, so every j below 2^32 yields a distinct tuple — the knob that
// drives the tuple-space index toward its linear-scan worst case.
func aclMaskTuple(j int) [3]bitfield.Value {
	if j < len(aclMaskTemplates) {
		return aclMaskTemplates[j]
	}
	return [3]bitfield.Value{
		bitfield.New(0xffff0000|uint64(j>>16)&0xffff, 32),
		bitfield.Mask(32),
		bitfield.New(uint64(j)&0xffff, 16),
	}
}

// sweepEntry builds the i-th deterministic entry for a table. Exact and
// LPM entries use distinct dst values; ternary entries cycle through a
// pool of `masks` distinct mask tuples (see aclMaskTuple) with distinct
// masked values and a handful of priorities.
func sweepEntry(table string, i, masks int) dataplane.Entry {
	dst := bitfield.New(uint64(i), 32)
	switch table {
	case "t_exact":
		return dataplane.Entry{
			Table: table, Action: "fwd",
			Keys: []dataplane.KeyValue{{Value: dst}},
			Args: []bitfield.Value{bitfield.New(uint64(i%4), 9)},
		}
	case "t_lpm":
		// Distinct /32s, with every 16th entry a distinct /24 from the
		// disjoint 0x40xxxxxx range so trie depth varies. The /24s are
		// indexed by i/16 so their 24 significant bits stay clear of the
		// range tag at bit 30 — distinct through the 10^7 tier (the old
		// i<<8 encoding collided with itself from i = 2^22).
		kv := dataplane.KeyValue{Value: dst, PrefixLen: 32}
		if i%16 == 15 {
			kv = dataplane.KeyValue{Value: bitfield.New(0x40000000|uint64(i/16)<<8, 32), PrefixLen: 24}
		}
		return dataplane.Entry{
			Table: table, Action: "fwd",
			Keys: []dataplane.KeyValue{kv},
			Args: []bitfield.Value{bitfield.New(uint64(i%4), 9)},
		}
	default: // t_acl
		m := aclMaskTuple(i % masks)
		return dataplane.Entry{
			Table: table, Action: "fwd", Priority: i % 4,
			Keys: []dataplane.KeyValue{
				{Value: bitfield.New(uint64(i), 32), Mask: m[0]},
				{Value: bitfield.New(uint64(i*7)&0xffffffff, 32), Mask: m[1]},
				{Value: bitfield.New(uint64(i%65536), 16), Mask: m[2]},
			},
			Args: []bitfield.Value{bitfield.New(uint64(i%4), 9)},
		}
	}
}

// sweepFrame builds the 22-byte key_t frame for probe i at occupancy n:
// even probes hit installed dst values, odd probes miss.
func sweepFrame(buf []byte, i, n int) []byte {
	dst := uint64(i % n)
	if i%2 == 1 {
		dst = uint64(0x80000000 + i) // outside the installed range
	}
	buf = buf[:0]
	buf = append(buf, make([]byte, 12)...) // dmac, smac
	buf = append(buf, byte(dst>>24), byte(dst>>16), byte(dst>>8), byte(dst))
	src := uint64(i*7) & 0xffffffff
	buf = append(buf, byte(src>>24), byte(src>>16), byte(src>>8), byte(src))
	port := uint64(i % 65536)
	return append(buf, byte(port>>8), byte(port))
}

// heapInUse forces a collection and reports live heap bytes.
func heapInUse() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// MillionFlowSweep runs the occupancy sweep and returns one point per
// (backend, occupancy) pair, backend-major in option order.
func MillionFlowSweep(opts SweepOptions) ([]SweepPoint, error) {
	opts.fill()
	prog, err := compile.Compile(fmt.Sprintf(millionFlowProgram,
		opts.TableSize, opts.TableSize, opts.TableSize))
	if err != nil {
		return nil, fmt.Errorf("scenario: million-flow program: %w", err)
	}
	if opts.DistinctMasks < 0 {
		return nil, fmt.Errorf("scenario: sweep mask diversity %d is negative", opts.DistinctMasks)
	}
	for _, table := range opts.Tables {
		known := false
		for _, t := range SweepTables {
			known = known || t == table
		}
		if !known {
			return nil, fmt.Errorf("scenario: unknown sweep table %q", table)
		}
	}
	for _, occ := range opts.Occupancies {
		if occ < 1 {
			return nil, fmt.Errorf("scenario: sweep occupancy %d is not positive", occ)
		}
	}
	var points []SweepPoint
	for _, backend := range opts.Backends {
		for _, occ := range opts.Occupancies {
			tgt, err := target.ForKind(backend)
			if err != nil {
				return nil, fmt.Errorf("scenario: sweep backend: %w", err)
			}
			if err := tgt.Load(prog); err != nil {
				return nil, fmt.Errorf("scenario: %s load: %w", backend, err)
			}
			// Each entry carries exactly one mask tuple, so diversity
			// beyond the occupancy cannot materialize: clamp per point
			// and record what actually ran.
			masks := opts.DistinctMasks
			if masks > occ {
				masks = occ
			}
			pt := SweepPoint{
				Backend: backend, Occupancy: occ,
				DistinctMasks: masks,
				Installed:     map[string]int{},
			}
			heapBefore := heapInUse()
			installStart := time.Now()
			installs := 0
			for _, table := range opts.Tables {
				for i := 0; i < occ; i++ {
					if err := tgt.InstallEntry(sweepEntry(table, i, masks)); err != nil {
						var capErr *dataplane.CapacityError
						var maskErr *dataplane.MaskSetError
						switch {
						case errors.As(err, &capErr):
							pt.CapacityNote = appendNote(pt.CapacityNote, fmt.Sprintf(
								"%s full after %d of %d entries (declared size %d)",
								table, i, occ, opts.TableSize))
						case errors.As(err, &maskErr):
							pt.CapacityNote = appendNote(pt.CapacityNote, fmt.Sprintf(
								"%s mask set full after %d of %d entries (limit %d distinct masks)",
								table, i, occ, maskErr.Limit))
						default:
							return nil, fmt.Errorf("scenario: %s %s entry %d: %w", backend, table, i, err)
						}
						break
					}
					pt.Installed[table]++
					installs++
				}
			}
			if installs > 0 {
				pt.InstallNs = float64(time.Since(installStart).Nanoseconds()) / float64(installs)
			}
			pt.MaskGroups = tgt.TernaryGroups("t_acl")
			if after := heapInUse(); after > heapBefore {
				pt.HeapBytes = after - heapBefore
			}
			pt.ModelBytes = tgt.Resources().ModelBytes()
			if mem := pt.ModelBytes; installs > 0 {
				if mem == 0 {
					mem = pt.HeapBytes // reference: no resource model
				}
				pt.BytesPerEntry = float64(mem) / float64(installs)
			}

			// Time the probe burst through the batched pipeline path.
			frames := make([][]byte, opts.BatchSize)
			for i := range frames {
				frames[i] = sweepFrame(nil, i, occ)
			}
			// The modelled latency is per-point state (constant across a
			// burst): fixed on the hardware pipelines, a function of
			// program length and installed mask sections on the offload.
			pt.ModelNs = float64(tgt.Process(frames[0], 0, false).Latency.Nanoseconds())
			tgt.ProcessBatch(frames, 0, false) // warm up
			puntBefore := tgt.Status()["smartnic.punt.total"]
			probeStart := time.Now()
			done := 0
			for done < opts.Probes {
				n := opts.BatchSize
				if opts.Probes-done < n {
					n = opts.Probes - done
				}
				tgt.ProcessBatch(frames[:n], 0, false)
				done += n
			}
			pt.LookupNs = float64(time.Since(probeStart).Nanoseconds()) / float64(done)
			if done > 0 {
				pt.PuntRate = float64(tgt.Status()["smartnic.punt.total"]-puntBefore) / float64(done)
			}
			points = append(points, pt)
		}
	}
	return points, nil
}

// appendNote joins erratum findings with "; ".
func appendNote(cur, add string) string {
	if cur == "" {
		return add
	}
	return cur + "; " + add
}

// RenderSweep formats sweep points as the occupancy-sweep figure table.
func RenderSweep(points []SweepPoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %10s %10s %8s %12s %12s %10s %10s %9s %6s  %s\n",
		"backend", "occupancy", "installed", "masks", "install/ns", "lookup/ns", "model/ns", "heap", "B/entry", "punt", "finding")
	for _, pt := range points {
		note := pt.CapacityNote
		if note == "" {
			note = "-"
		}
		fmt.Fprintf(&b, "%-12s %10d %10d %8d %12.0f %12.0f %10.0f %9.1fM %9.1f %6.2f  %s\n",
			pt.Backend, pt.Occupancy, pt.MaxInstalled(), pt.MaskGroups, pt.InstallNs, pt.LookupNs,
			pt.ModelNs, float64(pt.HeapBytes)/1e6, pt.BytesPerEntry, pt.PuntRate, note)
	}
	return b.String()
}

// MaxInstalled returns the largest per-table installed count of the
// point — the headline occupancy actually reached.
func (pt SweepPoint) MaxInstalled() int {
	n := 0
	for _, table := range SweepTables {
		if pt.Installed[table] > n {
			n = pt.Installed[table]
		}
	}
	return n
}

// SweepCSVHeader is the column row of SweepCSV output.
const SweepCSVHeader = "backend,occupancy,distinct_masks,mask_groups," +
	"installed_exact,installed_lpm,installed_acl,install_ns,lookup_ns,model_ns," +
	"heap_bytes,model_bytes,bytes_per_entry,punt_rate,finding"

// SweepCSV renders sweep points as machine-readable CSV (one row per
// point, findings quoted) for external plotting — the companion to the
// human-readable RenderSweep table.
func SweepCSV(points []SweepPoint) string {
	var b strings.Builder
	b.WriteString(SweepCSVHeader + "\n")
	for _, pt := range points {
		fmt.Fprintf(&b, "%s,%d,%d,%d,%d,%d,%d,%.0f,%.1f,%.0f,%d,%d,%.1f,%.3f,%q\n",
			pt.Backend, pt.Occupancy, pt.DistinctMasks, pt.MaskGroups,
			pt.Installed["t_exact"], pt.Installed["t_lpm"], pt.Installed["t_acl"],
			pt.InstallNs, pt.LookupNs, pt.ModelNs, pt.HeapBytes, pt.ModelBytes,
			pt.BytesPerEntry, pt.PuntRate, pt.CapacityNote)
	}
	return b.String()
}
