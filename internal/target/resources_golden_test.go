package target

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"netdebug/internal/p4/p4test"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/resources.golden from this tree")

const resourcesGoldenHeader = `# Every field of Resources() and every table's granted capacity, for the shipped programs on the
# four hardware-modelled backends and on the small geometries the unit tests use: the byte-identity
# contract of every PR that touches a price table or the placement pass. Regenerate with
#   go test ./internal/target/ -run TestResourcesGolden -update
`

// narrowACLsProgram has two ternary tables narrow enough for the smartnic's
// on-NIC TCAM, together asking for more rows than it has.
const narrowACLsProgram = `
header h_t { bit<32> x; } struct hs { h_t h; }
parser P(packet_in p, out hs hdr) { state start { p.extract(hdr.h); transition accept; } }
control I(inout hs hdr, inout standard_metadata_t sm) {
  action fwd(bit<9> port) { sm.egress_spec = port; }
  table big { key = { hdr.h.x: ternary; } actions = { fwd; } size = 4096; }
  table small { key = { hdr.h.x: ternary; } actions = { fwd; } size = 512; }
  apply { big.apply(); small.apply(); }
}
control D(packet_out p, in hs hdr) { apply { p.emit(hdr.h); } }
S(P(), I(), D()) main;`

// renderResources loads every golden case and renders what it got: the
// load error, or the report field by field (the form tag is not a number
// and is pinned by TestResourceFormRendering, as is String) and each table's capacity.
func renderResources(t *testing.T) string {
	programs := []struct{ name, src string }{
		{"reflector", p4test.Reflector},
		{"l2switch", p4test.L2Switch},
		{"router", p4test.Router},
		{"router-split", p4test.RouterSplit},
		{"firewall", p4test.Firewall},
		{"big-exact", p4test.BigExactTable},
		{"million-flow", millionFlowStyleProgram},
		{"wide-ternary", wideTernaryTestProgram},
		{"narrow-acls", narrowACLsProgram},
	}
	type backend struct {
		name  string
		build func() Target
	}
	var backends []backend
	for _, kind := range ShippedKinds[1:] { // the reference has no resource model
		backends = append(backends, backend{kind, func() Target {
			tgt, err := ForKind(kind)
			if err != nil {
				t.Fatal(err)
			}
			return tgt
		}})
	}
	backends = append(backends,
		backend{"tofino{Stages:1 SRAMBlocks:2}", func() Target { return NewTofino(TofinoErrata{Stages: 1, SRAMBlocks: 2}) }},
		backend{"ebpf{MemlockBytes:7200}", func() Target { return NewEBPF(EBPFErrata{MemlockBytes: 7200}) }})
	var b strings.Builder
	b.WriteString(resourcesGoldenHeader)
	for _, p := range programs {
		prog := mustProg(t, p.src)
		for _, be := range backends {
			fmt.Fprintf(&b, "%s on %s\n", p.name, be.name)
			tgt := be.build()
			if err := tgt.Load(prog); err != nil {
				fmt.Fprintf(&b, "  load: %v\n", err)
				continue
			}
			r := tgt.Resources()
			fmt.Fprintf(&b, "  fpga     LUTs %d (%.4f%%) FFs %d (%.4f%%) BRAMs %d (%.4f%%)\n",
				r.LUTs, r.LUTPct, r.FFs, r.FFPct, r.BRAMs, r.BRAMPct)
			fmt.Fprintf(&b, "  asic     stages %d (%.4f%%) SRAM %d (%.4f%%) TCAM %d (%.4f%%) PHV %d (%.4f%%)\n",
				r.Stages, r.StagePct, r.SRAMBlocks, r.SRAMPct, r.TCAMBlocks, r.TCAMPct, r.PHVBits, r.PHVPct)
			fmt.Fprintf(&b, "  offload  insns %d (%.6f%%) maps %d bytes %d (%.4f%%)\n",
				r.Insns, r.InsnPct, r.Maps, r.MapBytes, r.MemlockPct)
			fmt.Fprintf(&b, "  smartnic accel %d core %d entries %d bytes %d (%.4f%%) tcam-rows %d punt-queue %d punts %v\n",
				r.AccelTables, r.CoreTables, r.AccelEntries, r.AccelBytes, r.AccelPct,
				r.NICTCAMRows, r.PuntQueueDepth, r.TablePunts)
			fmt.Fprintf(&b, "  model-bytes %d\n", r.ModelBytes())
			for _, tab := range prog.Tables() {
				fmt.Fprintf(&b, "  table %s: declared %d, capacity %d\n", tab.Name, tab.Size, grantedCapacity(tgt, tab.Name))
			}
		}
	}
	return b.String()
}

// TestResourcesGolden holds every resource number and every granted
// capacity to testdata/resources.golden, byte for byte.
func TestResourcesGolden(t *testing.T) {
	const path = "testdata/resources.golden"
	got := renderResources(t)
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, []byte(got)) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("%s line %d:\n got  %s\n want %s", path, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("%s: %d lines, want %d", path, len(gl), len(wl))
	}
}

// grantedCapacity is the entry count the placement pass granted a table.
func grantedCapacity(tgt Target, table string) int {
	return tgt.(*backend).placement(table).capacity
}
