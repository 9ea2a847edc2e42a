package scenario

import (
	"os"
	"strings"
	"testing"

	"netdebug/internal/core"
	"netdebug/internal/dataplane"
	"netdebug/internal/p4/p4test"
	"netdebug/internal/packet"
	"netdebug/internal/target"
	"netdebug/internal/tester"
)

// TestFigure2Matrix regenerates the paper's Figure 2 and asserts its
// shape: NetDebug is Full on every use case; software formal verification
// covers only (part of) functional testing and comparison; the external
// tester is partial where it lacks internal visibility and blind to
// resources and status.
func TestFigure2Matrix(t *testing.T) {
	m := BuildMatrix(All(), 1)

	for _, uc := range UseCases {
		if got := m.Cells[uc][ToolNetDebug]; got != Full {
			t.Errorf("NetDebug on %q = %v, want Full", uc, got)
		}
	}

	formalWant := map[UseCase]Cell{
		Functional:   Partial, // program bugs only
		Performance:  None,
		Compiler:     None, // the reject erratum is invisible
		Architecture: None,
		Resources:    None,
		Status:       None,
		Comparison:   Partial,
		Resident:     None, // sessions, churn, faults, replay: all runtime
		Fuzzing:      None, // the shared program verifies clean; backend errata are invisible
	}
	for uc, want := range formalWant {
		if got := m.Cells[uc][ToolFormal]; got != want {
			t.Errorf("formal verification on %q = %v, want %v", uc, got, want)
		}
	}

	externalWant := map[UseCase]Cell{
		Functional:   Partial,
		Performance:  Partial,
		Compiler:     Partial,
		Architecture: Partial,
		Resources:    None,
		Status:       None,
		Comparison:   Partial,
		Resident:     Partial, // sees fault windows as loss; no control plane or stream
		Fuzzing:      Partial, // capture votes split wide-surface errata; no coverage signal for narrow ones
	}
	for uc, want := range externalWant {
		if got := m.Cells[uc][ToolExternal]; got != want {
			t.Errorf("external tester on %q = %v, want %v", uc, got, want)
		}
	}

	// No cell may conclude by accident: a line that says "unexpected" or
	// carries an error is a cell whose intended conclusion never printed.
	for _, d := range m.Details {
		if strings.Contains(d, "unexpected") || strings.Contains(d, "error:") {
			t.Errorf("detail line reports an accident: %s", d)
		}
	}

	// Byte identity: the rendered matrix and every detail line, as
	// cmd/figures prints them, against the checked-in capture
	// (`make figure2-golden` regenerates it).
	golden, err := os.ReadFile("testdata/figure2.golden")
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(string(golden), "\n")
	header := 0
	for header < len(want) && strings.HasPrefix(want[header], "# ") {
		header++
	}
	want = want[header:]
	got := strings.Split(m.Render(), "\n")
	for _, d := range m.SortedDetails() {
		got = append(got, "  "+d)
	}
	got = append(got, "")
	for i := 0; i < max(len(got), len(want)); i++ {
		var g, w string
		if i < len(got) {
			g = got[i]
		}
		if i < len(want) {
			w = want[i]
		}
		if g != w {
			t.Errorf("figure2.golden line %d (regenerate with `make figure2-golden` after a deliberate change):\n  got  %q\n  want %q", header+i+1, g, w)
		}
	}
}

func TestMatrixRendering(t *testing.T) {
	m := BuildMatrix(All(), 1)
	out := m.Render()
	for _, want := range []string{"use case", "NetDebug", "functional testing", "comparison"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
	details := m.SortedDetails()
	if len(details) < 20 {
		t.Fatalf("details = %d lines", len(details))
	}
	for i := 1; i < len(details); i++ {
		if details[i] < details[i-1] {
			t.Fatal("details not sorted")
		}
	}
}

func TestScenarioSuiteShape(t *testing.T) {
	scenarios := All()
	perUC := map[UseCase]int{}
	names := map[string]bool{}
	for _, sc := range scenarios {
		perUC[sc.UseCase]++
		if sc.UseCase == "" {
			t.Errorf("scenario %q has no use case", sc.Name)
		}
		if sc.Name == "" || names[sc.Name] {
			t.Errorf("scenario name %q is empty or repeated", sc.Name)
		}
		names[sc.Name] = true
		for i, attempt := range sc.attempts() {
			if attempt == nil {
				t.Errorf("scenario %q has no %s attempt", sc.Name, Tools[i])
			}
		}
	}
	for _, uc := range UseCases {
		if perUC[uc] == 0 {
			t.Errorf("use case %q has no scenarios", uc)
		}
	}
}

// TestStreamRowDrivesBothTools is why a stream is one row: the agent's
// TestSpec and the tester's tagged stream are renderings of the same
// frame, count, rate and expectation, so on any device both tools send
// the same number of frames and reach the same verdict.
func TestStreamRowDrivesBothTools(t *testing.T) {
	wrongPort := fixture{p4test.Router, []dataplane.Entry{routeEntry(3)}}
	for _, tc := range []struct {
		name    string
		stream  stream
		fixture fixture
		pass    bool
	}{
		{"forwarded/correct", stream{frame: goodFrame(), count: 12, ratePPS: 1e6}, router, true},
		{"forwarded/wrong-port", stream{frame: goodFrame(), count: 12, ratePPS: 1e6}, wrongPort, false},
		{"dropped/correct", stream{frame: badVersionFrame(), count: 7, wantDrop: true}, router, true},
		{"dropped/wrong-port", stream{frame: badVersionFrame(), count: 7, wantDrop: true}, wrongPort, true},
		{"dropped/forwarding", stream{frame: goodFrame(), count: 7, wantDrop: true}, router, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var agent *core.Report
			var ext *tester.Report
			tc.stream.validated(tc.fixture.on(target.NewReference()), func(rep *core.Report) Outcome {
				agent = rep
				return Outcome{}
			})
			tc.stream.transmitted(tc.fixture.on(target.NewReference()), func(rep *tester.Report) Outcome {
				ext = rep
				return Outcome{}
			})
			if agent == nil || ext == nil {
				t.Fatalf("a tool returned an error instead of a report: agent %v, tester %v", agent, ext)
			}
			if n := uint64(tc.stream.count); agent.Injected != n || ext.Sent != n {
				t.Errorf("injected %d, sent %d, want both %d", agent.Injected, ext.Sent, n)
			}
			if agent.Pass != tc.pass || ext.Pass != tc.pass {
				t.Errorf("verdicts: agent pass=%v, tester pass=%v, want both %v", agent.Pass, ext.Pass, tc.pass)
			}
		})
	}
}

// TestSplitRouterAgreesOnMixedProbes compares router's two
// specifications on 500 probes that, unlike the Figure-2 comparison
// cell's, leave the happy path: every 7th is addressed off the routed
// 10/8 (172.16/16) and every 13th carries IPv4 version 6. Both must give
// the same outputs on every probe, drops included.
func TestSplitRouterAgreesOnMixedProbes(t *testing.T) {
	mono, split := router.on(target.NewReference()), splitRouter.on(target.NewReference())
	dropped := 0
	for i := 0; i < 500; i++ {
		dst := packet.IPv4Addr{10, byte(i / 256), byte(i % 256), 9}
		if i%7 == 6 {
			dst = packet.IPv4Addr{172, 16, 0, byte(i)}
		}
		frame := packet.BuildUDPv4(macA, gw, ipA, dst, uint16(i), 53, nil)
		if i%13 == 12 {
			frame[14] = 0x65
		}
		ra := mono.InjectInternal(frame, 0, mono.Now(), false)
		rb := split.InjectInternal(frame, 0, split.Now(), false)
		if !target.SameOutputs(ra, rb) {
			t.Errorf("probe %d diverges: router %v, router-split %v", i, ra.Outputs, rb.Outputs)
		}
		if ra.Dropped() {
			dropped++
		}
	}
	// 71 off-subnet, 38 malformed, 5 both.
	if dropped != 104 {
		t.Errorf("%d of 500 probes dropped, want 104", dropped)
	}
}

func TestCellString(t *testing.T) {
	if Full.String() != "Full" || Partial.String() != "Partial" || None.String() != "None" {
		t.Fatal("cell rendering broken")
	}
}

func BenchmarkFigure2Suite(b *testing.B) {
	scenarios := All()
	for i := 0; i < b.N; i++ {
		BuildMatrix(scenarios, 1)
	}
}
