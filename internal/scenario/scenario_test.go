package scenario

import (
	"os"
	"strings"
	"testing"
)

// TestFigure2Matrix regenerates the paper's Figure 2 and asserts its
// shape: NetDebug is Full on every use case; software formal verification
// covers only (part of) functional testing and comparison; the external
// tester is partial where it lacks internal visibility and blind to
// resources and status.
func TestFigure2Matrix(t *testing.T) {
	m := BuildMatrix(All())

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

	// Byte identity: the rendered matrix and every detail line, as
	// cmd/figures prints them, against the checked-in capture (its header
	// names the command that regenerates it).
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
			t.Errorf("figure2.golden line %d:\n  got  %q\n  want %q", header+i+1, g, w)
		}
	}
}

func TestMatrixRendering(t *testing.T) {
	m := BuildMatrix(All())
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
	for _, sc := range scenarios {
		perUC[sc.UseCase]++
		if len(sc.Run) == 0 {
			t.Errorf("scenario %q has no tool runners", sc.Name)
		}
		if _, ok := sc.Run[ToolNetDebug]; !ok {
			t.Errorf("scenario %q lacks a NetDebug runner", sc.Name)
		}
	}
	for _, uc := range UseCases {
		if perUC[uc] == 0 {
			t.Errorf("use case %q has no scenarios", uc)
		}
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
		BuildMatrix(scenarios)
	}
}
