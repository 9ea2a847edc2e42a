package scenario

import (
	"reflect"
	"testing"
)

// TestParallelMatrixMatchesSequential is the determinism contract of the
// worker-pool runner: the parallel suite must produce cell-for-cell and
// line-for-line the same matrix as the sequential one.
func TestParallelMatrixMatchesSequential(t *testing.T) {
	scenarios := All()
	seq := BuildMatrix(scenarios, 1)
	par := BuildMatrix(scenarios, 8)
	if !reflect.DeepEqual(seq.Cells, par.Cells) {
		t.Fatalf("cells diverge:\nseq: %v\npar: %v", seq.Cells, par.Cells)
	}
	if len(seq.Details) != len(par.Details) {
		t.Fatalf("detail counts: %d vs %d", len(seq.Details), len(par.Details))
	}
	for i := range seq.Details {
		if seq.Details[i] != par.Details[i] {
			t.Fatalf("detail %d diverges:\nseq: %s\npar: %s", i, seq.Details[i], par.Details[i])
		}
	}
}

func TestRunCellsOrdering(t *testing.T) {
	scenarios := All()
	cells := RunCells(scenarios, 4)
	if len(cells) != len(scenarios)*len(Tools) {
		t.Fatalf("cells = %d", len(cells))
	}
	for i, cell := range cells {
		wantScenario := scenarios[i/len(Tools)]
		wantTool := Tools[i%len(Tools)]
		if cell.Scenario != wantScenario.Name || cell.Tool != wantTool || cell.UseCase != wantScenario.UseCase {
			t.Fatalf("cell %d = %+v, want scenario %q tool %q", i, cell, wantScenario.Name, wantTool)
		}
	}
}

func TestRunCellsDefaultWorkers(t *testing.T) {
	// workers <= 0 must select the CPU-count default and still succeed.
	cells := RunCells(All()[:2], 0)
	for _, c := range cells {
		if c.Outcome.Detail == "" {
			t.Fatalf("cell %+v ran without detail", c)
		}
	}
}
