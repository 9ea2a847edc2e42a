// Figures prints the paper's Figure 2, the use-case capability matrix:
//
//	figures            the matrix
//	figures -details   the matrix and each cell's sorted detail line
//
// The -parallel flag runs the cells across scenario.BuildMatrix's worker
// pool; 0 (the default) runs them on one worker, and a negative value
// selects one worker per CPU. The output is the same at any -parallel:
// internal/scenario/testdata/figure2.golden holds it byte for byte.
//
// The evaluation's other findings are tests: the §4 case study is
// TestPaperHeadline, the performance sweep TestCheckerThroughputMeter
// (examples/perftest prints it), resource reports internal/target's
// resources.golden (p4c -resources prints one), and every timing is the
// benchmark module's.
package main

import (
	"cmp"
	"flag"
	"fmt"

	"netdebug/internal/scenario"
)

func main() {
	details := flag.Bool("details", false, "print each cell's detail line under the matrix")
	parallel := flag.Int("parallel", 0, "matrix workers: 0 one, <0 one per CPU")
	flag.Parse()
	m := scenario.BuildMatrix(scenario.All(), cmp.Or(*parallel, 1))
	fmt.Println(m.Render())
	if *details {
		for _, d := range m.SortedDetails() {
			fmt.Println("  " + d)
		}
	}
}
