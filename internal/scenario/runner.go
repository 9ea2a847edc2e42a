package scenario

import (
	"runtime"
	"sync"
)

// CellOutcome is the result of one (scenario, tool) cell of the matrix.
type CellOutcome struct {
	Scenario string
	UseCase  UseCase
	Tool     string
	Outcome  Outcome
}

// DefaultWorkers is the worker count used when a parallel runner is
// given a non-positive worker count: one worker per available CPU.
func DefaultWorkers() int { return runtime.GOMAXPROCS(0) }

// RunCells executes every (scenario, tool) cell across a pool of
// workers and returns the outcomes in deterministic scenario-major,
// tool-minor order, independent of scheduling.
//
// Each attempt builds its own devices and targets (the Engine and
// Device models are not concurrency-safe, so the suite shards by
// device, not by lock); cells share nothing and may run on any worker.
// workers <= 1 runs the suite sequentially on the calling goroutine.
func RunCells(scenarios []Scenario, workers int) []CellOutcome {
	n := len(scenarios) * len(Tools)
	out := make([]CellOutcome, n)
	run := func(idx int) {
		sc, tool := scenarios[idx/len(Tools)], idx%len(Tools)
		out[idx] = CellOutcome{sc.Name, sc.UseCase, Tools[tool], sc.attempts()[tool]()}
	}
	if workers <= 0 {
		workers = DefaultWorkers()
	}
	if workers <= 1 || n <= 1 {
		for i := 0; i < n; i++ {
			run(i)
		}
		return out
	}
	if workers > n {
		workers = n
	}
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for idx := range jobs {
				run(idx)
			}
		}()
	}
	for i := 0; i < n; i++ {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	return out
}
