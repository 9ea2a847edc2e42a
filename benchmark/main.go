// Command benchmark is the validator's one benchmark: seven closed-loop
// workloads, the same end-to-end metrics on each, and a per-layer frame
// ledger timed from outside the program. See README.md.
//
//	go run -C benchmark netdebug/benchmark -workload fwd64 -seed 1 -seconds 10 -trace 0
//	go run -C benchmark netdebug/benchmark -compare out/base.json out/new.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// clients is the number of driver goroutines: one, closed loop. It runs
// on one P: the ledger is a single core's, GC work is charged to the
// core that caused it instead of hiding on a second one, and rounds
// repeat far better than with the runtime spread over the sandbox's two
// noisy vCPUs (measured: the spread of the median round over ten runs
// fell from 6-23% to 3-4%).
const clients = 1

func main() {
	var (
		workloadName = flag.String("workload", "all", "workload to run, or all")
		seed         = flag.Int64("seed", 1, "input seed")
		seconds      = flag.Float64("seconds", 10, "timed wall time per workload and pass")
		trace        = flag.Int("trace", 0, "1 runs the traced pass: per-layer metrics and the span file")
		out          = flag.String("out", "out/result.json", "result file; runs are appended to it")
		compare      = flag.Bool("compare", false, "compare two result files: -compare base.json new.json")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "benchmark: -compare takes two result files")
			os.Exit(2)
		}
		os.Exit(compareFiles(flag.Arg(0), flag.Arg(1), os.Stdout))
	}
	if err := run(os.Stdout, *workloadName, *seed, *seconds, *trace == 1, *out, fullSizes); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// header describes the machine and the build a result file was made on.
type header struct {
	Commit     string  `json:"commit"`
	GoVersion  string  `json:"go_version"`
	CPU        string  `json:"cpu"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Clients    int     `json:"clients"`
	Seconds    float64 `json:"seconds_per_workload"`
}

// resultFile is what -out holds: the header of the latest run and every
// run appended so far, so a run-set for -compare is one file.
type resultFile struct {
	Header header   `json:"header"`
	Runs   []result `json:"runs"`
}

func readHeader(seconds float64) header {
	h := header{
		Commit: "unknown", GoVersion: runtime.Version(), CPU: "unknown",
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Clients: clients, Seconds: seconds,
	}
	if b, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		h.Commit = strings.TrimSpace(string(b))
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if name, ok := strings.CutPrefix(line, "model name"); ok {
				h.CPU = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
				break
			}
		}
	}
	return h
}

// run measures one workload (or all seven), prints the metrics by name
// and appends the runs to the result file. With a single workload the
// last line printed is the result as one JSON object.
func run(stdout io.Writer, name string, seed int64, seconds float64, trace bool, out string, sz sizes) error {
	if clients > runtime.NumCPU() {
		return fmt.Errorf("%d driver goroutines on %d CPUs", clients, runtime.NumCPU())
	}
	runtime.GOMAXPROCS(clients)
	defs := workloadDefs
	if name != "all" {
		def := findWorkload(name)
		if def == nil {
			return fmt.Errorf("no workload %q", name)
		}
		defs = []workloadDef{*def}
	}
	file := resultFile{}
	if b, err := os.ReadFile(out); err == nil {
		if err := json.Unmarshal(b, &file); err != nil {
			return fmt.Errorf("%s: %w", out, err)
		}
	}
	file.Header = readHeader(seconds)
	fmt.Fprintf(stdout, "commit %s  seed %d  %s  %s  nproc %d  GOMAXPROCS %d  clients %d  %gs per workload\n",
		file.Header.Commit, seed, file.Header.GoVersion, file.Header.CPU, file.Header.NProc, file.Header.GOMAXPROCS, clients, seconds)
	var last *result
	for i := range defs {
		var res *result
		var err error
		if trace {
			spans := filepath.Join(filepath.Dir(out), "trace-"+defs[i].name+".json")
			res, err = runTraced(&defs[i], seed, sz, seconds, spans)
		} else {
			res, err = runEndToEnd(&defs[i], seed, sz, seconds)
		}
		if err != nil {
			return err
		}
		printResult(stdout, res)
		file.Runs = append(file.Runs, *res)
		last = res
	}
	b, err := json.MarshalIndent(file, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(out), 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(out, b, 0o644); err != nil {
		return err
	}
	if len(defs) == 1 {
		line, err := json.Marshal(map[string]any{
			"correct": last.Failed == 0, "attempted": last.Attempted, "failed": last.Failed, "metrics": last.Metrics,
		})
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, string(line))
	}
	return nil
}

// printResult lists one run's metrics by name with units and sample
// counts.
func printResult(w io.Writer, r *result) {
	pass := fmt.Sprintf("end-to-end  round_ms_p50 %.4g", r.MedianMs)
	if r.Trace {
		pass = fmt.Sprintf("per-layer  round_ms_p90 is p%.1f", r.TailPct)
	}
	fmt.Fprintf(w, "%s  %s  %.1fs  %d rounds  digest %s  fail_share %g (%d of %d ops)\n",
		r.Workload, pass, r.Seconds, r.Rounds, r.Digest, r.FailShare, r.Failed, r.Attempted)
	printLedger(w, r.Metrics)
}
