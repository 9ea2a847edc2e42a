package main

// -compare: the bounds of BENCHMARK.json applied to two result files.

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
	"sort"
)

// benchmarkSpec is the part of BENCHMARK.json -compare needs.
type benchmarkSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// sideStats is one side's runs of one (workload, metric) pair.
type sideStats struct {
	median, spread float64 // spread: interquartile range as a share of the median
	values         []float64
}

func statsOf(values []float64) sideStats {
	s := sideStats{values: values, median: median(values)}
	if len(values) >= 4 && s.median != 0 {
		sorted := append([]float64(nil), values...)
		sort.Float64s(sorted)
		q := func(p float64) float64 { // as statistics.quantiles(n=4), exclusive method
			pos := p * float64(len(sorted)+1)
			lo := int(pos)
			if lo < 1 {
				return sorted[0]
			}
			if lo >= len(sorted) {
				return sorted[len(sorted)-1]
			}
			return sorted[lo-1] + (pos-float64(lo))*(sorted[lo]-sorted[lo-1])
		}
		s.spread = (q(0.75) - q(0.25)) / s.median
	}
	return s
}

// compareFiles prints one row per (end-to-end metric, workload) pair —
// base, new, ratio against base, verdict — then exact-count and digest
// equality, and returns the exit code: 1 on any "worse", any failed op,
// any moved count or digest.
func compareFiles(basePath, newPath string, w io.Writer) int {
	var spec benchmarkSpec
	specBytes, err := os.ReadFile("../BENCHMARK.json")
	if err == nil {
		err = json.Unmarshal(specBytes, &spec)
	}
	if err != nil {
		fmt.Fprintln(w, "benchmark: reading ../BENCHMARK.json:", err)
		return 2
	}
	var files [2]resultFile
	for i, path := range []string{basePath, newPath} {
		b, err := os.ReadFile(path)
		if err == nil {
			err = json.Unmarshal(b, &files[i])
		}
		if err != nil {
			fmt.Fprintf(w, "benchmark: %s: %v\n", path, err)
			return 2
		}
	}
	// values[side][workload][metric] over the untraced runs; counts and
	// digests over all of them.
	type key struct{ workload, metric string }
	var values [2]map[key][]float64
	var digests [2]map[string]map[string]bool
	failed := false
	for side := range files {
		values[side] = map[key][]float64{}
		digests[side] = map[string]map[string]bool{}
		for _, r := range files[side].Runs {
			if r.Failed > 0 {
				fmt.Fprintf(w, "%-10s seed %d: fail_share %g (%d of %d ops)\n", r.Workload, r.Seed, r.FailShare, r.Failed, r.Attempted)
				failed = true
			}
			if digests[side][r.Workload] == nil {
				digests[side][r.Workload] = map[string]bool{}
			}
			digests[side][r.Workload][fmt.Sprint(r.Seed, " ", r.Digest)] = true
			for name, m := range r.Metrics {
				k := key{r.Workload, name}
				values[side][k] = append(values[side][k], m.Value)
			}
		}
	}
	worse := failed
	fmt.Fprintf(w, "%-10s %-14s %14s %14s %8s %8s  %s\n", "workload", "metric", "base", "new", "ratio", "bound", "verdict")
	for _, def := range workloadDefs {
		for _, m := range spec.EndToEnd {
			k := key{def.name, m.Name}
			if len(values[0][k]) == 0 || len(values[1][k]) == 0 {
				continue
			}
			base, cur := statsOf(values[0][k]), statsOf(values[1][k])
			ratio := cur.median / base.median
			loss := ratio - 1 // how much worse, as a share of base
			if m.Better == "higher" {
				loss = 1 - ratio
			}
			verdict := "ok"
			switch {
			case loss > m.Bound && separated(base, cur, m.Better):
				verdict = "worse"
				worse = true
			case base.spread > m.Bound || cur.spread > m.Bound:
				verdict = "unresolved"
			case loss > m.Bound:
				verdict = "worse"
				worse = true
			}
			fmt.Fprintf(w, "%-10s %-14s %14.6g %14.6g %8.4f %8.2f  %s (n=%d/%d, spread %.3f/%.3f)\n",
				def.name, m.Name, base.median, cur.median, ratio, m.Bound, verdict,
				len(base.values), len(cur.values), base.spread, cur.spread)
		}
	}
	for _, def := range workloadDefs {
		// Per-layer metrics in "count" say what the program did, not how
		// long it took: at one seed they move only when semantics or
		// search order change.
		for name, unit := range perLayerUnits {
			k := key{def.name, name}
			if unit != "count" || len(values[0][k]) == 0 || len(values[1][k]) == 0 {
				continue
			}
			if a, b := median(values[0][k]), median(values[1][k]); a != b {
				fmt.Fprintf(w, "%-10s %-28s count moved: %g -> %g\n", def.name, name, a, b)
				worse = true
			}
		}
		for d := range digests[1][def.name] {
			if len(digests[0][def.name]) > 0 && !digests[0][def.name][d] {
				fmt.Fprintf(w, "%-10s result_digest differs from base at seed/digest %s\n", def.name, d)
				worse = true
			}
		}
	}
	if worse {
		return 1
	}
	return 0
}

// separated reports whether every run of the new side reads worse than
// every run of the base side, which settles a wide spread.
func separated(base, cur sideStats, better string) bool {
	if better == "higher" {
		return slices.Max(cur.values) < slices.Min(base.values)
	}
	return slices.Min(cur.values) > slices.Max(base.values)
}
