package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// tinySizes runs every code path of every workload in a few seconds.
var tinySizes = sizes{
	fwdFrames: 256, aclEntries: 1000, aclFrames: 256, valFrames: 256,
	churnEntries: 1000, churnFrames: 256, fuzzBudget: 512, perPair: 2,
}

type specMetric struct {
	Name, Unit, Better string
	Bound              *float64
}

type spec struct {
	Command    []string
	Paths      []string
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []specMetric `json:"end_to_end"`
	PerLayer   []specMetric `json:"per_layer"`
}

func readSpec(t *testing.T) spec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestSpecShape holds BENCHMARK.json to the limits the driver enforces
// and to the workloads and metrics this package actually has.
func TestSpecShape(t *testing.T) {
	s := readSpec(t)
	nameRe := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRe := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	if n := len(s.Workloads); n < 2 || n > 8 || n != len(workloadDefs) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the package", n, len(workloadDefs))
	}
	seen := map[string]bool{}
	for i, w := range s.Workloads {
		if w.Name != workloadDefs[i].name || w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %d: %q %q does not match the package's %q", i, w.Name, w.Why, workloadDefs[i].name)
		}
	}
	if len(s.EndToEnd) < 1 || len(s.EndToEnd) > 16 || len(s.PerLayer) < 1 || len(s.PerLayer) > 128 {
		t.Fatalf("%d end-to-end and %d per-layer metrics", len(s.EndToEnd), len(s.PerLayer))
	}
	hasSetup := false
	for _, m := range append(append([]specMetric{}, s.EndToEnd...), s.PerLayer...) {
		if !nameRe.MatchString(m.Name) || !unitRe.MatchString(m.Unit) || (m.Better != "higher" && m.Better != "lower") || seen[m.Name] {
			t.Errorf("bad or repeated metric %+v", m)
		}
		seen[m.Name] = true
	}
	for _, m := range s.EndToEnd {
		if m.Bound == nil || *m.Bound <= 0 || *m.Bound > 0.25 {
			t.Errorf("%s: bound missing or outside (0, 0.25]", m.Name)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for _, m := range s.PerLayer {
		if m.Bound != nil {
			t.Errorf("%s: per-layer metrics carry no bound", m.Name)
		}
		if perLayerUnits[m.Name] != m.Unit {
			t.Errorf("%s: unit %q in BENCHMARK.json, %q in the package", m.Name, m.Unit, perLayerUnits[m.Name])
		}
	}
	if len(s.PerLayer) != len(perLayerUnits) {
		t.Errorf("%d per-layer metrics in BENCHMARK.json, %d in the package", len(s.PerLayer), len(perLayerUnits))
	}
}

// lastLine parses the result object a single-workload run prints last.
func lastLine(t *testing.T, out []byte) (correct bool, attempted, failed int, metrics map[string]metric) {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var obj struct {
		Correct   *bool
		Attempted *int
		Failed    *int
		Metrics   map[string]metric
	}
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&obj); err != nil || obj.Correct == nil || obj.Attempted == nil || obj.Failed == nil {
		t.Fatalf("last line is not the result object: %v\n%s", err, lines[len(lines)-1])
	}
	return *obj.Correct, *obj.Attempted, *obj.Failed, obj.Metrics
}

// TestSmoke runs every workload through both passes at tiny sizes and
// checks what the driver will: the metric sets, the known answers, and
// the shape of the span tree.
func TestSmoke(t *testing.T) {
	s := readSpec(t)
	dir := t.TempDir()
	out := filepath.Join(dir, "result.json")
	digests := map[string]string{}
	for _, def := range workloadDefs {
		for _, trace := range []bool{false, true} {
			var buf bytes.Buffer
			if err := run(&buf, def.name, 2, 0, trace, out, tinySizes); err != nil {
				t.Fatalf("%s trace=%v: %v", def.name, trace, err)
			}
			correct, attempted, failed, metrics := lastLine(t, buf.Bytes())
			if !correct || failed != 0 || attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v, %d of %d ops failed", def.name, trace, correct, failed, attempted)
			}
			want := s.EndToEnd
			if trace {
				want = s.PerLayer
			}
			if len(metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics printed, BENCHMARK.json lists %d", def.name, trace, len(metrics), len(want))
			}
			for _, m := range want {
				got, ok := metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s: got %+v, want unit %s", def.name, trace, m.Name, got, m.Unit)
				}
				if !trace && got.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s is %g, must never be 0", def.name, m.Name, got.Value)
				}
			}
		}
		checkSpans(t, filepath.Join(dir, "trace-"+def.name+".json"))
	}

	// The result file holds all fourteen runs under a header, and the
	// two passes of a workload agree on its digest.
	var file resultFile
	b, err := os.ReadFile(out)
	if err == nil {
		err = json.Unmarshal(b, &file)
	}
	if err != nil || len(file.Runs) != 2*len(workloadDefs) || file.Header.GoVersion == "" || file.Header.NProc < 1 {
		t.Fatalf("result file: %v, %d runs, header %+v", err, len(file.Runs), file.Header)
	}
	for _, r := range file.Runs {
		if r.Digest == "" || (digests[r.Workload] != "" && digests[r.Workload] != r.Digest) {
			t.Errorf("%s: digest %q after %q", r.Workload, r.Digest, digests[r.Workload])
		}
		digests[r.Workload] = r.Digest
	}

	// A file compared with itself is clean; against a copy whose rounds
	// got slower and whose digest moved it is not.
	var report bytes.Buffer
	if code := compareFiles(out, out, &report); code != 0 {
		t.Errorf("comparing a file with itself: exit %d\n%s", code, report.String())
	}
	if rows := strings.Count(report.String(), " ok "); rows != len(workloadDefs)*len(s.EndToEnd) {
		t.Errorf("%d ok rows, want one per workload and end-to-end metric\n%s", rows, report.String())
	}
	for i := range file.Runs {
		if m, ok := file.Runs[i].Metrics["round_ms_p05"]; ok && file.Runs[i].Workload == "fwd64" {
			m.Value *= 2
			file.Runs[i].Metrics["round_ms_p05"] = m
		}
		if file.Runs[i].Workload == "verify" {
			file.Runs[i].Digest = "moved"
		}
	}
	slower := filepath.Join(dir, "slower.json")
	b, _ = json.Marshal(file)
	if err := os.WriteFile(slower, b, 0o644); err != nil {
		t.Fatal(err)
	}
	report.Reset()
	if code := compareFiles(out, slower, &report); code != 1 {
		t.Errorf("comparing with a slower copy: exit %d, want 1", code)
	}
	for _, want := range []string{"worse", "result_digest differs"} {
		if !strings.Contains(report.String(), want) {
			t.Errorf("report lacks %q:\n%s", want, report.String())
		}
	}
}

// checkSpans holds a span file to the tree shape: every span closed,
// inside its parent, in its parent's round, and no parent with less
// time than its children cover.
func checkSpans(t *testing.T, path string) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var spans []span
	if err := json.Unmarshal(b, &spans); err != nil {
		t.Fatal(err)
	}
	if len(spans) == 0 {
		t.Fatalf("%s: no spans", path)
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		if s.ID != i || s.End < s.Start || s.Name == "" {
			t.Fatalf("%s: span %d malformed: %+v", path, i, s)
		}
		self[i] += s.End - s.Start
		if s.Parent < 0 {
			continue
		}
		p := spans[s.Parent]
		if s.Parent >= i || s.Start < p.Start || s.End > p.End || s.Round != p.Round {
			t.Errorf("%s: span %d (%s) not inside its parent %d (%s)", path, i, s.Name, s.Parent, p.Name)
		}
		self[s.Parent] -= s.End - s.Start
	}
	for i, d := range self {
		if d < 0 {
			t.Errorf("%s: span %d (%s) has self time %d ns", path, i, spans[i].Name, d)
		}
	}
}

// TestRefusesUnknownWorkload: a name the package does not have is an
// error, not an empty run.
func TestRefusesUnknownWorkload(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, "nosuch", 1, 0, false, filepath.Join(t.TempDir(), "r.json"), tinySizes); err == nil {
		t.Fatal("no error for an unknown workload")
	}
}
