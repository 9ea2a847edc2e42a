// Covgate computes the global statement coverage of a merged Go cover
// profile (go test -coverprofile across packages) and fails when it
// drops below a pinned threshold — the CI check that keeps new code
// (fourth backends included) from landing untested.
//
//	go test -coverprofile=cover.out ./...
//	covgate -profile cover.out -min 80
//
// The percentage is statement-weighted across every profiled package,
// matching what `go tool cover -func` reports as "total". -per-package
// additionally prints each package's own percentage, worst first, so a
// failing gate names where the untested code lives.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"sort"
	"strconv"
	"strings"
)

// block is one profile line's statement count and execution count.
type block struct {
	stmts, count int
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main with its inputs and outputs as parameters, so the tests
// can drive it: it returns the exit status. Everything covgate prints is
// a diagnostic, so stdout stays empty.
func run(args []string, _, stderr io.Writer) int {
	logger := log.New(stderr, "covgate: ", 0)
	fs := flag.NewFlagSet("covgate", flag.ContinueOnError)
	fs.SetOutput(stderr)
	profile := fs.String("profile", "", "merged cover profile (required)")
	minPct := fs.Float64("min", 0, "fail when total statement coverage is below this percent")
	perPackage := fs.Bool("per-package", true, "print per-package coverage, worst first")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *profile == "" {
		fs.Usage()
		return 2
	}
	blocks, err := parseProfile(*profile)
	if err != nil {
		logger.Print(err)
		return 1
	}
	if len(blocks) == 0 {
		logger.Print("profile has no coverage blocks")
		return 1
	}

	perPkg := map[string]*struct{ total, covered int }{}
	var total, covered int
	for file, bs := range blocks {
		pkg := file
		if i := strings.LastIndex(file, "/"); i >= 0 {
			pkg = file[:i]
		}
		p := perPkg[pkg]
		if p == nil {
			p = &struct{ total, covered int }{}
			perPkg[pkg] = p
		}
		for _, b := range bs {
			total += b.stmts
			p.total += b.stmts
			if b.count > 0 {
				covered += b.stmts
				p.covered += b.stmts
			}
		}
	}
	if *perPackage {
		names := make([]string, 0, len(perPkg))
		for pkg := range perPkg {
			names = append(names, pkg)
		}
		sort.Slice(names, func(i, j int) bool {
			pi, pj := perPkg[names[i]], perPkg[names[j]]
			ri := float64(pi.covered) / float64(pi.total)
			rj := float64(pj.covered) / float64(pj.total)
			if ri != rj {
				return ri < rj
			}
			return names[i] < names[j]
		})
		for _, pkg := range names {
			p := perPkg[pkg]
			logger.Printf("%6.1f%%  %s (%d/%d stmts)",
				float64(p.covered)/float64(p.total)*100, pkg, p.covered, p.total)
		}
	}
	pct := float64(covered) / float64(total) * 100
	logger.Printf("total: %.1f%% of statements (%d/%d), threshold %.1f%%", pct, covered, total, *minPct)
	if pct < *minPct {
		logger.Printf("coverage %.1f%% is below the %.1f%% gate", pct, *minPct)
		return 1
	}
	return 0
}

// parseProfile reads a cover profile: a "mode:" header followed by
// "file:startLine.startCol,endLine.endCol numStmts count" lines. A
// block range repeated across merged profiles (e.g. -coverpkg overlap)
// is counted once, keeping the highest execution count, so statements
// are never double-weighted.
func parseProfile(path string) (map[string][]block, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	byRange := map[string]map[string]block{} // file -> range -> block
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "mode:") {
			continue
		}
		colon := strings.LastIndex(line, ":")
		if colon < 0 {
			return nil, fmt.Errorf("%s:%d: no file separator", path, lineNo)
		}
		fields := strings.Fields(line[colon+1:])
		if len(fields) != 3 {
			return nil, fmt.Errorf("%s:%d: want 'range stmts count', got %q", path, lineNo, line)
		}
		stmts, err := strconv.Atoi(fields[1])
		if err != nil {
			return nil, fmt.Errorf("%s:%d: bad statement count: %v", path, lineNo, err)
		}
		count, err := strconv.Atoi(fields[2])
		if err != nil {
			return nil, fmt.Errorf("%s:%d: bad execution count: %v", path, lineNo, err)
		}
		file := line[:colon]
		ranges := byRange[file]
		if ranges == nil {
			ranges = map[string]block{}
			byRange[file] = ranges
		}
		if prev, ok := ranges[fields[0]]; !ok || count > prev.count {
			ranges[fields[0]] = block{stmts: stmts, count: count}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	out := make(map[string][]block, len(byRange))
	for file, ranges := range byRange {
		for _, b := range ranges {
			out[file] = append(out[file], b)
		}
	}
	return out, nil
}
