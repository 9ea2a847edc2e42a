// Docgate keeps the architecture notes honest: it fails CI when
// documentation rots. Two checks, over every maintained markdown file:
//
//   - Intra-repo links resolve. Every non-external markdown link
//     ([text](target), including images) must point at a file or
//     directory that exists, and a fragment (file.md#section, or a
//     bare #section within the same file) must match a heading in the
//     target file under GitHub's anchor rules. External schemes
//     (http, https, mailto) are out of scope — CI should not depend
//     on the internet.
//
//   - Embedded Go examples are real Go. Every ```go fenced block must
//     survive go/format.Source — the same parser gofmt and go vet
//     front with — and come back unchanged, so snippets are both
//     syntactically valid (as a file, declaration list, or statement
//     list) and gofmt-clean. A block that is deliberately elided
//     pseudo-code should use a plain ``` fence or a non-go info
//     string; marking it ```go asserts it parses.
//
//     docgate [-root dir] [file.md ...]
//
// With no file arguments it checks the maintained documentation set:
// ROADMAP.md, every *.md under docs/, and benchmark/README.md (the
// metric definitions every performance claim cites). PAPERS.md and
// SNIPPETS.md are retrieved reference material and are not gated. Exit
// status 1 on any finding, with one line per finding; 2 when a file
// cannot be read.
package main

import (
	"flag"
	"fmt"
	"go/format"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strings"
)

// linkRe matches inline markdown links and images: [text](target) /
// ![alt](target). Targets with spaces or titles ("...") are not used in
// this repository's docs, so the simple form is enough — and docgate
// would flag the unresolvable remainder anyway.
var linkRe = regexp.MustCompile(`!?\[[^\]]*\]\(([^)\s]+)\)`)

// headingRe matches ATX headings; setext headings are not used here.
var headingRe = regexp.MustCompile(`^#{1,6}\s+(.*?)\s*#*\s*$`)

var fenceRe = regexp.MustCompile("^(```+|~~~+)\\s*([A-Za-z0-9_+-]*)")

// slug reduces a heading to its GitHub anchor: lowercase, spaces to
// hyphens, everything but letters, digits, hyphens and underscores
// dropped. (Duplicate-heading -1 suffixes are not modelled; none of
// the docs repeat a heading.)
func slug(heading string) string {
	// Inline code and emphasis markers vanish in anchors.
	heading = strings.NewReplacer("`", "", "*", "", "_", "_").Replace(heading)
	var b strings.Builder
	for _, r := range strings.ToLower(heading) {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9', r == '-', r == '_':
			b.WriteRune(r)
		case r == ' ':
			b.WriteByte('-')
		}
	}
	return b.String()
}

// doc is one parsed markdown file: its anchors, links, and go fences.
type doc struct {
	path    string          // repo-relative, slash-separated
	anchors map[string]bool // GitHub anchor slugs of its headings
	links   []link
	fences  []fence
}

type link struct {
	line   int
	target string
}

type fence struct {
	line int // line of the opening ```go
	src  string
}

func parseDoc(path string, data []byte) *doc {
	d := &doc{path: path, anchors: map[string]bool{}}
	lines := strings.Split(string(data), "\n")
	inFence, goFence := "", false
	var goStart int
	var goLines []string
	for i, ln := range lines {
		if inFence != "" {
			if closesFence(ln, inFence) {
				if goFence {
					d.fences = append(d.fences, fence{line: goStart, src: strings.Join(goLines, "\n")})
				}
				inFence, goFence, goLines = "", false, nil
			} else if goFence {
				goLines = append(goLines, ln)
			}
			continue
		}
		if m := fenceRe.FindStringSubmatch(ln); m != nil {
			inFence = m[1]
			goFence = m[2] == "go"
			goStart = i + 1
			continue
		}
		if m := headingRe.FindStringSubmatch(ln); m != nil {
			d.anchors[slug(m[1])] = true
		}
		for _, m := range linkRe.FindAllStringSubmatch(ln, -1) {
			d.links = append(d.links, link{line: i + 1, target: m[1]})
		}
	}
	return d
}

// closesFence applies CommonMark's rule: a closing fence is a run of the
// opener's character at least as long as the opener, with nothing after
// it but spaces. A shorter run, or one with an info string, is content —
// which is how a four-backtick fence shows a three-backtick block.
func closesFence(ln, opener string) bool {
	ln = strings.TrimSpace(ln)
	return len(ln) >= len(opener) && strings.Trim(ln, opener[:1]) == ""
}

func external(target string) bool {
	for _, scheme := range []string{"http://", "https://", "mailto:"} {
		if strings.HasPrefix(target, scheme) {
			return true
		}
	}
	return false
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main with its inputs and outputs as parameters, so the tests
// can drive it: it returns the exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("docgate", flag.ContinueOnError)
	fs.SetOutput(stderr)
	root := fs.String("root", ".", "repository root for resolving links and finding default files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	files := fs.Args()
	if len(files) == 0 {
		// The default set is the *maintained* documentation: the
		// roadmap, the architecture notes, and the benchmark's metric
		// definitions. PAPERS.md and SNIPPETS.md are retrieved reference
		// material whose links point into repositories this one does not
		// contain.
		m, err := filepath.Glob(filepath.Join(*root, "docs", "*.md"))
		if err != nil {
			fmt.Fprintln(stderr, "docgate:", err)
			return 2
		}
		files = append(files, "ROADMAP.md")
		for _, f := range m {
			files = append(files, "docs/"+filepath.Base(f))
		}
		files = append(files, "benchmark/README.md")
	}

	docs := map[string]*doc{}
	for _, f := range files {
		data, err := os.ReadFile(filepath.Join(*root, filepath.FromSlash(f)))
		if err != nil {
			fmt.Fprintln(stderr, "docgate:", err)
			return 2
		}
		docs[f] = parseDoc(f, data)
	}

	findings := 0
	fail := func(format string, args ...any) {
		fmt.Fprintf(stdout, "docgate: "+format+"\n", args...)
		findings++
	}
	// anchorsOf returns the anchor set of a repo-relative markdown
	// path, parsing files outside the checked set on demand.
	anchorsOf := func(path string) (map[string]bool, bool) {
		if d, ok := docs[path]; ok {
			return d.anchors, true
		}
		data, err := os.ReadFile(filepath.Join(*root, filepath.FromSlash(path)))
		if err != nil {
			return nil, false
		}
		d := parseDoc(path, data)
		docs[path] = d
		return d.anchors, true
	}

	for _, f := range files {
		d := docs[f]
		for _, l := range d.links {
			if external(l.target) {
				continue
			}
			path, frag, hasFrag := strings.Cut(l.target, "#")
			dest := f // bare #fragment: same file
			if path != "" {
				dest = filepath.ToSlash(filepath.Join(filepath.Dir(f), path))
				if st, err := os.Stat(filepath.Join(*root, filepath.FromSlash(dest))); err != nil {
					fail("%s:%d: dead link %q (%s does not exist)", f, l.line, l.target, dest)
					continue
				} else if st.IsDir() {
					continue // directory links carry no anchors
				}
			}
			if !hasFrag || frag == "" {
				continue
			}
			if !strings.HasSuffix(dest, ".md") {
				continue // anchors into non-markdown files are not modelled
			}
			anchors, ok := anchorsOf(dest)
			if !ok {
				fail("%s:%d: dead link %q (cannot read %s)", f, l.line, l.target, dest)
				continue
			}
			if !anchors[frag] {
				fail("%s:%d: dead anchor %q (no heading in %s slugs to %q)", f, l.line, l.target, dest, frag)
			}
		}
		for _, fc := range d.fences {
			formatted, err := format.Source([]byte(fc.src))
			if err != nil {
				fail("%s:%d: go snippet does not parse: %v", f, fc.line, err)
				continue
			}
			if string(formatted) != fc.src && string(formatted) != fc.src+"\n" &&
				strings.TrimRight(string(formatted), "\n") != strings.TrimRight(fc.src, "\n") {
				fail("%s:%d: go snippet is not gofmt-clean", f, fc.line)
			}
		}
	}
	if findings > 0 {
		fmt.Fprintf(stdout, "docgate: %d finding(s)\n", findings)
		return 1
	}
	fmt.Fprintf(stdout, "docgate: %d file(s) clean\n", len(files))
	return 0
}
