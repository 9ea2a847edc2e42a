package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRun drives docgate over crafted trees: each row is the files of a
// repository root, the file arguments (none = the default set), the exit
// status and the substrings its output must hold. A row that expects
// findings also names their count, so a spurious one fails it.
func TestRun(t *testing.T) {
	const f3, f4 = "```", "````"
	rows := []struct {
		name  string
		files map[string]string
		args  []string
		exit  int
		want  []string
	}{
		{
			name:  "dead link",
			files: map[string]string{"a.md": "see [b](b.md)\n"},
			args:  []string{"a.md"},
			exit:  1,
			want:  []string{`a.md:1: dead link "b.md" (b.md does not exist)`, "1 finding(s)"},
		},
		{
			name: "link resolves relative to the linking file",
			files: map[string]string{
				"docs/a.md": "[up](../b.md) [side](c.md) ![img](c.md)\n",
				"b.md":      "", "docs/c.md": "",
			},
			args: []string{"docs/a.md"},
			want: []string{"1 file(s) clean"},
		},
		{
			name: "dead #anchor in another file",
			files: map[string]string{
				"a.md": "# A\n\n[ok](b.md#the-gate-2) [bad](b.md#the-gate)\n",
				"b.md": "## The `gate` 2 ##\n",
			},
			args: []string{"a.md"},
			exit: 1,
			want: []string{`a.md:3: dead anchor "b.md#the-gate" (no heading in b.md slugs to "the-gate")`, "1 finding(s)"},
		},
		{
			name:  "bare #anchor in the same file",
			files: map[string]string{"a.md": "# One, two\n[ok](#one-two)\n[bad](#three)\n"},
			args:  []string{"a.md"},
			exit:  1,
			want:  []string{`a.md:3: dead anchor "#three"`, "1 finding(s)"},
		},
		{
			name: "directory, non-markdown fragment and external schemes pass",
			files: map[string]string{
				"a.md":        "[dir](docs) [dir](docs/#x) [src](docs/x.go#L3) [w](https://example.invalid/x) [m](mailto:a@b) [h](http://x.invalid)\n",
				"docs/x.go":   "",
				"docs/b.md":   "",
				"unlinked.md": "[dead](gone.md)\n",
			},
			args: []string{"a.md"},
			want: []string{"1 file(s) clean"},
		},
		{
			name:  "go block that does not parse",
			files: map[string]string{"a.md": "text\n" + f3 + "go\nfunc (\n" + f3 + "\n"},
			args:  []string{"a.md"},
			exit:  1,
			want:  []string{"a.md:2: go snippet does not parse", "1 finding(s)"},
		},
		{
			name:  "go block that is not gofmt-clean",
			files: map[string]string{"a.md": f3 + "go\nx:=1\n" + f3 + "\n"},
			args:  []string{"a.md"},
			exit:  1,
			want:  []string{"a.md:1: go snippet is not gofmt-clean", "1 finding(s)"},
		},
		{
			name: "clean go blocks: statements, declarations, tilde fence",
			files: map[string]string{"a.md": f3 + "go\nx := 1\n_ = x\n" + f3 + "\n" +
				"~~~go\nfunc f() int { return 1 }\n~~~\n"},
			args: []string{"a.md"},
			want: []string{"1 file(s) clean"},
		},
		{
			name: "plain and non-go fences are ignored, links and headings inside too",
			files: map[string]string{"a.md": f3 + "\nfunc ( [x](gone.md)\n# Not a heading\n" + f3 + "\n" +
				f3 + "sh\nx:=1\n" + f3 + "\n[bad](#not-a-heading)\n"},
			args: []string{"a.md"},
			exit: 1,
			want: []string{`a.md:8: dead anchor "#not-a-heading"`, "1 finding(s)"},
		},
		{
			// A four-backtick fence showing how a three-backtick block
			// opens: the inner line is content, the go block after the
			// fence is validated and the link after it is checked.
			name: "a fence closes only on a run as long as its opener",
			files: map[string]string{"a.md": f4 + "markdown\nOpen one [so](gone.md):\n" + f3 + "go\n" + f4 + "\n" +
				f3 + "go\nfunc (\n" + f3 + "\n[dead](gone.md)\n"},
			args: []string{"a.md"},
			exit: 1,
			want: []string{"a.md:5: go snippet does not parse", `a.md:8: dead link "gone.md"`, "2 finding(s)"},
		},
		{
			name: "a closer is longer than its opener, or trailed by spaces, never by text",
			files: map[string]string{"a.md": "~~~~\n~~~\n[in](gone.md)\n~~~~ x\n~~~~~  \n[out](gone.md)\n" +
				f3 + "go\nx := 1\n" + f3 + "go\n" + f4 + "\n"},
			args: []string{"a.md"},
			exit: 1,
			want: []string{`a.md:6: dead link "gone.md"`, "a.md:7: go snippet does not parse", "2 finding(s)"},
		},
		{
			name:  "unreadable file",
			files: map[string]string{"a.md": ""},
			args:  []string{"a.md", "absent.md"},
			exit:  2,
			want:  []string{"absent.md: no such file"},
		},
		{
			name: "default set: the roadmap, docs/*.md and the benchmark's README",
			files: map[string]string{
				"ROADMAP.md": "[d](docs/a.md)\n", "docs/a.md": "", "docs/b.md": "", "docs/c.txt": "",
				"PAPERS.md":           "[ungated](gone.md)\n",
				"benchmark/README.md": "[dead](gone.md)\n",
			},
			exit: 1,
			want: []string{`benchmark/README.md:1: dead link "gone.md" (benchmark/gone.md does not exist)`, "1 finding(s)"},
		},
		{
			name:  "default set without the benchmark's README",
			files: map[string]string{"ROADMAP.md": "", "docs/a.md": ""},
			exit:  2,
			want:  []string{"README.md: no such file"},
		},
		{
			name: "unknown flag",
			args: []string{"-strict"},
			exit: 2,
			want: []string{"flag provided but not defined"},
		},
	}
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			root := t.TempDir()
			for name, body := range r.files {
				path := filepath.Join(root, filepath.FromSlash(name))
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			var out bytes.Buffer
			if got := run(append([]string{"-root", root}, r.args...), &out, &out); got != r.exit {
				t.Errorf("exit %d, want %d", got, r.exit)
			}
			for _, w := range r.want {
				if !strings.Contains(out.String(), w) {
					t.Errorf("output lacks %q", w)
				}
			}
			if t.Failed() {
				t.Logf("output:\n%s", out.String())
			}
		})
	}
}
