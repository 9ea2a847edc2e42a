package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRun drives covgate over crafted profiles: each row is a profile,
// the arguments after -profile, the exit status and one substring of
// what it prints.
func TestRun(t *testing.T) {
	const header = "mode: set\n"
	rows := []struct {
		name    string
		profile string // written to cover.out and passed as -profile; "" = args only
		args    []string
		exit    int
		want    string
	}{
		{
			name:    "below the floor",
			profile: header + "p/a.go:1.1,2.2 3 1\np/a.go:3.1,4.2 1 0\n",
			args:    []string{"-min", "80"},
			exit:    1,
			want:    "coverage 75.0% is below the 80.0% gate",
		},
		{
			name:    "at the floor",
			profile: header + "p/a.go:1.1,2.2 3 1\np/a.go:3.1,4.2 1 0\n",
			args:    []string{"-min", "75"},
			exit:    0,
			want:    "total: 75.0% of statements (3/4)",
		},
		{
			name: "duplicate block range counted once, highest count kept",
			profile: header + "p/a.go:1.1,2.2 2 0\np/a.go:1.1,2.2 2 5\np/a.go:1.1,2.2 2 0\n" +
				"q/b.go:1.1,2.2 2 0\n",
			args: []string{"-min", "50"},
			exit: 0,
			want: "total: 50.0% of statements (2/4)",
		},
		{
			name:    "per-package lines come worst first",
			profile: header + "p/a.go:1.1,2.2 1 1\nq/b.go:1.1,2.2 1 0\n",
			exit:    0,
			want:    "  0.0%  q (0/1 stmts)\ncovgate:  100.0%  p (1/1 stmts)",
		},
		{
			name:    "malformed line names file:line",
			profile: header + "p/a.go:1.1,2.2 3 1\np/a.go:3.1,4.2 one 0\n",
			exit:    1,
			want:    "cover.out:3: bad statement count",
		},
		{
			name:    "line with too few fields names file:line",
			profile: header + "p/a.go:1.1,2.2 3\n",
			exit:    1,
			want:    "cover.out:2: want 'range stmts count'",
		},
		{
			name:    "only a mode header",
			profile: header,
			exit:    1,
			want:    "profile has no coverage blocks",
		},
		{
			name: "profile that does not exist",
			args: []string{"-profile", "testdata/absent.out"},
			exit: 1,
			want: "testdata/absent.out: no such file",
		},
		{
			name: "missing -profile",
			exit: 2,
			want: "Usage of covgate",
		},
	}
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			args := r.args
			if r.profile != "" {
				path := filepath.Join(t.TempDir(), "cover.out")
				if err := os.WriteFile(path, []byte(r.profile), 0o644); err != nil {
					t.Fatal(err)
				}
				args = append([]string{"-profile", path}, args...)
			}
			var stderr bytes.Buffer
			if got := run(args, nil, &stderr); got != r.exit {
				t.Errorf("exit %d, want %d\n%s", got, r.exit, stderr.String())
			}
			if !strings.Contains(stderr.String(), r.want) {
				t.Errorf("output lacks %q:\n%s", r.want, stderr.String())
			}
		})
	}
}
