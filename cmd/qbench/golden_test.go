package main

import (
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

// update rewrites the stdout snapshots instead of comparing:
//
//	go test ./cmd/qbench -run TestStdoutGolden -update
var update = flag.Bool("update", false, "rewrite testdata/golden snapshots")

// wallClockColumn matches the fth table's trailing analysis time, the
// one column that differs between any two runs.
var wallClockColumn = regexp.MustCompile(`(?m) +\d+ms$`)

// captureStdout runs fn with os.Stdout redirected to a temporary file
// and returns what it printed.
func captureStdout(t *testing.T, fn func() error) string {
	t.Helper()
	f, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	saved := os.Stdout
	os.Stdout = f
	runErr := fn()
	os.Stdout = saved
	if runErr != nil {
		t.Fatal(runErr)
	}
	out, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

// TestStdoutGolden pins every table `qbench -experiment all` and
// `-experiment extended` print at default flags, byte for byte, apart
// from the fth table's wall-clock column.
func TestStdoutGolden(t *testing.T) {
	for _, exp := range []string{"all", "extended"} {
		t.Run(exp, func(t *testing.T) {
			got := captureStdout(t, func() error { return run(exp, "small", 0, "lpfs", 0) })
			got = wallClockColumn.ReplaceAllString(got, " NNms")
			path := filepath.Join("testdata", "golden", exp+".txt")
			if *update {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run with -update to create the snapshot)", err)
			}
			if string(want) != got {
				t.Errorf("qbench -experiment %s drifted from %s:\n--- want\n%s--- got\n%s", exp, path, want, got)
			}
		})
	}
}
