package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"testing"

	"github.com/hinpriv/dehin/internal/experiments"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestMain lets the test binary impersonate the real command: re-executed
// with EXPERIMENTS_RUN_MAIN=1 it runs main() on the given arguments, which
// is how the golden test below captures the command's true stdout without
// a separate build step.
func TestMain(m *testing.M) {
	if os.Getenv("EXPERIMENTS_RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestRunAllGolden pins the byte-exact stdout of `experiments -exp all
// -quick`: every table of the full suite, in the fixed streaming order, at
// the committed quick parameters. Any change to experiment output - a
// number, a header, table order, even trailing whitespace - must show up
// as a deliberate golden update (go test ./cmd/experiments -update).
// Running at two worker counts also re-checks the suite's concurrency
// contract end to end: stdout must not depend on scheduling.
func TestRunAllGolden(t *testing.T) {
	golden := filepath.Join("testdata", "runall_quick.golden")
	for _, workers := range []int{1, 4} {
		cmd := exec.Command(os.Args[0], "-exp", "all", "-quick", "-parallel", fmt.Sprint(workers))
		cmd.Env = append(os.Environ(), "EXPERIMENTS_RUN_MAIN=1")
		var stdout, stderr bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		if err := cmd.Run(); err != nil {
			t.Fatalf("workers=%d: %v\nstderr:\n%s", workers, err, stderr.String())
		}
		if workers == 1 && *update {
			if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(golden, stdout.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		want, err := os.ReadFile(golden)
		if err != nil {
			t.Fatalf("missing golden file (regenerate with -update): %v", err)
		}
		if !bytes.Equal(stdout.Bytes(), want) {
			t.Fatalf("workers=%d: stdout differs from %s (%d vs %d bytes)\nfirst divergence at byte %d\nregenerate with -update if the change is intended",
				workers, golden, stdout.Len(), len(want), firstDiff(stdout.Bytes(), want))
		}
	}
}

// TestOutWritesOneCSVPerExperiment runs `experiments -exp all -quick
// -out dir` and requires one non-empty <id>.csv per experiment id: no two
// tables may share a file name.
func TestOutWritesOneCSVPerExperiment(t *testing.T) {
	dir := t.TempDir()
	cmd := exec.Command(os.Args[0], "-exp", "all", "-quick", "-out", dir)
	cmd.Env = append(os.Environ(), "EXPERIMENTS_RUN_MAIN=1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("%v\nstderr:\n%s", err, stderr.String())
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	ids := experiments.Names()
	if len(entries) != len(ids) {
		t.Errorf("wrote %d files, want one per experiment (%d)", len(entries), len(ids))
	}
	for _, id := range ids {
		b, err := os.ReadFile(filepath.Join(dir, id+".csv"))
		if err != nil {
			t.Error(err)
			continue
		}
		if len(b) == 0 {
			t.Errorf("%s.csv is empty", id)
		}
	}
}

func firstDiff(a, b []byte) int {
	n := min(len(a), len(b))
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}
