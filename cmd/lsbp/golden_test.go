package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/")

// TestGolden pins the command's stdout end to end: every case runs the
// real run() on the checked-in fixture graph and compares the printed
// top-belief assignment against its golden file. Regenerate with
//
//	go test ./cmd/lsbp -run TestGolden -update
func TestGolden(t *testing.T) {
	base := []string{"-edges", "testdata/graph.txt"}
	for _, tc := range []struct {
		name string
		args []string
	}{
		{"linbp_k2", []string{"-labels", "testdata/labels2.txt", "-k", "2", "-method", "linbp", "-eps", "0.05", "-order", "none"}},
		{"linbpstar_k3_rcm", []string{"-labels", "testdata/labels3.txt", "-k", "3", "-method", "linbpstar", "-eps", "0.05", "-order", "rcm"}},
		{"bp_k2", []string{"-labels", "testdata/labels2.txt", "-k", "2", "-method", "bp", "-eps", "0.05"}},
		{"sbp_k3", []string{"-labels", "testdata/labels3.txt", "-k", "3", "-method", "sbp", "-eps", "0.05"}},
		{"fabp_workers", []string{"-labels", "testdata/labels2.txt", "-k", "2", "-method", "fabp", "-eps", "0.05", "-workers", "2", "-v"}},
		{"linbp_updates", []string{"-labels", "testdata/labels3.txt", "-k", "3", "-method", "linbp", "-eps", "0.05", "-order", "none", "-updates", "testdata/updates.txt"}},
		{"sbp_updates", []string{"-labels", "testdata/labels3.txt", "-k", "3", "-method", "sbp", "-eps", "0.05", "-updates", "testdata/updates.txt"}},
		{"linbp_residual", []string{"-labels", "testdata/labels2.txt", "-k", "2", "-method", "linbp", "-eps", "0.05", "-order", "none", "-schedule", "residual"}},
		{"linbp_updates_residual", []string{"-labels", "testdata/labels3.txt", "-k", "3", "-method", "linbp", "-eps", "0.05", "-order", "none", "-schedule", "residual", "-updates", "testdata/updates.txt", "-v"}},
		{"fabp_updates_auto", []string{"-labels", "testdata/labels2.txt", "-k", "2", "-method", "fabp", "-eps", "0.05", "-schedule", "auto", "-updates", "testdata/updates2.txt", "-v"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(append(append([]string{}, base...), tc.args...), &stdout, &stderr); code != 0 {
				t.Fatalf("exit code %d, stderr:\n%s", code, stderr.String())
			}
			checkGolden(t, filepath.Join("testdata", tc.name+".golden"), stdout.Bytes())
		})
	}
}

// TestGoldenUsageErrors pins the failure modes (no fixtures involved).
func TestGoldenUsageErrors(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run(nil, &stdout, &stderr); code != 2 {
		t.Fatalf("missing flags: exit %d, want 2", code)
	}
	stderr.Reset()
	args := []string{"-edges", "testdata/graph.txt", "-labels", "testdata/labels2.txt", "-updates", "testdata/no_such_stream.txt"}
	if code := run(args, &stdout, &stderr); code != 1 {
		t.Fatalf("missing -updates file: exit %d, want 1 (stderr %q)", code, stderr.String())
	}
	stderr.Reset()
	args = []string{"-edges", "testdata/graph.txt", "-labels", "testdata/labels2.txt", "-schedule", "eager"}
	if code := run(args, &stdout, &stderr); code != 1 {
		t.Fatalf("bad -schedule: exit %d, want 1 (stderr %q)", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "schedule") {
		t.Errorf("bad -schedule error does not name the flag: %q", stderr.String())
	}
}

// TestVerboseResidualStats pins the -v stats surface of the residual
// schedule: the updates-path stats line must carry the schedule name
// and nonzero relaxed-row / queue-peak counters, which only the
// residual plane produces.
func TestVerboseResidualStats(t *testing.T) {
	var stdout, stderr bytes.Buffer
	args := []string{"-edges", "testdata/graph.txt", "-labels", "testdata/labels3.txt",
		"-k", "3", "-eps", "0.05", "-order", "none",
		"-schedule", "residual", "-updates", "testdata/updates.txt", "-v"}
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr.String())
	}
	out := stderr.String()
	for _, want := range []string{"schedule=residual", "relaxed=", "qpeak="} {
		if !strings.Contains(out, want) {
			t.Errorf("stats line missing %q:\n%s", want, out)
		}
	}
	for _, zero := range []string{"relaxed=0 ", "qpeak=0\n"} {
		if strings.Contains(out, zero) {
			t.Errorf("residual schedule reported %q — the queue never ran:\n%s", zero, out)
		}
	}
}

// TestUpdatesParseErrors pins the event-stream validation.
func TestUpdatesParseErrors(t *testing.T) {
	dir := t.TempDir()
	for name, content := range map[string]string{
		"bad-op":    "frobnicate 1 2\n",
		"bad-node":  "add 0 99\n",
		"bad-class": "label 0 7\n",
		"bad-w":     "add 0 1 -2\n",
	} {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(dir, name+".txt")
			if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
				t.Fatal(err)
			}
			var stdout, stderr bytes.Buffer
			args := []string{"-edges", "testdata/graph.txt", "-labels", "testdata/labels3.txt", "-k", "3", "-eps", "0.05", "-updates", path}
			if code := run(args, &stdout, &stderr); code != 1 {
				t.Fatalf("exit %d, want 1 (stderr %q)", code, stderr.String())
			}
		})
	}
}

// checkGolden compares got against the golden file, rewriting it under
// -update.
func checkGolden(t *testing.T, path string, got []byte) {
	t.Helper()
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create the golden file)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("output differs from %s:\n--- got ---\n%s--- want ---\n%s", path, got, want)
	}
}

// TestUpdatesEventOrder pins two parser subtleties: a del-then-add of
// the same pair splits the batch (an Update applies adds before
// removals, so folding them together would undo the re-add), and bare
// repeated commits do not produce spurious empty epochs.
func TestUpdatesEventOrder(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "stream.txt")
	content := "del 0 3\nadd 0 3 2\ncommit\ncommit\ncommit\n"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	args := []string{"-edges", "testdata/graph.txt", "-labels", "testdata/labels2.txt",
		"-eps", "0.05", "-order", "none", "-updates", path}
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr.String())
	}
	out := stdout.String()
	// The del must land in its own epoch (1) so the re-add (epoch 2)
	// survives; the duplicate commits must add no further epochs.
	if !strings.Contains(out, "epoch 1: +0 -1 edges") {
		t.Errorf("missing del-only epoch:\n%s", out)
	}
	if !strings.Contains(out, "epoch 2: +1 -0 edges") {
		t.Errorf("missing re-add epoch:\n%s", out)
	}
	if strings.Contains(out, "epoch 3") {
		t.Errorf("empty commit produced a spurious epoch:\n%s", out)
	}
}
