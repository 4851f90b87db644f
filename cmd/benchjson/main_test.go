package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: repro
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkFig7aLinBP/graph3_edges16384        	    1209	    344063 ns/op	   76059 B/op	       6 allocs/op
BenchmarkEngineReuse/graph3_edges16384-8     	    1582	    305893 ns/op	       0 B/op	       0 allocs/op
BenchmarkThroughput                          	     100	   1000000 ns/op	  52.31 MB/s
PASS
ok  	repro	5.242s
`

func TestParse(t *testing.T) {
	r, err := parse(bufio.NewScanner(strings.NewReader(sample)))
	if err != nil {
		t.Fatal(err)
	}
	if r.Meta["goos"] != "linux" || r.Meta["cpu"] == "" || r.Meta["pkg"] != "repro" {
		t.Fatalf("meta = %v", r.Meta)
	}
	if len(r.Benchmarks) != 3 {
		t.Fatalf("parsed %d benchmarks, want 3", len(r.Benchmarks))
	}
	b := r.Benchmarks[0]
	if b.Name != "BenchmarkFig7aLinBP/graph3_edges16384" || b.Procs != 1 || b.Iterations != 1209 {
		t.Fatalf("bench[0] = %+v", b)
	}
	if b.Metrics["ns/op"] != 344063 || b.Metrics["B/op"] != 76059 || b.Metrics["allocs/op"] != 6 {
		t.Fatalf("metrics = %v", b.Metrics)
	}
	if got := r.Benchmarks[1]; got.Procs != 8 || got.Name != "BenchmarkEngineReuse/graph3_edges16384" {
		t.Fatalf("procs suffix not stripped: %+v", got)
	}
	if got := r.Benchmarks[2].Metrics["MB/s"]; got != 52.31 {
		t.Fatalf("MB/s = %v", got)
	}
	if r.Failures != 0 {
		t.Fatalf("failures = %d", r.Failures)
	}
}

func TestParseFailLine(t *testing.T) {
	r, err := parse(bufio.NewScanner(strings.NewReader("FAIL\trepro\t0.1s\n")))
	if err != nil {
		t.Fatal(err)
	}
	if r.Failures != 1 {
		t.Fatalf("failures = %d, want 1", r.Failures)
	}
}

func TestRun(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_results.json")
	var out, errw strings.Builder
	if code := run([]string{"-commit", "abc", path}, strings.NewReader(sample), &out, &errw); code != 0 {
		t.Fatalf("run = %d, stderr %q", code, errw.String())
	}
	r := readReport(t, path)
	if len(r.Benchmarks) != 3 || r.Meta["goos"] != "linux" || r.Failures != 0 {
		t.Fatalf("written report = %+v", r)
	}
	if !strings.Contains(out.String(), "merged 3 entries") {
		t.Fatalf("summary = %q", out.String())
	}

	// FAIL lines surface as a non-zero exit and write nothing.
	fresh := filepath.Join(t.TempDir(), "BENCH_results.json")
	if code := run([]string{"-commit", "abc", fresh}, strings.NewReader(sample+"FAIL\trepro\t0.1s\n"), &out, &errw); code != 1 {
		t.Fatalf("run on FAIL input = %d, want 1", code)
	}
	if _, err := os.Stat(fresh); !os.IsNotExist(err) {
		t.Fatalf("a FAIL run wrote %s (stat err %v)", fresh, err)
	}
}

func TestRunScannerError(t *testing.T) {
	// A single token longer than the scanner's max buffer surfaces as
	// an error exit, and the ledger is not written.
	path := filepath.Join(t.TempDir(), "BENCH_results.json")
	var out, errw strings.Builder
	long := strings.Repeat("x", 5*1024*1024)
	if code := run([]string{"-commit", "abc", path}, strings.NewReader(long), &out, &errw); code != 1 {
		t.Fatalf("run on oversized line = %d, want 1", code)
	}
	if errw.Len() == 0 {
		t.Fatal("expected an error message on stderr")
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("a failed read wrote %s (stat err %v)", path, err)
	}
}

func TestParseLineRejectsGarbage(t *testing.T) {
	for _, line := range []string{
		"",
		"PASS",
		"Benchmark",                     // no fields
		"BenchmarkX notanumber 1 ns/op", // bad iterations
		"BenchmarkX 10",                 // no metrics
	} {
		if _, ok := parseLine(line); ok {
			t.Errorf("parseLine(%q) accepted garbage", line)
		}
	}
}

// mergeRun runs benchjson -commit commit path over input.
func mergeRun(t *testing.T, path, commit, input string) int {
	t.Helper()
	var out, errw strings.Builder
	return run([]string{"-commit", commit, path}, strings.NewReader(input), &out, &errw)
}

func readReport(t *testing.T, path string) Report {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		t.Fatal(err)
	}
	return r
}

// TestMergeLedger covers the ledger: a first merge creates the file,
// a second commit's run appends beside it, a re-run of an existing
// (name, procs, commit, cpu) key replaces exactly that entry in place,
// a FAIL run leaves the file alone, and merging the same run twice is
// idempotent.
func TestMergeLedger(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_results.json")
	if code := mergeRun(t, path, "aaa", sample); code != 0 {
		t.Fatalf("first merge = %d", code)
	}
	r := readReport(t, path)
	if len(r.Benchmarks) != 3 || r.Benchmarks[0].Commit != "aaa" || r.Benchmarks[0].CPU != "Intel(R) Xeon(R) Processor @ 2.10GHz" {
		t.Fatalf("first merge = %+v", r.Benchmarks)
	}
	if code := mergeRun(t, path, "bbb", sample); code != 0 {
		t.Fatalf("second merge = %d", code)
	}
	if r = readReport(t, path); len(r.Benchmarks) != 6 || r.Benchmarks[3].Commit != "bbb" {
		t.Fatalf("other commit did not append: %+v", r.Benchmarks)
	}

	// Commit aaa re-runs one benchmark: only that entry changes.
	rerun := strings.Replace(sample, "344063 ns/op", "111 ns/op", 1)
	rerun = strings.Join(strings.Split(rerun, "\n")[:5], "\n") + "\n" // meta + the first benchmark
	if code := mergeRun(t, path, "aaa", rerun); code != 0 {
		t.Fatalf("re-run merge = %d", code)
	}
	r = readReport(t, path)
	if len(r.Benchmarks) != 6 {
		t.Fatalf("re-run changed the entry count to %d", len(r.Benchmarks))
	}
	if b := r.Benchmarks[0]; b.Commit != "aaa" || b.Metrics["ns/op"] != 111 {
		t.Fatalf("entry 0 = %+v, want commit aaa's re-run in place", b)
	}
	if b := r.Benchmarks[3]; b.Commit != "bbb" || b.Metrics["ns/op"] != 344063 {
		t.Fatalf("commit bbb's entry changed: %+v", b)
	}

	// The same run again: byte-identical ledger.
	before, _ := os.ReadFile(path)
	if code := mergeRun(t, path, "aaa", rerun); code != 0 {
		t.Fatalf("idempotent merge = %d", code)
	}
	after, _ := os.ReadFile(path)
	if !bytes.Equal(before, after) {
		t.Fatal("merging the same run twice changed the ledger")
	}

	// A failing run is reported and not merged.
	if code := mergeRun(t, path, "ccc", sample+"FAIL\trepro\t0.1s\n"); code != 1 {
		t.Fatalf("FAIL merge = %d, want 1", code)
	}
	if after2, _ := os.ReadFile(path); !bytes.Equal(after, after2) {
		t.Fatal("a FAIL run changed the ledger")
	}
}

// TestMergeKeepsSamplesAndLegacyCPU: a -count=N run keeps its N
// samples under one key, and entries of a single-run document take
// their CPU from its meta.
func TestMergeKeepsSamplesAndLegacyCPU(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ledger.json")
	legacy := `{"meta": {"cpu": "old cpu"}, "benchmarks": [{"name": "BenchmarkOld", "procs": 1, "iterations": 5, "metrics": {"ns/op": 7}}], "failures": 0}`
	if err := os.WriteFile(path, []byte(legacy), 0o644); err != nil {
		t.Fatal(err)
	}
	line := "BenchmarkNew-2 10 5 ns/op\n"
	if code := mergeRun(t, path, "x", "cpu: new cpu\n"+line+line+line); code != 0 {
		t.Fatalf("merge = %d", code)
	}
	if code := mergeRun(t, path, "x", "cpu: new cpu\n"+line+line); code != 0 {
		t.Fatalf("second merge = %d", code)
	}
	r := readReport(t, path)
	if len(r.Benchmarks) != 3 || r.Benchmarks[0].CPU != "old cpu" || r.Benchmarks[1].Procs != 2 || r.Benchmarks[2].Name != "BenchmarkNew" {
		t.Fatalf("ledger = %+v, want the legacy entry and the latest run's two samples", r.Benchmarks)
	}
}

func TestMergeErrors(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if code := mergeRun(t, bad, "x", sample); code != 1 {
		t.Fatalf("merge into a corrupt ledger = %d, want 1", code)
	}
	if code := mergeRun(t, filepath.Join(dir, "missing", "l.json"), "x", sample); code != 1 {
		t.Fatalf("merge into an unwritable path = %d, want 1", code)
	}
	// Usage errors: a bad flag, no ledger path, two ledger paths, and
	// an empty commit label (which would file the run under the
	// unlabelled legacy entries' key). None writes the ledger.
	ledger := filepath.Join(dir, "ledger.json")
	for _, args := range [][]string{
		{"-nosuchflag", ledger},
		{"-commit", "x"},
		{"-commit", "x", ledger, ledger},
		{ledger},
		{"-commit", "", ledger},
	} {
		var out, errw strings.Builder
		if code := run(args, strings.NewReader(sample), &out, &errw); code != 2 {
			t.Errorf("run %q = %d, want 2", args, code)
		}
	}
	if _, err := os.Stat(ledger); !os.IsNotExist(err) {
		t.Fatalf("a usage error wrote the ledger (stat err %v)", err)
	}
}
