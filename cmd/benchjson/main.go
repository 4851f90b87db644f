// Command benchjson folds `go test -bench` output on stdin into a
// machine-readable JSON ledger, so benchmark results accumulate
// (BENCH_results.json) and can be compared across commits and hosts:
//
//	go test -bench . -benchmem -run '^$' | benchjson -commit REV BENCH_results.json
//
// Context lines (goos, goarch, pkg, cpu) are captured as metadata; each
// benchmark line becomes an entry with its iteration count, every
// reported metric (ns/op, B/op, allocs/op, MB/s, custom units), the CPU
// model, and the -commit label, which must name the code measured and
// may not be empty. An entry is keyed by (name, procs, commit, cpu):
// the run's entries replace the ledger's entries of the same key and
// every other entry is kept, so no run overwrites another commit's or
// host's numbers. A missing ledger file is created. A run that
// reported FAIL lines is not merged.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"strconv"
	"strings"
)

// Benchmark is one parsed result line.
type Benchmark struct {
	// Name is the benchmark name without the -N GOMAXPROCS suffix.
	Name string `json:"name"`
	// Procs is the GOMAXPROCS suffix (1 when absent).
	Procs int `json:"procs"`
	// Commit is the -commit label of the run that produced the entry.
	Commit string `json:"commit,omitempty"`
	// CPU is the cpu context line of that run.
	CPU string `json:"cpu,omitempty"`
	// Iterations is the b.N the reported averages are over.
	Iterations int64 `json:"iterations"`
	// Metrics maps unit → value, e.g. "ns/op" → 305893.
	Metrics map[string]float64 `json:"metrics"`
}

// key is a ledger entry's identity.
type key struct {
	name, commit, cpu string
	procs             int
}

func (b Benchmark) key() key { return key{b.Name, b.Commit, b.CPU, b.Procs} }

// Report is the full document.
type Report struct {
	// Meta holds the context lines goos/goarch/pkg/cpu (last seen wins
	// per key; multi-package runs append the pkg list under "pkgs") —
	// of the latest run in a merged ledger.
	Meta map[string]string `json:"meta"`
	// Benchmarks lists every parsed result in input order (a merged
	// ledger: older runs first).
	Benchmarks []Benchmark `json:"benchmarks"`
	// Failures counts lines starting with FAIL or ok-with-error (0 in a
	// ledger: a run that reported any is not merged).
	Failures int `json:"failures"`
}

// parseLine parses one "BenchmarkX-N  iters  v unit  v unit ..." line.
// ok is false for non-benchmark lines.
func parseLine(line string) (Benchmark, bool) {
	if !strings.HasPrefix(line, "Benchmark") {
		return Benchmark{}, false
	}
	fields := strings.Fields(line)
	// Need at least name, iterations, and one value+unit pair.
	if len(fields) < 4 {
		return Benchmark{}, false
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Benchmark{}, false
	}
	b := Benchmark{Name: fields[0], Procs: 1, Iterations: iters, Metrics: map[string]float64{}}
	if i := strings.LastIndexByte(b.Name, '-'); i > 0 {
		if p, err := strconv.Atoi(b.Name[i+1:]); err == nil && p > 0 {
			b.Name, b.Procs = b.Name[:i], p
		}
	}
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Benchmark{}, false
		}
		b.Metrics[fields[i+1]] = v
	}
	if len(b.Metrics) == 0 {
		return Benchmark{}, false
	}
	return b, true
}

// parse consumes the full benchmark output.
func parse(sc *bufio.Scanner) (*Report, error) {
	r := &Report{Meta: map[string]string{}}
	var pkgs []string
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if b, ok := parseLine(line); ok {
			r.Benchmarks = append(r.Benchmarks, b)
			continue
		}
		for _, key := range []string{"goos", "goarch", "pkg", "cpu"} {
			if v, ok := strings.CutPrefix(line, key+": "); ok {
				r.Meta[key] = v
				if key == "pkg" {
					pkgs = append(pkgs, v)
				}
			}
		}
		if strings.HasPrefix(line, "FAIL") {
			r.Failures++
		}
	}
	if len(pkgs) > 1 {
		r.Meta["pkgs"] = strings.Join(pkgs, ",")
	}
	return r, sc.Err()
}

// merge folds the run's entries into the ledger's: each ledger entry
// whose key the run also produced is replaced — at the position of the
// key's first ledger entry — by all of the run's entries of that key
// (a -count=N run keeps its N samples), and the run's remaining
// entries are appended in input order. Merging the same run twice
// leaves the ledger unchanged.
func merge(ledger, run []Benchmark) []Benchmark {
	fresh := map[key][]Benchmark{}
	var keys []key
	for _, b := range run {
		k := b.key()
		if _, ok := fresh[k]; !ok {
			keys = append(keys, k)
		}
		fresh[k] = append(fresh[k], b)
	}
	out := make([]Benchmark, 0, len(ledger)+len(run))
	for _, b := range ledger {
		bs, ok := fresh[b.key()]
		if !ok {
			out = append(out, b)
			continue
		}
		out = append(out, bs...)
		fresh[b.key()] = nil
	}
	for _, k := range keys {
		out = append(out, fresh[k]...)
	}
	return out
}

// readLedger loads a merged ledger (or a single-run document, whose
// entries predate the per-entry CPU field and take it from the
// document's meta). A missing file is an empty ledger.
func readLedger(path string) ([]Benchmark, error) {
	data, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	for i := range r.Benchmarks {
		if r.Benchmarks[i].CPU == "" {
			r.Benchmarks[i].CPU = r.Meta["cpu"]
		}
	}
	return r.Benchmarks, nil
}

// writeFile replaces path with data through a temporary file and a
// rename, so an interrupted write never truncates the ledger.
func writeFile(path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

// run folds in (go test -bench output) into the ledger named by the
// one argument, returning the process exit code: 2 on a usage error
// (bad flag, no ledger path, empty -commit), 1 on a read/encode/write
// error or when the input reported FAIL lines (then the ledger is left
// as it was), 0 otherwise.
func run(args []string, in io.Reader, out, errw io.Writer) int {
	fl := flag.NewFlagSet("benchjson", flag.ContinueOnError)
	fl.SetOutput(errw)
	commit := fl.String("commit", "", "label naming the code the run measured, stamped on every entry (required)")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	if fl.NArg() != 1 || *commit == "" {
		fmt.Fprintln(errw, "usage: benchjson -commit LABEL LEDGER < go-test-bench-output")
		return 2
	}
	path := fl.Arg(0)
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	report, err := parse(sc)
	if err != nil {
		fmt.Fprintln(errw, "benchjson:", err)
		return 1
	}
	if report.Failures > 0 {
		fmt.Fprintf(errw, "benchjson: %d FAIL lines; %s not updated\n", report.Failures, path)
		return 1
	}
	for i := range report.Benchmarks {
		report.Benchmarks[i].Commit = *commit
		report.Benchmarks[i].CPU = report.Meta["cpu"]
	}
	ledger, err := readLedger(path)
	if err != nil {
		fmt.Fprintln(errw, "benchjson:", err)
		return 1
	}
	n := len(report.Benchmarks)
	report.Benchmarks = merge(ledger, report.Benchmarks)
	data, err := json.MarshalIndent(report, "", "  ")
	if err == nil {
		err = writeFile(path, append(data, '\n'))
	}
	if err != nil {
		fmt.Fprintln(errw, "benchjson:", err)
		return 1
	}
	fmt.Fprintf(out, "benchjson: merged %d entries into %s (%d total)\n", n, path, len(report.Benchmarks))
	return 0
}
