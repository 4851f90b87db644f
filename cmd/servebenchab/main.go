// Command servebenchab runs the serving benchmark as alternating
// parent/change pairs and summarizes them (`make servebench-ab`):
//
//	go run ./cmd/servebenchab -parent HEAD -workload mixed -pairs 10 -seed 1
//
// It exports the parent commit with git archive into
// .bench_build/ab/parent and, for pair i (seed S+i), runs
//
//	sh servebench/run.sh --workload W --seed S+i --seconds 30 --trace 0
//
// once in that tree and once in the working tree, alternating which
// side goes first. Each run's output is kept as
// .bench_build/ab/<workload>-<seed>-<side>.txt, and its process CPU
// time (user + system, run.sh's cached go build included) is read from
// the finished process. It then prints, for every end-to-end metric
// BENCHMARK.json declares and for cpu_s, each side's q1/median/q3, the
// median ratio (change/parent), the pairs the change won (ties count
// for neither) and whether the claim rule holds (the change wins at
// least nine pairs in ten, and the medians differ in its favor by more
// than the parent's q3−q1), plus each side's attempted and failed
// operations. A pair whose either run fails or is invalid is reported
// and left out of the summary. Run it from the repository root; it
// writes only under .bench_build/.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// result is the last line of one servebench run, with the run's
// process CPU seconds.
type result struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
	cpu float64
}

// metricDecl is one end-to-end metric of BENCHMARK.json.
type metricDecl struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// pair is one parent/change pair of runs on the same seed.
type pair struct {
	seed           uint64
	parent, change result
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("servebenchab", flag.ContinueOnError)
	fs.SetOutput(stderr)
	parent := fs.String("parent", "HEAD", "git revision of the parent side")
	workload := fs.String("workload", "", "servebench workload")
	pairs := fs.Int("pairs", 10, "number of parent/change pairs")
	seed := fs.Uint64("seed", 1, "seed of the first pair; pair i uses seed+i")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *workload == "" || *pairs < 1 {
		fmt.Fprintln(stderr, "servebenchab: want -workload W and -pairs >= 1")
		return 2
	}
	decls, err := endToEnd("BENCHMARK.json")
	if err != nil {
		fmt.Fprintf(stderr, "servebenchab: %v\n", err)
		return 1
	}
	abDir, err := filepath.Abs(filepath.Join(".bench_build", "ab"))
	if err != nil {
		fmt.Fprintf(stderr, "servebenchab: %v\n", err)
		return 1
	}
	parentDir := filepath.Join(abDir, "parent")
	if err := exportTree(*parent, parentDir); err != nil {
		fmt.Fprintf(stderr, "servebenchab: exporting %s: %v\n", *parent, err)
		return 1
	}
	dirs := map[string]string{"parent": parentDir, "change": "."}
	var done []pair
	for i := 0; i < *pairs; i++ {
		p := pair{seed: *seed + uint64(i)}
		order := []string{"parent", "change"}
		if i%2 == 1 {
			order = []string{"change", "parent"}
		}
		ok := true
		for _, side := range order {
			out := filepath.Join(abDir, fmt.Sprintf("%s-%d-%s.txt", *workload, p.seed, side))
			res, err := benchRun(dirs[side], out, *workload, p.seed)
			if err != nil {
				fmt.Fprintf(stdout, "pair %d seed %d: %s run failed: %v (output in %s)\n", i+1, p.seed, side, err, out)
				ok = false
				break
			}
			if side == "parent" {
				p.parent = res
			} else {
				p.change = res
			}
		}
		if !ok {
			continue
		}
		fmt.Fprintf(stdout, "pair %d seed %d (%s first):", i+1, p.seed, order[0])
		for _, d := range decls {
			fmt.Fprintf(stdout, " %s %.4g/%.4g", d.Name, p.parent.Metrics[d.Name].Value, p.change.Metrics[d.Name].Value)
		}
		fmt.Fprintf(stdout, " cpu_s %.4g/%.4g\n", p.parent.cpu, p.change.cpu)
		done = append(done, p)
	}
	summarize(stdout, *workload, *parent, decls, done, *pairs)
	if len(done) < *pairs {
		return 1
	}
	return 0
}

// endToEnd reads the end-to-end metric declarations of the benchmark.
func endToEnd(path string) ([]metricDecl, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc struct {
		EndToEnd []metricDecl `json:"end_to_end"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(doc.EndToEnd) == 0 {
		return nil, fmt.Errorf("%s declares no end-to-end metrics", path)
	}
	return doc.EndToEnd, nil
}

// exportTree replaces the files in dir with the tree of rev, by way of
// a tar file beside it. dir/.bench_build, where the parent side's
// runs keep their build cache, survives, so a later export of a
// similar tree rebuilds little.
func exportTree(rev, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if e.Name() == ".bench_build" {
			continue
		}
		if err := os.RemoveAll(filepath.Join(dir, e.Name())); err != nil {
			return err
		}
	}
	archive := dir + ".tar"
	for _, args := range [][]string{{"git", "archive", "-o", archive, rev}, {"tar", "-xf", archive, "-C", dir}} {
		cmd := exec.Command(args[0], args[1:]...)
		cmd.Stderr = os.Stderr
		if err := cmd.Run(); err != nil {
			return fmt.Errorf("%s: %w", args[0], err)
		}
	}
	return os.Remove(archive)
}

// benchRun runs the benchmark once from the tree at dir, saving its
// output to out, and returns its result line.
func benchRun(dir, out, workload string, seed uint64) (result, error) {
	var buf bytes.Buffer
	cmd := exec.Command("sh", "servebench/run.sh", "--workload", workload,
		"--seed", fmt.Sprint(seed), "--seconds", "30", "--trace", "0")
	cmd.Dir = dir
	cmd.Stdout = &buf
	cmd.Stderr = &buf
	runErr := cmd.Run()
	if err := os.WriteFile(out, buf.Bytes(), 0o644); err != nil {
		return result{}, err
	}
	if runErr != nil {
		return result{}, runErr
	}
	res, err := lastResult(&buf)
	// The shell's usage includes the children it waited for: the build
	// and the benchmark process.
	res.cpu = (cmd.ProcessState.UserTime() + cmd.ProcessState.SystemTime()).Seconds()
	return res, err
}

// lastResult parses the JSON object on the last line of a run's
// output.
func lastResult(r io.Reader) (result, error) {
	var last string
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		if line := strings.TrimSpace(sc.Text()); line != "" {
			last = line
		}
	}
	if err := sc.Err(); err != nil {
		return result{}, err
	}
	var res result
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return result{}, fmt.Errorf("no result line: %w", err)
	}
	if !res.Correct {
		return res, fmt.Errorf("a correctness check failed")
	}
	return res, nil
}

// summarize prints each metric's quartiles per side, the median ratio,
// the change's wins over the completed pairs and the claim rule, for
// the declared metrics and the runs' CPU time.
func summarize(w io.Writer, workload, parent string, decls []metricDecl, pairs []pair, asked int) {
	fmt.Fprintf(w, "\n%s: %d of %d pairs completed (parent %s vs working tree); q1 / median / q3\n", workload, len(pairs), asked, parent)
	if len(pairs) == 0 {
		return
	}
	fmt.Fprintf(w, "%-12s %-28s %-28s %8s %-12s %s\n", "metric", "parent", "change", "ratio", "change wins", "claim")
	value := func(d metricDecl, r result) float64 {
		if d.Name == "cpu_s" {
			return r.cpu
		}
		return r.Metrics[d.Name].Value
	}
	for _, d := range append(slices.Clone(decls), metricDecl{Name: "cpu_s", Unit: "s", Better: "lower"}) {
		var pv, cv []float64
		wins := 0
		for _, p := range pairs {
			a, b := value(d, p.parent), value(d, p.change)
			pv, cv = append(pv, a), append(cv, b)
			if (d.Better == "lower" && b < a) || (d.Better == "higher" && b > a) {
				wins++
			}
		}
		pq, cq := quartiles(pv), quartiles(cv)
		claim := "no"
		if claimHolds(d.Better, wins, len(pairs), pq, cq) {
			claim = "holds"
		}
		fmt.Fprintf(w, "%-12s %-28s %-28s %8.3f %-12s %s\n", d.Name,
			fmt.Sprintf("%.4g / %.4g / %.4g %s", pq[0], pq[1], pq[2], d.Unit),
			fmt.Sprintf("%.4g / %.4g / %.4g %s", cq[0], cq[1], cq[2], d.Unit),
			cq[1]/pq[1], fmt.Sprintf("%d of %d", wins, len(pairs)), claim)
	}
	var pa, pf, ca, cf int
	for _, p := range pairs {
		pa, pf = pa+p.parent.Attempted, pf+p.parent.Failed
		ca, cf = ca+p.change.Attempted, cf+p.change.Failed
	}
	fmt.Fprintf(w, "attempted / failed: parent %d / %d, change %d / %d\n", pa, pf, ca, cf)
}

// claimHolds is the rule a claimed gain must meet: the change wins at
// least nine pairs in ten, and its median beats the parent's by more
// than the parent's q3−q1 (pq and cq are the sides' quartiles).
func claimHolds(better string, wins, pairs int, pq, cq [3]float64) bool {
	gap := pq[1] - cq[1]
	if better == "higher" {
		gap = -gap
	}
	return 10*wins >= 9*pairs && gap > pq[2]-pq[0]
}

// quartiles returns the first quartile, median and third quartile of
// xs, interpolating linearly between order statistics.
func quartiles(xs []float64) [3]float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	q := func(p float64) float64 {
		h := p * float64(len(s)-1)
		lo := int(h)
		if lo+1 >= len(s) {
			return s[lo]
		}
		return s[lo] + (h-float64(lo))*(s[lo+1]-s[lo])
	}
	return [3]float64{q(0.25), q(0.5), q(0.75)}
}
