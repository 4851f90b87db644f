// Command servebench is the repository's serving benchmark. It brings
// up in-process the stack cmd/lsbpd builds (core.Prepare with a
// durable state directory → serve.New → a first Update{}), drives it
// through the public serve.FrontEnd API with one workload, checks the
// answers, and prints every metric by name with its unit. The last
// line of standard output is one JSON object:
//
//	{"correct": true, "attempted": 240, "failed": 0, "metrics": {...}}
//
// Usage, from the repository root:
//
//	sh servebench/run.sh --workload query|ingest|mixed --seed N --seconds S --trace 0|1
//
// With --trace 0 the metrics are the end-to-end ones (endToEnd). With
// --trace 1 the run measures once untraced and once more with spans
// recorded around every call into serve, core and durable; it prints
// the traced end-to-end numbers beside the untraced ones (the
// difference is the tracing overhead) and reports the per-layer
// metrics (perLayer). Spans are written to
// .bench_build/traces/<workload>-<seed>.jsonl.
//
// Exit codes: 0 success; 1 a correctness check failed (the result
// line says "correct": false) or the run could not complete; 2 bad
// arguments; 3 the open-loop generator ran later than the workload
// allows, so the run is invalid and is not scored.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// config is one invocation.
type config struct {
	w         workload
	seed      uint64
	seconds   float64
	trace     bool
	setups    int           // least set-ups per measurement; setup_s is their median
	setupTime time.Duration // set up again until this much time is spent (at most maxSetups)
	stateRoot string        // durable state directories live under it
	traceDir  string        // span files
}

// Set-up runs at least setupReps times and until setupTime has gone
// into it, so that setup_s is a median of many samples also on the
// small query graph, where one set-up takes about 50 ms.
const (
	setupReps = 5
	setupTime = time.Second
	maxSetups = 25
)

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("servebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "query, ingest or mixed")
	seed := fs.Uint64("seed", 1, "input seed")
	secs := fs.Float64("seconds", 10, "length of the measured phase")
	trace := fs.Int("trace", 0, "1 = add a traced measurement and report per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok || *secs <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "servebench: want --workload query|ingest|mixed, --seconds > 0, --trace 0|1\n")
		return 2
	}
	cfg := config{
		w: w, seed: *seed, seconds: *secs, trace: *trace == 1, setups: setupReps, setupTime: setupTime,
		stateRoot: filepath.Join(".bench_build", "state"),
		traceDir:  filepath.Join(".bench_build", "traces"),
	}
	return execute(context.Background(), cfg, stdout, stderr)
}

// errInvalid marks a run whose open-loop generator fell behind.
var errInvalid = errors.New("run invalid")

func execute(ctx context.Context, cfg config, stdout, stderr io.Writer) int {
	runtime.GOMAXPROCS(runtime.NumCPU())
	w := cfg.w
	genStart := time.Now()
	in := generate(w, cfg.seed, cfg.seconds)
	fmt.Fprintf(stdout, "# servebench workload=%s seed=%d commit=%s gomaxprocs=%d nproc=%d cpu=%q go=%s\n",
		w.name, cfg.seed, commit(), runtime.GOMAXPROCS(0), runtime.NumCPU(), cpuModel(), runtime.Version())
	fmt.Fprintf(stdout, "# inputs: %s sha256=%s generated in %.2fs\n", describe(in), in.digest(), time.Since(genStart).Seconds())

	if err := os.MkdirAll(cfg.stateRoot, 0o755); err != nil {
		fmt.Fprintf(stderr, "servebench: %v\n", err)
		return 1
	}
	dir, err := os.MkdirTemp(cfg.stateRoot, "run-")
	if err != nil {
		fmt.Fprintf(stderr, "servebench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(dir)

	base, err := measure(ctx, cfg, in, dir, nil)
	if err == nil {
		err = report(stdout, "", in, base)
	}
	if err != nil {
		return fail(stderr, err)
	}
	e2e := base.endToEndValues(w)
	correct := base.correct()
	result := map[string]float64{}
	units := map[string]string{}
	if !cfg.trace {
		for _, d := range endToEnd {
			result[d.name], units[d.name] = e2e[d.name], d.unit
		}
	} else {
		tr := newTracer()
		traced, err := measure(ctx, cfg, in, dir, tr)
		if err == nil {
			err = report(stdout, "traced ", in, traced)
		}
		if err != nil {
			return fail(stderr, err)
		}
		correct = correct && traced.correct()
		te2e := traced.endToEndValues(w)
		for _, d := range endToEnd {
			fmt.Fprintf(stdout, "overhead %s: untraced %.4f %s, traced %.4f %s (%+.1f%%)\n",
				d.name, e2e[d.name], d.unit, te2e[d.name], d.unit, 100*(te2e[d.name]/e2e[d.name]-1))
		}
		layers := layerValues(tr.snapshot(), traced, in)
		for _, d := range perLayer {
			result[d.name], units[d.name] = layers[d.name], d.unit
			fmt.Fprintf(stdout, "%s %.6g %s (moves %s)\n", d.name, layers[d.name], d.unit, d.moves)
		}
		path := filepath.Join(cfg.traceDir, fmt.Sprintf("%s-%d.jsonl", w.name, cfg.seed))
		if err := tr.writeFile(path); err != nil {
			return fail(stderr, fmt.Errorf("writing spans: %w", err))
		}
		fmt.Fprintf(stdout, "spans: %s\n", path)
	}

	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{Correct: correct, Attempted: base.ph.attempted, Failed: base.ph.failed, Metrics: map[string]metric{}}
	for name, v := range result {
		out.Metrics[name] = metric{Value: v, Unit: units[name]}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return fail(stderr, err)
	}
	fmt.Fprintln(stdout, string(line))
	if !correct {
		return 1
	}
	return 0
}

func fail(stderr io.Writer, err error) int {
	fmt.Fprintf(stderr, "servebench: %v\n", err)
	if errors.Is(err, errInvalid) {
		return 3
	}
	return 1
}

// measure brings the stack up as cfg asks (keeping the last),
// runs the measured phase on it, and checks the outputs.
func measure(ctx context.Context, cfg config, in *inputs, dir string, t *tracer) (*measured, error) {
	m := &measured{ph: newPhase(in)}
	// What the benchmark itself keeps live (the inputs, the phase's
	// slots, an earlier measurement) is the baseline mem_peak_mb is
	// measured above. The second collection frees what an earlier
	// measurement left in the program's sync.Pool victim caches.
	runtime.GC()
	runtime.GC()
	m.ph.heapBase = liveHeap()
	var st *stack
	var spent time.Duration
	for i := 0; i < maxSetups && (i < cfg.setups || spent < cfg.setupTime); i++ {
		if st != nil {
			st.close()
		}
		runtime.GC()
		s, d, err := setUp(ctx, in, dir, t)
		if err != nil {
			return nil, err
		}
		st = s
		m.setups = append(m.setups, d)
		spent += d
	}
	defer st.close()
	if in.w.name == "query" {
		if err := warmBatches(ctx, st, in); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	runtime.GC()
	drive(ctx, st, in, cfg.seconds, t, m.ph)
	m.checks = verify(ctx, st, in, m.ph)
	return m, nil
}

// report prints one measurement: set-up, latencies under their own
// names, failures, memory, generator lateness and the checks. It
// returns errInvalid when the generator ran later than allowed.
func report(out io.Writer, prefix string, in *inputs, m *measured) error {
	w, ph := in.w, m.ph
	fmt.Fprintf(out, "%ssetup_s %.4f s (median of %d: %s)\n", prefix, median(seconds(m.setups)), len(m.setups), fmtSeconds(m.setups))
	for _, op := range []string{"solve", "update", "topk"} {
		lat, ok := ph.lat[op]
		if !ok {
			continue
		}
		l := summarize(lat)
		fmt.Fprintf(out, "%s%s_p50_ms %.4f ms (n=%d)\n", prefix, op, l.p50, l.n)
		fmt.Fprintf(out, "%s%s_tail_ms %.4f ms (%s)\n", prefix, op, l.tail, l.tailLabel())
	}
	if w.name == "ingest" {
		fmt.Fprintf(out, "%supdate_per_s %.4f 1/s (%d committed in %.2fs)\n", prefix, float64(ph.applied)/ph.elapsed.Seconds(), ph.applied, ph.elapsed.Seconds())
	}
	frac := 0.0
	if ph.attempted > 0 {
		frac = float64(ph.failed) / float64(ph.attempted)
	}
	fmt.Fprintf(out, "%sfailed_frac %.4f (%d of %d attempted)\n", prefix, frac, ph.failed, ph.attempted)
	for _, err := range ph.errs {
		fmt.Fprintf(out, "%s  failure: %v\n", prefix, err)
	}
	fmt.Fprintf(out, "%smem_peak_mb %.4f MB (peak live heap above the benchmark's own %.1f MB)\n", prefix, ph.memPeakMB, float64(ph.heapBase)/1e6)
	var invalid error
	if len(ph.late) > 0 {
		late := slices.Clone(ph.late)
		slices.Sort(late)
		p50, worst := late[len(late)/2], late[len(late)-1]
		fmt.Fprintf(out, "%sgenerator_late_ms p50 %.3f max %.3f (bound p50 %.0f max %.0f, %d sends)\n",
			prefix, ms(p50), ms(worst), ms(maxLateP50), ms(maxLate), len(late))
		if p50 > maxLateP50 || worst > maxLate {
			invalid = fmt.Errorf("%w: the open-loop generator ran late (p50 %v, max %v)", errInvalid, p50, worst)
		}
	}
	for _, c := range m.checks {
		if c.err != nil {
			fmt.Fprintf(out, "%scheck %s: FAILED: %v\n", prefix, c.name, c.err)
		} else {
			fmt.Fprintf(out, "%scheck %s: ok, %s\n", prefix, c.name, c.detail)
		}
	}
	return invalid
}

func fmtSeconds(ds []time.Duration) string {
	parts := make([]string, len(ds))
	for i, d := range ds {
		parts[i] = fmt.Sprintf("%.4f", d.Seconds())
	}
	return strings.Join(parts, " ")
}

// describe lists the workload's inputs for the run header.
func describe(in *inputs) string {
	w := in.w
	s := fmt.Sprintf("power=%d n=%d nnz=%d k=%d eps_h=%g tol=%g maxiter=%d labels=%g",
		w.power, in.g.N(), in.nnz, classes, epsilonH, solveTol, maxIter, labelFrac)
	switch w.name {
	case "query":
		s += fmt.Sprintf(" requests=%d poisson_rate=%g/s deadline=%v", len(in.requests), w.solveRate, w.deadline)
	case "ingest":
		s += fmt.Sprintf(" batch=%d closed_loop cycles=%d", w.batchSize, len(in.cycles))
	case "mixed":
		s += fmt.Sprintf(" batch=%d write_rate=%g/s writes=%d topk=%d", w.batchSize, w.writeRate, len(in.sends), w.topK)
	}
	return s
}

// commit names the checked-out commit, or "unknown" when the run is
// not at the root of a git work tree.
func commit() string {
	if _, err := os.Stat(".git"); err != nil {
		return "unknown"
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	out, err := exec.CommandContext(ctx, "git", "rev-parse", "--short=12", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}
