// Command lsbp runs one of the paper's inference methods on a graph
// given as an edge list plus a label file, and prints the top belief
// assignment per node. It drives the prepared-Solver API: the problem
// is prepared once, solved under an optional -timeout deadline
// (context cancellation aborts a running solve at iteration-round
// granularity), and the solver's serving stats line is reported.
//
// Usage:
//
//	lsbp -edges graph.txt -labels labels.txt -k 3 -method linbp
//
// graph.txt holds "s t [w]" lines; labels.txt holds "node class" lines
// for the explicitly labeled nodes. With -eps 0 (the default) a safe
// εH is derived from the exact convergence criterion (Lemma 8). The
// coupling defaults to k-class homophily; -coupling FILE loads a k×k
// stochastic coupling matrix (whitespace-separated rows) instead.
// -workers runs the rounds of LinBP, LinBP*, and FABP on a span pool
// of that many goroutines (0 = the serial kernel). -schedule picks the
// kernel execution schedule: rounds (the default synchronous plane),
// residual (a priority queue relaxes only rows whose residual exceeds
// tolerance — localized updates cost what they touch), or auto (rounds
// for cold solves, residual for localized re-solves). -updates FILE
// replays an edge/belief event stream ('add s t [w]', 'del s t',
// 'label node class [strength]', 'commit') against the prepared solver
// through the epoch-versioned Update path, printing the top-belief
// assignment per epoch instead of the single one-shot solve.
//
// -state DIR makes the solver durable: the first invocation prepares
// from -edges/-labels and persists a checksummed snapshot plus a
// write-ahead log of every update under DIR (fsync cadence set by
// -fsync); later invocations find the snapshot and recover from it —
// replaying any logged updates a crash left behind — without re-reading
// the input files or re-preparing (-edges, -labels, -k, -method, -eps
// are then taken from the recovered state and the flags are ignored).
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"

	lsbp "repro"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with injectable arguments and streams, so the golden-file
// tests can execute the command end to end in-process.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("lsbp", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		edgesPath = fs.String("edges", "", "edge list file: 's t [w]' per line (required)")
		labelPath = fs.String("labels", "", "label file: 'node class' per line (required)")
		k         = fs.Int("k", 2, "number of classes")
		method    = fs.String("method", "linbp", "bp | linbp | linbpstar | sbp | fabp")
		eps       = fs.Float64("eps", 0, "εH coupling scale; 0 = auto from Lemma 8")
		strength  = fs.Float64("homophily", 0.8, "homophily strength for the default coupling")
		coupPath  = fs.String("coupling", "", "optional k×k stochastic coupling matrix file")
		maxIter   = fs.Int("maxiter", 200, "iteration cap for iterative methods")
		tol       = fs.Float64("tol", 0, "convergence tolerance (0 = method default; negative forces maxiter rounds)")
		workers   = fs.Int("workers", 0, "kernel worker goroutines (0 = serial)")
		timeout   = fs.Duration("timeout", 0, "abort the solve after this duration (0 = no limit)")
		orderFlag = fs.String("order", "auto", "prepare-time node reordering: auto | rcm | degree | none")
		schedFlag = fs.String("schedule", "rounds", "kernel execution schedule: rounds | residual | auto")
		updates   = fs.String("updates", "", "event stream file replayed against the prepared solver: 'add s t [w]' | 'del s t' | 'label node class [strength]' | 'commit' lines; beliefs print per epoch")
		statePath = fs.String("state", "", "durable state directory: first run persists a snapshot + update WAL there, later runs recover from it (ignoring -edges/-labels)")
		fsyncFlag = fs.String("fsync", "always", "WAL fsync cadence under -state: always | interval=N | never")
		verbose   = fs.Bool("v", false, "print the solver stats line (ordering, bandwidth, epochs, iterations) to stderr")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	recovering := *statePath != "" && lsbp.HasState(*statePath)
	if !recovering && (*edgesPath == "" || *labelPath == "") {
		fs.Usage()
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "lsbp:", err)
		return 1
	}

	sched, err := lsbp.ParseSchedule(*schedFlag)
	if err != nil {
		return fail(err)
	}

	var pol lsbp.DurabilityPolicy
	if *statePath != "" {
		var err error
		if pol, err = parseFsync(*fsyncFlag); err != nil {
			return fail(err)
		}
	}

	var s lsbp.Solver
	var e *lsbp.Beliefs
	var m lsbp.Method
	if recovering {
		var err error
		s, err = lsbp.Open(*statePath, lsbp.WithDurability(*statePath, pol),
			lsbp.WithMaxIter(*maxIter), lsbp.WithTol(*tol), lsbp.WithWorkers(*workers),
			lsbp.WithSchedule(sched))
		if err != nil {
			return fail(err)
		}
		defer s.Close()
		st := s.Stats()
		m = st.Method
		fmt.Fprintf(stderr, "recovered %v state from %s: n=%d k=%d updates=%d eps_H=%g\n",
			st.Method, *statePath, st.N, st.K, st.Updates, st.EpsilonH)
	} else {
		g, err := loadGraph(*edgesPath)
		if err != nil {
			return fail(err)
		}
		if e, err = loadLabels(*labelPath, g.N(), *k); err != nil {
			return fail(err)
		}

		ho := lsbp.Homophily(*k, *strength)
		if *coupPath != "" {
			mat, err := loadMatrix(*coupPath, *k)
			if err != nil {
				return fail(err)
			}
			ho, err = lsbp.NewCouplingFromStochastic(mat)
			if err != nil {
				return fail(err)
			}
		}

		if m, err = parseMethod(*method); err != nil {
			return fail(err)
		}

		reorder, err := lsbp.ParseReordering(*orderFlag)
		if err != nil {
			return fail(err)
		}

		opts := []lsbp.Option{
			lsbp.WithMaxIter(*maxIter), lsbp.WithTol(*tol),
			lsbp.WithWorkers(*workers), lsbp.WithReordering(reorder),
			lsbp.WithSchedule(sched),
		}
		if *eps == 0 && m != lsbp.SBP {
			opts = append(opts, lsbp.WithAutoEpsilonH())
		}
		if *statePath != "" {
			opts = append(opts, lsbp.WithDurability(*statePath, pol))
		}

		p := &lsbp.Problem{Graph: g, Explicit: e, Ho: ho, EpsilonH: *eps}
		if s, err = lsbp.Prepare(p, m, opts...); err != nil {
			return fail(err)
		}
		defer s.Close()
		if *eps == 0 && m != lsbp.SBP {
			fmt.Fprintf(stderr, "auto eps_H = %g\n", s.Stats().EpsilonH)
		}
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	if *updates != "" {
		st := s.Stats()
		batches, err := loadUpdates(*updates, st.N, st.K)
		if err != nil {
			return fail(err)
		}
		if err := replayUpdates(ctx, s, batches, stdout, stderr); err != nil {
			return fail(err)
		}
		if *verbose {
			st := s.Stats()
			fmt.Fprintf(stderr, "stats: method=%v n=%d k=%d ordering=%v schedule=%v epochs=%d updates=%d rebuilds=%d overlay=%d iters=%d relaxed=%d qpeak=%d\n",
				st.Method, st.N, st.K, st.Ordering, st.Schedule, st.Epoch, st.Updates, st.Rebuilds, st.OverlayNNZ, st.Iterations,
				st.ResidualRowsRelaxed, st.ResidualQueuePeak)
		}
		return 0
	}

	var res *lsbp.Result
	if recovering {
		// No explicit-belief file on the recovered path: an empty Update
		// re-solves the maintained problem (graph and beliefs as of the
		// last logged batch).
		res, err = s.Update(ctx, lsbp.Update{})
	} else {
		res, err = s.Solve(ctx, e)
	}
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return fail(fmt.Errorf("solve exceeded -timeout %v after %d iterations", *timeout, s.Stats().Iterations))
	case errors.Is(err, lsbp.ErrNotConverged):
		fmt.Fprintf(stderr, "warning: %v did not converge (delta %g)\n", m, res.Delta)
	case err != nil:
		return fail(err)
	}

	if *verbose {
		st := s.Stats()
		fmt.Fprintf(stderr, "stats: method=%v n=%d k=%d ordering=%v bandwidth=%d→%d schedule=%v iters=%d converged=%v relaxed=%d qpeak=%d\n",
			st.Method, st.N, st.K, st.Ordering, st.BandwidthBefore, st.BandwidthAfter,
			st.Schedule, res.Iterations, res.Converged,
			st.ResidualRowsRelaxed, st.ResidualQueuePeak)
	}

	w := bufio.NewWriter(stdout)
	defer w.Flush()
	for node, classes := range res.Beliefs.TopAssignment() {
		strs := make([]string, len(classes))
		for i, c := range classes {
			strs[i] = strconv.Itoa(c)
		}
		fmt.Fprintf(w, "%d %s\n", node, strings.Join(strs, ","))
	}
	return 0
}

// updateBatch is one committed event batch of a -updates stream plus
// its label count (for the per-epoch summary line).
type updateBatch struct {
	u      lsbp.Update
	labels int
}

// loadUpdates parses a -updates event stream: 'add s t [w]' inserts an
// edge (w defaults to 1), 'del s t' removes all edges between s and t,
// 'label node class [strength]' installs an explicit belief (strength
// defaults to 0.1), and 'commit' closes a batch (empty commits are
// no-ops). Trailing events commit implicitly at EOF; blank lines and
// '#' comments are skipped. One subtlety preserves event order: an
// Update applies its additions before its removals, so an 'add'
// following a 'del' of the same pair within one batch would be undone
// by its own batch — the parser commits the pending batch first, so
// the delete lands in its own epoch and the re-add survives.
func loadUpdates(path string, n, k int) ([]updateBatch, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []updateBatch
	var cur updateBatch
	pending := false
	deleted := make(map[[2]int]bool) // pairs removed in the pending batch
	flush := func() {
		if pending {
			out = append(out, cur)
			cur = updateBatch{}
			pending = false
			deleted = make(map[[2]int]bool)
		}
	}
	sc := bufio.NewScanner(f)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Fields(text)
		bad := func(msg string) error { return fmt.Errorf("%s:%d: %s: %q", path, line, msg, text) }
		switch fields[0] {
		case "commit":
			if len(fields) != 1 {
				return nil, bad("want bare 'commit'")
			}
			flush()
		case "add", "del":
			if len(fields) < 3 || len(fields) > 4 || (fields[0] == "del" && len(fields) != 3) {
				return nil, bad("want 'add s t [w]' or 'del s t'")
			}
			s, err1 := strconv.Atoi(fields[1])
			t, err2 := strconv.Atoi(fields[2])
			if err1 != nil || err2 != nil {
				return nil, bad("bad endpoint")
			}
			if s < 0 || s >= n || t < 0 || t >= n {
				return nil, bad(fmt.Sprintf("endpoint outside graph (n=%d)", n))
			}
			pair := [2]int{s, t}
			if s > t {
				pair = [2]int{t, s}
			}
			if fields[0] == "del" {
				cur.u.RemoveEdges = append(cur.u.RemoveEdges, lsbp.Edge{S: s, T: t})
				deleted[pair] = true
			} else {
				w := 1.0
				if len(fields) == 4 {
					if w, err = strconv.ParseFloat(fields[3], 64); err != nil || !(w > 0) || math.IsInf(w, 1) {
						return nil, bad("bad weight (want finite > 0)")
					}
				}
				if deleted[pair] {
					flush() // see the event-order note above
				}
				cur.u.AddEdges = append(cur.u.AddEdges, lsbp.Edge{S: s, T: t, W: w})
			}
			pending = true
		case "label":
			if len(fields) < 3 || len(fields) > 4 {
				return nil, bad("want 'label node class [strength]'")
			}
			node, err1 := strconv.Atoi(fields[1])
			class, err2 := strconv.Atoi(fields[2])
			if err1 != nil || err2 != nil {
				return nil, bad("bad node or class")
			}
			if node < 0 || node >= n || class < 0 || class >= k {
				return nil, bad(fmt.Sprintf("node or class out of range (n=%d k=%d)", n, k))
			}
			strength := 0.1
			if len(fields) == 4 {
				// Zero would encode an all-zero residual row, which the
				// Update contract treats as "leave untouched" — the
				// event would silently no-op; NaN/Inf would poison the
				// beliefs. Reject all three.
				strength, err = strconv.ParseFloat(fields[3], 64)
				if err != nil || strength == 0 || math.IsNaN(strength) || math.IsInf(strength, 0) {
					return nil, bad("bad strength (want finite nonzero)")
				}
			}
			if cur.u.SetExplicit == nil {
				cur.u.SetExplicit = lsbp.NewBeliefs(n, k)
			}
			cur.u.SetExplicit.Set(node, lsbp.LabelResidual(k, class, strength))
			cur.labels++
			pending = true
		default:
			return nil, bad("unknown event")
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	flush()
	return out, nil
}

// replayUpdates drives the event stream through Solver.Update, printing
// the top-belief assignment after the initial solve (epoch 0) and
// after every committed batch.
func replayUpdates(ctx context.Context, s lsbp.Solver, batches []updateBatch, stdout, stderr io.Writer) error {
	w := bufio.NewWriter(stdout)
	defer w.Flush()
	printEpoch := func(i int, b updateBatch, res *lsbp.Result) {
		fmt.Fprintf(w, "epoch %d: +%d -%d edges, %d labels, iters=%d, converged=%v\n",
			i, len(b.u.AddEdges), len(b.u.RemoveEdges), b.labels, res.Iterations, res.Converged)
		for node, classes := range res.Beliefs.TopAssignment() {
			strs := make([]string, len(classes))
			for i, c := range classes {
				strs[i] = strconv.Itoa(c)
			}
			fmt.Fprintf(w, "%d %s\n", node, strings.Join(strs, ","))
		}
	}
	res, err := s.Update(ctx, lsbp.Update{})
	if err != nil && !errors.Is(err, lsbp.ErrNotConverged) {
		return fmt.Errorf("initial solve: %w", err)
	}
	if errors.Is(err, lsbp.ErrNotConverged) {
		fmt.Fprintf(stderr, "warning: epoch 0 did not converge (delta %g)\n", res.Delta)
	}
	printEpoch(0, updateBatch{}, res)
	for i, b := range batches {
		res, err := s.Update(ctx, b.u)
		if err != nil && !errors.Is(err, lsbp.ErrNotConverged) {
			return fmt.Errorf("epoch %d: %w", i+1, err)
		}
		if errors.Is(err, lsbp.ErrNotConverged) {
			fmt.Fprintf(stderr, "warning: epoch %d did not converge (delta %g)\n", i+1, res.Delta)
		}
		printEpoch(i+1, b, res)
	}
	return nil
}

// parseMethod maps the -method flag onto the Method enum.
func parseMethod(name string) (lsbp.Method, error) {
	switch strings.ToLower(name) {
	case "bp":
		return lsbp.BP, nil
	case "linbp":
		return lsbp.LinBP, nil
	case "linbpstar", "linbp*":
		return lsbp.LinBPStar, nil
	case "sbp":
		return lsbp.SBP, nil
	case "fabp":
		return lsbp.FABP, nil
	default:
		return 0, fmt.Errorf("unknown method %q", name)
	}
}

// parseFsync maps the -fsync spellings onto WAL sync policies.
func parseFsync(s string) (lsbp.DurabilityPolicy, error) {
	switch {
	case s == "always":
		return lsbp.DurabilityPolicy{Sync: lsbp.SyncAlways}, nil
	case s == "never":
		return lsbp.DurabilityPolicy{Sync: lsbp.SyncNever}, nil
	case strings.HasPrefix(s, "interval="):
		n, err := strconv.Atoi(strings.TrimPrefix(s, "interval="))
		if err != nil || n < 1 {
			return lsbp.DurabilityPolicy{}, fmt.Errorf("invalid -fsync %q (want interval=N with N >= 1)", s)
		}
		return lsbp.DurabilityPolicy{Sync: lsbp.SyncInterval, Interval: n}, nil
	default:
		return lsbp.DurabilityPolicy{}, fmt.Errorf("invalid -fsync %q (want always, interval=N, or never)", s)
	}
}

func loadGraph(path string) (*lsbp.Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return lsbp.ReadEdgeList(f)
}

func loadLabels(path string, n, k int) (*lsbp.Beliefs, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	e := lsbp.NewBeliefs(n, k)
	sc := bufio.NewScanner(f)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Fields(text)
		if len(fields) != 2 {
			return nil, fmt.Errorf("%s:%d: want 'node class'", path, line)
		}
		node, err := strconv.Atoi(fields[0])
		if err != nil {
			return nil, fmt.Errorf("%s:%d: %v", path, line, err)
		}
		class, err := strconv.Atoi(fields[1])
		if err != nil {
			return nil, fmt.Errorf("%s:%d: %v", path, line, err)
		}
		if node < 0 || node >= n {
			return nil, fmt.Errorf("%s:%d: node %d outside graph (n=%d)", path, line, node, n)
		}
		if class < 0 || class >= k {
			return nil, fmt.Errorf("%s:%d: class %d outside [0,%d)", path, line, class, k)
		}
		e.Set(node, lsbp.LabelResidual(k, class, 0.1))
	}
	return e, sc.Err()
}

func loadMatrix(path string, k int) (*lsbp.Matrix, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var rows [][]float64
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		var row []float64
		for _, fstr := range strings.Fields(text) {
			v, err := strconv.ParseFloat(fstr, 64)
			if err != nil {
				return nil, err
			}
			row = append(row, v)
		}
		rows = append(rows, row)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(rows) != k {
		return nil, fmt.Errorf("coupling matrix has %d rows, want %d", len(rows), k)
	}
	return lsbp.NewMatrix(rows), nil
}
