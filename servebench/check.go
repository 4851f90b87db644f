package main

import (
	"context"
	"fmt"
	"math"
	"slices"

	"repro/internal/beliefs"
	"repro/internal/core"
	"repro/internal/difftest"
	"repro/internal/serve"
)

// The correctness bounds. A served answer is a fused SolveBatch on
// the rounds schedule, so it matches a single rounds solve up to
// summation order. The published fixpoint comes from residual-
// scheduled re-solves, which README's tolerance budget bounds by
// difftest.ResidualScheduleTol.
const (
	queryTol    = 1e-9
	fixpointTol = difftest.ResidualScheduleTol
)

// check is the outcome of one correctness check.
type check struct {
	name   string
	detail string
	err    error
}

// verify runs the workload's correctness checks on a finished phase.
// They run after the timed phase, on the stack that served it.
func verify(ctx context.Context, st *stack, in *inputs, ph *phase) []check {
	var out []check
	add := func(name, detail string, err error) { out = append(out, check{name, detail, err}) }
	switch in.w.name {
	case "query":
		d, err := checkAnswers(ctx, in, ph.answers)
		add("answers", d, err)
	case "ingest", "mixed":
		if ph.writesFailed {
			add("fixpoint", "", fmt.Errorf("a write failed, so the final state is unknown"))
			break
		}
		pub, err := published(st.front, in.g.N())
		if err == nil {
			var d string
			d, err = checkFixpoint(ctx, in, ph.applied, pub)
			add("fixpoint", d, err)
		} else {
			add("fixpoint", "", err)
		}
		if in.w.name == "mixed" {
			add("topk", fmt.Sprintf("%d answers", len(ph.tops)), checkTops(ph.tops, in.w.topK))
		}
	}
	return out
}

// referenceSolver prepares a separate rounds-schedule solver on p.
func referenceSolver(p *core.Problem) (core.Solver, error) {
	return core.Prepare(p, core.MethodLinBP, core.WithTol(solveTol), core.WithMaxIter(maxIter), core.WithSchedule(core.ScheduleRounds))
}

// checkAnswers compares the sampled query answers against a reference
// solve of the same labels.
func checkAnswers(ctx context.Context, in *inputs, answers map[int]*beliefs.Residual) (string, error) {
	if len(answers) == 0 {
		return "", fmt.Errorf("none of the %d sampled requests was answered", len(in.sample))
	}
	ref, err := referenceSolver(in.problem())
	if err != nil {
		return "", fmt.Errorf("reference prepare: %w", err)
	}
	defer ref.Close()
	n := in.g.N()
	want := beliefs.New(n, classes)
	worst := 0.0
	idx := make([]int, 0, len(answers))
	for i := range answers {
		idx = append(idx, i)
	}
	slices.Sort(idx)
	for _, i := range idx {
		if _, err := ref.SolveInto(ctx, want, in.requests[i].residual(n, classes)); err != nil {
			return "", fmt.Errorf("reference solve of request %d: %w", i, err)
		}
		d := maxAbsDiff(answers[i], want)
		if !(d <= queryTol) {
			return "", fmt.Errorf("request %d: max |served - reference| = %.3g > %g", i, d, queryTol)
		}
		worst = max(worst, d)
	}
	return fmt.Sprintf("%d sampled answers, max |diff| %.3g <= %g", len(idx), worst, queryTol), nil
}

// published reads the front end's published fixpoint row by row.
func published(f *serve.FrontEnd, n int) (*beliefs.Residual, error) {
	b := beliefs.New(n, classes)
	for i := 0; i < n; i++ {
		row, err := f.Beliefs(i)
		if err != nil {
			return nil, fmt.Errorf("published belief of node %d: %w", i, err)
		}
		copy(b.Row(i), row)
	}
	return b, nil
}

// finalProblem rebuilds the maintained problem after the first
// applied batches of the write stream. Every cycle deletes the edges
// it inserted, so only an unfinished last cycle leaves edges behind.
func (in *inputs) finalProblem(applied int) *core.Problem {
	p := in.problem()
	for j := 1; j < applied; j += 3 {
		c, _ := in.batch(j)
		c.relabel.writeInto(p.Explicit)
	}
	if applied%3 != 0 {
		c, _ := in.batch(applied - 1)
		for _, e := range c.edges {
			p.Graph.AddEdge(e.S, e.T, e.W)
		}
	}
	return p
}

// checkFixpoint compares the published fixpoint after the write
// stream against a fresh Prepare and solve of the final problem.
func checkFixpoint(ctx context.Context, in *inputs, applied int, pub *beliefs.Residual) (string, error) {
	p := in.finalProblem(applied)
	ref, err := referenceSolver(p)
	if err != nil {
		return "", fmt.Errorf("reference prepare: %w", err)
	}
	defer ref.Close()
	want := beliefs.New(in.g.N(), classes)
	if _, err := ref.SolveInto(ctx, want, p.Explicit); err != nil {
		return "", fmt.Errorf("reference solve: %w", err)
	}
	d := maxAbsDiff(pub, want)
	if !(d <= fixpointTol) {
		return "", fmt.Errorf("after %d batches: max |published - fresh solve| = %.3g > %g", applied, d, fixpointTol)
	}
	return fmt.Sprintf("after %d batches, max |diff| %.3g <= %g", applied, d, fixpointTol), nil
}

// checkTops checks that every TopK answer has k rows, sorted by
// belief descending, all finite.
func checkTops(tops [][]serve.NodeBelief, k int) error {
	if len(tops) == 0 {
		return fmt.Errorf("no TopK answer")
	}
	for i, top := range tops {
		if len(top) != k {
			return fmt.Errorf("answer %d has %d rows, want %d", i, len(top), k)
		}
		for r, nb := range top {
			if math.IsNaN(nb.Belief) || math.IsInf(nb.Belief, 0) {
				return fmt.Errorf("answer %d row %d: belief %v", i, r, nb.Belief)
			}
			if r > 0 && nb.Belief > top[r-1].Belief {
				return fmt.Errorf("answer %d: row %d (%v) above row %d (%v)", i, r, nb.Belief, r-1, top[r-1].Belief)
			}
		}
	}
	return nil
}

// maxAbsDiff is the largest entrywise |a−b| (NaN if any entry is NaN).
func maxAbsDiff(a, b *beliefs.Residual) float64 {
	worst := 0.0
	for i := 0; i < a.N(); i++ {
		ra, rb := a.Row(i), b.Row(i)
		for c := range ra {
			d := math.Abs(ra[c] - rb[c])
			if math.IsNaN(d) {
				return d
			}
			worst = max(worst, d)
		}
	}
	return worst
}
