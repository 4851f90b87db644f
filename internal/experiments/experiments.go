// Package experiments regenerates every table and figure of the paper's
// evaluation (Section 7, Appendix F, Appendix G) on laptop-scale
// versions of the same workloads. Each experiment prints the rows or
// series the paper reports; cmd/experiments is the CLI front end and
// bench_test.go wraps the same code paths in testing.B benchmarks.
//
// Absolute wall-clock numbers differ from the paper (different hardware,
// Go instead of JAVA/PostgreSQL); the reproduced quantities are the
// shapes: who wins, by roughly what factor, and where crossovers fall.
// EXPERIMENTS.md records paper-vs-measured values.
package experiments

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"time"

	"repro/internal/beliefs"
	"repro/internal/core"
	"repro/internal/coupling"
	"repro/internal/dense"
	"repro/internal/gen"
	"repro/internal/graph"
)

// Config sizes the experiment runs. Zero values select defaults that
// finish in seconds.
type Config struct {
	// Out receives the report (default: discarded if nil — callers
	// should set it).
	Out io.Writer
	// MaxGraph is the largest Kronecker graph number (Fig. 6a's #1–#9)
	// used by in-memory timing experiments (default 4).
	MaxGraph int
	// MaxRelGraph bounds the relational-engine experiments, which are
	// slower per edge (default 3).
	MaxRelGraph int
	// Iterations for fixed-round timing runs (default 5, as the paper).
	Iterations int
	// Seed for workload generation.
	Seed uint64
}

func (c Config) withDefaults() Config {
	if c.Out == nil {
		c.Out = io.Discard
	}
	if c.MaxGraph == 0 {
		c.MaxGraph = 4
	}
	if c.MaxRelGraph == 0 {
		c.MaxRelGraph = 3
	}
	if c.Iterations == 0 {
		c.Iterations = 5
	}
	if c.Seed == 0 {
		c.Seed = 42
	}
	return c
}

// Experiment is one runnable reproduction unit.
type Experiment struct {
	// Name is the id used on the command line (e.g. "fig7a").
	Name string
	// Paper describes the corresponding artifact.
	Paper string
	// Run executes the experiment and writes its report.
	Run func(Config) error
}

// All returns every experiment in presentation order.
func All() []Experiment {
	return []Experiment{
		{"ex20", "Example 20 constants (thresholds, golden beliefs)", Example20},
		{"fig4", "Fig. 4(a–d): standardized beliefs vs εH on the torus", Fig4},
		{"fig6a", "Fig. 6(a): Kronecker graph table", Fig6a},
		{"fig7a", "Fig. 7(a): in-memory scalability BP vs LinBP", Fig7a},
		{"fig7b", "Fig. 7(b): relational scalability LinBP vs SBP vs ΔSBP", Fig7b},
		{"fig7c", "Fig. 7(c): timing table with ratios", Fig7c},
		{"fig7d", "Fig. 7(d): per-iteration time SBP vs LinBP", Fig7d},
		{"fig7e", "Fig. 7(e): ΔSBP vs SBP for fractions of new beliefs", Fig7e},
		{"fig7f", "Fig. 7(f): recall/precision of LinBP w.r.t. BP vs εH", Fig7f},
		{"fig7g", "Fig. 7(g): SBP and LinBP* w.r.t. LinBP vs εH", Fig7g},
		{"fig10a", "Fig. 10(a): runtime vs fraction of explicit beliefs", Fig10a},
		{"fig10b", "Fig. 10(b): ΔSBP vs SBP for fractions of new edges", Fig10b},
		{"fig11b", "Fig. 11(b): DBLP-like F1 vs εH", Fig11b},
		{"appg", "Appendix G: LinBP criteria vs Mooij–Kappen BP bound", AppendixG},
		{"incr", "Section 8: incremental updates, warm vs cold re-solve", Incremental},
	}
}

// Lookup returns the experiment with the given name.
func Lookup(name string) (Experiment, bool) {
	for _, e := range All() {
		if e.Name == name {
			return e, true
		}
	}
	return Experiment{}, false
}

// fig6b returns the synthetic-experiment coupling matrix Hˆo.
func fig6b() *dense.Matrix { return coupling.Fig6bResidual() }

// kronProblem builds the paper's synthetic workload for graph #num:
// the Kronecker graph plus 5% random explicit beliefs.
func kronProblem(num int, cfg Config) (*graph.Graph, *beliefs.Residual) {
	g := gen.Kronecker(gen.KroneckerGraphNumber(num))
	e, _ := beliefs.Seed(g.N(), 3, beliefs.SeedConfig{Fraction: 0.05, Seed: cfg.Seed + uint64(num)})
	return g, e
}

// solveOnce answers one solve of p's explicit beliefs on a freshly
// prepared solver and closes it. A run that exhausts its iteration
// budget is a result, not an error: the sweeps cross the convergence
// boundary on purpose and read Result.Converged.
func solveOnce(p *core.Problem, m core.Method, opts ...core.Option) (*core.Result, error) {
	s, err := core.Prepare(p, m, opts...)
	if err != nil {
		return nil, err
	}
	defer s.Close()
	res, err := s.Solve(context.Background(), p.Explicit)
	if err != nil && !errors.Is(err, core.ErrNotConverged) {
		return nil, err
	}
	return res, nil
}

// timeIt measures one execution of fn.
func timeIt(fn func()) time.Duration {
	start := time.Now()
	fn()
	return time.Since(start)
}

// logspace returns n log-spaced values from lo to hi inclusive.
func logspace(lo, hi float64, n int) []float64 {
	if n < 2 {
		return []float64{lo}
	}
	out := make([]float64, n)
	ratio := hi / lo
	for i := range out {
		out[i] = lo * math.Pow(ratio, float64(i)/float64(n-1))
	}
	return out
}

// header prints a section header.
func header(w io.Writer, title string) {
	fmt.Fprintf(w, "\n== %s ==\n", title)
}
