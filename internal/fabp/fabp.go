// Package fabp implements the binary-case (k = 2) linearization of
// belief propagation from Appendix E, the multivariate generalization of
// which is LinBP. In the binary case the residual system collapses to a
// scalar per node: with residual coupling strength ĥ (the Hˆ of
// [[ĥ, −ĥ], [−ĥ, ĥ]]) the steady state satisfies
//
//	(I_n − c1·A + c2·D)·b = e,
//	c1 = 2ĥ/(1−4ĥ²),  c2 = 4ĥ²/(1−4ĥ²),
//
// where b and e hold the first components of the centered binary
// beliefs. This matches FABP of Koutra et al. (after accounting for the
// factor-2 centering difference Appendix E discusses) and agrees with
// k = 2 LinBP up to the (1−4ĥ²) denominator, i.e. to O(ĥ³).
package fabp

import (
	"context"
	"fmt"
	"math"

	"repro/internal/dense"
	"repro/internal/errs"
	"repro/internal/graph"
	"repro/internal/kernel"
	"repro/internal/sparse"
)

// Options tunes the iterative Jacobi solver. The zero value selects
// defaults.
type Options struct {
	// MaxIter bounds the iterations (default 1000).
	MaxIter int
	// Tol is the max-change stopping criterion (default 1e-12).
	Tol float64
}

func (o Options) withDefaults() Options {
	if o.MaxIter == 0 {
		o.MaxIter = 1000
	}
	if o.Tol == 0 {
		o.Tol = 1e-12
	}
	return o
}

// Result carries the binary beliefs and solver diagnostics.
type Result struct {
	// B holds the scalar residual belief of class 0 per node (class 1
	// is its negation).
	B []float64
	// Iterations and Converged describe the Jacobi iteration.
	Iterations int
	Converged  bool
	Delta      float64
}

// Coefficients returns c1 = 2ĥ/(1−4ĥ²) and c2 = 4ĥ²/(1−4ĥ²) of Eq. 33.
// It panics unless |ĥ| < 1/2 (beyond that the linearization's implicit
// (I−Hˆ²)⁻¹ does not exist).
func Coefficients(hhat float64) (c1, c2 float64) {
	if math.Abs(hhat) >= 0.5 {
		panic(fmt.Sprintf("fabp: |ĥ| = %v must be < 1/2", hhat))
	}
	den := 1 - 4*hhat*hhat
	return 2 * hhat / den, 4 * hhat * hhat / den
}

// Engine is a binary FABP solver prepared once for a fixed graph and
// residual coupling strength ĥ and reused across solves — the k = 1
// instance of the fused kernel engine with the echo coupling overridden
// to c2 (Appendix E's coefficient is not c1², so the override hook
// exists precisely for this collapse). Steady-state SolveInto calls
// perform zero allocations.
//
// An Engine is not safe for concurrent use. Call Close when done.
type Engine struct {
	eng    *kernel.Engine
	ws     *kernel.Workspace
	n      int
	opts   Options
	closed bool
}

// NewEngine prepares a reusable binary solver for graph g and residual
// coupling strength hhat (|ĥ| must be < 1/2, else the linearization's
// implicit (I−Hˆ²)⁻¹ does not exist and ErrInvalidCoupling is wrapped).
func NewEngine(g *graph.Graph, hhat float64, opts Options) (*Engine, error) {
	return NewEngineCSR(g.Adjacency(), g.WeightedDegrees(), hhat, opts)
}

// NewEngineCSR is NewEngine over an explicit adjacency layout: a
// (possibly reordered) CSR and its matching squared-weight degree
// vector. The prepared-solver path uses it to run the scalar collapse
// over a locality-ordered graph; beliefs in the caller's node order are
// the caller's concern (core permutes them during its scalar
// expand/collapse copies, for free).
func NewEngineCSR(a *sparse.CSR, d []float64, hhat float64, opts Options) (*Engine, error) {
	return newEngine(kernel.Config{A: a, D: d}, a.Rows(), hhat, opts)
}

// NewEngineRows is NewEngineCSR over a row-block adjacency table that
// carries the squared-weight degrees; engines over one table's epochs
// follow commits through Rebind.
func NewEngineRows(rows *sparse.RowBlocks, hhat float64, opts Options) (*Engine, error) {
	return newEngine(kernel.Config{Rows: rows}, rows.Rows(), hhat, opts)
}

func newEngine(cfg kernel.Config, n int, hhat float64, opts Options) (*Engine, error) {
	opts = opts.withDefaults()
	if math.Abs(hhat) >= 0.5 {
		return nil, fmt.Errorf("fabp: |ĥ| = %v must be < 1/2: %w", hhat, errs.ErrInvalidCoupling)
	}
	c1, c2 := Coefficients(hhat)
	cfg.SymmetricA = true
	cfg.H = dense.NewFromRows([][]float64{{c1}})
	cfg.EchoH = dense.NewFromRows([][]float64{{c2}})
	ws := kernel.GetWorkspace()
	eng, err := kernel.New(cfg, ws)
	if err != nil {
		ws.Release()
		return nil, fmt.Errorf("fabp: %w", err)
	}
	return &Engine{eng: eng, ws: ws, n: n, opts: opts}, nil
}

// Rebind follows the engine's adjacency to a later epoch of its
// row-block table (see kernel.Engine.Rebind). The engine must be idle.
func (s *Engine) Rebind(rows *sparse.RowBlocks) error {
	if err := s.eng.Rebind(rows); err != nil {
		return fmt.Errorf("fabp: %w", err)
	}
	return nil
}

// SolveInto runs the Jacobi iteration for the class-0 explicit
// residuals e and writes the final scalar beliefs into dst (length n,
// overwritten). ctx is checked at every kernel round boundary; on
// cancellation the solve aborts with ctx.Err() and dst holds the last
// completed iterate.
func (s *Engine) SolveInto(ctx context.Context, dst, e []float64) (iters int, delta float64, converged bool, err error) {
	return s.SolveFromInto(ctx, dst, e, nil)
}

// SolveFromInto is SolveInto warm-started from the scalar beliefs start
// instead of b = 0 — the binary collapse of the incremental-maintenance
// path: the Jacobi contraction restarted near its unique fixpoint
// reaches tolerance in far fewer rounds after a small input change. A
// nil start is the ordinary cold solve.
func (s *Engine) SolveFromInto(ctx context.Context, dst, e, start []float64) (iters int, delta float64, converged bool, err error) {
	if s.closed {
		return 0, 0, false, fmt.Errorf("fabp: %w", errs.ErrClosed)
	}
	if len(e) != s.n || len(dst) != s.n {
		return 0, 0, false, fmt.Errorf("fabp: belief vector lengths %d/%d do not match n=%d: %w", len(e), len(dst), s.n, errs.ErrDimensionMismatch)
	}
	if start == nil {
		s.eng.ResetFast()
	} else {
		if len(start) != s.n {
			return 0, 0, false, fmt.Errorf("fabp: start vector length %d does not match n=%d: %w", len(start), s.n, errs.ErrDimensionMismatch)
		}
		s.eng.SetStart(start)
	}
	s.eng.SetExplicit(e)
	iters, delta, converged, err = s.eng.RunContext(ctx, s.opts.MaxIter, s.opts.Tol, nil)
	if iters == 0 {
		// Nothing ran: the last completed iterate is the starting point
		// (with ResetFast the engine buffer may hold a prior solve, so
		// it is not read).
		if start != nil {
			copy(dst, start)
		} else {
			for i := range dst {
				dst[i] = 0
			}
		}
		return iters, delta, converged, err
	}
	copy(dst, s.eng.Beliefs())
	return iters, delta, converged, err
}

// Close releases the kernel engine and its pooled workspace. Close is
// idempotent; the engine must not be used afterwards.
func (s *Engine) Close() {
	if s.closed {
		return
	}
	s.closed = true
	s.eng.Close()
	s.ws.Release()
}

// Run solves the binary steady-state system iteratively:
// b ← e + c1·A·b − c2·D·b starting from b = 0. e holds the class-0
// residual of the explicit beliefs (0 for unlabeled nodes).
func Run(g *graph.Graph, e []float64, hhat float64, opts Options) (*Result, error) {
	n := g.N()
	if len(e) != n {
		return nil, fmt.Errorf("fabp: explicit belief vector length %d does not match n=%d: %w", len(e), n, errs.ErrDimensionMismatch)
	}
	eng, err := NewEngine(g, hhat, opts)
	if err != nil {
		return nil, err
	}
	defer eng.Close()
	res := &Result{B: make([]float64, n)}
	res.Iterations, res.Delta, res.Converged, err = eng.SolveInto(context.Background(), res.B, e)
	if err != nil {
		return nil, err
	}
	return res, nil
}

// Message returns the steady-state residual message of Eq. 33,
//
//	mˆst = 4ĥ/(1−4ĥ²)·bˆs − 8ĥ²/(1−4ĥ²)·bˆt,
//
// given the endpoint beliefs. Provided mainly for documentation and
// tests; Run works directly on beliefs.
func Message(hhat, bs, bt float64) float64 {
	den := 1 - 4*hhat*hhat
	return 4*hhat/den*bs - 8*hhat*hhat/den*bt
}
