package linbp

import (
	"context"
	"fmt"

	"repro/internal/beliefs"
	"repro/internal/dense"
	"repro/internal/errs"
	"repro/internal/graph"
	"repro/internal/kernel"
	"repro/internal/order"
	"repro/internal/sparse"
)

// Engine is a LinBP solver prepared once for a fixed graph and coupling
// and reused across many solves — the serving scenario where the same
// network answers classification queries for changing explicit beliefs.
// All n×k work buffers live in the underlying kernel engine, so
// steady-state SolveInto calls perform zero allocations.
//
// An Engine is not safe for concurrent use; run one per goroutine or
// serialize access. Call Close when done.
type Engine struct {
	eng    *kernel.Engine
	ws     *kernel.Workspace
	n, k   int
	opts   Options
	closed bool

	// perm, when non-nil, is the node relabeling (perm[old] = new) the
	// engine's adjacency layout was prepared under. Explicit beliefs
	// are permuted into eperm on the way in and results are permuted
	// back on the way out, so callers never see the internal order.
	perm  order.Permutation
	eperm []float64
}

// NewEngine prepares a reusable solver for graph g and residual
// coupling h (already scaled by εH). opts.OnIteration is honored on
// every solve.
func NewEngine(g *graph.Graph, h *dense.Matrix, opts Options) (*Engine, error) {
	var d []float64
	if opts.EchoCancellation {
		d = g.WeightedDegrees()
	}
	return NewEngineLayout(g.Adjacency(), d, h, nil, opts)
}

// NewEngineLayout prepares an engine over an explicit adjacency layout:
// a (possibly reordered) CSR a, the matching degree vector d (nil
// disables echo cancellation regardless of opts.EchoCancellation), and
// the relabeling perm (perm[old] = new; nil for the natural order)
// under which a and d were produced. The layout optimizer in the
// prepared-solver path uses this to serve solves over a
// locality-ordered graph while callers keep their node ids: explicit
// beliefs are permuted in, results are permuted back out, with no
// steady-state allocations beyond NewEngine's.
func NewEngineLayout(a *sparse.CSR, d []float64, h *dense.Matrix, perm []int, opts Options) (*Engine, error) {
	return newEngine(kernel.Config{A: a, D: d}, h, perm, opts)
}

// NewEngineRows is NewEngineLayout over a row-block adjacency table:
// the degrees (and with them echo cancellation) come from the table.
// Engines over one table's epochs follow commits through Rebind.
func NewEngineRows(rows *sparse.RowBlocks, h *dense.Matrix, perm []int, opts Options) (*Engine, error) {
	return newEngine(kernel.Config{Rows: rows}, h, perm, opts)
}

func newEngine(cfg kernel.Config, h *dense.Matrix, perm []int, opts Options) (*Engine, error) {
	opts = opts.withDefaults()
	n, k := 0, h.Rows()
	if cfg.Rows != nil {
		n = cfg.Rows.Rows()
	} else {
		n = cfg.A.Rows()
	}
	if h.Cols() != k {
		return nil, fmt.Errorf("linbp: coupling matrix %dx%d is not square: %w", h.Rows(), h.Cols(), errs.ErrDimensionMismatch)
	}
	if perm != nil && len(perm) != n {
		return nil, fmt.Errorf("linbp: permutation length %d does not match n=%d: %w", len(perm), n, errs.ErrDimensionMismatch)
	}
	cfg.H, cfg.Workers, cfg.SymmetricA = h, opts.Workers, true
	ws := kernel.GetWorkspace()
	eng, err := kernel.New(cfg, ws)
	if err != nil {
		ws.Release()
		return nil, fmt.Errorf("linbp: %w", err)
	}
	e := &Engine{eng: eng, ws: ws, n: n, k: k, opts: opts, perm: perm}
	if perm != nil {
		e.eperm = make([]float64, n*k)
	}
	return e, nil
}

// Rebind follows the engine's adjacency to a later epoch of its
// row-block table (see kernel.Engine.Rebind). The engine must be idle.
func (s *Engine) Rebind(rows *sparse.RowBlocks) error {
	if err := s.eng.Rebind(rows); err != nil {
		return fmt.Errorf("linbp: %w", err)
	}
	return nil
}

// RunLayout runs one solve on flat buffers in the engine's layout
// order (no permutation): e holds the explicit beliefs (n×k) and start
// the warm start (nil solves cold). It returns a view of the final
// iterate, valid until the engine's next solve; when no round ran
// (iters == 0) the view is not meaningful.
//
//lsbp:hotpath
func (s *Engine) RunLayout(ctx context.Context, e, start []float64) (state []float64, iters int, delta float64, converged bool, err error) {
	if s.closed {
		return nil, 0, 0, false, fmt.Errorf("linbp: %w", errs.ErrClosed)
	}
	if start == nil {
		s.eng.ResetFast()
	} else {
		s.eng.SetStart(start)
	}
	s.eng.SetExplicit(e)
	iters, delta, converged, err = s.eng.RunContext(ctx, s.opts.MaxIter, s.opts.Tol, s.opts.OnIteration)
	return s.eng.Beliefs(), iters, delta, converged, err
}

// Solve runs LinBP for the explicit beliefs e, allocating a fresh
// result. Use SolveInto for the zero-allocation path.
func (s *Engine) Solve(e *beliefs.Residual) (*Result, error) {
	dst := beliefs.New(s.n, s.k)
	iters, delta, converged, err := s.SolveInto(dst, e)
	if err != nil {
		return nil, err
	}
	return &Result{Beliefs: dst, Iterations: iters, Converged: converged, Delta: delta}, nil
}

// SolveInto runs LinBP for the explicit beliefs e and writes the final
// residual beliefs into dst (n×k, overwritten). In steady state it
// performs no allocations.
//
//lsbp:hotpath
func (s *Engine) SolveInto(dst *beliefs.Residual, e *beliefs.Residual) (iters int, delta float64, converged bool, err error) {
	return s.SolveIntoContext(context.Background(), dst, e)
}

// SolveIntoContext is SolveInto with cooperative cancellation: ctx is
// checked at every kernel round boundary, and on cancellation the
// solve aborts with ctx.Err() after at most one more round. dst then
// holds the last completed iterate.
//
//lsbp:hotpath
func (s *Engine) SolveIntoContext(ctx context.Context, dst *beliefs.Residual, e *beliefs.Residual) (iters int, delta float64, converged bool, err error) {
	if s.closed {
		return 0, 0, false, fmt.Errorf("linbp: %w", errs.ErrClosed)
	}
	if e.N() != s.n || e.K() != s.k {
		return 0, 0, false, fmt.Errorf("linbp: belief matrix %dx%d does not match n=%d k=%d: %w", e.N(), e.K(), s.n, s.k, errs.ErrDimensionMismatch)
	}
	if dst.N() != s.n || dst.K() != s.k {
		return 0, 0, false, fmt.Errorf("linbp: destination matrix %dx%d does not match n=%d k=%d: %w", dst.N(), dst.K(), s.n, s.k, errs.ErrDimensionMismatch)
	}
	s.eng.ResetFast()
	ed := e.Matrix().Data()
	if s.perm == nil {
		s.eng.SetExplicit(ed)
	} else {
		// Shuffle the explicit beliefs into the engine's node order.
		s.perm.ApplyRows(s.eperm, ed, s.k)
		s.eng.SetExplicit(s.eperm)
	}
	iters, delta, converged, err = s.eng.RunContext(ctx, s.opts.MaxIter, s.opts.Tol, s.opts.OnIteration)
	dd := dst.Matrix().Data()
	if iters == 0 {
		// Nothing ran (pre-cancelled context or a zero iteration cap):
		// the last completed iterate is the zero start (with ResetFast
		// the engine buffer may hold a previous solve, so it is not
		// read).
		for i := range dd {
			dd[i] = 0
		}
		return iters, delta, converged, err
	}
	if s.perm == nil {
		copy(dd, s.eng.Beliefs())
	} else {
		// Un-shuffle straight from the engine state: one pass, no
		// intermediate buffer.
		s.perm.InvertRows(dd, s.eng.Beliefs(), s.k)
	}
	return iters, delta, converged, err
}

// Close releases the worker pool and returns the workspace to the
// package pool. The engine must not be used afterwards; Close is
// idempotent.
func (s *Engine) Close() {
	if s.closed {
		return
	}
	s.closed = true
	s.eng.Close()
	s.ws.Release()
}
