package linbp

import (
	"context"
	"fmt"

	"repro/internal/beliefs"
	"repro/internal/dense"
	"repro/internal/errs"
	"repro/internal/kernel"
	"repro/internal/order"
	"repro/internal/sparse"
)

// ResidualEngine is the residual-scheduled counterpart of Engine: the
// same prepared (graph, coupling) surface, served by the push-based
// relaxation plane of kernel.ResidualEngine instead of synchronous
// rounds. It carries the same permutation plumbing — explicit beliefs
// come in under the caller's node ids and are shuffled into the layout
// order in one pass — so the prepared-solver path can swap schedules
// without touching its belief handling. Steady-state solves perform
// zero allocations.
//
// A ResidualEngine is not safe for concurrent use; run one per
// goroutine or pool them as the prepared solvers do.
type ResidualEngine struct {
	eng      *kernel.ResidualEngine
	n, k     int
	maxRelax int
	closed   bool

	perm  order.Permutation
	eperm []float64 // permuted explicit beliefs
}

// NewResidualEngineRows prepares a residual-scheduled solver over a
// row-block adjacency table (the degrees, and with them echo
// cancellation, come from the table), mirroring NewEngineRows: h is
// the residual coupling (already scaled by εH) and perm the relabeling
// (perm[old] = new; nil for the natural order) the table was laid out
// under. opts.Tol is the relaxation tolerance and must be positive —
// the residual schedule has no fixed-round mode; opts.MaxIter bounds
// the work at MaxIter·n row relaxations, the budget of MaxIter full
// rounds. opts.Workers and opts.PartitionStarts are ignored (the plane
// is sequential); opts.OnIteration is not invoked (there are no rounds
// to observe).
func NewResidualEngineRows(rows *sparse.RowBlocks, h *dense.Matrix, perm []int, opts Options) (*ResidualEngine, error) {
	opts = opts.withDefaults()
	if opts.Tol <= 0 {
		return nil, fmt.Errorf("linbp: residual schedule needs a positive tolerance, got %v: %w", opts.Tol, errs.ErrInvalidInput)
	}
	n, k := rows.Rows(), h.Rows()
	if h.Cols() != k {
		return nil, fmt.Errorf("linbp: coupling matrix %dx%d is not square: %w", h.Rows(), h.Cols(), errs.ErrDimensionMismatch)
	}
	if perm != nil && len(perm) != n {
		return nil, fmt.Errorf("linbp: permutation length %d does not match n=%d: %w", len(perm), n, errs.ErrDimensionMismatch)
	}
	eng, err := kernel.NewResidual(kernel.Config{Rows: rows, H: h, SymmetricA: true}, opts.Tol)
	if err != nil {
		return nil, fmt.Errorf("linbp: %w", err)
	}
	s := &ResidualEngine{eng: eng, n: n, k: k, maxRelax: opts.MaxIter * n, perm: perm}
	if perm != nil {
		s.eperm = make([]float64, n*k)
	}
	return s, nil
}

// SolveContext runs the residual-scheduled solve seeded from the
// explicit beliefs e alone (the cold solve; nil e means Eˆ = 0). dst
// receives the final beliefs in the caller's node order at every exit.
// relaxed counts row relaxations, peak is the queue's high-water
// population, and maxResid is the largest residual magnitude remaining
// (at most the tolerance when converged).
//
//lsbp:hotpath
func (s *ResidualEngine) SolveContext(ctx context.Context, dst, e *beliefs.Residual) (relaxed, peak int, maxResid float64, converged bool, err error) {
	if s.closed {
		return 0, 0, 0, false, fmt.Errorf("linbp: %w", errs.ErrClosed)
	}
	if e != nil && (e.N() != s.n || e.K() != s.k) {
		return 0, 0, 0, false, fmt.Errorf("linbp: belief matrix %dx%d does not match n=%d k=%d: %w", e.N(), e.K(), s.n, s.k, errs.ErrDimensionMismatch)
	}
	if dst.N() != s.n || dst.K() != s.k {
		return 0, 0, 0, false, fmt.Errorf("linbp: destination matrix %dx%d does not match n=%d k=%d: %w", dst.N(), dst.K(), s.n, s.k, errs.ErrDimensionMismatch)
	}
	var ed []float64
	if e != nil {
		ed = e.Matrix().Data()
		if s.perm != nil {
			s.perm.ApplyRows(s.eperm, ed, s.k)
			ed = s.eperm
		}
	}
	s.eng.SeedExplicit(ed)
	relaxed, peak, maxResid, converged, err = s.eng.Run(ctx, s.maxRelax)
	dd := dst.Matrix().Data()
	if s.perm == nil {
		copy(dd, s.eng.Beliefs())
	} else {
		s.perm.InvertRows(dd, s.eng.Beliefs(), s.k)
	}
	return relaxed, peak, maxResid, converged, err
}

// Pushes returns the neighbor pushes of the last solve (see
// kernel.ResidualEngine.Pushes).
//
//lsbp:hotpath
func (s *ResidualEngine) Pushes() int { return s.eng.Pushes() }

// Rebind follows the engine's adjacency to a later epoch of its
// row-block table (see kernel.ResidualEngine.Rebind).
func (s *ResidualEngine) Rebind(rows *sparse.RowBlocks) error {
	if err := s.eng.Rebind(rows); err != nil {
		return fmt.Errorf("linbp: %w", err)
	}
	return nil
}

// Close marks the engine unusable. The residual plane holds no
// goroutines or pooled workspaces, so this only fences use-after-close;
// it is idempotent.
func (s *ResidualEngine) Close() {
	s.closed = true
}
