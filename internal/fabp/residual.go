package fabp

import (
	"context"
	"fmt"
	"math"

	"repro/internal/dense"
	"repro/internal/errs"
	"repro/internal/kernel"
	"repro/internal/sparse"
)

// ResidualEngine is the residual-scheduled counterpart of Engine: the
// k = 1 scalar collapse of Appendix E served by the push-based
// relaxation plane instead of synchronous Jacobi rounds. Like Engine
// it works on flat scalar vectors in the layout order; the caller
// (core's prepared-solver path) owns the collapse/expand and any node
// relabeling. Steady-state solves perform zero allocations.
//
// A ResidualEngine is not safe for concurrent use. It holds no
// goroutines; there is nothing to close.
type ResidualEngine struct {
	eng      *kernel.ResidualEngine
	n        int
	maxRelax int
}

// NewResidualEngineRows prepares a residual-scheduled binary solver
// over a row-block adjacency table carrying the squared-weight
// degrees, mirroring NewEngineRows. opts.Tol is the relaxation
// tolerance and must be positive (the residual schedule has no
// fixed-round mode); opts.MaxIter bounds the work at MaxIter·n row
// relaxations. opts.PartitionStarts is ignored — the plane is
// sequential.
func NewResidualEngineRows(rows *sparse.RowBlocks, hhat float64, opts Options) (*ResidualEngine, error) {
	opts = opts.withDefaults()
	if opts.Tol <= 0 {
		return nil, fmt.Errorf("fabp: residual schedule needs a positive tolerance, got %v: %w", opts.Tol, errs.ErrInvalidInput)
	}
	if math.Abs(hhat) >= 0.5 {
		return nil, fmt.Errorf("fabp: |ĥ| = %v must be < 1/2: %w", hhat, errs.ErrInvalidCoupling)
	}
	c1, c2 := Coefficients(hhat)
	eng, err := kernel.NewResidual(kernel.Config{
		Rows:       rows,
		SymmetricA: true,
		H:          dense.NewFromRows([][]float64{{c1}}),
		EchoH:      dense.NewFromRows([][]float64{{c2}}),
	}, opts.Tol)
	if err != nil {
		return nil, fmt.Errorf("fabp: %w", err)
	}
	return &ResidualEngine{eng: eng, n: rows.Rows(), maxRelax: opts.MaxIter * rows.Rows()}, nil
}

// Solve runs the residual-scheduled scalar solve seeded from the
// explicit beliefs e alone (the cold solve) and writes the final
// beliefs into dst (length n, overwritten, layout order). Return
// values mirror kernel.ResidualEngine.Run, with dst holding the
// current iterate at every exit.
//
//lsbp:hotpath
func (s *ResidualEngine) Solve(ctx context.Context, dst, e []float64) (relaxed, peak int, maxResid float64, converged bool, err error) {
	if len(e) != s.n || len(dst) != s.n {
		return 0, 0, 0, false, fmt.Errorf("fabp: belief vector lengths %d/%d do not match n=%d: %w", len(e), len(dst), s.n, errs.ErrDimensionMismatch)
	}
	s.eng.SeedExplicit(e)
	relaxed, peak, maxResid, converged, err = s.eng.Run(ctx, s.maxRelax)
	copy(dst, s.eng.Beliefs())
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
		return fmt.Errorf("fabp: %w", err)
	}
	return nil
}
