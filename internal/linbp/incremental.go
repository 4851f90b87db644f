package linbp

import (
	"fmt"

	"repro/internal/beliefs"
	"repro/internal/dense"
	"repro/internal/errs"
	"repro/internal/graph"
	"repro/internal/kernel"
)

// The maintained-state Incremental type that used to live here was
// superseded by the epoch-versioned dynamic solver (core/dynamic.go,
// reached through a prepared Solver's Update): incremental maintenance
// now runs through the prepared kernel engines, layouts, partitions,
// and concurrency machinery instead of this package's one-shot path.
// What remains is the warm-start run primitive.

// runFrom is Run with a caller-provided starting point instead of Bˆ = 0.
// It drives the fused kernel engine with a pooled workspace. The
// fixpoint of Eq. 4 is unique whenever ρ < 1, so restarting the
// contraction from a nearby point yields the same solution in fewer
// iterations, with the iteration count shrinking as the perturbation
// shrinks.
func runFrom(g *graph.Graph, e *beliefs.Residual, h *dense.Matrix, opts Options, start *beliefs.Residual) (*Result, error) {
	opts = opts.withDefaults()
	n, k, err := validate(g, e, h)
	if err != nil {
		return nil, err
	}
	if start != nil && (start.N() != n || start.K() != k) {
		return nil, fmt.Errorf("linbp: start matrix %dx%d does not match n=%d k=%d: %w", start.N(), start.K(), n, k, errs.ErrDimensionMismatch)
	}
	var d []float64
	if opts.EchoCancellation {
		d = g.WeightedDegrees()
	}
	ws := kernel.GetWorkspace()
	defer ws.Release()
	eng, err := kernel.New(kernel.Config{A: g.Adjacency(), D: d, H: h, Workers: opts.Workers, SymmetricA: true}, ws)
	if err != nil {
		return nil, fmt.Errorf("linbp: %w", err)
	}
	defer eng.Close()
	eng.SetExplicit(e.Matrix().Data())
	if start != nil {
		eng.SetStart(start.Matrix().Data())
	}

	res := &Result{}
	res.Iterations, res.Delta, res.Converged = eng.Run(opts.MaxIter, opts.Tol, opts.OnIteration)
	bm := dense.New(n, k)
	copy(bm.Data(), eng.Beliefs())
	res.Beliefs = beliefs.FromMatrix(bm)
	return res, nil
}
