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
//
// The package holds the collapse itself: Coefficients gives c1 and c2,
// Run iterates the scalar system on the fused kernel (the k = 1
// operator with Hˆ = [c1] and the echo coupling overridden to [c2]),
// and Message evaluates the steady-state message of Eq. 33. The
// prepared solvers of package core serve FABP through the same kernel
// snapshot as LinBP, with this operator and a one-column layout.
package fabp

import (
	"context"
	"fmt"
	"math"

	"repro/internal/dense"
	"repro/internal/errs"
	"repro/internal/graph"
	"repro/internal/kernel"
)

// Options tunes the iterative Jacobi solver. The zero value selects
// defaults.
type Options struct {
	// MaxIter bounds the iterations (default DefaultMaxIter).
	MaxIter int
	// Tol is the max-change stopping criterion (default DefaultTol).
	Tol float64
}

// DefaultMaxIter and DefaultTol are the zero-value defaults of Options,
// exported so the prepared solvers iterate under exactly the same cap
// and tolerance as Run.
const (
	DefaultMaxIter = 1000
	DefaultTol     = 1e-12
)

func (o Options) withDefaults() Options {
	if o.MaxIter == 0 {
		o.MaxIter = DefaultMaxIter
	}
	if o.Tol == 0 {
		o.Tol = DefaultTol
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

// Run solves the binary steady-state system iteratively:
// b ← e + c1·A·b − c2·D·b starting from b = 0. e holds the class-0
// residual of the explicit beliefs (0 for unlabeled nodes). |ĥ| must be
// < 1/2, else the linearization's implicit (I−Hˆ²)⁻¹ does not exist and
// ErrInvalidCoupling is wrapped. A run that exhausts MaxIter returns
// its last iterate with Converged false; one whose iterate overflows
// fails with ErrNonFinite.
//
// Each round runs through the fused compute engine of package kernel,
// as the k = 1 operator with Hˆ = [c1] and the echo coupling overridden
// to [c2] (Appendix E's coefficient is not c1²); the work buffers come
// from the engine's workspace pool.
func Run(g *graph.Graph, e []float64, hhat float64, opts Options) (*Result, error) {
	opts = opts.withDefaults()
	n := g.N()
	if len(e) != n {
		return nil, fmt.Errorf("fabp: explicit belief vector length %d does not match n=%d: %w", len(e), n, errs.ErrDimensionMismatch)
	}
	if math.Abs(hhat) >= 0.5 {
		return nil, fmt.Errorf("fabp: |ĥ| = %v must be < 1/2: %w", hhat, errs.ErrInvalidCoupling)
	}
	c1, c2 := Coefficients(hhat)
	ws := kernel.GetWorkspace()
	defer ws.Release()
	eng, err := kernel.New(kernel.Config{
		A: g.Adjacency(), D: g.WeightedDegrees(),
		H:          dense.NewFromRows([][]float64{{c1}}),
		EchoH:      dense.NewFromRows([][]float64{{c2}}),
		SymmetricA: true,
	}, ws)
	if err != nil {
		return nil, fmt.Errorf("fabp: %w", err)
	}
	defer eng.Close()
	eng.SetExplicit(e)
	res := &Result{B: make([]float64, n)}
	res.Iterations, res.Delta, res.Converged, err = eng.RunContext(context.Background(), opts.MaxIter, opts.Tol, nil)
	if err != nil {
		return nil, err
	}
	copy(res.B, eng.Beliefs())
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
