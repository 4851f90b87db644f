// Package linbp implements the paper's primary contribution: Linearized
// Belief Propagation. It provides
//
//   - the iterative update equations (Eq. 6/7):
//     Bˆ ← Eˆ + A·Bˆ·Hˆ − D·Bˆ·Hˆ²   (LinBP, with echo cancellation)
//     Bˆ ← Eˆ + A·Bˆ·Hˆ             (LinBP*, without)
//   - the closed-form solutions via the Kronecker system of
//     Proposition 7 (Eq. 11/12), for small problems,
//   - the exact spectral convergence criteria of Lemma 8, and
//   - the sufficient norm-based criteria of Lemma 9 and Lemma 23.
//
// Beliefs and couplings are handled in residual (centered) form
// throughout; see packages beliefs and coupling.
package linbp

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/beliefs"
	"repro/internal/dense"
	"repro/internal/errs"
	"repro/internal/graph"
	"repro/internal/kernel"
	"repro/internal/sparse"
	"repro/internal/spectral"
)

// Options tunes the iterative solver. The zero value selects defaults.
type Options struct {
	// EchoCancellation selects LinBP (true) or LinBP* (false).
	EchoCancellation bool
	// MaxIter bounds the number of update rounds (default 100).
	MaxIter int
	// Tol stops iteration when no belief entry changes by more than
	// Tol between rounds (default 1e-12). Set negative to force exactly
	// MaxIter rounds (the paper's timing runs use 5 fixed iterations).
	Tol float64
	// OnIteration, if set, is invoked after every update round with the
	// 1-based round number and the round's maximum belief change. Used
	// by the Fig. 7d experiment for per-iteration timing.
	OnIteration func(iter int, delta float64)
	// Workers parallelizes the fused update kernel across goroutines
	// (the role Parallel Colt played in the paper's JAVA
	// implementation). 0 or 1 keeps the single-threaded kernel the
	// paper's evaluation uses.
	Workers int
}

// DefaultMaxIter and DefaultTol are the zero-value defaults of Options,
// exported so the prepared solvers iterate under exactly the same cap
// and tolerance as Run.
const (
	DefaultMaxIter = 100
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

// Result carries the outcome of a LinBP run.
type Result struct {
	// Beliefs is the final residual belief matrix Bˆ.
	Beliefs *beliefs.Residual
	// Iterations is the number of update rounds executed.
	Iterations int
	// Converged reports whether the fixpoint was reached within Tol.
	Converged bool
	// Delta is the final maximum belief change.
	Delta float64
}

func validate(g *graph.Graph, e *beliefs.Residual, h *dense.Matrix) (n, k int, err error) {
	n, k = g.N(), h.Rows()
	if h.Cols() != k {
		return 0, 0, fmt.Errorf("linbp: coupling matrix %dx%d is not square: %w", h.Rows(), h.Cols(), errs.ErrDimensionMismatch)
	}
	if e.N() != n || e.K() != k {
		return 0, 0, fmt.Errorf("linbp: belief matrix %dx%d does not match n=%d k=%d: %w", e.N(), e.K(), n, k, errs.ErrDimensionMismatch)
	}
	return n, k, nil
}

// Run executes the iterative LinBP updates on graph g with explicit
// residual beliefs e and residual coupling matrix h (already scaled by
// εH). Iteration starts from Bˆ = 0 as Section 3 suggests.
//
// Each round runs through the fused compute engine of package kernel
// (sparse product, coupling multiply, echo cancellation, and delta in
// one row-partitioned pass); the n×k work buffers come from the
// engine's workspace pool, so repeated Runs do not reallocate them.
func Run(g *graph.Graph, e *beliefs.Residual, h *dense.Matrix, opts Options) (*Result, error) {
	opts = opts.withDefaults()
	n, k, err := validate(g, e, h)
	if err != nil {
		return nil, err
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

	res := &Result{}
	res.Iterations, res.Delta, res.Converged = eng.Run(opts.MaxIter, opts.Tol, opts.OnIteration)
	bm := dense.New(n, k)
	copy(bm.Data(), eng.Beliefs())
	res.Beliefs = beliefs.FromMatrix(bm)
	return res, nil
}

// ClosedFormLimit is the largest n·k for which ClosedForm will
// materialize and invert the Kronecker system; beyond it the dense
// O((nk)³) solve is no longer reasonable.
const ClosedFormLimit = 4096

// ClosedForm solves the LinBP system exactly via Proposition 7:
//
//	vec(Bˆ) = (I_nk − Hˆ⊗A + Hˆ²⊗D)⁻¹ vec(Eˆ)     (LinBP)
//	vec(Bˆ) = (I_nk − Hˆ⊗A)⁻¹ vec(Eˆ)             (LinBP*)
//
// It is exact whenever the system matrix is invertible — even outside
// the spectral-radius convergence region of the iterative updates —
// and is used to validate the iterative solver. n·k must not exceed
// ClosedFormLimit.
func ClosedForm(g *graph.Graph, e *beliefs.Residual, h *dense.Matrix, echo bool) (*beliefs.Residual, error) {
	n, k, err := validate(g, e, h)
	if err != nil {
		return nil, err
	}
	if n*k > ClosedFormLimit {
		return nil, fmt.Errorf("linbp: closed form needs n·k <= %d, got %d: %w", ClosedFormLimit, n*k, errs.ErrInvalidInput)
	}
	// Dense A and D.
	a := g.Adjacency()
	ad := dense.New(n, n)
	for i := 0; i < n; i++ {
		a.Row(i, func(j int, v float64) { ad.Set(i, j, v) })
	}
	sys := dense.Identity(n * k).Minus(h.Kron(ad))
	if echo {
		dd := dense.New(n, n)
		for i, v := range g.WeightedDegrees() {
			dd.Set(i, i, v)
		}
		sys = sys.Plus(h.Mul(h).Kron(dd))
	}
	x, err := dense.Solve(sys, e.Matrix().Vec())
	if err != nil {
		return nil, fmt.Errorf("linbp: closed-form system is singular: %w", err)
	}
	return beliefs.FromMatrix(dense.Unvec(x, n, k)), nil
}

// Convergence describes the outcome of the criteria of Section 5.1 for
// one configuration (graph, Hˆ, echo flag).
type Convergence struct {
	// SpectralRadius is ρ(Hˆ⊗A − Hˆ²⊗D) for LinBP or ρ(Hˆ)·ρ(A) for
	// LinBP* — the exact quantity of Lemma 8.
	SpectralRadius float64
	// Exact reports Lemma 8's necessary-and-sufficient criterion:
	// SpectralRadius < 1.
	Exact bool
	// NormBound is the value the sufficient criterion of Lemma 9
	// compares ‖Hˆ‖ against, using the min over the norm set M.
	NormBound float64
	// HNorm is ‖Hˆ‖_M.
	HNorm float64
	// Sufficient reports Lemma 9's easier (sufficient-only) criterion:
	// HNorm < NormBound.
	Sufficient bool
}

// CheckConvergence evaluates both the exact (Lemma 8) and the
// norm-based sufficient (Lemma 9) convergence criteria.
func CheckConvergence(g *graph.Graph, h *dense.Matrix, echo bool) (*Convergence, error) {
	return CheckConvergenceCSR(g.Adjacency(), h, echo)
}

// CheckConvergenceCSR is CheckConvergence on an adjacency matrix (the
// weighted degrees are its squared-weight row sums).
func CheckConvergenceCSR(a *sparse.CSR, h *dense.Matrix, echo bool) (*Convergence, error) {
	c := &Convergence{}

	// ‖A‖_M and ‖D‖_M over the norm set {Frobenius, induced-1, induced-∞}.
	normA := minNormCSR(a)
	hn := h.MinNorm()
	c.HNorm = hn
	if echo {
		d := a.RowSumsSquared()
		op := spectral.NewLinBPOp(a, d, h, true)
		rho, err := spectral.Radius(op, spectral.Options{MaxIter: 5000})
		if err != nil && !errors.Is(err, spectral.ErrNoConverge) {
			return nil, err
		}
		c.SpectralRadius = rho
		// ‖D‖: D is diagonal, so all three norms equal max degree.
		maxD := 0.0
		for _, v := range d {
			if v > maxD {
				maxD = v
			}
		}
		if maxD == 0 {
			// No edges: iteration is trivially convergent.
			c.NormBound = math.Inf(1)
		} else {
			c.NormBound = (math.Sqrt(normA*normA+4*maxD) - normA) / (2 * maxD)
		}
	} else {
		rhoA, err := spectral.RadiusCSR(a, spectral.Options{MaxIter: 5000})
		if err != nil && !errors.Is(err, spectral.ErrNoConverge) {
			return nil, err
		}
		rhoH, err := spectral.RadiusDense(h, spectral.Options{MaxIter: 5000})
		if err != nil && !errors.Is(err, spectral.ErrNoConverge) {
			return nil, err
		}
		c.SpectralRadius = rhoA * rhoH
		if normA == 0 {
			c.NormBound = math.Inf(1)
		} else {
			c.NormBound = 1 / normA
		}
	}
	c.Exact = c.SpectralRadius < 1
	c.Sufficient = hn < c.NormBound
	return c, nil
}

// SimpleNormBound implements Lemma 23: LinBP converges if
// ‖Hˆ‖ < 1/(2‖A‖) for the induced 1- or ∞-norm. It returns the bound
// value 1/(2‖A‖) (∞ if the graph has no edges).
func SimpleNormBound(g *graph.Graph) float64 {
	a := g.Adjacency()
	norm := math.Min(a.MaxAbsColSum(), a.MaxAbsRowSum())
	if norm == 0 {
		return math.Inf(1)
	}
	return 1 / (2 * norm)
}

// MaxEpsilonH returns the largest εH for which the chosen criterion
// guarantees convergence with Hˆ = εH·ho: the exact spectral criterion
// (found by bisection) or the closed-form norm bound.
func MaxEpsilonH(g *graph.Graph, ho *dense.Matrix, echo bool, exact bool) (float64, error) {
	return MaxEpsilonHCSR(g.Adjacency(), ho, echo, exact)
}

// MaxEpsilonHCSR is MaxEpsilonH on an adjacency matrix (the weighted
// degrees are its squared-weight row sums).
func MaxEpsilonHCSR(a *sparse.CSR, ho *dense.Matrix, echo bool, exact bool) (float64, error) {
	if !exact {
		c, err := CheckConvergenceCSR(a, ho, echo)
		if err != nil {
			return 0, err
		}
		if math.IsInf(c.NormBound, 1) {
			return math.Inf(1), nil
		}
		// ‖εH·Hˆo‖ = εH·‖Hˆo‖ < bound(A, D) — but for LinBP the bound
		// itself does not depend on Hˆ, so εH < bound/‖Hˆo‖.
		return c.NormBound / ho.MinNorm(), nil
	}
	if !echo {
		// ρ(εH·Hˆo)·ρ(A) < 1 is linear in εH.
		c, err := CheckConvergenceCSR(a, ho, false)
		if err != nil {
			return 0, err
		}
		if c.SpectralRadius == 0 {
			return math.Inf(1), nil
		}
		return 1 / c.SpectralRadius, nil
	}
	// LinBP with echo: ρ(εHˆo⊗A − ε²Hˆo²⊗D) crosses 1 monotonically in
	// ε > 0; locate the crossing by bracketed bisection.
	radius := func(eps float64) (float64, error) {
		c, err := CheckConvergenceCSR(a, ho.Scaled(eps), true)
		if err != nil {
			return 0, err
		}
		return c.SpectralRadius, nil
	}
	lo, hi := 0.0, 1.0
	for iter := 0; iter < 60; iter++ {
		r, err := radius(hi)
		if err != nil {
			return 0, err
		}
		if r >= 1 {
			break
		}
		lo, hi = hi, hi*2
		if hi > 1e6 {
			return math.Inf(1), nil
		}
	}
	for iter := 0; iter < 60; iter++ {
		mid := (lo + hi) / 2
		r, err := radius(mid)
		if err != nil {
			return 0, err
		}
		if r < 1 {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo, nil
}

// minNormCSR is min(Frobenius, induced-1, induced-∞) for a CSR matrix.
func minNormCSR(a interface {
	MaxAbsColSum() float64
	MaxAbsRowSum() float64
	RowSumsSquared() []float64
}) float64 {
	var fro float64
	for _, v := range a.RowSumsSquared() {
		fro += v
	}
	fro = math.Sqrt(fro)
	return math.Min(fro, math.Min(a.MaxAbsColSum(), a.MaxAbsRowSum()))
}
