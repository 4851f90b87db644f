// Package core ties the reproduction together: it defines the Problem
// type (graph + explicit beliefs + coupling, Problem 1 of the paper)
// and the prepared-solver serving surface — Prepare builds a reusable
// Solver for any of the methods the paper evaluates (standard loopy BP,
// LinBP, LinBP*, SBP, and the binary FABP collapse of Appendix E) — so
// that callers and experiments can swap methods freely. A one-off
// answer is Prepare, one Solve, and Close.
package core

import (
	"fmt"
	"math"

	"repro/internal/beliefs"
	"repro/internal/coupling"
	"repro/internal/dense"
	"repro/internal/errs"
	"repro/internal/graph"
	"repro/internal/linbp"
)

// Sentinel errors of the solver API, re-exported from the shared leaf
// package so callers can classify failures with errors.Is/As.
var (
	// ErrNotConverged wraps every iterative solve that exhausts its
	// iteration budget; the partial result is still returned with it.
	ErrNotConverged = errs.ErrNotConverged
	// ErrDimensionMismatch wraps every shape inconsistency between
	// graph, beliefs, coupling, and destination buffers.
	ErrDimensionMismatch = errs.ErrDimensionMismatch
	// ErrInvalidCoupling wraps every coupling-matrix defect.
	ErrInvalidCoupling = errs.ErrInvalidCoupling
	// ErrClosed wraps any use of a Solver after Close.
	ErrClosed = errs.ErrClosed
	// ErrNonFinite wraps NaN/Inf inputs (edge weights, explicit
	// beliefs) and iterative solves whose update delta overflowed.
	ErrNonFinite = errs.ErrNonFinite
	// ErrCorruptState wraps durable solver state (snapshot or WAL) that
	// failed checksum or structural validation on Open.
	ErrCorruptState = errs.ErrCorruptState
)

// Method selects the inference algorithm.
type Method int

// The four methods of the paper's evaluation, plus the binary (k = 2)
// FABP collapse of Appendix E.
const (
	// MethodBP is standard loopy belief propagation (Section 2).
	MethodBP Method = iota
	// MethodLinBP is linearized BP with echo cancellation (Eq. 4).
	MethodLinBP
	// MethodLinBPStar is linearized BP without echo cancellation (Eq. 5).
	MethodLinBPStar
	// MethodSBP is single-pass BP (Section 6).
	MethodSBP
	// MethodFABP is the binary-case scalar linearization (Appendix E);
	// it requires k = 2.
	MethodFABP
)

// String implements fmt.Stringer.
func (m Method) String() string {
	switch m {
	case MethodBP:
		return "BP"
	case MethodLinBP:
		return "LinBP"
	case MethodLinBPStar:
		return "LinBP*"
	case MethodSBP:
		return "SBP"
	case MethodFABP:
		return "FABP"
	default:
		return fmt.Sprintf("Method(%d)", int(m))
	}
}

// Problem is one top-belief-assignment instance (Problem 1): an
// undirected weighted graph, explicit residual beliefs for some nodes,
// and a residual coupling matrix Hˆo scaled by EpsilonH.
type Problem struct {
	// Graph is the undirected, optionally weighted network.
	Graph *graph.Graph
	// Explicit holds the residual explicit beliefs Eˆ (zero rows for
	// unlabeled nodes).
	Explicit *beliefs.Residual
	// Ho is the unscaled residual coupling matrix Hˆo.
	Ho *dense.Matrix
	// EpsilonH scales Ho into Hˆ = εH·Hˆo. SBP ignores it (its
	// standardized output is εH-invariant); BP, LinBP, and LinBP* use it.
	EpsilonH float64
}

// Validate checks structural consistency and the residual invariants.
func (p *Problem) Validate() error {
	if p.Graph == nil || p.Explicit == nil || p.Ho == nil {
		return fmt.Errorf("core: problem has nil components: %w", errs.ErrInvalidInput)
	}
	if p.EpsilonH < 0 {
		return fmt.Errorf("core: negative EpsilonH: %w", errs.ErrInvalidInput)
	}
	// A non-square Ho is rejected explicitly: comparing only K against
	// Ho.Rows() would let e.g. a k×(k+1) matrix slip through to the
	// per-method code paths.
	if p.Ho.Rows() != p.Ho.Cols() {
		return fmt.Errorf("core: coupling matrix %dx%d is not square: %w",
			p.Ho.Rows(), p.Ho.Cols(), errs.ErrDimensionMismatch)
	}
	if p.Explicit.N() != p.Graph.N() {
		return fmt.Errorf("core: %d belief rows for %d nodes: %w",
			p.Explicit.N(), p.Graph.N(), errs.ErrDimensionMismatch)
	}
	if p.Explicit.K() != p.Ho.Rows() {
		return fmt.Errorf("core: %d belief classes vs %dx%d coupling: %w",
			p.Explicit.K(), p.Ho.Rows(), p.Ho.Cols(), errs.ErrDimensionMismatch)
	}
	if err := coupling.ValidateResidual(p.Ho); err != nil {
		return err
	}
	// graph.AddEdge rejects w <= 0 but NaN fails that comparison too, so
	// NaN (and +Inf) weights can reach a built graph; catch them here
	// before they poison the fixpoint.
	for _, e := range p.Graph.Edges() {
		if math.IsNaN(e.W) || math.IsInf(e.W, 0) {
			return fmt.Errorf("core: edge (%d,%d) has weight %v: %w", e.S, e.T, e.W, errs.ErrNonFinite)
		}
	}
	return p.Explicit.Validate()
}

// K returns the number of classes.
func (p *Problem) K() int { return p.Ho.Rows() }

// ScaledH returns Hˆ = εH·Hˆo.
func (p *Problem) ScaledH() *dense.Matrix { return coupling.Scale(p.Ho, p.EpsilonH) }

// Result is the uniform output of Solver.Solve and Solver.Update.
type Result struct {
	// Method that produced the result.
	Method Method
	// Beliefs holds the final residual beliefs; Beliefs.TopAssignment()
	// gives the top-belief classes (with ties) per node.
	Beliefs *beliefs.Residual
	// Iterations/Converged/Delta describe iterative methods; SBP always
	// converges with Iterations = max geodesic number.
	Iterations int
	Converged  bool
	Delta      float64
	// Geodesics holds SBP's geodesic numbers in caller order
	// (graph.Unreachable for nodes with no path to an explicit node;
	// Definition 14), freshly allocated per result; nil for the other
	// methods.
	Geodesics []int
}

// bpSafeScale returns the λ that brings the largest explicit residual
// magnitude, max, down to 0.1 (a comfortably valid prior), or 1 if
// already safe. Scaling Eˆ does not change the top-belief assignment
// (Corollary 13); for BP itself the effect is a mild damping of priors.
func bpSafeScale(max float64) float64 {
	if max <= 0.1 {
		return 1
	}
	return 0.1 / max
}

// Convergence re-exports the LinBP criteria for the problem's scaled
// coupling matrix (Lemma 8 exact, Lemma 9 sufficient).
func (p *Problem) Convergence(m Method) (*linbp.Convergence, error) {
	switch m {
	case MethodLinBP, MethodLinBPStar:
		return linbp.CheckConvergence(p.Graph, p.ScaledH(), m == MethodLinBP)
	default:
		return nil, fmt.Errorf("core: convergence criteria only apply to LinBP/LinBP*, not %v: %w", m, errs.ErrInvalidInput)
	}
}

// AutoEpsilonH returns a safe εH for the problem's graph and Hˆo: half
// of the exact convergence threshold of Lemma 8 for the chosen method.
// The paper recommends choosing εH by Lemma 8 (Section 7, Result 4).
func AutoEpsilonH(g *graph.Graph, ho *dense.Matrix, m Method) (float64, error) {
	if m != MethodLinBP && m != MethodLinBPStar {
		return 0, fmt.Errorf("core: AutoEpsilonH applies to LinBP/LinBP*, not %v: %w", m, errs.ErrInvalidInput)
	}
	eps, err := linbp.MaxEpsilonH(g, ho, m == MethodLinBP, true)
	if err != nil {
		return 0, err
	}
	if math.IsInf(eps, 1) {
		return 1, nil
	}
	return eps / 2, nil
}
