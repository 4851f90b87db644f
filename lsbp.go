// Package lsbp is a from-scratch Go implementation of "Linearized and
// Single-Pass Belief Propagation" (Gatterbauer, Günnemann, Koutra,
// Faloutsos; PVLDB 8(5), 2015): node classification on networks with
// homophily, heterophily, and arbitrary class couplings.
//
// The package offers the paper's inference methods over the same
// problem description (graph + a few explicitly labeled nodes + a k×k
// coupling matrix):
//
//   - BP        — standard loopy belief propagation (the baseline),
//   - LinBP     — the paper's linearization with echo cancellation,
//     exact convergence criteria, and a closed form,
//   - LinBP*    — LinBP without echo cancellation,
//   - SBP       — the single-pass semantics where labels depend only on
//     the nearest labeled neighbors; supports incremental
//     updates when beliefs or edges are added,
//   - FABP      — the binary (k = 2) scalar collapse of Appendix E.
//
// # Quick start
//
// Build the problem, prepare a solver once, then solve — repeatedly,
// if the same network answers many queries:
//
//	g := lsbp.NewGraph(4)
//	g.AddUnitEdge(0, 1)
//	g.AddUnitEdge(1, 2)
//	g.AddUnitEdge(2, 3)
//
//	e := lsbp.NewBeliefs(4, 2)                       // 4 nodes, 2 classes
//	e.Set(0, lsbp.LabelResidual(2, 0, 0.1))          // node 0 is class 0
//
//	p := &lsbp.Problem{Graph: g, Explicit: e,
//		Ho: lsbp.Homophily(2, 0.8), EpsilonH: 0.1}
//	s, err := lsbp.PrepareLinBP(p)
//	if err != nil { ... }
//	defer s.Close()
//
//	res, err := s.Solve(ctx, e)
//	if err != nil { ... }                            // errors.Is(err, lsbp.ErrNotConverged) etc.
//	for node, classes := range res.Beliefs.TopAssignment() { ... }
//
// The same Solver serves the other methods through Prepare(p, m) or
// the PrepareBP/PrepareSBP/PrepareFABP constructors, batches
// independent requests with SolveBatch, keeps steady-state serving
// allocation-free with SolveInto, and honors context deadlines at
// iteration-round granularity. Failures carry a typed taxonomy
// (ErrNotConverged, ErrDimensionMismatch, ErrInvalidCoupling,
// ErrClosed) for errors.Is/As.
//
// # Durability
//
// A prepared solver can persist its state: WithDurability(dir, pol)
// writes a checksummed snapshot of the prepared layout under dir and
// write-ahead-logs every Update before it commits; Open(dir) recovers
// by mapping and verifying the snapshot and replaying the log's
// intact tail — a cold start without re-preparing (no reordering, no
// partition replay, no εH search; ~79× faster on the 177k-node
// benchmark graph). Corruption anywhere surfaces ErrCorruptState
// rather than a wrong solver.
//
// On-disk compatibility promise: the snapshot header carries an
// explicit format version (currently 1). A release either reads a
// version or rejects it with an actionable error — state is never
// misparsed — and within a major version, newer code keeps reading
// every older format it ever wrote; when the format must break, Open
// reports the mismatch and a fresh Prepare (which rewrites the
// directory) is the documented migration. The WAL is always safe to
// discard in favor of its covering snapshot.
//
// # Migration from the legacy one-shot Solve
//
// lsbp.Solve(p, m, opts) remains supported as a thin wrapper that
// prepares a solver, runs one solve, and closes it. Its historical
// contract is unchanged — non-convergence is reported through
// Result.Converged rather than as an error, and Options{} zero values
// select per-method defaults. New code, and any caller that solves the
// same graph more than once, should use Prepare with functional
// options (WithWorkers, WithMaxIter, WithTol, WithEchoCancellation,
// WithAutoEpsilonH) instead.
//
// Everything is implemented with the standard library only; the heavy
// lifting lives in internal packages (sparse CSR kernels, dense linear
// algebra, spectral-radius estimation, a small relational engine for
// the paper's SQL formulations) re-exported here as a single facade.
package lsbp

import (
	"io"

	"repro/internal/beliefs"
	"repro/internal/core"
	"repro/internal/coupling"
	"repro/internal/dense"
	"repro/internal/fabp"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/learn"
	"repro/internal/linbp"
	"repro/internal/metrics"
	"repro/internal/mooij"
	"repro/internal/sbp"
)

// Graph is an undirected, optionally weighted graph over nodes 0..n−1.
type Graph = graph.Graph

// Edge is one undirected weighted edge.
type Edge = graph.Edge

// Unreachable marks nodes with no path to any labeled node in geodesic
// vectors.
const Unreachable = graph.Unreachable

// NewGraph returns an empty graph with n nodes.
func NewGraph(n int) *Graph { return graph.New(n) }

// ReadEdgeList parses "s t [w]" lines into a graph.
func ReadEdgeList(r io.Reader) (*Graph, error) { return graph.ReadEdgeList(r) }

// Beliefs is an n×k residual belief matrix: row s holds node s's
// centered beliefs (summing to zero). Zero rows mean "unlabeled".
type Beliefs = beliefs.Residual

// SeedConfig controls random explicit-belief seeding.
type SeedConfig = beliefs.SeedConfig

// NewBeliefs returns an all-zero n×k residual belief matrix.
func NewBeliefs(n, k int) *Beliefs { return beliefs.New(n, k) }

// LabelResidual is the canonical explicit residual for "class c with
// strength s": s·(k−1) at c and −s elsewhere.
func LabelResidual(k, c int, s float64) []float64 { return beliefs.LabelResidual(k, c, s) }

// SeedBeliefs randomly labels a fraction of n nodes as in the paper's
// synthetic experiments, returning the belief matrix and the node list.
func SeedBeliefs(n, k int, cfg SeedConfig) (*Beliefs, []int) { return beliefs.Seed(n, k, cfg) }

// Matrix is a dense matrix, used for coupling matrices.
type Matrix = dense.Matrix

// NewCouplingFromStochastic validates a symmetric doubly stochastic
// coupling matrix H and returns its residual Hˆ = H − 1/k.
func NewCouplingFromStochastic(h *Matrix) (*Matrix, error) { return coupling.NewResidual(h) }

// NewMatrix builds a dense matrix from rows (convenience for coupling
// construction).
func NewMatrix(rows [][]float64) *Matrix { return dense.NewFromRows(rows) }

// Homophily returns a k-class residual coupling matrix where classes
// attract themselves with strength s ∈ (0, 1].
func Homophily(k int, s float64) *Matrix { return coupling.Homophily(k, s) }

// Heterophily returns the 2-class residual coupling matrix where
// opposites attract with strength h ∈ (0, 1/2].
func Heterophily(h float64) *Matrix { return coupling.Heterophily(h) }

// Sinkhorn projects a positive square matrix of relative coupling
// strengths onto the doubly stochastic set (footnote 7 of the paper),
// making arbitrary affinity matrices usable as couplings.
func Sinkhorn(m *Matrix) (*Matrix, error) { return coupling.Sinkhorn(m, 0, 0) }

// Problem bundles one inference instance.
type Problem = core.Problem

// Options tunes Solve.
type Options = core.Options

// Result is Solve's uniform output.
type Result = core.Result

// Method selects the inference algorithm.
type Method = core.Method

// The four inference methods.
const (
	BP        = core.MethodBP
	LinBP     = core.MethodLinBP
	LinBPStar = core.MethodLinBPStar
	SBP       = core.MethodSBP
)

// Solve runs the chosen method on the problem.
func Solve(p *Problem, m Method, opts Options) (*Result, error) { return core.Solve(p, m, opts) }

// Convergence reports the LinBP convergence criteria (Lemma 8/9).
type Convergence = linbp.Convergence

// ClosedForm solves LinBP/LinBP* exactly via the Kronecker system of
// Proposition 7 (small problems only).
func ClosedForm(p *Problem, echo bool) (*Beliefs, error) {
	return linbp.ClosedForm(p.Graph, p.Explicit, p.ScaledH(), echo)
}

// MaxEpsilonH returns the largest εH for which the chosen criterion
// guarantees convergence of LinBP (echo=true) or LinBP* with Hˆ = εH·ho.
func MaxEpsilonH(g *Graph, ho *Matrix, echo, exact bool) (float64, error) {
	return linbp.MaxEpsilonH(g, ho, echo, exact)
}

// AutoEpsilonH picks a safe εH: half the exact convergence threshold.
func AutoEpsilonH(g *Graph, ho *Matrix, m Method) (float64, error) {
	return core.AutoEpsilonH(g, ho, m)
}

// SBPState is the materialized single-pass result supporting
// incremental updates (AddExplicitBeliefs, AddEdges, AddEdgesSorted).
type SBPState = sbp.State

// RunSBP runs single-pass BP directly, returning the incremental state.
func RunSBP(g *Graph, e *Beliefs, ho *Matrix) (*SBPState, error) { return sbp.Run(g, e, ho) }

// PR holds precision/recall/F1 of a top-belief comparison.
type PR = metrics.PR

// Compare evaluates a top-belief assignment against a ground truth,
// with ties handled as in the paper's Section 7.
func Compare(groundTruth, other [][]int) (PR, error) { return metrics.Compare(groundTruth, other) }

// BinaryFABP solves the k = 2 special case (Appendix E) given the
// class-0 residuals e and residual coupling strength hhat ∈ (−1/2, 1/2).
func BinaryFABP(g *Graph, e []float64, hhat float64) ([]float64, error) {
	res, err := fabp.Run(g, e, hhat, fabp.Options{})
	if err != nil {
		return nil, err
	}
	return res.B, nil
}

// MooijKappenBound evaluates the BP convergence bound of Appendix G for
// a stochastic coupling matrix, returning c(H), ρ(A_edge), and whether
// the product certifies convergence of standard BP.
func MooijKappenBound(g *Graph, h *Matrix) (cH, rhoEdge float64, converges bool, err error) {
	return mooij.Bound(g, h)
}

// Workload generators used by the paper's evaluation, re-exported for
// examples and downstream experiments.
var (
	// TorusGraph builds the 8-node torus of Fig. 5c.
	TorusGraph = gen.Torus
	// KroneckerGraph builds the p-th deterministic Kronecker power
	// (Fig. 6a uses p = 5…13).
	KroneckerGraph = gen.Kronecker
	// GridGraph builds a rows×cols grid.
	GridGraph = gen.Grid
	// RandomGraph builds an Erdős–Rényi-style graph.
	RandomGraph = gen.Random
	// FraudGraph builds the Fig. 1c auction network with true labels.
	FraudGraph = gen.Fraud
	// Fig1c is the Honest/Accomplice/Fraudster coupling matrix.
	Fig1c = coupling.Fig1c
)

// DefaultFraudConfig returns the default auction-network sizing.
func DefaultFraudConfig() gen.FraudConfig { return gen.DefaultFraudConfig() }

// DBLPGraph is the synthetic DBLP-like heterogeneous citation graph
// (papers, authors, conferences, terms over four research areas) that
// stands in for the paper's real DBLP dataset in the Fig. 11 experiment.
type DBLPGraph = gen.DBLPGraph

// DBLPConfig sizes the synthetic DBLP-like graph.
type DBLPConfig = gen.DBLPConfig

// NewDBLPGraph generates the DBLP-like graph; use DefaultDBLPConfig for
// the standard 1:8-scale instance.
func NewDBLPGraph(cfg DBLPConfig) *DBLPGraph { return gen.DBLP(cfg) }

// DefaultDBLPConfig returns the standard DBLP-like sizing.
func DefaultDBLPConfig() DBLPConfig { return gen.DefaultDBLPConfig() }

// Fig11aCoupling returns the 4-class homophily residual coupling matrix
// of the DBLP experiment (Fig. 11a).
func Fig11aCoupling() *Matrix { return coupling.Fig11aResidual() }

// UnlabeledNode marks a node without a known class in label slices
// passed to EstimateCoupling.
const UnlabeledNode = learn.Unlabeled

// EstimateCoupling learns the residual coupling matrix Hˆo from the
// edges between labeled nodes (labels[v] ∈ [0,k) or UnlabeledNode) —
// the future-work direction of the paper's footnote 1. The estimate is
// a valid doubly stochastic coupling centered into residual form, ready
// for Problem.Ho.
func EstimateCoupling(g *Graph, labels []int, k int) (*Matrix, error) {
	return learn.EstimateResidual(g, labels, k, learn.Options{ClassPrior: true})
}
