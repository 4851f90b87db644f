package sbp

import (
	"context"
	"fmt"

	"repro/internal/beliefs"
	"repro/internal/dense"
	"repro/internal/errs"
	"repro/internal/graph"
	"repro/internal/sparse"
)

// Runner is a prepared SBP solver for one fixed adjacency table and
// coupling. It is the serving-path counterpart of State: instead of
// materializing an incremental state per solve it writes the
// single-pass beliefs into a caller-provided matrix, and it caches the
// geodesic ordering (the BFS levels of Definition 14) across solves.
// When consecutive requests share the same explicit node set — the
// common serving workload where fixed sources send fresh evidence
// values — the ordering is reused and a solve is just the
// level-synchronous aggregation sweep.
//
// A Runner is not safe for concurrent use.
type Runner struct {
	a *sparse.RowBlocks
	h *dense.Matrix

	nodes  []int   // explicit node set the cached ordering belongs to
	geo    []int   // geodesic numbers for nodes
	levels [][]int // level -> nodes at that geodesic level (1-based)
	maxGeo int
	valid  bool

	acc []float64 // shared aggregation scratch (k wide)
}

// NewRunner validates the coupling shape and prepares the runner on the
// adjacency table a (row t's stored entries are t's neighbors with their
// accumulated edge weights). a is only read, so runners may share it.
func NewRunner(a *sparse.RowBlocks, h *dense.Matrix) (*Runner, error) {
	k := h.Rows()
	if h.Cols() != k {
		return nil, fmt.Errorf("sbp: coupling matrix %dx%d is not square: %w", h.Rows(), h.Cols(), errs.ErrDimensionMismatch)
	}
	return &Runner{a: a, h: h, acc: make([]float64, k)}, nil
}

// SolveInto runs the single-pass assignment for the explicit residual
// beliefs e and writes the final residual beliefs into dst (n×k,
// overwritten; unreachable nodes get zero rows, as in Run). It returns
// the number of geodesic levels propagated (the max geodesic number).
// ctx is checked after every level. The geodesic ordering is recomputed
// only when e's explicit node set differs from the previous solve's.
func (r *Runner) SolveInto(ctx context.Context, dst *beliefs.Residual, e *beliefs.Residual) (levels int, err error) {
	n, k := r.a.Rows(), r.h.Rows()
	if e.N() != n || e.K() != k {
		return 0, fmt.Errorf("sbp: belief matrix %dx%d does not match n=%d k=%d: %w", e.N(), e.K(), n, k, errs.ErrDimensionMismatch)
	}
	if dst.N() != n || dst.K() != k {
		return 0, fmt.Errorf("sbp: destination matrix %dx%d does not match n=%d k=%d: %w", dst.N(), dst.K(), n, k, errs.ErrDimensionMismatch)
	}
	nodes := e.ExplicitNodes()
	if !r.valid || !equalInts(nodes, r.nodes) {
		r.reindex(nodes)
	}
	// Zero everything, then install the explicit beliefs (geodesic 0).
	data := dst.Matrix().Data()
	for i := range data {
		data[i] = 0
	}
	for _, v := range nodes {
		copy(dst.Row(v), e.Row(v))
	}
	var done <-chan struct{}
	if ctx != nil {
		done = ctx.Done()
	}
	for level := 1; level <= r.maxGeo; level++ {
		if done != nil {
			select {
			case <-done:
				return level - 1, ctx.Err()
			default:
			}
		}
		for _, t := range r.levels[level] {
			r.aggregate(dst, t, level)
		}
	}
	return r.maxGeo, nil
}

// aggregate sets dst row t to Hˆ·Σ_{s ∈ N(t), g(s) = level−1} w_st·bˆs
// (Definition 15), reading the already-final rows of the previous level.
func (r *Runner) aggregate(dst *beliefs.Residual, t, level int) {
	k := r.h.Rows()
	acc := r.acc
	for c := range acc {
		acc[c] = 0
	}
	cols, vals := r.a.RowViewCompact(t)
	for p, j := range cols {
		s := int(j)
		if r.geo[s] != level-1 {
			continue
		}
		bs, w := dst.Row(s), vals[p]
		for c := 0; c < k; c++ {
			acc[c] += w * bs[c]
		}
	}
	row := dst.Row(t)
	for c := 0; c < k; c++ {
		var v float64
		for j := 0; j < k; j++ {
			v += r.h.At(j, c) * acc[j]
		}
		row[c] = v
	}
}

// Geodesics returns the geodesic numbers of the last solve's explicit
// node set, graph.Unreachable for nodes with no path to one (aliased:
// valid until the next solve with another explicit node set).
func (r *Runner) Geodesics() []int { return r.geo }

// reindex rebuilds the cached geodesic ordering for a new explicit set.
func (r *Runner) reindex(nodes []int) {
	r.nodes = append(r.nodes[:0], nodes...)
	r.geo = graph.GeodesicRows(r.a, nodes)
	r.maxGeo = 0
	for _, gv := range r.geo {
		if gv > r.maxGeo {
			r.maxGeo = gv
		}
	}
	if cap(r.levels) < r.maxGeo+1 {
		r.levels = make([][]int, r.maxGeo+1)
	}
	r.levels = r.levels[:r.maxGeo+1]
	for i := range r.levels {
		r.levels[i] = r.levels[i][:0]
	}
	for v, gv := range r.geo {
		if gv > 0 {
			r.levels[gv] = append(r.levels[gv], v)
		}
	}
	r.valid = true
}

// equalInts reports whether two sorted int slices are identical.
func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i, v := range a {
		if v != b[i] {
			return false
		}
	}
	return true
}
