// Package sbp implements Single-Pass Belief Propagation (Section 6), the
// paper's "localized" semantics in which a node's final beliefs depend
// only on its nearest explicitly labeled neighbors:
//
//	bˆt = Hˆ^g(t) · Σ_{p ∈ P_t} w_p · eˆ_p          (Definition 15)
//
// where g(t) is the geodesic number of t (Definition 14), P_t the set of
// shortest paths from explicit nodes to t, and w_p the product of edge
// weights along a path. The implementation visits every node once and
// propagates across every edge at most once (Algorithm 2), and supports
// the paper's two incremental maintenance operations: adding explicit
// beliefs (Algorithm 3) and adding edges (Algorithm 4, Appendix C).
package sbp

import (
	"fmt"

	"repro/internal/beliefs"
	"repro/internal/dense"
	"repro/internal/errs"
	"repro/internal/graph"
)

// State is the materialized SBP result: final beliefs plus the geodesic
// index that makes incremental maintenance possible (the paper's table
// G(v, g)). A State stays consistent under AddExplicitBeliefs and
// AddEdges; rerunning Run from scratch on the updated inputs always
// yields the same State (Propositions 22 and 24).
type State struct {
	g   *graph.Graph
	h   *dense.Matrix     // residual coupling matrix Hˆ
	e   *beliefs.Residual // explicit residual beliefs Eˆ
	b   *beliefs.Residual // final residual beliefs Bˆ
	geo []int             // geodesic numbers; graph.Unreachable if none
	acc []float64         // aggregation scratch (k wide), as in Runner

	recomputes int // per-node belief recomputations (see RecomputeCount)
}

// Run executes Algorithm 2: the initial single-pass belief assignment
// for graph g, explicit residual beliefs e, and residual coupling h.
// Because SBP's standardized output is scale-invariant in εH
// (Section 6.2), h is typically the unscaled Hˆo.
func Run(g *graph.Graph, e *beliefs.Residual, h *dense.Matrix) (*State, error) {
	return RunInstrumented(g, e, h, nil)
}

// RunInstrumented is Run with a per-level callback: after each geodesic
// level is materialized, onLevel receives the level number and how many
// nodes it contained. Used by the Fig. 7d experiment to time SBP's
// per-"iteration" work against LinBP's.
func RunInstrumented(g *graph.Graph, e *beliefs.Residual, h *dense.Matrix,
	onLevel func(level, nodes int)) (*State, error) {
	n, k := g.N(), h.Rows()
	if h.Cols() != k {
		return nil, fmt.Errorf("sbp: coupling matrix %dx%d is not square: %w", h.Rows(), h.Cols(), errs.ErrDimensionMismatch)
	}
	if e.N() != n || e.K() != k {
		return nil, fmt.Errorf("sbp: belief matrix %dx%d does not match n=%d k=%d: %w", e.N(), e.K(), n, k, errs.ErrDimensionMismatch)
	}
	st := &State{g: g, h: h, e: e.Clone(), b: beliefs.New(n, k), acc: make([]float64, k)}
	st.geo = g.GeodesicNumbers(e.ExplicitNodes())
	// Explicit nodes keep their explicit beliefs (geodesic number 0).
	for s := 0; s < n; s++ {
		if st.geo[s] == 0 {
			copy(st.b.Row(s), st.e.Row(s))
		}
	}
	// Level-synchronous propagation: nodes at geodesic level i derive
	// their beliefs from all level i−1 neighbors, scaled by edge weight
	// and transformed once by Hˆ.
	maxGeo := 0
	for _, gv := range st.geo {
		if gv > maxGeo {
			maxGeo = gv
		}
	}
	for level := 1; level <= maxGeo; level++ {
		nodes := 0
		for t := 0; t < n; t++ {
			if st.geo[t] != level {
				continue
			}
			st.recomputeBelief(t)
			nodes++
		}
		if onLevel != nil {
			onLevel(level, nodes)
		}
	}
	return st, nil
}

// recomputeBelief sets bˆt = Hˆ·Σ_{s ∈ N(t), g(s) = g(t)−1} w_st·bˆs,
// the single incoming-wave aggregation of Definition 15.
func (st *State) recomputeBelief(t int) {
	st.recomputes++
	k := st.h.Rows()
	acc := st.acc
	for c := range acc {
		acc[c] = 0
	}
	level := st.geo[t]
	st.g.Neighbors(t, func(s int, w float64) {
		if st.geo[s] != level-1 {
			return
		}
		bs := st.b.Row(s)
		for c := 0; c < k; c++ {
			acc[c] += w * bs[c]
		}
	})
	dst := st.b.Row(t)
	for c := 0; c < k; c++ {
		var v float64
		for j := 0; j < k; j++ {
			v += st.h.At(j, c) * acc[j]
		}
		dst[c] = v
	}
}

// Beliefs returns the final residual beliefs (aliased; treat as
// read-only).
func (st *State) Beliefs() *beliefs.Residual { return st.b }

// Explicit returns the current explicit residual beliefs (aliased).
func (st *State) Explicit() *beliefs.Residual { return st.e }

// Geodesics returns the geodesic number of every node (aliased);
// graph.Unreachable marks nodes with no path to an explicit node.
func (st *State) Geodesics() []int { return st.geo }

// Graph returns the underlying graph (aliased). AddEdges mutates it.
func (st *State) Graph() *graph.Graph { return st.g }

// AddExplicitBeliefs implements Algorithm 3: install the non-zero rows
// of en as new or replacement explicit beliefs and incrementally repair
// geodesic numbers and final beliefs. The updated state equals a full
// recomputation (Proposition 22).
func (st *State) AddExplicitBeliefs(en *beliefs.Residual) error {
	if en.N() != st.g.N() || en.K() != st.h.Rows() {
		return fmt.Errorf("sbp: update matrix %dx%d does not match state: %w", en.N(), en.K(), errs.ErrDimensionMismatch)
	}
	newNodes := en.ExplicitNodes()
	if len(newNodes) == 0 {
		return nil
	}
	// Line 1–2: geodesic number 0 and beliefs for the new explicit nodes.
	frontier := make(map[int]bool, len(newNodes))
	for _, v := range newNodes {
		copy(st.e.Row(v), en.Row(v))
		copy(st.b.Row(v), en.Row(v))
		st.geo[v] = 0
		frontier[v] = true
	}
	// Lines 4–8: wave i updates nodes whose geodesic number is not
	// already smaller, recomputing beliefs from all (i−1)-level parents.
	for i := 1; len(frontier) > 0; i++ {
		next := make(map[int]bool)
		for s := range frontier {
			st.g.Neighbors(s, func(t int, w float64) {
				if st.geo[t] != graph.Unreachable && st.geo[t] < i {
					return // already closer to an explicit node
				}
				next[t] = true
			})
		}
		for t := range next {
			st.geo[t] = i
			st.recomputeBelief(t)
		}
		frontier = next
	}
	return nil
}

// AddEdges implements Algorithm 4 (Appendix C): insert new weighted
// edges and incrementally repair geodesic numbers and beliefs. The
// updated state equals a full recomputation (Proposition 24). Note the
// paper's caveat that pathological insert orders can make this
// quadratic; correctness is unaffected.
func (st *State) AddEdges(edges []graph.Edge) error {
	n := st.g.N()
	for _, e := range edges {
		if e.S < 0 || e.S >= n || e.T < 0 || e.T >= n {
			return fmt.Errorf("sbp: edge (%d,%d) out of range n=%d: %w", e.S, e.T, n, errs.ErrInvalidInput)
		}
		if e.W <= 0 {
			return fmt.Errorf("sbp: non-positive edge weight %v: %w", e.W, errs.ErrInvalidInput)
		}
		if e.S == e.T {
			return fmt.Errorf("sbp: self-loop at %d not supported: %w", e.S, errs.ErrInvalidInput)
		}
	}
	// Line 1: update the adjacency structure.
	for _, e := range edges {
		st.g.AddEdge(e.S, e.T, e.W)
	}
	// Line 2–3: seed nodes are targets of a new edge whose other end has
	// a strictly smaller geodesic number (the only way a new edge can
	// carry a geodesic path).
	frontier := make(map[int]bool)
	for _, e := range edges {
		gs, gt := st.geo[e.S], st.geo[e.T]
		if less(gs, gt) {
			if ng := gs + 1; ng < st.geo[e.T] || st.geo[e.T] == graph.Unreachable || ng == st.geo[e.T] {
				st.geo[e.T] = minGeo(st.geo[e.T], ng)
				frontier[e.T] = true
			}
		} else if less(gt, gs) {
			if ng := gt + 1; ng < st.geo[e.S] || st.geo[e.S] == graph.Unreachable || ng == st.geo[e.S] {
				st.geo[e.S] = minGeo(st.geo[e.S], ng)
				frontier[e.S] = true
			}
		}
	}
	for v := range frontier {
		st.recomputeBelief(v)
	}
	// Lines 4–8: propagate. A neighbor t of an updated node s needs an
	// update when its geodesic number is larger than gs (either it can
	// now be reached faster, or it sits exactly one level below s and
	// must re-aggregate because bˆs changed).
	for len(frontier) > 0 {
		next := make(map[int]bool)
		for s := range frontier {
			gs := st.geo[s]
			st.g.Neighbors(s, func(t int, w float64) {
				gt := st.geo[t]
				if !less(gs, gt) {
					return
				}
				if gt == graph.Unreachable || gt > gs+1 {
					st.geo[t] = gs + 1
				}
				next[t] = true
			})
		}
		for t := range next {
			st.recomputeBelief(t)
		}
		frontier = next
	}
	return nil
}

// less compares geodesic numbers treating Unreachable as +∞.
func less(a, b int) bool {
	if a == graph.Unreachable {
		return false
	}
	if b == graph.Unreachable {
		return true
	}
	return a < b
}

func minGeo(a, b int) int {
	if less(a, b) {
		return a
	}
	return b
}

// PathCount returns, for diagnostic and testing purposes, the number of
// geodesic (shortest) paths from explicit nodes to t implied by the
// state, computed by dynamic programming over the geodesic DAG. Explicit
// nodes have count 1; unreachable nodes 0.
func (st *State) PathCount(t int) int {
	memo := make(map[int]int)
	var count func(v int) int
	count = func(v int) int {
		if st.geo[v] == graph.Unreachable {
			return 0
		}
		if st.geo[v] == 0 {
			return 1
		}
		if c, ok := memo[v]; ok {
			return c
		}
		total := 0
		st.g.Neighbors(v, func(s int, w float64) {
			if st.geo[s] == st.geo[v]-1 {
				total += count(s)
			}
		})
		memo[v] = total
		return total
	}
	return count(t)
}
