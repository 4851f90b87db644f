// Package gen builds every synthetic workload the paper's evaluation
// uses: the deterministic Kronecker graph family of Fig. 6a, the small
// example graphs of Fig. 5, a stochastic block model for coupling-driven
// scenarios like the e-bay fraud example of Fig. 1c, and a DBLP-like
// heterogeneous graph standing in for the real DBLP dataset of Fig. 11
// (which is not available offline; see DESIGN.md §4 for the
// substitution argument).
package gen

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/xrand"
)

// Torus returns the 8-node "torus" of Fig. 5c: an inner 4-cycle
// v5−v6−v7−v8 with one pendant attached to each cycle node (v1−v5,
// v2−v6, v3−v7, v4−v8). Node ids are 0-based, so v1 = 0 … v8 = 7.
//
// This topology is pinned down by Example 20: ρ(A) = 1+√2 ≈ 2.414,
// node v4 has geodesic number 3 with exactly the two shortest paths
// v1→v5→v8→v4 and v3→v7→v8→v4, and the norm-based convergence bounds
// come out as εH ≲ 0.360 (LinBP) and εH ≲ 0.455 (LinBP*).
func Torus() *graph.Graph {
	g := graph.New(8)
	for i := 0; i < 4; i++ {
		g.AddUnitEdge(4+i, 4+(i+1)%4) // inner cycle v5..v8
		g.AddUnitEdge(i, 4+i)         // pendant vi − v(i+4)
	}
	return g
}

// Fig5 returns the 7-node graph of Fig. 5a/5b used by Examples 16 and 18
// (v1 = 0 … v7 = 6). The explicit nodes in those examples are v2 and v7.
func Fig5() *graph.Graph {
	g := graph.New(7)
	for _, e := range [][2]int{
		{0, 2}, {0, 3}, {0, 4}, // v1−v3, v1−v4, v1−v5
		{1, 2}, {1, 3}, // v2−v3, v2−v4
		{2, 6}, // v3−v7
		{3, 4}, // v4−v5
		{4, 5}, // v5−v6
		{5, 6}, // v6−v7
	} {
		g.AddUnitEdge(e[0], e[1])
	}
	return g
}

// KroneckerSeedEdges is the directed-entry count of the Kronecker seed:
// the 3-node star v0−v1, v0−v2 has 4 nonzero adjacency entries, so the
// p-th Kronecker power has 3^p nodes and 4^p directed entries — exactly
// the node and edge counts of Fig. 6a (graph #i has power 4+i).
const KroneckerSeedEdges = 4

// Kronecker returns the deterministic Kronecker power graph used as
// synthetic workload: the p-fold Kronecker product of the 3-node star's
// adjacency matrix with itself. The result has 3^p nodes and 4^p/2
// undirected edges and reproduces the counts of Fig. 6a for p = 5…13.
// It panics for p < 1 or p > 13 (beyond 13 the edge list no longer fits
// in reasonable memory).
//
// The graph is disconnected: the star is bipartite, and the Kronecker
// product of connected bipartite graphs splits in two, so power p has
// 2^(p−1) connected components, the largest of 2^p + 1 nodes — 64,
// 256 and 1,024 components at p = 7, 9 and 11, the largest holding
// 129, 513 and 2,049 nodes. Results measured on it (a reordering's
// bandwidth, a partition's cut, how far a re-solve spreads) are
// results on that component structure.
func Kronecker(p int) *graph.Graph {
	if p < 1 || p > 13 {
		panic(fmt.Sprintf("gen: Kronecker power %d out of range [1,13]", p))
	}
	// Seed: star with center 0. Directed entries.
	type pair struct{ u, v int32 }
	seed := []pair{{0, 1}, {1, 0}, {0, 2}, {2, 0}}
	pairs := seed
	for i := 1; i < p; i++ {
		next := make([]pair, 0, len(pairs)*len(seed))
		for _, pr := range pairs {
			for _, s := range seed {
				next = append(next, pair{pr.u*3 + s.u, pr.v*3 + s.v})
			}
		}
		pairs = next
	}
	n := 1
	for i := 0; i < p; i++ {
		n *= 3
	}
	g := graph.New(n)
	g.ReserveEdges(len(pairs) / 2)
	for _, pr := range pairs {
		if pr.u < pr.v { // each undirected edge once; the seed has no self-loops
			g.AddUnitEdge(int(pr.u), int(pr.v))
		}
	}
	return g
}

// KroneckerGraphNumber maps the paper's graph numbering (Fig. 6a,
// #1 … #9) to the Kronecker power (5 … 13).
func KroneckerGraphNumber(num int) int {
	if num < 1 || num > 9 {
		panic(fmt.Sprintf("gen: graph number %d out of range [1,9]", num))
	}
	return num + 4
}

// Grid returns the rows×cols 2D grid graph (no wraparound), nodes in
// row-major order. Useful as an auxiliary loopy test topology.
func Grid(rows, cols int) *graph.Graph {
	g := graph.New(rows * cols)
	g.ReserveEdges(rows*(cols-1) + (rows-1)*cols)
	id := func(r, c int) int { return r*cols + c }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				g.AddUnitEdge(id(r, c), id(r, c+1))
			}
			if r+1 < rows {
				g.AddUnitEdge(id(r, c), id(r+1, c))
			}
		}
	}
	return g
}

// Random returns an Erdős–Rényi-style graph with n nodes and m distinct
// undirected edges (no self-loops), drawn deterministically from seed.
func Random(n, m int, seed uint64) *graph.Graph {
	if n < 2 {
		panic("gen: Random needs n >= 2")
	}
	maxEdges := n * (n - 1) / 2
	if m > maxEdges {
		panic(fmt.Sprintf("gen: %d edges exceed the %d possible", m, maxEdges))
	}
	rng := xrand.New(seed)
	g := graph.New(n)
	g.ReserveEdges(m)
	seen := make(map[[2]int]bool, m)
	for len(seen) < m {
		u, v := rng.Intn(n), rng.Intn(n)
		if u == v {
			continue
		}
		if u > v {
			u, v = v, u
		}
		key := [2]int{u, v}
		if seen[key] {
			continue
		}
		seen[key] = true
		g.AddUnitEdge(u, v)
	}
	return g
}

// SBM draws a stochastic block model: classSizes[c] nodes of class c,
// and an undirected edge between nodes of classes c1, c2 with probability
// prob[c1][c2] (symmetric). It returns the graph and the class of every
// node. This is the generator behind the fraud example: Fig. 1c's
// coupling matrix, read as edge densities, produces the near-bipartite
// fraudster–accomplice cores the paper describes.
func SBM(classSizes []int, prob [][]float64, seed uint64) (*graph.Graph, []int) {
	k := len(classSizes)
	if len(prob) != k {
		panic("gen: SBM prob matrix size mismatch")
	}
	n := 0
	labels := []int{}
	for c, size := range classSizes {
		if size < 0 {
			panic("gen: negative class size")
		}
		n += size
		for i := 0; i < size; i++ {
			labels = append(labels, c)
		}
	}
	rng := xrand.New(seed)
	g := graph.New(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			p := prob[labels[u]][labels[v]]
			if p < 0 || p > 1 {
				panic(fmt.Sprintf("gen: SBM probability %v out of [0,1]", p))
			}
			if rng.Float64() < p {
				g.AddUnitEdge(u, v)
			}
		}
	}
	return g, labels
}

// DBLPNodeKind identifies the heterogeneous node types of the DBLP-like
// graph (papers connect to their authors, venue, and title terms).
type DBLPNodeKind int

// Node kinds of the DBLP-like graph.
const (
	DBLPPaper DBLPNodeKind = iota
	DBLPAuthor
	DBLPConference
	DBLPTerm
)

// DBLPGraph is the synthetic stand-in for the DBLP dataset of Fig. 11:
// a heterogeneous graph of papers, authors, conferences, and terms over
// four research areas (AI, DB, DM, IR in the paper).
type DBLPGraph struct {
	G *graph.Graph
	// Kind and TrueClass have one entry per node. TrueClass is the
	// research area (0..3) the generator assigned; terms get the class
	// they are most associated with.
	Kind      []DBLPNodeKind
	TrueClass []int
}

// DBLPConfig sizes the synthetic DBLP-like graph. The zero value is not
// valid; use DefaultDBLPConfig.
type DBLPConfig struct {
	PapersPerArea  int     // papers per research area
	AuthorsPerArea int     // authors per research area
	ConfsPerArea   int     // conferences per research area
	TermsPerArea   int     // area-specific terms
	SharedTerms    int     // generic terms used by every area
	AuthorsPerPap  int     // authors cited per paper
	TermsPerPaper  int     // terms per paper title
	CrossAreaProb  float64 // probability an author link crosses areas
	SharedTermProb float64 // probability a term slot picks a shared term
	Seed           uint64
}

// DefaultDBLPConfig returns a configuration producing roughly 4,600
// nodes and 40,000 edges — a 1:8 scale model of the paper's DBLP graph
// (36,138 nodes, 341,564 directed entries) with the same topology mix.
func DefaultDBLPConfig() DBLPConfig {
	return DBLPConfig{
		PapersPerArea:  800,
		AuthorsPerArea: 240,
		ConfsPerArea:   5,
		TermsPerArea:   80,
		SharedTerms:    60,
		AuthorsPerPap:  3,
		TermsPerPaper:  6,
		CrossAreaProb:  0.08,
		SharedTermProb: 0.25,
		Seed:           7,
	}
}

// DBLP generates the synthetic DBLP-like heterogeneous graph.
func DBLP(cfg DBLPConfig) *DBLPGraph {
	const areas = 4
	if cfg.PapersPerArea <= 0 || cfg.AuthorsPerArea <= 0 || cfg.ConfsPerArea <= 0 ||
		cfg.TermsPerArea <= 0 || cfg.AuthorsPerPap <= 0 || cfg.TermsPerPaper <= 0 {
		panic("gen: DBLP config has non-positive sizes")
	}
	nPapers := areas * cfg.PapersPerArea
	nAuthors := areas * cfg.AuthorsPerArea
	nConfs := areas * cfg.ConfsPerArea
	nTerms := areas*cfg.TermsPerArea + cfg.SharedTerms
	n := nPapers + nAuthors + nConfs + nTerms

	d := &DBLPGraph{
		G:         graph.New(n),
		Kind:      make([]DBLPNodeKind, n),
		TrueClass: make([]int, n),
	}
	// Every paper links to its venue, authors, and title terms.
	d.G.ReserveEdges(nPapers * (1 + cfg.AuthorsPerPap + cfg.TermsPerPaper))
	paperID := func(area, i int) int { return area*cfg.PapersPerArea + i }
	authorID := func(area, i int) int { return nPapers + area*cfg.AuthorsPerArea + i }
	confID := func(area, i int) int { return nPapers + nAuthors + area*cfg.ConfsPerArea + i }
	termID := func(idx int) int { return nPapers + nAuthors + nConfs + idx }

	for area := 0; area < areas; area++ {
		for i := 0; i < cfg.PapersPerArea; i++ {
			id := paperID(area, i)
			d.Kind[id] = DBLPPaper
			d.TrueClass[id] = area
		}
		for i := 0; i < cfg.AuthorsPerArea; i++ {
			id := authorID(area, i)
			d.Kind[id] = DBLPAuthor
			d.TrueClass[id] = area
		}
		for i := 0; i < cfg.ConfsPerArea; i++ {
			id := confID(area, i)
			d.Kind[id] = DBLPConference
			d.TrueClass[id] = area
		}
	}
	for idx := 0; idx < nTerms; idx++ {
		id := termID(idx)
		d.Kind[id] = DBLPTerm
		if idx < areas*cfg.TermsPerArea {
			d.TrueClass[id] = idx / cfg.TermsPerArea
		} else {
			d.TrueClass[id] = idx % areas // shared terms: arbitrary area
		}
	}

	rng := xrand.New(cfg.Seed)
	// Avoid parallel edges per paper with a small set.
	for area := 0; area < areas; area++ {
		for i := 0; i < cfg.PapersPerArea; i++ {
			p := paperID(area, i)
			used := map[int]bool{}
			// Authors: mostly same-area, occasionally cross-area.
			for a := 0; a < cfg.AuthorsPerPap; a++ {
				aArea := area
				if rng.Float64() < cfg.CrossAreaProb {
					aArea = rng.Intn(areas)
				}
				id := authorID(aArea, rng.Intn(cfg.AuthorsPerArea))
				if used[id] {
					continue
				}
				used[id] = true
				d.G.AddUnitEdge(p, id)
			}
			// Venue: always same-area.
			d.G.AddUnitEdge(p, confID(area, rng.Intn(cfg.ConfsPerArea)))
			// Terms: area-specific or shared.
			for tSlot := 0; tSlot < cfg.TermsPerPaper; tSlot++ {
				var id int
				if cfg.SharedTerms > 0 && rng.Float64() < cfg.SharedTermProb {
					id = termID(areas*cfg.TermsPerArea + rng.Intn(cfg.SharedTerms))
				} else {
					id = termID(area*cfg.TermsPerArea + rng.Intn(cfg.TermsPerArea))
				}
				if used[id] {
					continue
				}
				used[id] = true
				d.G.AddUnitEdge(p, id)
			}
		}
	}
	return d
}

// FraudConfig sizes the synthetic online-auction network of the fraud
// example (Fig. 1c): honest users, accomplices, and fraudsters with
// edge densities proportional to the coupling matrix.
type FraudConfig struct {
	Honest, Accomplice, Fraudster int
	// Density scales Fig. 1c's affinities into edge probabilities.
	Density float64
	Seed    uint64
}

// DefaultFraudConfig returns a small auction network: many honest users,
// few accomplices and fraudsters, as in online-auction fraud scenarios.
func DefaultFraudConfig() FraudConfig {
	return FraudConfig{Honest: 300, Accomplice: 60, Fraudster: 40, Density: 0.05, Seed: 11}
}

// Fraud generates the auction graph and returns it with the true class
// of every node (0 = honest, 1 = accomplice, 2 = fraudster).
func Fraud(cfg FraudConfig) (*graph.Graph, []int) {
	h := cfg.Density
	// Fig. 1c as relative edge densities: H/A/F.
	prob := [][]float64{
		{0.6 * h, 0.3 * h, 0.1 * h},
		{0.3 * h, 0.0 * h, 0.7 * h},
		{0.1 * h, 0.7 * h, 0.2 * h},
	}
	return SBM([]int{cfg.Honest, cfg.Accomplice, cfg.Fraudster}, prob, cfg.Seed)
}
