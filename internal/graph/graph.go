// Package graph provides the weighted undirected graph substrate for the
// reproduction: adjacency construction, the squared-weight degree vector
// the paper's echo-cancellation term needs (Section 5.2), BFS geodesic
// numbers (Definition 14), the modified DAG adjacency A* of Lemma 17,
// connected components, and the directed edge-to-edge matrix used by the
// Mooij–Kappen convergence bound comparison in Appendix G.
package graph

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"repro/internal/sparse"
)

// Edge is one undirected weighted edge between nodes S and T.
type Edge struct {
	S, T int
	W    float64
}

// Graph is a weighted undirected graph over nodes 0..N−1.
//
// Internally the graph stores each undirected edge once; the adjacency
// matrix derived from it is symmetric. Parallel edges are allowed and
// their weights accumulate in the adjacency matrix.
type Graph struct {
	n     int
	edges []Edge

	// Lazily built caches, invalidated by AddEdge.
	adj *sparse.CSR
	nbr [][]halfEdge
}

type halfEdge struct {
	to int
	w  float64
}

// New returns an empty graph with n nodes and no edges.
func New(n int) *Graph {
	if n < 0 {
		panic("graph: negative node count")
	}
	return &Graph{n: n}
}

// N returns the number of nodes.
func (g *Graph) N() int { return g.n }

// NumEdges returns the number of stored undirected edges (parallel edges
// counted individually). Note that the paper's edge counts (Fig. 6a)
// count both directions; that convention is DirectedEdgeCount.
func (g *Graph) NumEdges() int { return len(g.edges) }

// DirectedEdgeCount returns the number of nonzero entries of the
// adjacency matrix, i.e. every undirected edge counted in both
// directions and self-loops once — the convention of Fig. 6a.
func (g *Graph) DirectedEdgeCount() int { return g.Adjacency().NNZ() }

// Edges returns the stored undirected edge list (do not modify).
func (g *Graph) Edges() []Edge { return g.edges }

// AddEdge adds the undirected edge s−t with weight w.
// It panics on out-of-range endpoints or non-positive weight (the paper
// requires w > 0 for weighted graphs, Section 5.2).
func (g *Graph) AddEdge(s, t int, w float64) {
	if s < 0 || s >= g.n || t < 0 || t >= g.n {
		panic(fmt.Sprintf("graph: edge (%d,%d) out of range n=%d", s, t, g.n))
	}
	if w <= 0 {
		panic(fmt.Sprintf("graph: non-positive edge weight %v", w))
	}
	g.edges = append(g.edges, Edge{S: s, T: t, W: w})
	g.adj = nil
	g.nbr = nil
}

// AddUnitEdge adds the undirected edge s−t with weight 1.
func (g *Graph) AddUnitEdge(s, t int) { g.AddEdge(s, t, 1) }

// RemoveEdges deletes every stored edge between the endpoint pairs of
// edges (parallel edges between a pair all go; weights are ignored, and
// pairs with no stored edge are skipped), returning the number of edges
// removed. This is the topology-shrink half of the dynamic serving
// plane's Update stream; like AddEdge it invalidates the lazy caches.
func (g *Graph) RemoveEdges(edges []Edge) int {
	if len(edges) == 0 {
		return 0
	}
	kill := make(map[[2]int]bool, len(edges))
	for _, e := range edges {
		s, t := e.S, e.T
		if s > t {
			s, t = t, s
		}
		kill[[2]int{s, t}] = true
	}
	w := 0
	for _, e := range g.edges {
		s, t := e.S, e.T
		if s > t {
			s, t = t, s
		}
		if kill[[2]int{s, t}] {
			continue
		}
		g.edges[w] = e
		w++
	}
	removed := len(g.edges) - w
	if removed > 0 {
		g.edges = g.edges[:w]
		g.adj = nil
		g.nbr = nil
	}
	return removed
}

// ReserveEdges pre-sizes the edge list for at least m undirected edges
// in total. Generators that know their edge counts (Kronecker powers,
// grids) call it so building large graphs does not regrow the list.
func (g *Graph) ReserveEdges(m int) {
	if m <= cap(g.edges) {
		return
	}
	edges := make([]Edge, len(g.edges), m)
	copy(edges, g.edges)
	g.edges = edges
}

// Adjacency returns the symmetric weighted adjacency matrix A as CSR.
// The result is cached until the next AddEdge. It is assembled straight
// from the edge list: each edge s−t lands in row s and, unless it is a
// self-loop, in row t, and parallel edges are summed in edge order, so
// A(s,t) and A(t,s) are the same sum bitwise.
func (g *Graph) Adjacency() *sparse.CSR {
	if g.adj == nil {
		a := sparse.NewAssembler(g.n, g.n)
		for _, e := range g.edges {
			a.Count(e.S)
			if e.S != e.T {
				a.Count(e.T)
			}
		}
		a.Fill()
		for _, e := range g.edges {
			a.Put(e.S, e.T, e.W)
			if e.S != e.T {
				a.Put(e.T, e.S, e.W)
			}
		}
		g.adj = a.CSR()
	}
	return g.adj
}

// Neighbors invokes fn for every neighbor of node s with the accumulated
// edge weight, in ascending node order.
func (g *Graph) Neighbors(s int, fn func(t int, w float64)) {
	g.buildNbr()
	for _, h := range g.nbr[s] {
		fn(h.to, h.w)
	}
}

// Degree returns the number of distinct neighbors of node s.
func (g *Graph) Degree(s int) int {
	g.buildNbr()
	return len(g.nbr[s])
}

func (g *Graph) buildNbr() {
	if g.nbr != nil {
		return
	}
	adj := g.Adjacency()
	g.nbr = make([][]halfEdge, g.n)
	for i := 0; i < g.n; i++ {
		row := make([]halfEdge, 0, adj.RowNNZ(i))
		adj.Row(i, func(j int, w float64) {
			row = append(row, halfEdge{to: j, w: w})
		})
		g.nbr[i] = row
	}
}

// WeightedDegrees returns the vector d with d(s) = Σ_t A(s,t)², the
// degree definition Section 5.2 requires for the echo-cancellation term
// ("the degree of a node is the sum of the squared weights to its
// neighbors"). On an unweighted graph this equals the plain degree.
func (g *Graph) WeightedDegrees() []float64 {
	return g.Adjacency().RowSumsSquared()
}

// Unreachable marks a node with no geodesic number (no path to any
// explicitly labeled node).
const Unreachable = -1

// GeodesicNumbers returns, for every node, the length of the shortest
// path to any seed node (Definition 14). Seeds get 0; nodes in components
// without seeds get Unreachable. It is GeodesicRows on the graph's
// adjacency, and panics when that does not fit the table's int32 index
// (2^31 − 1 stored entries).
func (g *Graph) GeodesicNumbers(seeds []int) []int {
	a, err := sparse.NewRowBlocks(g.Adjacency(), nil)
	if err != nil {
		panic(fmt.Sprintf("graph: %v", err))
	}
	return GeodesicRows(a, seeds)
}

// GeodesicRows is the geodesic BFS of Definition 14 over an adjacency
// table: row u's stored columns are u's neighbors. Seeds get 0, nodes
// with no path to a seed Unreachable. It panics on an out-of-range
// seed.
func GeodesicRows(a *sparse.RowBlocks, seeds []int) []int {
	n := a.Rows()
	dist := make([]int, n)
	for i := range dist {
		dist[i] = Unreachable
	}
	queue := make([]int, 0, len(seeds))
	for _, s := range seeds {
		if s < 0 || s >= n {
			panic(fmt.Sprintf("graph: seed %d out of range n=%d", s, n))
		}
		if dist[s] == 0 {
			continue // duplicate seed
		}
		dist[s] = 0
		queue = append(queue, s)
	}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		cols, _ := a.RowViewCompact(u)
		for _, j := range cols {
			if v := int(j); dist[v] == Unreachable {
				dist[v] = dist[u] + 1
				queue = append(queue, v)
			}
		}
	}
	return dist
}

// ModifiedAdjacency returns the DAG adjacency A* of Lemma 17 for the
// given geodesic numbers: edges between nodes with equal geodesic numbers
// are removed, and each remaining edge is kept only in the direction from
// lower to higher geodesic number, so A*(s,t) = w iff gs+1 == gt.
// Edges touching unreachable nodes are dropped.
func (g *Graph) ModifiedAdjacency(geodesic []int) *sparse.CSR {
	if len(geodesic) != g.n {
		panic("graph: geodesic vector length mismatch")
	}
	b := sparse.NewBuilder(g.n, g.n)
	b.Reserve(len(g.edges))
	for _, e := range g.edges {
		gs, gt := geodesic[e.S], geodesic[e.T]
		if gs == Unreachable || gt == Unreachable {
			continue
		}
		switch {
		case gs+1 == gt:
			b.Add(e.S, e.T, e.W)
		case gt+1 == gs:
			b.Add(e.T, e.S, e.W)
		}
	}
	return b.ToCSR()
}

// ConnectedComponents returns a component id per node and the number of
// components. Ids are assigned in order of first discovery.
func (g *Graph) ConnectedComponents() (ids []int, count int) {
	g.buildNbr()
	ids = make([]int, g.n)
	for i := range ids {
		ids[i] = -1
	}
	var queue []int
	for start := 0; start < g.n; start++ {
		if ids[start] != -1 {
			continue
		}
		ids[start] = count
		queue = append(queue[:0], start)
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			for _, h := range g.nbr[u] {
				if ids[h.to] == -1 {
					ids[h.to] = count
					queue = append(queue, h.to)
				}
			}
		}
		count++
	}
	return ids, count
}

// EdgeMatrix returns the 2|E|×2|E| directed edge-to-edge matrix used by
// the Mooij–Kappen bound in Appendix G: directed edge (u→v) is connected
// to every directed edge (w→u) with w ≠ v. Entry values are 1 (the bound
// is stated for unweighted potentials). The second return value maps each
// row index to its directed edge.
func (g *Graph) EdgeMatrix() (*sparse.CSR, []Edge) {
	// Enumerate directed edges: each undirected edge yields two.
	dir := make([]Edge, 0, 2*len(g.edges))
	for _, e := range g.edges {
		dir = append(dir, Edge{S: e.S, T: e.T, W: e.W}, Edge{S: e.T, T: e.S, W: e.W})
	}
	// Index directed edges by target node to find (w→u) quickly.
	byTarget := make(map[int][]int)
	for i, e := range dir {
		byTarget[e.T] = append(byTarget[e.T], i)
	}
	b := sparse.NewBuilder(len(dir), len(dir))
	total := 0
	for _, e := range dir {
		total += len(byTarget[e.S])
	}
	b.Reserve(total)
	for i, e := range dir {
		// Row i = edge (u→v); columns: edges (w→u), w ≠ v.
		for _, j := range byTarget[e.S] {
			if dir[j].S == e.T {
				continue
			}
			b.Add(i, j, 1)
		}
	}
	return b.ToCSR(), dir
}

// Clone returns a deep copy of the graph (caches are not copied).
func (g *Graph) Clone() *Graph {
	c := New(g.n)
	c.edges = append([]Edge(nil), g.edges...)
	return c
}

// Permute returns a copy of the graph with every node relabeled to
// perm[old] = new — the graph-level counterpart of sparse.CSR.Permute,
// used by the prepared solvers to hand BP and SBP a locality-ordered
// network. perm must be a bijection on [0, N).
func (g *Graph) Permute(perm []int) *Graph {
	if len(perm) != g.n {
		panic(fmt.Sprintf("graph: permutation length %d, want %d", len(perm), g.n))
	}
	seen := make([]bool, g.n)
	for old, nw := range perm {
		if nw < 0 || nw >= g.n || seen[nw] {
			panic(fmt.Sprintf("graph: invalid permutation entry perm[%d] = %d", old, nw))
		}
		seen[nw] = true
	}
	c := New(g.n)
	c.edges = make([]Edge, len(g.edges))
	for i, e := range g.edges {
		c.edges[i] = Edge{S: perm[e.S], T: perm[e.T], W: e.W}
	}
	return c
}

// WriteEdgeList writes the graph as "s t w" lines, one per undirected edge.
func (g *Graph) WriteEdgeList(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for _, e := range g.edges {
		if _, err := fmt.Fprintf(bw, "%d %d %g\n", e.S, e.T, e.W); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadEdgeList parses "s t [w]" lines (w defaults to 1) into a graph with
// n = 1 + max node id. Blank lines and lines starting with '#' are skipped.
func ReadEdgeList(r io.Reader) (*Graph, error) {
	type line struct {
		s, t int
		w    float64
	}
	var lines []line
	maxID := -1
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	ln := 0
	for sc.Scan() {
		ln++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Fields(text)
		if len(fields) < 2 || len(fields) > 3 {
			return nil, fmt.Errorf("graph: line %d: want 's t [w]', got %q", ln, text)
		}
		s, err := strconv.Atoi(fields[0])
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: bad source: %v", ln, err)
		}
		t, err := strconv.Atoi(fields[1])
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: bad target: %v", ln, err)
		}
		w := 1.0
		if len(fields) == 3 {
			w, err = strconv.ParseFloat(fields[2], 64)
			if err != nil {
				return nil, fmt.Errorf("graph: line %d: bad weight: %v", ln, err)
			}
		}
		if s < 0 || t < 0 {
			return nil, fmt.Errorf("graph: line %d: negative node id", ln)
		}
		if s > maxID {
			maxID = s
		}
		if t > maxID {
			maxID = t
		}
		lines = append(lines, line{s, t, w})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	g := New(maxID + 1)
	g.ReserveEdges(len(lines))
	for _, l := range lines {
		g.AddEdge(l.s, l.t, l.w)
	}
	return g, nil
}

// SortedEdges returns a copy of the edge list in canonical order
// (smaller endpoint first, then lexicographic), useful for stable output.
func (g *Graph) SortedEdges() []Edge {
	out := make([]Edge, len(g.edges))
	for i, e := range g.edges {
		if e.S > e.T {
			e.S, e.T = e.T, e.S
		}
		out[i] = e
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].S != out[j].S {
			return out[i].S < out[j].S
		}
		if out[i].T != out[j].T {
			return out[i].T < out[j].T
		}
		return out[i].W < out[j].W
	})
	return out
}
