package graph

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/xrand"
)

// fig5a builds the 7-node graph of Fig. 5a/5b: v1 is two hops from the
// explicit nodes v2 and v7. Node ids are 0-based (v1 = 0, ..., v7 = 6).
// Edges follow Example 18's narrative: the matrix as printed in the
// paper text lost the A(1,5)/A(5,1) entries, but the prose explicitly
// discusses "the 4 entries for v1−v3 and v1−v5 in A", so v1−v5 exists.
func fig5a() *Graph {
	g := New(7)
	// v1−v3, v1−v4, v1−v5, v2−v3, v2−v4, v3−v7, v4−v5, v5−v6, v6−v7.
	g.AddUnitEdge(0, 2)
	g.AddUnitEdge(0, 3)
	g.AddUnitEdge(0, 4)
	g.AddUnitEdge(1, 2)
	g.AddUnitEdge(1, 3)
	g.AddUnitEdge(2, 6)
	g.AddUnitEdge(3, 4)
	g.AddUnitEdge(4, 5)
	g.AddUnitEdge(5, 6)
	return g
}

func TestAdjacencySymmetric(t *testing.T) {
	g := fig5a()
	a := g.Adjacency()
	if !a.IsSymmetric() {
		t.Fatal("adjacency must be symmetric")
	}
	if a.NNZ() != 18 {
		t.Fatalf("nnz = %d, want 18 (9 undirected edges)", a.NNZ())
	}
	if g.DirectedEdgeCount() != 18 {
		t.Fatalf("DirectedEdgeCount = %d", g.DirectedEdgeCount())
	}
	if g.NumEdges() != 9 {
		t.Fatalf("NumEdges = %d", g.NumEdges())
	}
}

func TestAddEdgeValidation(t *testing.T) {
	g := New(2)
	for _, fn := range []func(){
		func() { g.AddEdge(0, 2, 1) },
		func() { g.AddEdge(-1, 0, 1) },
		func() { g.AddEdge(0, 1, 0) },
		func() { g.AddEdge(0, 1, -2) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestParallelEdgesAccumulate(t *testing.T) {
	g := New(2)
	g.AddEdge(0, 1, 1)
	g.AddEdge(0, 1, 2)
	if got := g.Adjacency().At(0, 1); got != 3 {
		t.Fatalf("A(0,1) = %v, want 3", got)
	}
}

// TestMultigraphAdjacencyBitwiseSymmetric pins the order parallel edges
// are summed in: edge order, in both rows. A hub with 59 neighbors and
// 5 parallel edges of random weights to leaf 5, entered in a shuffled
// order, puts 64 entries in the hub's row; summing them in an order
// that depends on the rest of the row (as an unstable sort of the row
// does) makes A(0,5) and A(5,0) differ in their last bit for seed 8.
func TestMultigraphAdjacencyBitwiseSymmetric(t *testing.T) {
	rng := xrand.New(8)
	var edges []Edge
	for leaf := 1; leaf <= 59; leaf++ {
		edges = append(edges, Edge{S: 0, T: leaf, W: 1})
	}
	for i := 0; i < 5; i++ {
		edges = append(edges, Edge{S: 0, T: 5, W: 0.1 + rng.Float64()})
	}
	rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
	g := New(60)
	want := 0.0
	for _, e := range edges {
		if rng.Intn(2) == 0 {
			e.S, e.T = e.T, e.S
		}
		g.AddEdge(e.S, e.T, e.W)
		if e.S+e.T == 5 {
			want += e.W
		}
	}
	a := g.Adjacency()
	if !a.IsSymmetric() {
		t.Fatalf("A(0,5) = %v, A(5,0) = %v: the adjacency is not bitwise symmetric", a.At(0, 5), a.At(5, 0))
	}
	if got := a.At(0, 5); got != want {
		t.Fatalf("A(0,5) = %v, want the edge-order sum %v", got, want)
	}
}

func TestNeighborsAndDegree(t *testing.T) {
	g := fig5a()
	var nbrs []int
	g.Neighbors(2, func(j int, w float64) { nbrs = append(nbrs, j) })
	want := []int{0, 1, 6}
	if len(nbrs) != len(want) {
		t.Fatalf("neighbors of v3 = %v", nbrs)
	}
	for i := range want {
		if nbrs[i] != want[i] {
			t.Fatalf("neighbors of v3 = %v, want %v", nbrs, want)
		}
	}
	if g.Degree(2) != 3 {
		t.Fatalf("Degree = %d", g.Degree(2))
	}
}

func TestWeightedDegrees(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1, 2)
	g.AddEdge(0, 2, 3)
	d := g.WeightedDegrees()
	// d0 = 2² + 3² = 13 (Section 5.2 definition).
	if d[0] != 13 || d[1] != 4 || d[2] != 9 {
		t.Fatalf("WeightedDegrees = %v", d)
	}
}

func TestGeodesicNumbersFig5(t *testing.T) {
	g := fig5a()
	// Explicit nodes: v2 (id 1) and v7 (id 6), as in Fig. 5b.
	geo := g.GeodesicNumbers([]int{1, 6})
	// From Example 18: v3, v1, v5 have geodesic numbers 1, 2, 2 and the
	// figure marks g=1 and g=2 rings.
	want := []int{2, 0, 1, 1, 2, 1, 0}
	for i := range want {
		if geo[i] != want[i] {
			t.Fatalf("geodesic = %v, want %v", geo, want)
		}
	}
}

func TestGeodesicUnreachable(t *testing.T) {
	g := New(3)
	g.AddUnitEdge(0, 1)
	geo := g.GeodesicNumbers([]int{0})
	if geo[2] != Unreachable {
		t.Fatalf("isolated node must be Unreachable, got %d", geo[2])
	}
}

func TestGeodesicDuplicateSeeds(t *testing.T) {
	g := New(2)
	g.AddUnitEdge(0, 1)
	geo := g.GeodesicNumbers([]int{0, 0})
	if geo[0] != 0 || geo[1] != 1 {
		t.Fatalf("geo = %v", geo)
	}
}

func TestGeodesicSeedOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(2).GeodesicNumbers([]int{5})
}

// TestModifiedAdjacencyExample18 reproduces the A* matrix printed in
// Example 18 exactly.
func TestModifiedAdjacencyExample18(t *testing.T) {
	g := fig5a()
	geo := g.GeodesicNumbers([]int{1, 6})
	astar := g.ModifiedAdjacency(geo)
	// Example 18's A* (1-based rows v1..v7); A*(s,t) != 0 iff edge s→t
	// exists, i.e. row s, column t with gs+1 == gt.
	want := [7][7]float64{
		{0, 0, 0, 0, 0, 0, 0},
		{0, 0, 1, 1, 0, 0, 0},
		{1, 0, 0, 0, 0, 0, 0}, // v3 → v1 (the paper lists the transpose convention; see below)
		{1, 0, 0, 0, 1, 0, 0},
		{0, 0, 0, 0, 0, 0, 0},
		{0, 0, 0, 0, 1, 0, 0},
		{0, 0, 1, 0, 0, 1, 0},
	}
	// The matrix in Example 18 is exactly this A* read as A*(s,t) with
	// s the lower-geodesic node. Compare entrywise.
	for i := 0; i < 7; i++ {
		for j := 0; j < 7; j++ {
			if got := astar.At(i, j); got != want[i][j] {
				t.Fatalf("A*(%d,%d) = %v, want %v", i, j, got, want[i][j])
			}
		}
	}
	// Lemma 17(1): A* is a DAG — no directed cycles. Verify via the fact
	// that edges only go from geodesic g to g+1.
	for i := 0; i < 7; i++ {
		astar.Row(i, func(j int, w float64) {
			if geo[j] != geo[i]+1 {
				t.Fatalf("edge %d→%d violates geodesic ordering", i, j)
			}
		})
	}
}

func TestModifiedAdjacencyDropsEqualGeodesics(t *testing.T) {
	g := fig5a()
	geo := g.GeodesicNumbers([]int{1, 6})
	astar := g.ModifiedAdjacency(geo)
	// v1−v5 (ids 0,4) both have geodesic 2: edge must vanish entirely.
	if astar.At(0, 4) != 0 || astar.At(4, 0) != 0 {
		t.Fatal("edge between equal geodesic numbers must be removed")
	}
}

func TestConnectedComponents(t *testing.T) {
	g := New(5)
	g.AddUnitEdge(0, 1)
	g.AddUnitEdge(3, 4)
	ids, count := g.ConnectedComponents()
	if count != 3 {
		t.Fatalf("count = %d, want 3", count)
	}
	if ids[0] != ids[1] || ids[3] != ids[4] || ids[0] == ids[2] || ids[2] == ids[3] {
		t.Fatalf("ids = %v", ids)
	}
}

func TestEdgeMatrixTriangle(t *testing.T) {
	// Triangle: every directed edge (u→v) sees exactly one (w→u), w ≠ v.
	g := New(3)
	g.AddUnitEdge(0, 1)
	g.AddUnitEdge(1, 2)
	g.AddUnitEdge(2, 0)
	em, dir := g.EdgeMatrix()
	if em.Rows() != 6 || len(dir) != 6 {
		t.Fatalf("edge matrix %dx%d over %d directed edges", em.Rows(), em.Cols(), len(dir))
	}
	for i := 0; i < 6; i++ {
		if em.RowNNZ(i) != 1 {
			t.Fatalf("row %d nnz = %d, want 1", i, em.RowNNZ(i))
		}
	}
}

func TestEdgeMatrixStar(t *testing.T) {
	// Star K1,3 centered at 0: edge (0→leaf) sees (other leaf→0): 2 each;
	// edge (leaf→0) sees nothing (only edges into leaf are 0→leaf = excluded).
	g := New(4)
	g.AddUnitEdge(0, 1)
	g.AddUnitEdge(0, 2)
	g.AddUnitEdge(0, 3)
	em, dir := g.EdgeMatrix()
	for i, e := range dir {
		want := 0
		if e.S == 0 { // 0→leaf
			want = 2
		}
		if em.RowNNZ(i) != want {
			t.Fatalf("edge %v row nnz = %d, want %d", e, em.RowNNZ(i), want)
		}
	}
}

func TestCloneIndependence(t *testing.T) {
	g := fig5a()
	c := g.Clone()
	c.AddUnitEdge(0, 1)
	if g.NumEdges() == c.NumEdges() {
		t.Fatal("Clone must be independent")
	}
}

func TestEdgeListRoundTrip(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1, 1.5)
	g.AddEdge(2, 3, 2)
	var buf bytes.Buffer
	if err := g.WriteEdgeList(&buf); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadEdgeList(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g2.N() != 4 || g2.NumEdges() != 2 {
		t.Fatalf("round trip: n=%d e=%d", g2.N(), g2.NumEdges())
	}
	if g2.Adjacency().At(0, 1) != 1.5 {
		t.Fatal("weight lost in round trip")
	}
}

func TestReadEdgeListDefaultsAndComments(t *testing.T) {
	in := "# comment\n\n0 1\n1 2 3.5\n"
	g, err := ReadEdgeList(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 3 || g.Adjacency().At(0, 1) != 1 || g.Adjacency().At(1, 2) != 3.5 {
		t.Fatal("parse failed")
	}
}

func TestReadEdgeListErrors(t *testing.T) {
	for _, in := range []string{"0\n", "a b\n", "0 b\n", "0 1 x\n", "-1 2\n", "0 1 2 3\n"} {
		if _, err := ReadEdgeList(strings.NewReader(in)); err == nil {
			t.Fatalf("input %q: expected error", in)
		}
	}
}

func TestSortedEdgesCanonical(t *testing.T) {
	g := New(3)
	g.AddUnitEdge(2, 0)
	g.AddUnitEdge(1, 0)
	es := g.SortedEdges()
	if es[0].S != 0 || es[0].T != 1 || es[1].S != 0 || es[1].T != 2 {
		t.Fatalf("SortedEdges = %v", es)
	}
}

func TestPermute(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1, 2)
	g.AddEdge(1, 2, 3)
	g.AddEdge(2, 3, 4)
	perm := []int{3, 1, 0, 2} // old -> new
	p := g.Permute(perm)
	if p.N() != 4 || p.NumEdges() != 3 {
		t.Fatalf("shape lost: n=%d m=%d", p.N(), p.NumEdges())
	}
	a, pa := g.Adjacency(), p.Adjacency()
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			if pa.At(perm[i], perm[j]) != a.At(i, j) {
				t.Fatalf("adjacency entry (%d,%d) lost by Permute", i, j)
			}
		}
	}
	// Degrees travel with the relabeling.
	d, pd := g.WeightedDegrees(), p.WeightedDegrees()
	for i := range d {
		if pd[perm[i]] != d[i] {
			t.Fatalf("degree of node %d lost by Permute", i)
		}
	}
	for _, bad := range [][]int{{0, 1}, {0, 0, 2, 3}, {0, 1, 2, 4}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("perm %v must panic", bad)
				}
			}()
			g.Permute(bad)
		}()
	}
}

func TestRemoveEdges(t *testing.T) {
	g := New(5)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 0, 2) // parallel, reversed orientation
	g.AddEdge(1, 2, 1)
	g.AddEdge(3, 3, 1) // self-loop
	_ = g.Adjacency()  // build the caches so removal must invalidate them

	if got := g.RemoveEdges([]Edge{{S: 1, T: 0}}); got != 2 {
		t.Fatalf("removed %d parallel edges, want 2", got)
	}
	if g.Adjacency().At(0, 1) != 0 || g.Adjacency().At(1, 0) != 0 {
		t.Fatal("adjacency kept removed edge")
	}
	if g.Adjacency().At(1, 2) != 1 {
		t.Fatal("removal clobbered an unrelated edge")
	}
	if got := g.RemoveEdges([]Edge{{S: 3, T: 3}}); got != 1 {
		t.Fatalf("self-loop removal removed %d, want 1", got)
	}
	// Absent pairs and out-of-range ids are no-ops.
	if got := g.RemoveEdges([]Edge{{S: 0, T: 1}, {S: 4, T: 4}}); got != 0 {
		t.Fatalf("no-op removal removed %d", got)
	}
	if got := g.RemoveEdges(nil); got != 0 {
		t.Fatalf("empty removal removed %d", got)
	}
	if g.NumEdges() != 1 {
		t.Fatalf("NumEdges = %d, want 1", g.NumEdges())
	}
}
