package gen

import (
	"math"
	"slices"
	"testing"

	"repro/internal/spectral"
)

func TestTorusShape(t *testing.T) {
	g := Torus()
	if g.N() != 8 || g.NumEdges() != 8 {
		t.Fatalf("torus: n=%d e=%d", g.N(), g.NumEdges())
	}
	// Degrees: pendants 1, cycle nodes 3.
	for i := 0; i < 4; i++ {
		if g.Degree(i) != 1 {
			t.Fatalf("pendant v%d degree %d", i+1, g.Degree(i))
		}
		if g.Degree(4+i) != 3 {
			t.Fatalf("cycle v%d degree %d", i+5, g.Degree(4+i))
		}
	}
}

func TestTorusSpectralRadius(t *testing.T) {
	rho, err := spectral.RadiusCSR(Torus().Adjacency(), spectral.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rho-(1+math.Sqrt2)) > 1e-8 {
		t.Fatalf("rho = %v, want 1+sqrt2", rho)
	}
}

func TestTorusExample20Geodesics(t *testing.T) {
	g := Torus()
	geo := g.GeodesicNumbers([]int{0, 1, 2}) // explicit: v1, v2, v3
	if geo[3] != 3 {
		t.Fatalf("geodesic(v4) = %d, want 3", geo[3])
	}
	want := []int{0, 0, 0, 3, 1, 1, 1, 2}
	for i := range want {
		if geo[i] != want[i] {
			t.Fatalf("geo = %v, want %v", geo, want)
		}
	}
}

func TestFig5MatchesExample16(t *testing.T) {
	g := Fig5()
	if g.N() != 7 || g.NumEdges() != 9 {
		t.Fatalf("fig5: n=%d e=%d", g.N(), g.NumEdges())
	}
	geo := g.GeodesicNumbers([]int{1, 6}) // v2, v7 explicit
	if geo[0] != 2 {
		t.Fatalf("geodesic(v1) = %d, want 2", geo[0])
	}
}

func TestKroneckerCountsFig6a(t *testing.T) {
	// Fig. 6a rows #1..#4 (powers 5..8): n = 3^p, directed entries = 4^p.
	wantN := []int{243, 729, 2187, 6561}
	wantE := []int{1024, 4096, 16384, 65536}
	for i := 0; i < 4; i++ {
		p := KroneckerGraphNumber(i + 1)
		g := Kronecker(p)
		if g.N() != wantN[i] {
			t.Fatalf("graph #%d: n = %d, want %d", i+1, g.N(), wantN[i])
		}
		if got := g.DirectedEdgeCount(); got != wantE[i] {
			t.Fatalf("graph #%d: directed entries = %d, want %d", i+1, got, wantE[i])
		}
	}
}

func TestKroneckerSymmetricNoSelfLoops(t *testing.T) {
	g := Kronecker(5)
	a := g.Adjacency()
	if !a.IsSymmetric() {
		t.Fatal("Kronecker adjacency must be symmetric")
	}
	for i := 0; i < g.N(); i++ {
		if a.At(i, i) != 0 {
			t.Fatalf("self-loop at %d", i)
		}
	}
}

func TestKroneckerPowerBounds(t *testing.T) {
	for _, p := range []int{0, 14} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("power %d: expected panic", p)
				}
			}()
			Kronecker(p)
		}()
	}
}

func TestKroneckerGraphNumberBounds(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	KroneckerGraphNumber(0)
}

func TestGrid(t *testing.T) {
	g := Grid(3, 4)
	if g.N() != 12 {
		t.Fatalf("n = %d", g.N())
	}
	// Edges: 3*3 horizontal + 2*4 vertical = 17.
	if g.NumEdges() != 17 {
		t.Fatalf("e = %d, want 17", g.NumEdges())
	}
	// Corner degree 2, center degree 4.
	if g.Degree(0) != 2 || g.Degree(5) != 4 {
		t.Fatalf("degrees: corner %d center %d", g.Degree(0), g.Degree(5))
	}
}

func TestRandomGraph(t *testing.T) {
	g := Random(50, 100, 3)
	if g.N() != 50 || g.NumEdges() != 100 {
		t.Fatalf("n=%d e=%d", g.N(), g.NumEdges())
	}
	// No self loops, no duplicate edges.
	seen := map[[2]int]bool{}
	for _, e := range g.SortedEdges() {
		if e.S == e.T {
			t.Fatal("self loop")
		}
		key := [2]int{e.S, e.T}
		if seen[key] {
			t.Fatal("duplicate edge")
		}
		seen[key] = true
	}
}

func TestRandomDeterministic(t *testing.T) {
	a := Random(30, 60, 9)
	b := Random(30, 60, 9)
	ae, be := a.SortedEdges(), b.SortedEdges()
	for i := range ae {
		if ae[i] != be[i] {
			t.Fatal("same seed must give same graph")
		}
	}
}

func TestRandomTooManyEdgesPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Random(3, 4, 1)
}

func TestSBMRespectsDensities(t *testing.T) {
	sizes := []int{100, 100}
	prob := [][]float64{{0.2, 0.01}, {0.01, 0.2}}
	g, labels := SBM(sizes, prob, 5)
	if g.N() != 200 || len(labels) != 200 {
		t.Fatal("SBM sizing wrong")
	}
	var within, across int
	for _, e := range g.Edges() {
		if labels[e.S] == labels[e.T] {
			within++
		} else {
			across++
		}
	}
	// Expected within ≈ 2 * C(100,2)*0.2 = 1980, across ≈ 10000*0.01 = 100.
	if within < 1500 || within > 2500 {
		t.Fatalf("within-class edges = %d, want ~1980", within)
	}
	if across < 50 || across > 200 {
		t.Fatalf("across-class edges = %d, want ~100", across)
	}
}

func TestSBMZeroProbBlockEmpty(t *testing.T) {
	// Accomplice–accomplice affinity is 0 in Fig. 1c: no such edges.
	g, labels := Fraud(DefaultFraudConfig())
	for _, e := range g.Edges() {
		if labels[e.S] == 1 && labels[e.T] == 1 {
			t.Fatal("accomplice–accomplice edge must not exist (Fig. 1c has 0 affinity)")
		}
	}
}

func TestFraudNearBipartiteCore(t *testing.T) {
	g, labels := Fraud(DefaultFraudConfig())
	// Fraudsters should interact mostly with accomplices.
	var fa, fh, ff int
	for _, e := range g.Edges() {
		cs, ct := labels[e.S], labels[e.T]
		if cs > ct {
			cs, ct = ct, cs
		}
		switch {
		case cs == 1 && ct == 2:
			fa++
		case cs == 0 && ct == 2:
			fh++
		case cs == 2 && ct == 2:
			ff++
		}
	}
	if fa <= fh || fa <= ff {
		t.Fatalf("fraudster edges: F–A=%d F–H=%d F–F=%d; F–A should dominate", fa, fh, ff)
	}
}

func TestDBLPStructure(t *testing.T) {
	cfg := DefaultDBLPConfig()
	cfg.PapersPerArea = 50
	cfg.AuthorsPerArea = 20
	cfg.TermsPerArea = 15
	cfg.SharedTerms = 10
	d := DBLP(cfg)
	n := d.G.N()
	if len(d.Kind) != n || len(d.TrueClass) != n {
		t.Fatal("metadata sizing wrong")
	}
	// All edges must touch a paper (the graph is paper-centric).
	for _, e := range d.G.Edges() {
		if d.Kind[e.S] != DBLPPaper && d.Kind[e.T] != DBLPPaper {
			t.Fatalf("edge %v does not touch a paper", e)
		}
	}
	// Every paper has a venue edge.
	for id := 0; id < 4*cfg.PapersPerArea; id++ {
		hasConf := false
		d.G.Neighbors(id, func(t int, w float64) {
			if d.Kind[t] == DBLPConference {
				hasConf = true
			}
		})
		if !hasConf {
			t.Fatalf("paper %d has no conference", id)
		}
	}
	// Class distribution: every area appears.
	seen := map[int]int{}
	for _, c := range d.TrueClass {
		seen[c]++
	}
	for c := 0; c < 4; c++ {
		if seen[c] == 0 {
			t.Fatalf("area %d missing", c)
		}
	}
}

func TestDBLPHomophilyDominates(t *testing.T) {
	cfg := DefaultDBLPConfig()
	cfg.PapersPerArea = 100
	d := DBLP(cfg)
	var same, diff int
	for _, e := range d.G.Edges() {
		if d.TrueClass[e.S] == d.TrueClass[e.T] {
			same++
		} else {
			diff++
		}
	}
	if same < 2*diff {
		t.Fatalf("homophily too weak: same=%d diff=%d", same, diff)
	}
}

func TestDBLPInvalidConfigPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	DBLP(DBLPConfig{})
}

// TestKroneckerDegreeDistribution pins the structure the workload's
// results depend on: a hub-dominated graph with max degree 2^p on the
// center-power node, split into exactly 2^(p−1) connected components
// (the star is bipartite) whose largest holds 2^p + 1 nodes.
func TestKroneckerDegreeDistribution(t *testing.T) {
	g := Kronecker(5)
	maxDeg := 0
	for i := 0; i < g.N(); i++ {
		if d := g.Degree(i); d > maxDeg {
			maxDeg = d
		}
	}
	if maxDeg != 32 { // 2^5: the all-center node
		t.Fatalf("max degree = %d, want 32", maxDeg)
	}
	for p := 1; p <= 9; p++ {
		labels, count := Kronecker(p).ConnectedComponents()
		sizes := make([]int, count)
		for _, c := range labels {
			sizes[c]++
		}
		if want := 1 << (p - 1); count != want {
			t.Errorf("power %d: %d components, want 2^(p-1) = %d", p, count, want)
		}
		if got, want := slices.Max(sizes), 1<<p+1; got != want {
			t.Errorf("power %d: largest component %d nodes, want 2^p+1 = %d", p, got, want)
		}
	}
}
