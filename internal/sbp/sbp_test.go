package sbp

import (
	"math"
	"testing"

	"repro/internal/beliefs"
	"repro/internal/coupling"
	"repro/internal/dense"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/linbp"
	"repro/internal/xrand"
)

func ho(t *testing.T) *dense.Matrix {
	t.Helper()
	h, err := coupling.NewResidual(coupling.Fig1c())
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// torusProblem is the Example 20 instance.
func torusProblem(t *testing.T) (*graph.Graph, *beliefs.Residual) {
	t.Helper()
	g := gen.Torus()
	e := beliefs.New(8, 3)
	e.Set(0, []float64{2, -1, -1})
	e.Set(1, []float64{-1, 2, -1})
	e.Set(2, []float64{-1, -1, 2})
	return g, e
}

// TestExample20GoldenBeliefs reproduces the headline numbers of
// Example 20: bˆ'v4 = ζ(Hˆo³(eˆv1+eˆv3)) ≈ [−0.069, 1.258, −1.189] and
// σ(bˆv4) = σ(Hˆo³(eˆv1+eˆv3)) ≈ 0.332 (for εH = 1).
func TestExample20GoldenBeliefs(t *testing.T) {
	g, e := torusProblem(t)
	st, err := Run(g, e, ho(t))
	if err != nil {
		t.Fatal(err)
	}
	z := st.Beliefs().StandardizedRow(3) // v4
	want := []float64{-0.069, 1.258, -1.189}
	for i := range want {
		if math.Abs(z[i]-want[i]) > 2e-3 {
			t.Fatalf("ζ(bˆv4) = %v, want ≈%v", z, want)
		}
	}
	if sigma := dense.StdDev(st.Beliefs().Row(3)); math.Abs(sigma-0.332) > 2e-3 {
		t.Fatalf("σ(bˆv4) = %v, want ≈0.332", sigma)
	}
	// v4 receives exactly the two shortest paths of the example.
	if st.PathCount(3) != 2 {
		t.Fatalf("path count = %d, want 2", st.PathCount(3))
	}
}

// TestExample16 verifies the Fig. 5a prediction: bˆ'v1 = ζ(Hˆo²(2eˆv2+eˆv7)).
func TestExample16(t *testing.T) {
	g := gen.Fig5()
	h := ho(t)
	e := beliefs.New(7, 3)
	ev2 := []float64{0.2, -0.1, -0.1}
	ev7 := []float64{-0.1, 0.2, -0.1}
	e.Set(1, ev2)
	e.Set(6, ev7)
	st, err := Run(g, e, h)
	if err != nil {
		t.Fatal(err)
	}
	// Manual: Hˆ²(2eˆv2 + eˆv7).
	comb := make([]float64, 3)
	for i := range comb {
		comb[i] = 2*ev2[i] + ev7[i]
	}
	h2 := h.Mul(h)
	want := make([]float64, 3)
	for c := 0; c < 3; c++ {
		for j := 0; j < 3; j++ {
			want[c] += h2.At(j, c) * comb[j]
		}
	}
	got := st.Beliefs().Row(0)
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Fatalf("bˆv1 = %v, want %v", got, want)
		}
	}
	if st.PathCount(0) != 3 {
		t.Fatalf("v1 path count = %d, want 3", st.PathCount(0))
	}
}

// TestLemma17Equivalence: SBP over A equals the fixpoint of
// Bˆ = Eˆ + (A*)ᵀ·Bˆ·Hˆ over the geodesic DAG.
func TestLemma17Equivalence(t *testing.T) {
	g := gen.Random(40, 90, 21)
	e, _ := beliefs.Seed(40, 3, beliefs.SeedConfig{Fraction: 0.15, Seed: 2})
	h := ho(t)
	st, err := Run(g, e, h)
	if err != nil {
		t.Fatal(err)
	}
	geo := g.GeodesicNumbers(e.ExplicitNodes())
	astarT := g.ModifiedAdjacency(geo).T()
	// Iterate the linear system on the DAG; it reaches its fixpoint in
	// at most maxGeo+1 rounds because (A*)ᵀ is nilpotent.
	n, k := 40, 3
	b := make([]float64, n*k)
	ab := make([]float64, n*k)
	eData := e.Matrix().Data()
	maxGeo := 0
	for _, gv := range geo {
		if gv > maxGeo {
			maxGeo = gv
		}
	}
	for iter := 0; iter <= maxGeo+1; iter++ {
		astarT.MulDenseInto(ab, b, k)
		for s := 0; s < n; s++ {
			for c := 0; c < k; c++ {
				var v float64
				for j := 0; j < k; j++ {
					v += ab[s*k+j] * h.At(j, c)
				}
				b[s*k+c] = eData[s*k+c] + v
			}
		}
	}
	for s := 0; s < n; s++ {
		row := st.Beliefs().Row(s)
		for c := 0; c < k; c++ {
			if math.Abs(row[c]-b[s*k+c]) > 1e-10 {
				t.Fatalf("node %d class %d: SBP %v vs DAG-LinBP %v", s, c, row[c], b[s*k+c])
			}
		}
	}
}

// TestTheorem19Limit: the standardized LinBP assignment converges to the
// SBP assignment as εH → 0.
func TestTheorem19Limit(t *testing.T) {
	g, e := torusProblem(t)
	st, err := Run(g, e, ho(t))
	if err != nil {
		t.Fatal(err)
	}
	prevDist := math.Inf(1)
	for _, eps := range []float64{0.1, 0.01, 0.001} {
		res, err := linbp.Run(g, e, coupling.Scale(ho(t), eps),
			linbp.Options{EchoCancellation: true, MaxIter: 2000, Tol: 1e-15})
		if err != nil {
			t.Fatal(err)
		}
		var dist float64
		for s := 0; s < g.N(); s++ {
			zl := res.Beliefs.StandardizedRow(s)
			zs := st.Beliefs().StandardizedRow(s)
			for i := range zl {
				if d := math.Abs(zl[i] - zs[i]); d > dist {
					dist = d
				}
			}
		}
		if dist > prevDist+1e-9 {
			t.Fatalf("distance to SBP must shrink as εH→0: eps=%v dist=%v prev=%v", eps, dist, prevDist)
		}
		prevDist = dist
	}
	// Convergence is O(εH), so at εH = 0.001 the distance is ~1e-3.
	if prevDist > 5e-3 {
		t.Fatalf("LinBP at εH=0.001 should nearly match SBP, dist=%v", prevDist)
	}
}

// TestScaleInvariance: scaling Hˆ by any εH > 0 leaves SBP's standardized
// assignment unchanged (Section 6.2).
func TestScaleInvariance(t *testing.T) {
	g, e := torusProblem(t)
	st1, _ := Run(g, e, ho(t))
	st2, _ := Run(g, e, coupling.Scale(ho(t), 0.37))
	for s := 0; s < g.N(); s++ {
		z1, z2 := st1.Beliefs().StandardizedRow(s), st2.Beliefs().StandardizedRow(s)
		for i := range z1 {
			if math.Abs(z1[i]-z2[i]) > 1e-9 {
				t.Fatalf("node %d: standardized beliefs depend on εH", s)
			}
		}
	}
}

func TestUnreachableNodesStayZero(t *testing.T) {
	g := graph.New(4)
	g.AddUnitEdge(0, 1) // component {0,1}; nodes 2,3 isolated
	e := beliefs.New(4, 3)
	e.Set(0, []float64{2, -1, -1})
	st, err := Run(g, e, ho(t))
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []int{2, 3} {
		if st.Geodesics()[s] != graph.Unreachable {
			t.Fatalf("node %d should be unreachable", s)
		}
		for _, v := range st.Beliefs().Row(s) {
			if v != 0 {
				t.Fatalf("unreachable node %d has beliefs %v", s, st.Beliefs().Row(s))
			}
		}
	}
	if st.PathCount(2) != 0 {
		t.Fatal("unreachable path count must be 0")
	}
}

func TestWeightedPaths(t *testing.T) {
	// Path 0−1−2 with weights 2 and 3: bˆ2 = Hˆ(3·Hˆ(2·eˆ0)) = 6·Hˆ²eˆ0.
	g := graph.New(3)
	g.AddEdge(0, 1, 2)
	g.AddEdge(1, 2, 3)
	h := ho(t)
	e := beliefs.New(3, 3)
	ev := []float64{2, -1, -1}
	e.Set(0, ev)
	st, err := Run(g, e, h)
	if err != nil {
		t.Fatal(err)
	}
	h2 := h.Mul(h)
	want := make([]float64, 3)
	for c := 0; c < 3; c++ {
		for j := 0; j < 3; j++ {
			want[c] += 6 * h2.At(j, c) * ev[j]
		}
	}
	got := st.Beliefs().Row(2)
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Fatalf("bˆ2 = %v, want %v", got, want)
		}
	}
}

// statesEqual compares two states' beliefs and geodesics.
func statesEqual(t *testing.T, got, want *State, context string) {
	t.Helper()
	gg, wg := got.Geodesics(), want.Geodesics()
	for i := range wg {
		if gg[i] != wg[i] {
			t.Fatalf("%s: geodesic[%d] = %d, want %d", context, i, gg[i], wg[i])
		}
	}
	if !got.Beliefs().Matrix().EqualApprox(want.Beliefs().Matrix(), 1e-9) {
		t.Fatalf("%s: beliefs differ", context)
	}
}

// TestAddExplicitBeliefsMatchesScratch is the Proposition 22 check:
// incremental belief insertion equals recomputation, across random
// graphs and random update batches.
func TestAddExplicitBeliefsMatchesScratch(t *testing.T) {
	rng := xrand.New(77)
	for trial := 0; trial < 20; trial++ {
		n := 30 + rng.Intn(40)
		m := n + rng.Intn(2*n)
		g := gen.Random(n, m, rng.Uint64())
		e1, _ := beliefs.Seed(n, 3, beliefs.SeedConfig{Fraction: 0.1, Seed: rng.Uint64()})
		st, err := Run(g, e1, ho(t))
		if err != nil {
			t.Fatal(err)
		}
		// Batch of new explicit beliefs on previously unlabeled nodes.
		en := beliefs.New(n, 3)
		added := 0
		for v := 0; v < n && added < 5; v++ {
			if !e1.IsExplicit(v) && rng.Float64() < 0.3 {
				en.Set(v, beliefs.LabelResidual(3, rng.Intn(3), 0.1))
				added++
			}
		}
		if err := st.AddExplicitBeliefs(en); err != nil {
			t.Fatal(err)
		}
		// From scratch on the merged explicit set.
		merged := e1.Clone()
		for _, v := range en.ExplicitNodes() {
			merged.Set(v, en.Row(v))
		}
		want, err := Run(g.Clone(), merged, ho(t))
		if err != nil {
			t.Fatal(err)
		}
		statesEqual(t, st, want, "trial")
	}
}

func TestAddExplicitBeliefsReplacesExisting(t *testing.T) {
	g, e := torusProblem(t)
	st, _ := Run(g, e, ho(t))
	en := beliefs.New(8, 3)
	en.Set(0, []float64{-1, -1, 2}) // flip v1's label
	if err := st.AddExplicitBeliefs(en); err != nil {
		t.Fatal(err)
	}
	merged := e.Clone()
	merged.Set(0, []float64{-1, -1, 2})
	want, _ := Run(gen.Torus(), merged, ho(t))
	statesEqual(t, st, want, "replacement")
}

func TestAddExplicitBeliefsReachesIsland(t *testing.T) {
	// Labeling a node inside a previously unreachable component must
	// give the whole component beliefs.
	g := graph.New(5)
	g.AddUnitEdge(0, 1)
	g.AddUnitEdge(2, 3)
	g.AddUnitEdge(3, 4)
	e := beliefs.New(5, 3)
	e.Set(0, []float64{2, -1, -1})
	st, _ := Run(g, e, ho(t))
	if st.Geodesics()[4] != graph.Unreachable {
		t.Fatal("setup: node 4 should start unreachable")
	}
	en := beliefs.New(5, 3)
	en.Set(2, []float64{-1, 2, -1})
	if err := st.AddExplicitBeliefs(en); err != nil {
		t.Fatal(err)
	}
	if st.Geodesics()[4] != 2 {
		t.Fatalf("geodesic[4] = %d, want 2", st.Geodesics()[4])
	}
	if !st.Beliefs().IsExplicit(4) && st.Beliefs().Row(4)[0] == 0 {
		t.Fatal("node 4 must now carry beliefs")
	}
}

func TestAddExplicitBeliefsEmptyNoop(t *testing.T) {
	g, e := torusProblem(t)
	st, _ := Run(g, e, ho(t))
	before := st.Beliefs().Matrix().Clone()
	if err := st.AddExplicitBeliefs(beliefs.New(8, 3)); err != nil {
		t.Fatal(err)
	}
	if !st.Beliefs().Matrix().EqualApprox(before, 0) {
		t.Fatal("empty update must not change anything")
	}
}

// TestAddEdgesMatchesScratch is the Proposition 24 check across random
// graphs and random edge batches.
func TestAddEdgesMatchesScratch(t *testing.T) {
	rng := xrand.New(99)
	for trial := 0; trial < 20; trial++ {
		n := 30 + rng.Intn(40)
		m := n + rng.Intn(n)
		g := gen.Random(n, m, rng.Uint64())
		e, _ := beliefs.Seed(n, 3, beliefs.SeedConfig{Fraction: 0.1, Seed: rng.Uint64()})
		st, err := Run(g, e, ho(t))
		if err != nil {
			t.Fatal(err)
		}
		// Random batch of new edges (may duplicate existing ones; the
		// adjacency accumulates weights either way).
		var batch []graph.Edge
		for len(batch) < 6 {
			u, v := rng.Intn(n), rng.Intn(n)
			if u == v {
				continue
			}
			batch = append(batch, graph.Edge{S: u, T: v, W: 1})
		}
		if err := st.AddEdges(batch); err != nil {
			t.Fatal(err)
		}
		want, err := Run(st.Graph().Clone(), e, ho(t))
		if err != nil {
			t.Fatal(err)
		}
		statesEqual(t, st, want, "edge trial")
	}
}

func TestAddEdgesShortcut(t *testing.T) {
	// Path 0−1−2−3 with explicit 0; adding edge 0−3 shortcuts node 3
	// from geodesic 3 to 1.
	g := graph.New(4)
	g.AddUnitEdge(0, 1)
	g.AddUnitEdge(1, 2)
	g.AddUnitEdge(2, 3)
	e := beliefs.New(4, 3)
	e.Set(0, []float64{2, -1, -1})
	st, _ := Run(g, e, ho(t))
	if st.Geodesics()[3] != 3 {
		t.Fatal("setup: node 3 should be at geodesic 3")
	}
	if err := st.AddEdges([]graph.Edge{{S: 0, T: 3, W: 1}}); err != nil {
		t.Fatal(err)
	}
	if st.Geodesics()[3] != 1 {
		t.Fatalf("geodesic[3] = %d, want 1", st.Geodesics()[3])
	}
	// Node 2 now has two shortest paths? No: 2 keeps geodesic 2 but now
	// via both 1 and 3. Verify against scratch recomputation.
	want, _ := Run(st.Graph().Clone(), e, ho(t))
	statesEqual(t, st, want, "shortcut")
}

func TestAddEdgesConnectsIsland(t *testing.T) {
	g := graph.New(4)
	g.AddUnitEdge(0, 1)
	g.AddUnitEdge(2, 3)
	e := beliefs.New(4, 3)
	e.Set(0, []float64{2, -1, -1})
	st, _ := Run(g, e, ho(t))
	if err := st.AddEdges([]graph.Edge{{S: 1, T: 2, W: 1}}); err != nil {
		t.Fatal(err)
	}
	want, _ := Run(st.Graph().Clone(), e, ho(t))
	statesEqual(t, st, want, "island")
	if st.Geodesics()[3] != 3 {
		t.Fatalf("geodesic[3] = %d, want 3", st.Geodesics()[3])
	}
}

func TestAddEdgesValidation(t *testing.T) {
	g, e := torusProblem(t)
	st, _ := Run(g, e, ho(t))
	for _, bad := range []graph.Edge{
		{S: -1, T: 0, W: 1},
		{S: 0, T: 99, W: 1},
		{S: 0, T: 1, W: 0},
		{S: 2, T: 2, W: 1},
	} {
		if err := st.AddEdges([]graph.Edge{bad}); err == nil {
			t.Fatalf("edge %+v: expected error", bad)
		}
	}
}

func TestRunShapeMismatch(t *testing.T) {
	g, _ := torusProblem(t)
	if _, err := Run(g, beliefs.New(5, 3), ho(t)); err == nil {
		t.Fatal("expected shape error")
	}
	if _, err := Run(g, beliefs.New(8, 3), dense.New(2, 3)); err == nil {
		t.Fatal("expected coupling shape error")
	}
}

// TestRunAllocationsIndependentOfN pins that State keeps one k-wide
// accumulator for all its recomputations, as Runner does: a Run at
// Kronecker power 9 (19,683 nodes) makes a few dozen allocations — the
// state's matrices and the geodesic pass — not one per node.
func TestRunAllocationsIndependentOfN(t *testing.T) {
	g := gen.Kronecker(9)
	g.Adjacency()
	e, _ := beliefs.Seed(g.N(), 3, beliefs.SeedConfig{Fraction: 0.05, Seed: 1})
	h := coupling.Fig6bResidual()
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := Run(g, e, h); err != nil {
			t.Fatal(err)
		}
	})
	if allocs >= 100 {
		t.Errorf("sbp.Run at power 9 made %v allocations, want < 100", allocs)
	}
}
