package lsbp_test

import (
	"context"
	"errors"
	"strings"
	"testing"

	lsbp "repro"
)

// solveOnce answers one solve of p's explicit beliefs on a freshly
// prepared solver and closes it; running out of iterations is not an
// error here (callers read Result.Converged).
func solveOnce(t *testing.T, p *lsbp.Problem, m lsbp.Method, opts ...lsbp.Option) *lsbp.Result {
	t.Helper()
	s, err := lsbp.Prepare(p, m, opts...)
	if err != nil {
		t.Fatalf("%v: Prepare: %v", m, err)
	}
	defer s.Close()
	res, err := s.Solve(context.Background(), p.Explicit)
	if err != nil && !errors.Is(err, lsbp.ErrNotConverged) {
		t.Fatalf("%v: Solve: %v", m, err)
	}
	return res
}

func TestQuickstartFlow(t *testing.T) {
	g := lsbp.NewGraph(4)
	g.AddUnitEdge(0, 1)
	g.AddUnitEdge(1, 2)
	g.AddUnitEdge(2, 3)
	e := lsbp.NewBeliefs(4, 2)
	e.Set(0, lsbp.LabelResidual(2, 0, 0.1))
	p := &lsbp.Problem{Graph: g, Explicit: e, Ho: lsbp.Homophily(2, 0.8), EpsilonH: 0.1}
	res := solveOnce(t, p, lsbp.LinBP)
	top := res.Beliefs.TopAssignment()
	for s := 0; s < 4; s++ {
		if len(top[s]) != 1 || top[s][0] != 0 {
			t.Fatalf("homophily chain should all be class 0: node %d = %v", s, top[s])
		}
	}
}

func TestAllMethodsThroughFacade(t *testing.T) {
	g := lsbp.TorusGraph()
	e := lsbp.NewBeliefs(8, 3)
	e.Set(0, lsbp.LabelResidual(3, 0, 0.1))
	ho, err := lsbp.NewCouplingFromStochastic(lsbp.Fig1c())
	if err != nil {
		t.Fatal(err)
	}
	p := &lsbp.Problem{Graph: g, Explicit: e, Ho: ho, EpsilonH: 0.1}
	for _, m := range []lsbp.Method{lsbp.BP, lsbp.LinBP, lsbp.LinBPStar, lsbp.SBP} {
		solveOnce(t, p, m)
	}
}

func TestClosedFormThroughFacade(t *testing.T) {
	g := lsbp.TorusGraph()
	e := lsbp.NewBeliefs(8, 3)
	e.Set(0, lsbp.LabelResidual(3, 0, 1))
	ho, _ := lsbp.NewCouplingFromStochastic(lsbp.Fig1c())
	p := &lsbp.Problem{Graph: g, Explicit: e, Ho: ho, EpsilonH: 0.1}
	cf, err := lsbp.ClosedForm(p, true)
	if err != nil {
		t.Fatal(err)
	}
	res := solveOnce(t, p, lsbp.LinBP, lsbp.WithMaxIter(500))
	if !cf.Matrix().EqualApprox(res.Beliefs.Matrix(), 1e-9) {
		t.Fatal("closed form and iterative disagree through the facade")
	}
}

func TestIncrementalSBPThroughFacade(t *testing.T) {
	g := lsbp.NewGraph(5)
	g.AddUnitEdge(0, 1)
	g.AddUnitEdge(1, 2)
	e := lsbp.NewBeliefs(5, 2)
	e.Set(0, lsbp.LabelResidual(2, 0, 0.1))
	st, err := lsbp.RunSBP(g, e, lsbp.Homophily(2, 0.8))
	if err != nil {
		t.Fatal(err)
	}
	if err := st.AddEdges([]lsbp.Edge{{S: 2, T: 3, W: 1}, {S: 3, T: 4, W: 1}}); err != nil {
		t.Fatal(err)
	}
	if st.Geodesics()[4] != 4 {
		t.Fatalf("geodesic[4] = %d, want 4", st.Geodesics()[4])
	}
	en := lsbp.NewBeliefs(5, 2)
	en.Set(4, lsbp.LabelResidual(2, 1, 0.1))
	if err := st.AddExplicitBeliefs(en); err != nil {
		t.Fatal(err)
	}
	if st.Geodesics()[4] != 0 {
		t.Fatal("new explicit node must have geodesic 0")
	}
}

func TestEdgeListAndMetrics(t *testing.T) {
	g, err := lsbp.ReadEdgeList(strings.NewReader("0 1\n1 2\n"))
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 3 {
		t.Fatalf("n = %d", g.N())
	}
	pr, err := lsbp.Compare([][]int{{0}, {1}}, [][]int{{0}, {0}})
	if err != nil {
		t.Fatal(err)
	}
	if pr.Recall != 0.5 {
		t.Fatalf("recall = %v", pr.Recall)
	}
}

func TestSinkhornFacade(t *testing.T) {
	m := lsbp.NewMatrix([][]float64{{4, 1}, {1, 2}})
	ds, err := lsbp.Sinkhorn(m)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := lsbp.NewCouplingFromStochastic(ds); err != nil {
		t.Fatalf("Sinkhorn output must validate: %v", err)
	}
}

func TestBinaryFABPFacade(t *testing.T) {
	g := lsbp.GridGraph(3, 3)
	e := make([]float64, 9)
	e[0] = 0.1
	b, err := lsbp.BinaryFABP(g, e, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if b[8] <= 0 {
		t.Fatal("homophily must propagate a positive lean")
	}
}

// TestBinaryFABPNotConverged: with ĥ outside the convergence region
// (c1·ρ(A) > 1 on the power-5 Kronecker graph, ρ(A) = 2^2.5) the Jacobi
// iteration runs out of budget long before it overflows, and BinaryFABP
// must report that instead of returning the diverged iterate as an
// answer; inside the region it converges without an error.
func TestBinaryFABPNotConverged(t *testing.T) {
	g := lsbp.KroneckerGraph(5)
	e := make([]float64, g.N())
	for i := 0; i < len(e); i += 20 {
		e[i] = 0.1
	}
	if _, err := lsbp.BinaryFABP(g, e, 0.05); err != nil {
		t.Fatalf("ĥ = 0.05: %v", err)
	}
	b, err := lsbp.BinaryFABP(g, e, 0.09)
	if !errors.Is(err, lsbp.ErrNotConverged) {
		t.Fatalf("ĥ = 0.09: err = %v, want ErrNotConverged", err)
	}
	if len(b) != g.N() {
		t.Fatalf("ĥ = 0.09: got %d beliefs, want the last iterate (%d)", len(b), g.N())
	}
}

func TestMooijFacade(t *testing.T) {
	g := lsbp.TorusGraph()
	h := lsbp.NewMatrix([][]float64{{0.6, 0.4}, {0.4, 0.6}})
	cH, rhoEdge, conv, err := lsbp.MooijKappenBound(g, h)
	if err != nil {
		t.Fatal(err)
	}
	if cH <= 0 || rhoEdge <= 0 || !conv {
		t.Fatalf("unexpected bound: c=%v rho=%v conv=%v", cH, rhoEdge, conv)
	}
}

func TestAutoEpsilonHFacade(t *testing.T) {
	ho, _ := lsbp.NewCouplingFromStochastic(lsbp.Fig1c())
	eps, err := lsbp.AutoEpsilonH(lsbp.TorusGraph(), ho, lsbp.LinBP)
	if err != nil {
		t.Fatal(err)
	}
	if eps <= 0 || eps >= 0.5 {
		t.Fatalf("eps = %v out of expected range", eps)
	}
	max, err := lsbp.MaxEpsilonH(lsbp.TorusGraph(), ho, true, true)
	if err != nil {
		t.Fatal(err)
	}
	if eps >= max {
		t.Fatal("auto εH must be below the threshold")
	}
}

func TestSeedBeliefsFacade(t *testing.T) {
	e, nodes := lsbp.SeedBeliefs(100, 3, lsbp.SeedConfig{Fraction: 0.05, Seed: 1})
	if len(nodes) != 5 || len(e.ExplicitNodes()) != 5 {
		t.Fatalf("seeded %d nodes", len(nodes))
	}
}

func TestFraudGraphFacade(t *testing.T) {
	g, labels := lsbp.FraudGraph(lsbp.DefaultFraudConfig())
	if g.N() != len(labels) {
		t.Fatal("label count mismatch")
	}
}

func TestEstimateCouplingFacade(t *testing.T) {
	// Learn the coupling from the fraud network's labels, then check it
	// detects the Fig. 1c structure: accomplice–fraudster attraction,
	// no accomplice–accomplice affinity.
	g, labels := lsbp.FraudGraph(lsbp.DefaultFraudConfig())
	ho, err := lsbp.EstimateCoupling(g, labels, 3)
	if err != nil {
		t.Fatal(err)
	}
	if ho.At(1, 2) <= 0 {
		t.Fatalf("A–F residual should be positive (attraction): %v", ho.At(1, 2))
	}
	if ho.At(1, 1) >= 0 {
		t.Fatalf("A–A residual should be negative (repulsion): %v", ho.At(1, 1))
	}
}

// TestIncrementalLinBPFacade maintains a LinBP fixpoint through the
// facade's prepared Solver: Update{} publishes the initial fixpoint,
// later Updates relabel a node and round-trip an edge, and the final
// fixpoint must match a from-scratch solve on the final problem.
func TestIncrementalLinBPFacade(t *testing.T) {
	g := lsbp.RandomGraph(40, 80, 3)
	e, _ := lsbp.SeedBeliefs(40, 3, lsbp.SeedConfig{Fraction: 0.1, Seed: 1})
	ho, _ := lsbp.NewCouplingFromStochastic(lsbp.Fig1c())
	p := &lsbp.Problem{Graph: g, Explicit: e, Ho: ho, EpsilonH: 0.02}
	s, err := lsbp.Prepare(p, lsbp.LinBP, lsbp.WithMaxIter(500))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ctx := context.Background()
	initial, err := s.Update(ctx, lsbp.Update{})
	if err != nil {
		t.Fatal(err)
	}
	if initial == nil || !initial.Converged || initial.Beliefs == nil {
		t.Fatalf("initial result not returned or not converged: %+v", initial)
	}
	en := lsbp.NewBeliefs(40, 3)
	en.Set(2, lsbp.LabelResidual(3, 1, 0.1))
	res, err := s.Update(ctx, lsbp.Update{SetExplicit: en})
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations == 0 {
		t.Error("belief update reported zero iterations")
	}
	if _, err := s.Update(ctx, lsbp.Update{AddEdges: []lsbp.Edge{{S: 0, T: 20, W: 1}}}); err != nil {
		t.Fatal(err)
	}
	last, err := s.Update(ctx, lsbp.Update{RemoveEdges: []lsbp.Edge{{S: 0, T: 20}}})
	if err != nil {
		t.Fatal(err)
	}
	// The stats must reflect the three committed updates plus the
	// initial solve.
	st := s.Stats()
	if st.Updates != 4 || st.Epoch != 2 {
		t.Errorf("solver stats: updates=%d epoch=%d, want 4/2", st.Updates, st.Epoch)
	}
	// The edge round-tripped away, so only the label on node 2
	// distinguishes the final problem from the original.
	e2 := e.Clone()
	e2.Set(2, lsbp.LabelResidual(3, 1, 0.1))
	want := solveOnce(t, &lsbp.Problem{Graph: g, Explicit: e2, Ho: ho, EpsilonH: 0.02},
		lsbp.LinBP, lsbp.WithMaxIter(500))
	var diff float64
	wd, gd := want.Beliefs.Matrix().Data(), last.Beliefs.Matrix().Data()
	for i := range wd {
		if d := wd[i] - gd[i]; d > diff {
			diff = d
		} else if -d > diff {
			diff = -d
		}
	}
	if diff > 1e-9 {
		t.Errorf("incremental fixpoint diverges from fresh solve by %g", diff)
	}
}

func TestSortedEdgeUpdateFacade(t *testing.T) {
	g := lsbp.NewGraph(6)
	for i := 0; i < 5; i++ {
		g.AddUnitEdge(i, i+1)
	}
	e := lsbp.NewBeliefs(6, 2)
	e.Set(0, lsbp.LabelResidual(2, 0, 0.1))
	st, err := lsbp.RunSBP(g, e, lsbp.Homophily(2, 0.8))
	if err != nil {
		t.Fatal(err)
	}
	if err := st.AddEdgesSorted([]lsbp.Edge{{S: 0, T: 4, W: 1}}); err != nil {
		t.Fatal(err)
	}
	if st.Geodesics()[4] != 1 || st.Geodesics()[5] != 2 {
		t.Fatalf("geodesics after sorted update: %v", st.Geodesics())
	}
}
