package lsbp_test

import (
	"context"
	"errors"
	"testing"
	"time"

	lsbp "repro"
)

func chainProblem(t *testing.T) (*lsbp.Problem, *lsbp.Beliefs) {
	t.Helper()
	g := lsbp.NewGraph(4)
	g.AddUnitEdge(0, 1)
	g.AddUnitEdge(1, 2)
	g.AddUnitEdge(2, 3)
	e := lsbp.NewBeliefs(4, 2)
	e.Set(0, lsbp.LabelResidual(2, 0, 0.1))
	return &lsbp.Problem{Graph: g, Explicit: e, Ho: lsbp.Homophily(2, 0.8), EpsilonH: 0.1}, e
}

// TestPrepareFacade drives every method through the facade's prepared
// constructors and checks they agree on the homophily chain.
func TestPrepareFacade(t *testing.T) {
	p, e := chainProblem(t)
	ctx := context.Background()
	for name, prep := range map[string]func(*lsbp.Problem, ...lsbp.Option) (lsbp.Solver, error){
		"BP":    lsbp.PrepareBP,
		"LinBP": lsbp.PrepareLinBP,
		"SBP":   lsbp.PrepareSBP,
		"FABP":  lsbp.PrepareFABP,
	} {
		s, err := prep(p)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		res, err := s.Solve(ctx, e)
		if err != nil && !errors.Is(err, lsbp.ErrNotConverged) {
			t.Fatalf("%s: %v", name, err)
		}
		top := res.Beliefs.TopAssignment()
		for v := 0; v < 4; v++ {
			if len(top[v]) != 1 || top[v][0] != 0 {
				t.Fatalf("%s: node %d top = %v, want class 0", name, v, top[v])
			}
		}
		if st := s.Stats(); st.Solves != 1 || st.N != 4 || st.K != 2 {
			t.Fatalf("%s: stats %+v", name, st)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestPrepareMethodEnum checks the generic entry point with every
// Method value, FABP included, and that Stats reports the method.
func TestPrepareMethodEnum(t *testing.T) {
	p, e := chainProblem(t)
	for _, m := range []lsbp.Method{lsbp.BP, lsbp.LinBP, lsbp.LinBPStar, lsbp.SBP, lsbp.FABP} {
		s, err := lsbp.Prepare(p, m, lsbp.WithMaxIter(200))
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if _, err := s.Solve(context.Background(), e); err != nil && !errors.Is(err, lsbp.ErrNotConverged) {
			t.Fatalf("%v: %v", m, err)
		}
		if got := s.Stats().Method; got != m {
			t.Fatalf("%v: Stats().Method = %v", m, got)
		}
		s.Close()
	}
}

// TestSolveBatchFacade runs a small batch through the facade and
// compares each answer against a freshly prepared solve.
func TestSolveBatchFacade(t *testing.T) {
	p, e := chainProblem(t)
	s, err := lsbp.PrepareLinBP(p)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	e2 := lsbp.NewBeliefs(4, 2)
	e2.Set(3, lsbp.LabelResidual(2, 1, 0.1))
	resps := s.SolveBatch(context.Background(), []lsbp.Request{
		{E: e}, {E: e2}, {E: lsbp.NewBeliefs(5, 2)}, // last one ill-shaped
	})
	if resps[0].Err != nil || resps[1].Err != nil {
		t.Fatalf("batch errs: %v / %v", resps[0].Err, resps[1].Err)
	}
	if !errors.Is(resps[2].Err, lsbp.ErrDimensionMismatch) {
		t.Fatalf("ill-shaped request: %v", resps[2].Err)
	}
	for i, ev := range []*lsbp.Beliefs{e, e2} {
		q := &lsbp.Problem{Graph: p.Graph, Explicit: ev, Ho: p.Ho, EpsilonH: p.EpsilonH}
		want := solveOnce(t, q, lsbp.LinBP)
		if !resps[i].Beliefs.Matrix().EqualApprox(want.Beliefs.Matrix(), 1e-9) {
			t.Fatalf("request %d diverges from a freshly prepared solve", i)
		}
	}
}

// TestTimeoutFacade exercises the context plumbing end to end through
// the facade on a workload big enough to outlive a tiny deadline.
func TestTimeoutFacade(t *testing.T) {
	g := lsbp.RandomGraph(3000, 15000, 1)
	e, _ := lsbp.SeedBeliefs(3000, 3, lsbp.SeedConfig{Fraction: 0.05, Seed: 2})
	p := &lsbp.Problem{Graph: g, Explicit: e, Ho: lsbp.Homophily(3, 0.8), EpsilonH: 0.001}
	s, err := lsbp.PrepareLinBP(p, lsbp.WithMaxIter(1_000_000), lsbp.WithTol(-1))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	if _, err := s.Solve(ctx, e); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want DeadlineExceeded, got %v", err)
	}
}
