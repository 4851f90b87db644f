package core

import (
	"context"
	"errors"
	"math"
	"slices"
	"testing"

	"repro/internal/beliefs"
	"repro/internal/coupling"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/sbp"
)

func torusProblem(t *testing.T, eps float64) *Problem {
	t.Helper()
	ho, err := coupling.NewResidual(coupling.Fig1c())
	if err != nil {
		t.Fatal(err)
	}
	e := beliefs.New(8, 3)
	e.Set(0, []float64{2, -1, -1})
	e.Set(1, []float64{-1, 2, -1})
	e.Set(2, []float64{-1, -1, 2})
	return &Problem{Graph: gen.Torus(), Explicit: e, Ho: ho, EpsilonH: eps}
}

// solveOnce answers one solve of p's explicit beliefs on a freshly
// prepared solver. Non-convergence is left to the caller, which reads
// Result.Converged.
func solveOnce(t *testing.T, p *Problem, m Method, opts ...Option) *Result {
	t.Helper()
	s, err := Prepare(p, m, opts...)
	if err != nil {
		t.Fatalf("%v: Prepare: %v", m, err)
	}
	defer s.Close()
	res, err := s.Solve(context.Background(), p.Explicit)
	if err != nil && !errors.Is(err, ErrNotConverged) {
		t.Fatalf("%v: Solve: %v", m, err)
	}
	return res
}

func TestValidate(t *testing.T) {
	p := torusProblem(t, 0.1)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := *p
	bad.EpsilonH = -1
	if err := bad.Validate(); err == nil {
		t.Fatal("negative εH must fail")
	}
	bad2 := *p
	bad2.Explicit = beliefs.New(5, 3)
	if err := bad2.Validate(); err == nil {
		t.Fatal("shape mismatch must fail")
	}
	bad3 := *p
	bad3.Graph = nil
	if err := bad3.Validate(); err == nil {
		t.Fatal("nil graph must fail")
	}
}

func TestSolveAllMethods(t *testing.T) {
	p := torusProblem(t, 0.1)
	for _, m := range []Method{MethodBP, MethodLinBP, MethodLinBPStar, MethodSBP} {
		res := solveOnce(t, p, m)
		if res.Beliefs == nil || res.Beliefs.N() != 8 {
			t.Fatalf("%v: incomplete result", m)
		}
		top := res.Beliefs.TopAssignment()
		if !res.Converged {
			t.Fatalf("%v: did not converge", m)
		}
		// Explicit nodes keep their classes.
		for s := 0; s < 3; s++ {
			if len(top[s]) != 1 || top[s][0] != s {
				t.Fatalf("%v: node %d top = %v", m, s, top[s])
			}
		}
	}
}

// TestMethodsAgree is the paper's central quality claim in miniature:
// at a small εH all four methods give the same top-belief assignment.
func TestMethodsAgree(t *testing.T) {
	p := torusProblem(t, 0.05)
	base := solveOnce(t, p, MethodBP, WithMaxIter(300))
	for _, m := range []Method{MethodLinBP, MethodLinBPStar, MethodSBP} {
		res := solveOnce(t, p, m, WithMaxIter(300))
		bt, rt := base.Beliefs.TopAssignment(), res.Beliefs.TopAssignment()
		pr, err := metrics.Compare(bt, rt)
		if err != nil {
			t.Fatal(err)
		}
		if pr.F1 < 0.99 {
			t.Fatalf("%v vs BP: F1 = %v\nBP:  %v\n%v: %v", m, pr.F1, bt, m, rt)
		}
	}
}

func TestSolveSBPExposesState(t *testing.T) {
	p := torusProblem(t, 0.1)
	res := solveOnce(t, p, MethodSBP)
	if len(res.Geodesics) != p.Graph.N() {
		t.Fatalf("SBP geodesics: %d entries for %d nodes", len(res.Geodesics), p.Graph.N())
	}
	if res.Iterations != 3 { // max geodesic number on the torus instance
		t.Fatalf("Iterations = %d, want 3", res.Iterations)
	}
}

// TestSBPGeodesicsCallerOrder: Solve and Update on an SBP solver report
// the geodesic numbers sbp.Run computes on the caller's graph, in the
// caller's node order, whatever layout the solver serves from.
func TestSBPGeodesicsCallerOrder(t *testing.T) {
	ctx := context.Background()
	p := randomProblem(t, 90, 170, 3, 0.05, 23)
	st, err := sbp.Run(p.Graph, p.Explicit, p.Ho)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []Reordering{ReorderNone, ReorderRCM} {
		s, err := Prepare(p, MethodSBP, WithReordering(r))
		if err != nil {
			t.Fatal(err)
		}
		solved, err := s.Solve(ctx, p.Explicit)
		if err != nil {
			t.Fatal(err)
		}
		updated, err := s.Update(ctx, Update{})
		if err != nil {
			t.Fatal(err)
		}
		for _, res := range []*Result{solved, updated} {
			if !slices.Equal(res.Geodesics, st.Geodesics()) {
				t.Errorf("%v: Result.Geodesics %v, want sbp.Run's %v", r, res.Geodesics, st.Geodesics())
			}
			if d := maxAbsDiff(res.Beliefs, st.Beliefs()); d > 1e-12 {
				t.Errorf("%v: beliefs differ from sbp.Run by %g", r, d)
			}
		}
		s.Close()
	}
}

func TestSolveBPAutoRescale(t *testing.T) {
	// Explicit residuals of magnitude 2 would be invalid BP priors;
	// the BP solver must rescale internally rather than erroring.
	p := torusProblem(t, 0.05)
	solveOnce(t, p, MethodBP)
}

func TestSolveUnknownMethod(t *testing.T) {
	if _, err := Prepare(torusProblem(t, 0.1), Method(99)); err == nil {
		t.Fatal("expected error")
	}
}

func TestMethodString(t *testing.T) {
	for m, want := range map[Method]string{
		MethodBP: "BP", MethodLinBP: "LinBP", MethodLinBPStar: "LinBP*",
		MethodSBP: "SBP", Method(42): "Method(42)",
	} {
		if m.String() != want {
			t.Fatalf("String() = %q, want %q", m.String(), want)
		}
	}
}

func TestConvergenceAccessor(t *testing.T) {
	p := torusProblem(t, 0.1)
	c, err := p.Convergence(MethodLinBP)
	if err != nil {
		t.Fatal(err)
	}
	if !c.Exact {
		t.Fatal("εH=0.1 should be inside the exact region")
	}
	if _, err := p.Convergence(MethodSBP); err == nil {
		t.Fatal("SBP has no convergence criterion")
	}
}

func TestAutoEpsilonH(t *testing.T) {
	p := torusProblem(t, 0)
	eps, err := AutoEpsilonH(p.Graph, p.Ho, MethodLinBP)
	if err != nil {
		t.Fatal(err)
	}
	// Half of Example 20's ≈0.488.
	if math.Abs(eps-0.244) > 5e-3 {
		t.Fatalf("AutoEpsilonH = %v, want ≈0.244", eps)
	}
	if _, err := AutoEpsilonH(p.Graph, p.Ho, MethodBP); err == nil {
		t.Fatal("expected error for BP")
	}
	// Edgeless graph: threshold is infinite, fall back to 1.
	eps, err = AutoEpsilonH(graph.New(3), p.Ho, MethodLinBPStar)
	if err != nil {
		t.Fatal(err)
	}
	if eps != 1 {
		t.Fatalf("edgeless AutoEpsilonH = %v, want 1", eps)
	}
}
