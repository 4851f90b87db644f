package linbp

import (
	"math"
	"testing"

	"repro/internal/beliefs"
	"repro/internal/coupling"
	"repro/internal/dense"
	"repro/internal/gen"
	"repro/internal/graph"
)

// ho returns the unscaled residual coupling matrix of Example 20
// (Fig. 1c centered around 1/3).
func ho(t *testing.T) *dense.Matrix {
	t.Helper()
	h, err := coupling.NewResidual(coupling.Fig1c())
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// torusProblem returns the Example 20 instance: torus graph, explicit
// residuals at v1..v3, coupling εH·Hˆo.
func torusProblem(t *testing.T, epsH float64) (*graph.Graph, *beliefs.Residual, *dense.Matrix) {
	t.Helper()
	g := gen.Torus()
	e := beliefs.New(8, 3)
	e.Set(0, []float64{2, -1, -1})
	e.Set(1, []float64{-1, 2, -1})
	e.Set(2, []float64{-1, -1, 2})
	return g, e, coupling.Scale(ho(t), epsH)
}

func TestRunMatchesClosedForm(t *testing.T) {
	for _, echo := range []bool{true, false} {
		g, e, h := torusProblem(t, 0.1)
		res, err := Run(g, e, h, Options{EchoCancellation: echo, MaxIter: 500})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Converged {
			t.Fatalf("echo=%v: did not converge", echo)
		}
		cf, err := ClosedForm(g, e, h, echo)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Beliefs.Matrix().EqualApprox(cf.Matrix(), 1e-9) {
			t.Fatalf("echo=%v: iterative and closed form disagree:\n%v\n%v",
				echo, res.Beliefs.Matrix(), cf.Matrix())
		}
	}
}

func TestRunMatchesClosedFormOnRandomGraph(t *testing.T) {
	g := gen.Random(30, 60, 13)
	e, _ := beliefs.Seed(30, 3, beliefs.SeedConfig{Fraction: 0.2, Seed: 3})
	h := coupling.Scale(ho(t), 0.05)
	for _, echo := range []bool{true, false} {
		res, err := Run(g, e, h, Options{EchoCancellation: echo, MaxIter: 500})
		if err != nil {
			t.Fatal(err)
		}
		cf, err := ClosedForm(g, e, h, echo)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Beliefs.Matrix().EqualApprox(cf.Matrix(), 1e-9) {
			t.Fatalf("echo=%v: iterative and closed form disagree", echo)
		}
	}
}

func TestRunPreservesRowCentering(t *testing.T) {
	g, e, h := torusProblem(t, 0.2)
	res, err := Run(g, e, h, Options{EchoCancellation: true, MaxIter: 500})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Beliefs.Validate(); err != nil {
		t.Fatalf("final beliefs must stay centered: %v", err)
	}
}

// TestScalingLemma12 verifies Eˆ ← λEˆ ⇒ Bˆ ← λBˆ.
func TestScalingLemma12(t *testing.T) {
	g, e, h := torusProblem(t, 0.1)
	res1, err := Run(g, e, h, Options{MaxIter: 500})
	if err != nil {
		t.Fatal(err)
	}
	e2 := e.Clone()
	e2.Scale(3.5)
	res2, err := Run(g, e2, h, Options{MaxIter: 500})
	if err != nil {
		t.Fatal(err)
	}
	scaled := res1.Beliefs.Matrix().Scaled(3.5)
	if !res2.Beliefs.Matrix().EqualApprox(scaled, 1e-9) {
		t.Fatal("Lemma 12 violated")
	}
}

// TestCorollary13 verifies that scaling Eˆ leaves the standardized and
// top belief assignments unchanged.
func TestCorollary13(t *testing.T) {
	g, e, h := torusProblem(t, 0.1)
	res1, _ := Run(g, e, h, Options{MaxIter: 500})
	e2 := e.Clone()
	e2.Scale(42)
	res2, _ := Run(g, e2, h, Options{MaxIter: 500})
	for s := 0; s < g.N(); s++ {
		z1, z2 := res1.Beliefs.StandardizedRow(s), res2.Beliefs.StandardizedRow(s)
		for i := range z1 {
			if math.Abs(z1[i]-z2[i]) > 1e-9 {
				t.Fatalf("node %d standardized beliefs changed under scaling", s)
			}
		}
	}
}

func TestDivergenceBeyondThreshold(t *testing.T) {
	// Example 20: LinBP diverges for εH ≳ 0.488.
	g, e, h := torusProblem(t, 0.6)
	res, err := Run(g, e, h, Options{EchoCancellation: true, MaxIter: 200})
	if err != nil {
		t.Fatal(err)
	}
	if res.Converged {
		t.Fatal("LinBP should diverge at εH = 0.6 on the torus")
	}
	if res.Delta < 1 {
		t.Fatalf("delta should blow up, got %v", res.Delta)
	}
}

func TestCheckConvergenceTorusExact(t *testing.T) {
	g := gen.Torus()
	// Example 20 thresholds: LinBP ≈ 0.488, LinBP* ≈ 0.658.
	eps, err := MaxEpsilonH(g, ho(t), true, true)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(eps-0.488) > 5e-3 {
		t.Fatalf("LinBP exact threshold = %v, want ≈0.488", eps)
	}
	epsStar, err := MaxEpsilonH(g, ho(t), false, true)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(epsStar-0.658) > 5e-3 {
		t.Fatalf("LinBP* exact threshold = %v, want ≈0.658", epsStar)
	}
}

func TestCheckConvergenceTorusNorms(t *testing.T) {
	g := gen.Torus()
	// Example 20 sufficient bounds: εH ≲ 0.360 (LinBP), 0.455 (LinBP*).
	eps, err := MaxEpsilonH(g, ho(t), true, false)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(eps-0.360) > 5e-3 {
		t.Fatalf("LinBP norm threshold = %v, want ≈0.360", eps)
	}
	epsStar, err := MaxEpsilonH(g, ho(t), false, false)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(epsStar-0.455) > 5e-3 {
		t.Fatalf("LinBP* norm threshold = %v, want ≈0.455", epsStar)
	}
}

func TestCheckConvergenceFlags(t *testing.T) {
	g := gen.Torus()
	// Comfortably inside: both criteria hold.
	c, err := CheckConvergence(g, coupling.Scale(ho(t), 0.05), true)
	if err != nil {
		t.Fatal(err)
	}
	if !c.Exact || !c.Sufficient {
		t.Fatalf("εH=0.05 should satisfy both criteria: %+v", c)
	}
	// Between the norm bound and the exact bound: exact only.
	c, err = CheckConvergence(g, coupling.Scale(ho(t), 0.42), true)
	if err != nil {
		t.Fatal(err)
	}
	if !c.Exact || c.Sufficient {
		t.Fatalf("εH=0.42 should satisfy exact but not sufficient: %+v", c)
	}
	// Outside both.
	c, err = CheckConvergence(g, coupling.Scale(ho(t), 0.6), true)
	if err != nil {
		t.Fatal(err)
	}
	if c.Exact {
		t.Fatalf("εH=0.6 should fail the exact criterion: %+v", c)
	}
}

func TestSufficientImpliesExact(t *testing.T) {
	// Lemma 9 is sufficient: whenever it holds, Lemma 8 must hold too.
	g := gen.Random(40, 80, 17)
	for _, eps := range []float64{0.01, 0.05, 0.1, 0.2, 0.4} {
		for _, echo := range []bool{true, false} {
			c, err := CheckConvergence(g, coupling.Scale(ho(t), eps), echo)
			if err != nil {
				t.Fatal(err)
			}
			if c.Sufficient && !c.Exact {
				t.Fatalf("eps=%v echo=%v: sufficient holds but exact does not", eps, echo)
			}
		}
	}
}

func TestSimpleNormBound(t *testing.T) {
	g := gen.Torus()
	// Lemma 23: 1/(2·3) for max degree 3.
	if b := SimpleNormBound(g); math.Abs(b-1.0/6.0) > 1e-12 {
		t.Fatalf("SimpleNormBound = %v, want 1/6", b)
	}
	// Lemma 23 is weaker than Lemma 9's combined bound.
	c, err := CheckConvergence(g, ho(t), true)
	if err != nil {
		t.Fatal(err)
	}
	if SimpleNormBound(g) > c.NormBound {
		t.Fatal("Lemma 23 must not beat Lemma 9")
	}
	// Empty graph: bound is infinite.
	if !math.IsInf(SimpleNormBound(graph.New(3)), 1) {
		t.Fatal("edgeless graph must give an infinite bound")
	}
}

func TestEchoCancellationMatters(t *testing.T) {
	g, e, h := torusProblem(t, 0.2)
	with, _ := Run(g, e, h, Options{EchoCancellation: true, MaxIter: 500})
	without, _ := Run(g, e, h, Options{EchoCancellation: false, MaxIter: 500})
	if with.Beliefs.Matrix().EqualApprox(without.Beliefs.Matrix(), 1e-9) {
		t.Fatal("echo cancellation must change the result at εH = 0.2")
	}
}

func TestWeightedGraphUsesSquaredDegrees(t *testing.T) {
	// Section 5.2: on weighted graphs the echo term uses Σw². Compare the
	// iterative result against the closed form, which constructs D from
	// WeightedDegrees too — and against a manual fixed-point check.
	g := graph.New(3)
	g.AddEdge(0, 1, 2)
	g.AddEdge(1, 2, 0.5)
	e := beliefs.New(3, 3)
	e.Set(0, []float64{2, -1, -1})
	h := coupling.Scale(ho(t), 0.05)
	res, err := Run(g, e, h, Options{EchoCancellation: true, MaxIter: 500})
	if err != nil {
		t.Fatal(err)
	}
	cf, err := ClosedForm(g, e, h, true)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Beliefs.Matrix().EqualApprox(cf.Matrix(), 1e-10) {
		t.Fatal("weighted iterative vs closed form mismatch")
	}
	// Manual fixed point: Bˆ = Eˆ + ABˆHˆ − DBˆHˆ² with D = diag(4, 4.25, 0.25).
	b := res.Beliefs.Matrix()
	ad := dense.NewFromRows([][]float64{{0, 2, 0}, {2, 0, 0.5}, {0, 0.5, 0}})
	dd := dense.NewFromRows([][]float64{{4, 0, 0}, {0, 4.25, 0}, {0, 0, 0.25}})
	rhs := e.Matrix().Plus(ad.Mul(b).Mul(h)).Minus(dd.Mul(b).Mul(h.Mul(h)))
	if !b.EqualApprox(rhs, 1e-9) {
		t.Fatal("fixed-point equation violated on weighted graph")
	}
}

func TestClosedFormSizeLimit(t *testing.T) {
	g := gen.Kronecker(7) // 2187 nodes · 3 classes > limit
	e := beliefs.New(g.N(), 3)
	if _, err := ClosedForm(g, e, ho(t), true); err == nil {
		t.Fatal("expected size-limit error")
	}
}

func TestRunShapeMismatch(t *testing.T) {
	g := gen.Torus()
	e := beliefs.New(5, 3)
	if _, err := Run(g, e, ho(t), Options{}); err == nil {
		t.Fatal("expected shape error")
	}
}

func TestFixedIterationMode(t *testing.T) {
	g, e, h := torusProblem(t, 0.1)
	res, err := Run(g, e, h, Options{MaxIter: 5, Tol: -1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations != 5 || res.Converged {
		t.Fatalf("want exactly 5 iterations, got %d (converged=%v)", res.Iterations, res.Converged)
	}
}

func TestExplicitNodesDominatedByOwnLabel(t *testing.T) {
	g, e, h := torusProblem(t, 0.1)
	res, _ := Run(g, e, h, Options{EchoCancellation: true, MaxIter: 500})
	for s := 0; s < 3; s++ {
		top := res.Beliefs.Top(s, beliefs.TopTolerance)
		if len(top) != 1 || top[0] != s {
			t.Fatalf("explicit node v%d should keep class %d: top=%v", s+1, s, top)
		}
	}
}

func TestEmptyGraphReturnsExplicit(t *testing.T) {
	g := graph.New(4)
	e := beliefs.New(4, 3)
	e.Set(2, []float64{2, -1, -1})
	res, err := Run(g, e, ho(t), Options{EchoCancellation: true})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged || !res.Beliefs.Matrix().EqualApprox(e.Matrix(), 0) {
		t.Fatal("on an edgeless graph Bˆ must equal Eˆ")
	}
}

// TestWorkersOptionSameResult: the parallel kernel must not change the
// fixpoint.
func TestWorkersOptionSameResult(t *testing.T) {
	g := gen.Random(300, 900, 41)
	e, _ := beliefs.Seed(300, 3, beliefs.SeedConfig{Fraction: 0.1, Seed: 4})
	h := coupling.Scale(ho(t), 0.02)
	serial, err := Run(g, e, h, Options{EchoCancellation: true, MaxIter: 300})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Run(g, e, h, Options{EchoCancellation: true, MaxIter: 300, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !serial.Beliefs.Matrix().EqualApprox(parallel.Beliefs.Matrix(), 0) {
		t.Fatal("parallel kernel changed the result")
	}
}

// TestRunWorkBufferAllocations is the allocation-assertion satellite:
// routing Run through the pooled kernel workspace must eliminate the
// per-call cur/ab/next work arrays. What remains per call is the
// returned Result (its n×k belief matrix plus a handful of small
// headers) — so the bound here is a fixed small count, where the seed
// implementation paid three extra n×k slices on top of it.
func TestRunWorkBufferAllocations(t *testing.T) {
	g := gen.Kronecker(5)
	e, _ := beliefs.Seed(g.N(), 3, beliefs.SeedConfig{Fraction: 0.05, Seed: 1})
	h := coupling.Fig6bResidual().Scaled(0.001)
	opts := Options{EchoCancellation: true, MaxIter: 5, Tol: -1}
	if _, err := Run(g, e, h, opts); err != nil { // warm the workspace pool
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := Run(g, e, h, opts); err != nil {
			t.Fatal(err)
		}
	})
	// Result struct + beliefs.Residual + dense.Matrix + its data slice +
	// kernel.Engine + slack for the runtime; the three n×k work buffers
	// of the seed implementation must not reappear.
	if allocs > 8 {
		t.Errorf("Run allocates %v objects per call, want <= 8 (work buffers must come from the pool)", allocs)
	}
}
