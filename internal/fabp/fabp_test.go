package fabp

import (
	"errors"
	"math"
	"testing"

	"repro/internal/beliefs"
	"repro/internal/coupling"
	"repro/internal/errs"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/linbp"
)

func TestCoefficients(t *testing.T) {
	c1, c2 := Coefficients(0.1)
	den := 1 - 0.04
	if math.Abs(c1-0.2/den) > 1e-15 || math.Abs(c2-0.04/den) > 1e-15 {
		t.Fatalf("c1=%v c2=%v", c1, c2)
	}
}

func TestCoefficientsPanicAtHalf(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic at |ĥ| = 1/2")
		}
	}()
	Coefficients(0.5)
}

func TestRunSolvesFixedPoint(t *testing.T) {
	g := gen.Grid(4, 4)
	e := make([]float64, 16)
	e[0], e[15] = 0.3, -0.2
	res, err := Run(g, e, 0.08, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("did not converge: delta %v", res.Delta)
	}
	// Verify the fixed-point equation b = e + c1·A·b − c2·D·b directly.
	c1, c2 := Coefficients(0.08)
	a := g.Adjacency()
	d := g.WeightedDegrees()
	ab := a.MulVec(res.B)
	for s := range res.B {
		want := e[s] + c1*ab[s] - c2*d[s]*res.B[s]
		if math.Abs(res.B[s]-want) > 1e-9 {
			t.Fatalf("node %d: fixed point violated: %v vs %v", s, res.B[s], want)
		}
	}
}

// TestMatchesLinBPForSmallH: Appendix E shows the binary system equals
// k=2 LinBP up to O(ĥ³) terms (the (1−4ĥ²)⁻¹ factors). For small ĥ the
// two must agree closely; the gap must shrink like ĥ³ (factor ≳ 100 for
// a 10× smaller ĥ) — checked loosely as ≥ 10× here.
func TestMatchesLinBPForSmallH(t *testing.T) {
	g := gen.Grid(3, 3)
	n := g.N()
	eScalar := make([]float64, n)
	eScalar[0], eScalar[8] = 0.1, -0.1
	gap := func(hhat float64) float64 {
		res, err := Run(g, eScalar, hhat, Options{})
		if err != nil {
			t.Fatal(err)
		}
		e2 := beliefs.New(n, 2)
		for s, v := range eScalar {
			if v != 0 {
				e2.Set(s, []float64{v, -v})
			}
		}
		h2 := coupling.Heterophily(hhat) // [[−ĥ, ĥ],[ĥ, −ĥ]]... sign flip below
		// The binary coupling of Appendix E is [[ĥ, −ĥ],[−ĥ, ĥ]]: homophily.
		h2 = h2.Scaled(-1)
		lres, err := linbp.Run(g, e2, h2, linbp.Options{EchoCancellation: true, MaxIter: 2000, Tol: 1e-14})
		if err != nil {
			t.Fatal(err)
		}
		var maxGap float64
		for s := 0; s < n; s++ {
			if d := math.Abs(res.B[s] - lres.Beliefs.Row(s)[0]); d > maxGap {
				maxGap = d
			}
		}
		return maxGap
	}
	g1, g2 := gap(0.1), gap(0.01)
	if g1 > 1e-3 {
		t.Fatalf("FABP and LinBP too far apart at ĥ=0.1: %v", g1)
	}
	if g2 > g1/10 {
		t.Fatalf("gap must shrink ~cubically: ĥ=0.1 → %v, ĥ=0.01 → %v", g1, g2)
	}
}

func TestAntisymmetryOfBinaryBeliefs(t *testing.T) {
	// The binary LinBP belief matrix has rows [b, −b]; FABP's scalar b
	// must match class 0 and negate for class 1 — implicitly guaranteed,
	// but verify via LinBP's full output.
	g := gen.Torus()
	e2 := beliefs.New(8, 2)
	e2.Set(0, []float64{0.2, -0.2})
	h := coupling.Heterophily(0.05).Scaled(-1)
	lres, err := linbp.Run(g, e2, h, linbp.Options{MaxIter: 1000})
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < 8; s++ {
		row := lres.Beliefs.Row(s)
		if math.Abs(row[0]+row[1]) > 1e-12 {
			t.Fatalf("binary beliefs must be antisymmetric: %v", row)
		}
	}
}

func TestHeterophilyNegativeH(t *testing.T) {
	// Negative ĥ (heterophily) flips the sign of odd-distance nodes.
	g := graph.New(3)
	g.AddUnitEdge(0, 1)
	g.AddUnitEdge(1, 2)
	e := []float64{0.3, 0, 0}
	res, err := Run(g, e, -0.1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.B[1] >= 0 {
		t.Fatalf("neighbor must flip under heterophily: %v", res.B)
	}
	if res.B[2] <= 0 {
		t.Fatalf("two-hop neighbor must flip back: %v", res.B)
	}
}

func TestMessageFormula(t *testing.T) {
	m := Message(0.1, 1, 0.5)
	den := 1 - 0.04
	want := 0.4/den - 0.08*0.5/den
	if math.Abs(m-want) > 1e-15 {
		t.Fatalf("Message = %v, want %v", m, want)
	}
}

func TestRunLengthMismatch(t *testing.T) {
	g := gen.Torus()
	if _, err := Run(g, make([]float64, 3), 0.1, Options{}); err == nil {
		t.Fatal("expected length error")
	}
}

func TestDivergenceForLargeH(t *testing.T) {
	// On the 3-regular-core torus, large ĥ diverges (c1·ρ(A) > 1). The
	// geometric growth overflows float64 partway through the budget,
	// and the kernel reports that as a typed non-finite error instead
	// of spinning out the remaining iterations on Inf deltas.
	g := gen.Torus()
	e := make([]float64, 8)
	e[0] = 0.3
	res, err := Run(g, e, 0.45, Options{MaxIter: 300})
	if err != nil {
		if !errors.Is(err, errs.ErrNonFinite) {
			t.Fatalf("divergence err = %v, want ErrNonFinite", err)
		}
		return
	}
	if res.Converged {
		t.Fatal("expected divergence at ĥ = 0.45")
	}
}
