package linbp

import (
	"context"
	"math"
	"testing"

	"repro/internal/beliefs"
	"repro/internal/coupling"
	"repro/internal/gen"
	"repro/internal/order"
)

// TestEngineMatchesRun checks the reusable serving engine against the
// one-shot Run on the same problem, echo on and off.
func TestEngineMatchesRun(t *testing.T) {
	g := gen.Kronecker(5)
	e, _ := beliefs.Seed(g.N(), 3, beliefs.SeedConfig{Fraction: 0.05, Seed: 1})
	h := coupling.Fig6bResidual().Scaled(0.001)
	for _, echo := range []bool{false, true} {
		opts := Options{EchoCancellation: echo, MaxIter: 50}
		want, err := Run(g, e, h, opts)
		if err != nil {
			t.Fatal(err)
		}
		eng, err := NewEngine(g, h, opts)
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 3; trial++ { // reuse across solves
			got, err := eng.Solve(e)
			if err != nil {
				t.Fatal(err)
			}
			if got.Iterations != want.Iterations || got.Converged != want.Converged {
				t.Fatalf("echo=%v trial %d: (iters, converged) = (%d, %v), want (%d, %v)",
					echo, trial, got.Iterations, got.Converged, want.Iterations, want.Converged)
			}
			wd, gd := want.Beliefs.Matrix().Data(), got.Beliefs.Matrix().Data()
			for i := range wd {
				if math.Abs(wd[i]-gd[i]) > 1e-14 {
					t.Fatalf("echo=%v trial %d: beliefs[%d] = %g, want %g", echo, trial, i, gd[i], wd[i])
				}
			}
		}
		eng.Close()
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

// TestSolveIntoZeroAllocs asserts the serving path end to end: a warm
// engine solving into a caller-owned destination allocates nothing.
func TestSolveIntoZeroAllocs(t *testing.T) {
	g := gen.Kronecker(5)
	e, _ := beliefs.Seed(g.N(), 3, beliefs.SeedConfig{Fraction: 0.05, Seed: 1})
	h := coupling.Fig6bResidual().Scaled(0.001)
	eng, err := NewEngine(g, h, Options{EchoCancellation: true, MaxIter: 5, Tol: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	dst := beliefs.New(g.N(), 3)
	if _, _, _, err := eng.SolveInto(dst, e); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, _, _, err := eng.SolveInto(dst, e); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Errorf("SolveInto allocates %v objects per call, want 0", allocs)
	}
}

// TestEngineLayoutRoundTrip pins the reordered serving path: an engine
// over a permuted adjacency must return beliefs in the caller's node
// order, matching the natural-order engine to float tolerance, with the
// permutation shuffles adding no steady-state allocations.
func TestEngineLayoutRoundTrip(t *testing.T) {
	g := gen.Kronecker(5) // 243 nodes
	h := ho(t).Scaled(0.01)
	e, _ := beliefs.Seed(g.N(), 3, beliefs.SeedConfig{Fraction: 0.1, Seed: 3})
	n := g.N()
	// An arbitrary bijection: stride coprime with n.
	perm := make([]int, n)
	for i := range perm {
		perm[i] = (i*64 + 7) % n // gcd(64, 243) = 1
	}
	a := g.Adjacency()
	ap := a.Permute(perm)
	d := g.WeightedDegrees()
	dp := make([]float64, n)
	for i, v := range d {
		dp[perm[i]] = v
	}
	plain, err := NewEngine(g, h, Options{EchoCancellation: true, MaxIter: 50})
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()
	reordered, err := NewEngineLayout(ap, dp, h, perm, Options{EchoCancellation: true, MaxIter: 50})
	if err != nil {
		t.Fatal(err)
	}
	defer reordered.Close()
	want := beliefs.New(n, 3)
	got := beliefs.New(n, 3)
	if _, _, _, err := plain.SolveInto(want, e); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := reordered.SolveInto(got, e); err != nil {
		t.Fatal(err)
	}
	wd, gd := want.Matrix().Data(), got.Matrix().Data()
	for i := range wd {
		if d := math.Abs(wd[i] - gd[i]); d > 1e-12 {
			t.Fatalf("reordered result drifts at %d: %g", i, d)
		}
	}
	allocs := testing.AllocsPerRun(10, func() {
		reordered.SolveInto(got, e)
	})
	if allocs > 0 {
		t.Errorf("%v allocs per reordered SolveInto, want 0", allocs)
	}
}

// TestEngineWarmStart pins the warm-start contract: starting at the
// previous fixpoint converges in fewer rounds to the same unique
// answer, with and without a layout permutation.
func TestEngineWarmStart(t *testing.T) {
	g := gen.Kronecker(5)
	e, _ := beliefs.Seed(g.N(), 3, beliefs.SeedConfig{Fraction: 0.05, Seed: 3})
	h := coupling.Fig6bResidual().Scaled(0.002)
	opts := Options{EchoCancellation: true, MaxIter: 200, Tol: 1e-11}
	for name, perm := range map[string][]int{"natural": nil, "permuted": reversePerm(g.N())} {
		var d []float64 = g.WeightedDegrees()
		a := g.Adjacency()
		if perm != nil {
			a = a.Permute(perm)
			dp := make([]float64, len(d))
			for i, v := range d {
				dp[perm[i]] = v
			}
			d = dp
		}
		eng, err := NewEngineLayout(a, d, h, perm, opts)
		if err != nil {
			t.Fatal(err)
		}
		defer eng.Close()
		cold := beliefs.New(g.N(), 3)
		coldIters, _, converged, err := eng.SolveInto(cold, e)
		if err != nil || !converged {
			t.Fatalf("%s cold solve: iters=%d converged=%v err=%v", name, coldIters, converged, err)
		}
		// RunLayout works in the engine's layout order.
		el, start := e.Matrix().Data(), cold.Matrix().Data()
		if perm != nil {
			el, start = make([]float64, len(el)), make([]float64, len(start))
			order.Permutation(perm).ApplyRows(el, e.Matrix().Data(), 3)
			order.Permutation(perm).ApplyRows(start, cold.Matrix().Data(), 3)
		}
		warm, warmIters, _, converged, err := eng.RunLayout(context.Background(), el, start)
		if err != nil || !converged {
			t.Fatalf("%s warm solve: err=%v", name, err)
		}
		if warmIters >= coldIters {
			t.Errorf("%s: warm start took %d rounds, cold %d", name, warmIters, coldIters)
		}
		for i, v := range warm {
			if d := math.Abs(v - start[i]); d > 1e-10 {
				t.Fatalf("%s: warm fixpoint diverges by %g", name, d)
			}
		}
	}
}

func reversePerm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = n - 1 - i
	}
	return p
}
