package kernel

import (
	"context"
	"errors"
	"math"
	"testing"

	"repro/internal/dense"
	"repro/internal/errs"
	"repro/internal/sparse"
	"repro/internal/xrand"
)

// roundsFixpoint solves the same configuration on the round-based
// engine to a much tighter tolerance than the residual plane under
// test, so the comparison error is dominated by the residual budget.
func roundsFixpoint(t *testing.T, cfg Config, e []float64, tol float64) []float64 {
	t.Helper()
	eng, err := New(cfg, nil)
	if err != nil {
		t.Fatalf("rounds engine: %v", err)
	}
	defer eng.Close()
	eng.SetExplicit(e)
	if _, _, conv, err := eng.RunContext(context.Background(), 5000, tol, nil); err != nil || !conv {
		t.Fatalf("rounds reference did not converge: conv=%v err=%v", conv, err)
	}
	out := make([]float64, len(eng.Beliefs()))
	copy(out, eng.Beliefs())
	return out
}

func maxAbsDiff(a, b []float64) float64 {
	var m float64
	for i := range a {
		if d := math.Abs(a[i] - b[i]); d > m {
			m = d
		}
	}
	return m
}

// TestResidualMatchesRounds pins the residual-scheduled fixpoint to
// the round-based fixpoint across class counts and echo on/off. The
// two schedules sum in different orders, so the budget is a tolerance
// band, not bitwise equality: each plane is within O(tol/(1-ρ)) of the
// unique fixpoint.
func TestResidualMatchesRounds(t *testing.T) {
	const tol = 1e-12
	for _, n := range []int{1, 9, 257} {
		for _, k := range []int{1, 2, 3, 5, 7} {
			for _, echo := range []bool{false, true} {
				a := randomCSR(n, 6, uint64(n*k+1))
				h := randomCoupling(k, uint64(k)+3)
				var d []float64
				if echo {
					d = degrees(a)
				}
				rng := xrand.New(uint64(n) + 17)
				e := make([]float64, n*k)
				for i := range e {
					if rng.Float64() < 0.2 {
						e[i] = rng.Float64() - 0.5
					}
				}

				ref := roundsFixpoint(t, Config{A: a, D: d, H: h, SymmetricA: true}, e, 1e-14)

				res, err := NewResidual(Config{A: a, D: d, H: h, SymmetricA: true}, tol)
				if err != nil {
					t.Fatalf("n=%d k=%d: %v", n, k, err)
				}
				res.SeedExplicit(e)
				relaxed, peak, maxResid, conv, err := res.Run(context.Background(), 5000*n+1)
				if err != nil || !conv {
					t.Fatalf("n=%d k=%d echo=%v: residual solve conv=%v err=%v", n, k, echo, conv, err)
				}
				if maxResid > tol {
					t.Fatalf("n=%d k=%d: converged with residual %g > tol %g", n, k, maxResid, tol)
				}
				if diff := maxAbsDiff(ref, res.Beliefs()); diff > 1e-10 {
					t.Fatalf("n=%d k=%d echo=%v: fixpoints differ by %g (relaxed=%d peak=%d)",
						n, k, echo, diff, relaxed, peak)
				}
				if relaxed > 0 && peak == 0 {
					t.Fatalf("n=%d k=%d: relaxed %d rows but peak queue population is 0", n, k, relaxed)
				}
			}
		}
	}
}

// TestResidualWarmSeedTouched verifies the localized warm path: after
// a converged solve, re-seeding from the result with only the rows an
// explicit-belief delta touched reaches the new fixpoint, and costs
// far fewer relaxations than the cold solve.
func TestResidualWarmSeedTouched(t *testing.T) {
	const n, k, tol = 257, 3, 1e-12
	a := randomCSR(n, 6, 7)
	h := randomCoupling(k, 5)
	d := degrees(a)
	rng := xrand.New(99)
	e := make([]float64, n*k)
	for i := range e {
		if rng.Float64() < 0.2 {
			e[i] = rng.Float64() - 0.5
		}
	}

	res, err := NewResidual(Config{A: a, D: d, H: h, SymmetricA: true}, tol)
	if err != nil {
		t.Fatal(err)
	}
	res.SeedExplicit(e)
	coldRelaxed, _, _, conv, err := res.Run(context.Background(), 5000*n)
	if err != nil || !conv {
		t.Fatalf("cold solve: conv=%v err=%v", conv, err)
	}
	prev := make([]float64, n*k)
	copy(prev, res.Beliefs())

	// Perturb the explicit beliefs of two rows; only those rows'
	// residuals change, so they are the full touched set.
	touched := []int32{11, 42}
	for _, i := range touched {
		e[int(i)*k] += 0.3
	}
	ref := roundsFixpoint(t, Config{A: a, D: d, H: h, SymmetricA: true}, e, 1e-14)

	res.SetBeliefs(prev)
	res.SeedResume(e, touched)
	warmRelaxed, _, _, conv, err := res.Run(context.Background(), 5000*n)
	if err != nil || !conv {
		t.Fatalf("warm solve: conv=%v err=%v", conv, err)
	}
	if diff := maxAbsDiff(ref, res.Beliefs()); diff > 1e-9 {
		t.Fatalf("warm fixpoint differs from fresh reference by %g", diff)
	}
	if warmRelaxed >= coldRelaxed {
		t.Fatalf("warm solve relaxed %d rows, cold %d — warm should be cheaper", warmRelaxed, coldRelaxed)
	}

	// The full warm seed (touched=nil) is valid from any start and
	// must land on the same fixpoint.
	res.SetBeliefs(prev)
	res.SeedResume(e, nil)
	if _, _, _, conv, err = res.Run(context.Background(), 5000*n); err != nil || !conv {
		t.Fatalf("full warm solve: conv=%v err=%v", conv, err)
	}
	if diff := maxAbsDiff(ref, res.Beliefs()); diff > 1e-9 {
		t.Fatalf("full warm fixpoint differs from fresh reference by %g", diff)
	}
}

// TestResidualBudgetExhaustion verifies the relaxation budget: a
// budget of zero returns immediately, non-converged, with the seeded
// state intact, and the engine can still be drained afterwards.
func TestResidualBudgetExhaustion(t *testing.T) {
	const n, k, tol = 64, 2, 1e-12
	a := randomCSR(n, 5, 3)
	h := randomCoupling(k, 4)
	e := make([]float64, n*k)
	e[0], e[k] = 0.4, -0.2

	res, err := NewResidual(Config{A: a, H: h, SymmetricA: true}, tol)
	if err != nil {
		t.Fatal(err)
	}
	res.SeedExplicit(e)
	relaxed, _, maxResid, conv, err := res.Run(context.Background(), 0)
	if err != nil || conv || relaxed != 0 {
		t.Fatalf("zero budget: relaxed=%d conv=%v err=%v", relaxed, conv, err)
	}
	if maxResid < 0.4 {
		t.Fatalf("seeded residual %g, want >= 0.4", maxResid)
	}
	// Resume with a real budget: the queue state carried over.
	if _, _, _, conv, err = res.Run(context.Background(), 5000*n); err != nil || !conv {
		t.Fatalf("resumed solve: conv=%v err=%v", conv, err)
	}
	ref := roundsFixpoint(t, Config{A: a, H: h, SymmetricA: true}, e, 1e-14)
	if diff := maxAbsDiff(ref, res.Beliefs()); diff > 1e-10 {
		t.Fatalf("resumed fixpoint differs by %g", diff)
	}
}

// TestResidualCancellation verifies the periodic context check.
func TestResidualCancellation(t *testing.T) {
	const n, k, tol = 512, 3, 1e-14
	a := randomCSR(n, 8, 11)
	h := randomCoupling(k, 6)
	rng := xrand.New(2)
	e := make([]float64, n*k)
	for i := range e {
		e[i] = rng.Float64() - 0.5
	}
	res, err := NewResidual(Config{A: a, H: h, SymmetricA: true}, tol)
	if err != nil {
		t.Fatal(err)
	}
	res.SeedExplicit(e)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, _, conv, err := res.Run(ctx, 1<<30)
	if conv || !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run: conv=%v err=%v", conv, err)
	}
}

// TestResidualDivergence drives the iteration past the spectral bound
// (a coupling far above any convergent εH) and expects ErrNonFinite,
// matching the round engines' overflow contract.
func TestResidualDivergence(t *testing.T) {
	const n, k, tol = 64, 2, 1e-12
	a := randomCSR(n, 6, 13)
	h := randomCoupling(k, 4)
	h = h.Scaled(1e6)
	e := make([]float64, n*k)
	e[0] = 1
	res, err := NewResidual(Config{A: a, H: h, SymmetricA: true}, tol)
	if err != nil {
		t.Fatal(err)
	}
	res.SeedExplicit(e)
	if _, _, _, _, err := res.Run(context.Background(), 1<<30); !errors.Is(err, errs.ErrNonFinite) {
		t.Fatalf("diverging run returned %v, want ErrNonFinite", err)
	}
}

// TestResidualConfigValidation exercises the constructor's rejects.
func TestResidualConfigValidation(t *testing.T) {
	a := randomCSR(8, 3, 1)
	h := randomCoupling(2, 1)
	cases := []struct {
		name string
		cfg  Config
		tol  float64
	}{
		{"asymmetric", Config{A: a, H: h}, 1e-9},
		{"batched", Config{A: a, H: h, SymmetricA: true, Blocks: 2}, 1e-9},
		{"zero tol", Config{A: a, H: h, SymmetricA: true}, 0},
		{"negative tol", Config{A: a, H: h, SymmetricA: true}, -1},
		{"missing H", Config{A: a, SymmetricA: true}, 1e-9},
	}
	for _, tc := range cases {
		if _, err := NewResidual(tc.cfg, tc.tol); err == nil {
			t.Errorf("%s: NewResidual accepted an invalid config", tc.name)
		}
	}
}

// TestResidualZeroExplicit: with Eˆ = 0 the fixpoint is 0 and no row
// is ever scheduled.
func TestResidualZeroExplicit(t *testing.T) {
	a := randomCSR(32, 4, 5)
	h := randomCoupling(3, 2)
	res, err := NewResidual(Config{A: a, H: h, SymmetricA: true}, 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	res.SeedExplicit(nil)
	relaxed, peak, maxResid, conv, err := res.Run(context.Background(), 1<<20)
	if err != nil || !conv || relaxed != 0 || peak != 0 || maxResid != 0 {
		t.Fatalf("zero solve: relaxed=%d peak=%d resid=%g conv=%v err=%v", relaxed, peak, maxResid, conv, err)
	}
	for _, v := range res.Beliefs() {
		if v != 0 {
			t.Fatal("zero solve produced nonzero beliefs")
		}
	}
}

// TestResidualSolveAllocs asserts the steady-state seed+run cycle is
// allocation-free — the contract the //lsbp:hotpath annotations and
// lsbplint enforce statically.
func TestResidualSolveAllocs(t *testing.T) {
	const n, k = 128, 3
	a := randomCSR(n, 6, 21)
	h := randomCoupling(k, 7)
	d := degrees(a)
	rng := xrand.New(31)
	e := make([]float64, n*k)
	for i := range e {
		if rng.Float64() < 0.2 {
			e[i] = rng.Float64() - 0.5
		}
	}
	res, err := NewResidual(Config{A: a, D: d, H: h, SymmetricA: true}, 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	prev := make([]float64, n*k)
	touched := []int32{3, 77}
	allocs := testing.AllocsPerRun(20, func() {
		res.SeedExplicit(e)
		if _, _, _, conv, err := res.Run(ctx, 5000*n); err != nil || !conv {
			t.Fatalf("conv=%v err=%v", conv, err)
		}
		copy(prev, res.Beliefs())
		res.SetBeliefs(prev)
		res.SeedResume(e, touched)
		if _, _, _, conv, err := res.Run(ctx, 5000*n); err != nil || !conv {
			t.Fatalf("warm conv=%v err=%v", conv, err)
		}
	})
	if allocs != 0 {
		t.Fatalf("residual solve cycle allocates %v times per run, want 0", allocs)
	}
}

// TestResidualThresholdSlot walks one row's packed threshold (slot k of
// its residual row) through its states — thrFresh until the first
// touch, tol while idle, the bucket bound while queued, tol again once
// popped, thrFresh after the next seed — and checks that NaN and +Inf
// residuals produced by a real neighbor push cross every threshold
// (take touchSlow) and surface as ErrNonFinite.
func TestResidualThresholdSlot(t *testing.T) {
	const n, k, tol = 4, 2, 1e-6
	b := sparse.NewBuilder(n, n)
	for i := 0; i+1 < n; i++ {
		b.AddSym(i, i+1, 1) // path 0-1-2-3
	}
	a := b.ToCSR()
	e, err := NewResidual(Config{A: a, H: randomCoupling(k, 1), SymmetricA: true}, tol)
	if err != nil {
		t.Fatal(err)
	}
	thr := func(i int) float64 { return e.r[i*e.s+k] }
	e.SeedExplicit(nil)
	for i := 0; i < n; i++ {
		if thr(i) != thrFresh || e.qbkt[i] != qIdle {
			t.Fatalf("row %d after a cold seed: threshold %v, bucket %d; want fresh and unqueued", i, thr(i), e.qbkt[i])
		}
	}
	// A first touch at or below tol lists the row and leaves it idle.
	e.touch(1, tol/2)
	if thr(1) != tol || e.ntouched != 1 || e.queued != 0 {
		t.Fatalf("fresh -> idle: threshold %v, listed %d, queued %d", thr(1), e.ntouched, e.queued)
	}
	e.touch(1, tol) // at the idle threshold: nothing to do
	if e.ntouched != 1 || e.queued != 0 {
		t.Fatalf("idle touch at tol listed or queued the row (%d, %d)", e.ntouched, e.queued)
	}
	// Crossing tol queues the row; its threshold becomes the bucket bound.
	e.r[1*e.s] = 3 * tol
	e.touch(1, 3*tol)
	if bkt := e.bucketOf(3 * tol); e.qbkt[1] != int8(bkt) || thr(1) != e.bhi[bkt] || thr(1) != 4*tol {
		t.Fatalf("idle -> queued: bucket %d threshold %v, want bucket %d threshold %v", e.qbkt[1], thr(1), bkt, 4*tol)
	}
	e.touch(1, 4*tol) // within the bucket bound: no migration
	if e.qbkt[1] != int8(e.bucketOf(3*tol)) {
		t.Fatalf("touch within the bound migrated the row to bucket %d", e.qbkt[1])
	}
	e.r[1*e.s] = 100 * tol
	e.touch(1, 100*tol) // above it: upward migration
	if bkt := e.bucketOf(100 * tol); e.qbkt[1] != int8(bkt) || thr(1) != e.bhi[bkt] || e.queued != 1 {
		t.Fatalf("upward migration: bucket %d threshold %v queued %d, want bucket %d", e.qbkt[1], thr(1), e.queued, bkt)
	}
	if got := e.pop(); got != 1 || thr(1) != tol || e.qbkt[1] != qIdle {
		t.Fatalf("pop = %d leaves threshold %v bucket %d, want row 1 idle at tol", got, thr(1), e.qbkt[1])
	}
	e.SeedResume(nil, []int32{})
	if thr(1) != thrFresh || e.r[1*e.s] != 0 || e.ntouched != 0 {
		t.Fatalf("reset leaves threshold %v residual %v listed %d", thr(1), e.r[1*e.s], e.ntouched)
	}

	// One relaxation whose pushes stay below tol: Pushes is the row length.
	x := make([]float64, n*k)
	x[1*k], x[1*k+1] = 1, -1
	loose, err := NewResidual(Config{A: a, H: randomCoupling(k, 1), SymmetricA: true}, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	loose.SeedExplicit(x)
	if relaxed, _, _, conv, err := loose.Run(context.Background(), 100); relaxed != 1 || !conv || err != nil || loose.Pushes() != 2 {
		t.Fatalf("single relaxation: relaxed=%d conv=%v err=%v pushes=%d, want 1 relaxation and 2 pushes", relaxed, conv, err, loose.Pushes())
	}
	loose.SeedExplicit(nil)
	if loose.Pushes() != 0 {
		t.Fatalf("Pushes = %d after a new seed, want 0", loose.Pushes())
	}

	// δ·Hˆ of the relaxed row carries 0·∞ = NaN into the last column, or
	// overflows to +Inf: the neighbors' max-abs compares false against
	// any threshold, so the push takes touchSlow and Run stops.
	for _, tc := range []struct {
		name string
		h    [][]float64
		seed float64
	}{
		{"nan", [][]float64{{0.01, 0}, {0, math.Inf(1)}}, 1},
		{"inf", [][]float64{{1e308, 0}, {0, 0.01}}, 10},
	} {
		e, err := NewResidual(Config{A: a, H: dense.NewFromRows(tc.h), SymmetricA: true}, tol)
		if err != nil {
			t.Fatal(err)
		}
		x := make([]float64, n*k)
		x[1*k] = tc.seed
		e.SeedExplicit(x)
		relaxed, _, _, _, err := e.Run(context.Background(), 100)
		if !errors.Is(err, errs.ErrNonFinite) || relaxed != 1 {
			t.Fatalf("%s: Run after %d relaxations returned %v, want ErrNonFinite after 1", tc.name, relaxed, err)
		}
		for _, j := range []int{0, 2} {
			if e.r[j*e.s+k] != e.bhi[residualBuckets-1] || e.qbkt[j] != residualBuckets-1 {
				t.Fatalf("%s: neighbor %d in bucket %d (threshold %v), want queued in the top bucket", tc.name, j, e.qbkt[j], e.r[j*e.s+k])
			}
		}
	}
}
