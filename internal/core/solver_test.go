package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/beliefs"
	"repro/internal/bp"
	"repro/internal/coupling"
	"repro/internal/dense"
	"repro/internal/fabp"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/linbp"
	"repro/internal/sbp"
)

// randomProblem builds a deterministic random instance with ~8% labeled
// nodes and a homophily coupling, sized so every method finishes fast.
func randomProblem(t *testing.T, n, edges, k int, eps float64, seed uint64) *Problem {
	t.Helper()
	g := gen.Random(n, edges, seed)
	e, _ := beliefs.Seed(n, k, beliefs.SeedConfig{Fraction: 0.08, Seed: seed + 1})
	p := &Problem{Graph: g, Explicit: e, Ho: coupling.Homophily(k, 0.8), EpsilonH: eps}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	return p
}

func maxAbsDiff(a, b *beliefs.Residual) float64 {
	var max float64
	ad, bd := a.Matrix().Data(), b.Matrix().Data()
	for i := range ad {
		if d := math.Abs(ad[i] - bd[i]); d > max {
			max = d
		}
	}
	return max
}

// TestPreparedEquivalence is the redesign's contract: Prepare(...).Solve
// must reproduce the direct method implementations for every method,
// k ∈ {2, 3, 5}, and worker counts {0, 4}.
func TestPreparedEquivalence(t *testing.T) {
	for _, k := range []int{2, 3, 5} {
		p := randomProblem(t, 150, 320, k, 0.01, uint64(k))
		h := p.ScaledH()
		for _, workers := range []int{0, 4} {
			for _, m := range []Method{MethodBP, MethodLinBP, MethodLinBPStar, MethodSBP, MethodFABP} {
				if m == MethodFABP && k != 2 {
					continue
				}
				s, err := Prepare(p, m, WithWorkers(workers), WithMaxIter(300))
				if err != nil {
					t.Fatalf("k=%d %v: Prepare: %v", k, m, err)
				}
				res, err := s.Solve(context.Background(), p.Explicit)
				if err != nil && !errors.Is(err, ErrNotConverged) {
					t.Fatalf("k=%d %v: Solve: %v", k, m, err)
				}

				var want *beliefs.Residual
				switch m {
				case MethodBP:
					e := p.Explicit
					if lambda := bpSafeScale(e.Matrix().MaxAbs()); lambda != 1 {
						e = e.Clone().Scale(lambda)
					}
					r, err := bp.Run(p.Graph, e, coupling.Uncenter(h), bp.Options{MaxIter: 300})
					if err != nil {
						t.Fatal(err)
					}
					want = r.Beliefs
				case MethodLinBP, MethodLinBPStar:
					r, err := linbp.Run(p.Graph, p.Explicit, h, linbp.Options{
						EchoCancellation: m == MethodLinBP, MaxIter: 300, Workers: workers,
					})
					if err != nil {
						t.Fatal(err)
					}
					want = r.Beliefs
				case MethodSBP:
					st, err := sbp.Run(p.Graph, p.Explicit, p.Ho)
					if err != nil {
						t.Fatal(err)
					}
					want = st.Beliefs()
				case MethodFABP:
					es := make([]float64, p.Graph.N())
					for i := range es {
						es[i] = p.Explicit.Row(i)[0]
					}
					r, err := fabp.Run(p.Graph, es, p.EpsilonH*p.Ho.At(0, 0), fabp.Options{MaxIter: 300})
					if err != nil {
						t.Fatal(err)
					}
					want = beliefs.New(p.Graph.N(), 2)
					for i, b := range r.B {
						want.Row(i)[0], want.Row(i)[1] = b, -b
					}
				}
				if d := maxAbsDiff(res.Beliefs, want); d > 1e-12 {
					t.Fatalf("k=%d %v workers=%d: prepared vs direct max diff %g", k, m, workers, d)
				}
				s.Close()
			}
		}
	}
}

// TestSolverReuse runs many solves with changing evidence through one
// prepared solver and checks each against a freshly prepared solver's
// answer — prepared state must not leak between requests.
func TestSolverReuse(t *testing.T) {
	p := randomProblem(t, 120, 260, 3, 0.01, 3)
	for _, m := range []Method{MethodBP, MethodLinBP, MethodSBP} {
		s, err := Prepare(p, m, WithMaxIter(300))
		if err != nil {
			t.Fatal(err)
		}
		dst := beliefs.New(120, 3)
		for trial := 0; trial < 4; trial++ {
			e, _ := beliefs.Seed(120, 3, beliefs.SeedConfig{Fraction: 0.1, Seed: uint64(trial + 10)})
			if _, err := s.SolveInto(context.Background(), dst, e); err != nil {
				t.Fatalf("%v trial %d: %v", m, trial, err)
			}
			want := freshSolve(t, p, m, e, WithMaxIter(300))
			if d := maxAbsDiff(dst, want); d > 1e-12 {
				t.Fatalf("%v trial %d: reuse drift %g", m, trial, d)
			}
		}
		s.Close()
	}
}

// TestSolveBatchMatchesSolveInto checks the fused multi-block batch
// against per-request solves, across chunk boundaries (k=3 packs 4
// requests per register-blocked chunk, so 20 requests run as 5 chunks)
// and for both fixed-round and tolerance stopping.
func TestSolveBatchMatchesSolveInto(t *testing.T) {
	p := randomProblem(t, 90, 200, 3, 0.01, 5)
	for _, opts := range [][]Option{
		{WithMaxIter(5), WithTol(-1)},
		{WithMaxIter(300)},
	} {
		s, err := Prepare(p, MethodLinBP, opts...)
		if err != nil {
			t.Fatal(err)
		}
		const nreq = 20 // spans two chunks at 16 blocks per chunk
		reqs := make([]Request, nreq)
		for i := range reqs {
			e, _ := beliefs.Seed(90, 3, beliefs.SeedConfig{Fraction: 0.1, Seed: uint64(i + 30)})
			reqs[i] = Request{E: e, Dst: beliefs.New(90, 3)}
		}
		resps := s.SolveBatch(context.Background(), reqs)
		if len(resps) != nreq {
			t.Fatalf("got %d responses", len(resps))
		}
		dst := beliefs.New(90, 3)
		for i, r := range resps {
			if r.Err != nil && !errors.Is(r.Err, ErrNotConverged) {
				t.Fatalf("request %d: %v", i, r.Err)
			}
			if _, err := s.SolveInto(context.Background(), dst, reqs[i].E); err != nil && !errors.Is(err, ErrNotConverged) {
				t.Fatal(err)
			}
			// Fixed rounds differ only by the summation order of the
			// blocked vs unrolled coupling multiply (~1 ulp per round);
			// shared-round stopping may differ within the tolerance.
			tol := 1e-14
			if len(opts) == 1 {
				tol = 1e-9
			}
			if d := maxAbsDiff(r.Beliefs, dst); d > tol {
				t.Fatalf("request %d: batch vs single max diff %g", i, d)
			}
		}
		s.Close()
	}
}

// kernelWorkers counts the kernel's span-pool worker goroutines,
// started or still runnable.
func kernelWorkers() int {
	buf := make([]byte, 1<<16)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	return strings.Count(string(buf), "created by repro/internal/kernel.(*Engine).startWorkers")
}

// TestCloseJoinsSpanPoolWorkers: Close returns only once the span
// pool's worker goroutines have exited, so a closed solver leaves none
// behind.
func TestCloseJoinsSpanPoolWorkers(t *testing.T) {
	p := randomProblem(t, 350, 800, 3, 0.01, 41)
	dst := beliefs.New(p.Graph.N(), p.K())
	for i := 0; i < 20; i++ {
		before := kernelWorkers()
		s, err := Prepare(p, MethodLinBP, WithWorkers(3), WithMaxIter(30))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.SolveInto(context.Background(), dst, p.Explicit); err != nil && !errors.Is(err, ErrNotConverged) {
			t.Fatal(err)
		}
		if got := kernelWorkers() - before; got != 3 {
			t.Fatalf("run %d: %d span-pool workers while open, want 3", i, got)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		if got := kernelWorkers() - before; got != 0 {
			t.Fatalf("run %d: %d span-pool workers alive after Close, want 0", i, got)
		}
	}
}

// TestWithWorkersEquivalence: the span pool must reproduce the serial
// solve bitwise — same beliefs, same round count — for every method
// that runs on it, every forced ordering, and worker counts that split
// the rows differently. The pool runs the serial kernel's row kernels
// over nnz-balanced spans, so no summation order changes. The solve
// must also really run on the pool: while the solver is open, its
// engine's workers are live goroutines.
func TestWithWorkersEquivalence(t *testing.T) {
	ctx := context.Background()
	for _, tc := range []struct {
		name string
		k    int
		m    Method
	}{
		{"LinBP", 3, MethodLinBP},
		{"LinBPStar", 5, MethodLinBPStar},
		{"FABP", 2, MethodFABP},
	} {
		p := randomProblem(t, 350, 800, tc.k, 0.01, 41)
		for _, r := range []Reordering{ReorderNone, ReorderRCM, ReorderDegree} {
			base, err := Prepare(p, tc.m, WithMaxIter(30), WithReordering(r))
			if err != nil {
				t.Fatalf("%s %v: %v", tc.name, r, err)
			}
			want := beliefs.New(p.Graph.N(), tc.k)
			wantRes, err := base.SolveInto(ctx, want, p.Explicit)
			if err != nil && !errors.Is(err, ErrNotConverged) {
				t.Fatal(err)
			}
			base.Close()
			for _, workers := range []int{2, 3, 5} {
				t.Run(fmt.Sprintf("%s/order=%v/workers=%d", tc.name, r, workers), func(t *testing.T) {
					before := kernelWorkers()
					s, err := Prepare(p, tc.m, WithMaxIter(30), WithReordering(r), WithWorkers(workers))
					if err != nil {
						t.Fatal(err)
					}
					defer s.Close()
					if st := s.Stats(); st.Workers != workers || st.Ordering != r {
						t.Fatalf("Stats: workers=%d ordering=%v", st.Workers, st.Ordering)
					}
					got := beliefs.New(p.Graph.N(), tc.k)
					res, err := s.SolveInto(ctx, got, p.Explicit)
					if err != nil && !errors.Is(err, ErrNotConverged) {
						t.Fatal(err)
					}
					if started := kernelWorkers() - before; started != workers {
						t.Fatalf("%d span-pool workers running for the open solver, want %d", started, workers)
					}
					if res.Iterations != wantRes.Iterations || res.Converged != wantRes.Converged {
						t.Fatalf("%d rounds (converged %v), serial %d (converged %v)",
							res.Iterations, res.Converged, wantRes.Iterations, wantRes.Converged)
					}
					if d := maxAbsDiff(got, want); d != 0 {
						t.Fatalf("span pool vs serial diff %g, want bitwise identical", d)
					}
				})
			}
		}
	}
}

// TestWithWorkersSolveBatch runs the fused batch path on the span pool
// across a chunk boundary and compares each response against the
// serial solve within 1e-12.
func TestWithWorkersSolveBatch(t *testing.T) {
	ctx := context.Background()
	p := randomProblem(t, 300, 700, 3, 0.01, 43)
	base, err := Prepare(p, MethodLinBP, WithMaxIter(5), WithTol(-1))
	if err != nil {
		t.Fatal(err)
	}
	defer base.Close()
	s, err := Prepare(p, MethodLinBP, WithMaxIter(5), WithTol(-1), WithWorkers(3))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const nreq = 6 // 4 + 2: spans a chunk boundary
	reqs := make([]Request, nreq)
	for i := range reqs {
		e, _ := beliefs.Seed(300, 3, beliefs.SeedConfig{Fraction: 0.1, Seed: uint64(i + 11)})
		reqs[i] = Request{E: e, Dst: beliefs.New(300, 3)}
	}
	resps := s.SolveBatch(ctx, reqs)
	dst := beliefs.New(300, 3)
	for i, r := range resps {
		if r.Err != nil && !errors.Is(r.Err, ErrNotConverged) {
			t.Fatalf("request %d: %v", i, r.Err)
		}
		if _, err := base.SolveInto(ctx, dst, reqs[i].E); err != nil && !errors.Is(err, ErrNotConverged) {
			t.Fatal(err)
		}
		if d := maxAbsDiff(r.Beliefs, dst); d > 1e-12 {
			t.Fatalf("request %d: span-pool batch vs serial diff %g", i, d)
		}
	}
}

// TestSolveBatchSequentialMethods covers the non-fused batch path.
func TestSolveBatchSequentialMethods(t *testing.T) {
	p := randomProblem(t, 80, 170, 2, 0.01, 7)
	for _, m := range []Method{MethodBP, MethodSBP, MethodFABP} {
		s, err := Prepare(p, m, WithMaxIter(300))
		if err != nil {
			t.Fatal(err)
		}
		reqs := make([]Request, 3)
		for i := range reqs {
			e, _ := beliefs.Seed(80, 2, beliefs.SeedConfig{Fraction: 0.1, Seed: uint64(i + 50)})
			reqs[i] = Request{E: e}
		}
		dst := beliefs.New(80, 2)
		for i, r := range s.SolveBatch(context.Background(), reqs) {
			if r.Err != nil && !errors.Is(r.Err, ErrNotConverged) {
				t.Fatalf("%v request %d: %v", m, i, r.Err)
			}
			if _, err := s.SolveInto(context.Background(), dst, reqs[i].E); err != nil && !errors.Is(err, ErrNotConverged) {
				t.Fatal(err)
			}
			if d := maxAbsDiff(r.Beliefs, dst); d != 0 {
				t.Fatalf("%v request %d: batch vs single max diff %g", m, i, d)
			}
		}
		s.Close()
	}
}

// TestValidateRejectsNonSquareHo is the regression test for the
// Validate fix: a k×(k+1) coupling must be rejected explicitly with
// ErrDimensionMismatch (it used to slip past the K-vs-Rows check into
// the per-method code when Rows matched K).
func TestValidateRejectsNonSquareHo(t *testing.T) {
	g := gen.Torus()
	p := &Problem{
		Graph:    g,
		Explicit: beliefs.New(8, 3),
		Ho:       dense.New(3, 4), // non-square, Rows() matches K
		EpsilonH: 0.1,
	}
	err := p.Validate()
	if err == nil {
		t.Fatal("non-square Ho must fail validation")
	}
	if !errors.Is(err, ErrDimensionMismatch) {
		t.Fatalf("want ErrDimensionMismatch, got %v", err)
	}
	if _, err := Prepare(p, MethodLinBP); !errors.Is(err, ErrDimensionMismatch) {
		t.Fatalf("Prepare must surface the mismatch, got %v", err)
	}
}

// TestErrorTaxonomy walks the sentinel errors through errors.Is.
func TestErrorTaxonomy(t *testing.T) {
	p := randomProblem(t, 40, 80, 2, 0.01, 11)

	// ErrInvalidCoupling: a non-symmetric residual coupling.
	bad := dense.NewFromRows([][]float64{{0.1, -0.1}, {-0.2, 0.2}})
	q := &Problem{Graph: p.Graph, Explicit: p.Explicit, Ho: bad, EpsilonH: 0.1}
	if _, err := Prepare(q, MethodLinBP); !errors.Is(err, ErrInvalidCoupling) {
		t.Fatalf("want ErrInvalidCoupling, got %v", err)
	}

	// ErrInvalidCoupling: FABP with |ĥ| at the linearization boundary.
	strong := &Problem{Graph: p.Graph, Explicit: p.Explicit, Ho: coupling.Homophily(2, 1), EpsilonH: 1}
	if _, err := Prepare(strong, MethodFABP); !errors.Is(err, ErrInvalidCoupling) {
		t.Fatalf("want ErrInvalidCoupling for ĥ=1/2, got %v", err)
	}

	// ErrDimensionMismatch: FABP needs k=2.
	p3 := randomProblem(t, 40, 80, 3, 0.01, 12)
	if _, err := Prepare(p3, MethodFABP); !errors.Is(err, ErrDimensionMismatch) {
		t.Fatalf("want ErrDimensionMismatch for k=3 FABP, got %v", err)
	}

	// ErrDimensionMismatch: ill-shaped explicit beliefs at solve time.
	s, err := Prepare(p, MethodLinBP)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Solve(context.Background(), beliefs.New(7, 2)); !errors.Is(err, ErrDimensionMismatch) {
		t.Fatalf("want ErrDimensionMismatch, got %v", err)
	}

	// ErrNotConverged: one fixed round of a non-trivial iteration.
	short, err := Prepare(p, MethodLinBP, WithMaxIter(1), WithTol(-1))
	if err != nil {
		t.Fatal(err)
	}
	res, err := short.Solve(context.Background(), p.Explicit)
	if !errors.Is(err, ErrNotConverged) {
		t.Fatalf("want ErrNotConverged, got %v", err)
	}
	if res == nil || res.Beliefs == nil {
		t.Fatal("partial result must accompany ErrNotConverged")
	}
	short.Close()

	// ErrClosed: every entry point after Close.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close must be idempotent: %v", err)
	}
	if _, err := s.Solve(context.Background(), p.Explicit); !errors.Is(err, ErrClosed) {
		t.Fatalf("want ErrClosed, got %v", err)
	}
	if _, err := s.SolveInto(context.Background(), beliefs.New(40, 2), p.Explicit); !errors.Is(err, ErrClosed) {
		t.Fatalf("want ErrClosed, got %v", err)
	}
	for _, r := range s.SolveBatch(context.Background(), []Request{{E: p.Explicit}}) {
		if !errors.Is(r.Err, ErrClosed) {
			t.Fatalf("want ErrClosed in batch, got %v", r.Err)
		}
	}
}

// TestCancellation covers both required behaviors: a pre-cancelled
// context returns promptly without iterating, and a deadline expiring
// mid-iteration aborts with context.DeadlineExceeded.
func TestCancellation(t *testing.T) {
	p := randomProblem(t, 2000, 10000, 3, 0.01, 13)
	for _, m := range []Method{MethodBP, MethodLinBP, MethodLinBPStar, MethodSBP} {
		s, err := Prepare(p, m, WithMaxIter(1_000_000), WithTol(-1))
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		info, err := s.SolveInto(ctx, beliefs.New(2000, 3), p.Explicit)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%v: want context.Canceled, got %v", m, err)
		}
		if m != MethodSBP && info.Iterations != 0 {
			t.Fatalf("%v: pre-cancelled ctx ran %d rounds", m, info.Iterations)
		}

		dctx, dcancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
		start := time.Now()
		_, err = s.SolveInto(dctx, beliefs.New(2000, 3), p.Explicit)
		dcancel()
		if m == MethodSBP {
			// SBP finishes its handful of levels before any sane
			// deadline; only the pre-cancelled case is meaningful.
			s.Close()
			continue
		}
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("%v: want DeadlineExceeded, got %v", m, err)
		}
		if elapsed := time.Since(start); elapsed > 2*time.Second {
			t.Fatalf("%v: cancellation took %v", m, elapsed)
		}
		s.Close()
	}
}

// TestBatchCancellation checks that a cancelled context fails the whole
// batch with the context error.
func TestBatchCancellation(t *testing.T) {
	p := randomProblem(t, 200, 420, 3, 0.01, 17)
	s, err := Prepare(p, MethodLinBP, WithMaxIter(1_000_000), WithTol(-1))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	reqs := []Request{{E: p.Explicit}, {E: p.Explicit}}
	for i, r := range s.SolveBatch(ctx, reqs) {
		if !errors.Is(r.Err, context.Canceled) {
			t.Fatalf("request %d: want context.Canceled, got %v", i, r.Err)
		}
	}
}

// TestSolveIntoZeroAlloc asserts the serving guarantee for the
// kernel-backed methods: steady-state SolveInto performs zero
// allocations.
func TestSolveIntoZeroAlloc(t *testing.T) {
	p := randomProblem(t, 300, 700, 3, 0.01, 19)
	p2 := randomProblem(t, 300, 700, 2, 0.01, 19)
	for _, tc := range []struct {
		name string
		p    *Problem
		m    Method
	}{
		{"LinBP", p, MethodLinBP},
		{"LinBPStar", p, MethodLinBPStar},
		{"FABP", p2, MethodFABP},
	} {
		s, err := Prepare(tc.p, tc.m, WithMaxIter(5), WithTol(-1))
		if err != nil {
			t.Fatal(err)
		}
		dst := beliefs.New(300, tc.p.K())
		ctx := context.Background()
		if _, err := s.SolveInto(ctx, dst, tc.p.Explicit); !errors.Is(err, ErrNotConverged) {
			t.Fatalf("%s warm: %v", tc.name, err)
		}
		// The fixed-round run ends not converged: that outcome must
		// allocate nothing either.
		allocs := testing.AllocsPerRun(20, func() {
			s.SolveInto(ctx, dst, tc.p.Explicit)
		})
		if allocs > 0 {
			t.Errorf("%s: %v allocs per SolveInto, want 0", tc.name, allocs)
		}
		s.Close()
	}
}

// TestSolveBatchZeroAlloc asserts that steady-state batches of a
// recurring size with caller-provided destinations allocate nothing
// beyond the caller-owned response slice: since the Solver became safe
// for concurrent use, each SolveBatch hands its responses to the caller
// in a freshly allocated slice (recycling it would race with another
// goroutine still reading its previous batch), so exactly one
// allocation per call is the floor.
func TestSolveBatchZeroAlloc(t *testing.T) {
	p := randomProblem(t, 300, 700, 3, 0.01, 23)
	s, err := Prepare(p, MethodLinBP)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	reqs := make([]Request, 6)
	for i := range reqs {
		e, _ := beliefs.Seed(300, 3, beliefs.SeedConfig{Fraction: 0.1, Seed: uint64(i + 70)})
		reqs[i] = Request{E: e, Dst: beliefs.New(300, 3)}
	}
	ctx := context.Background()
	s.SolveBatch(ctx, reqs) // warm: builds the fused engine
	allocs := testing.AllocsPerRun(20, func() {
		for _, r := range s.SolveBatch(ctx, reqs) {
			if r.Err != nil {
				t.Fatal(r.Err)
			}
		}
	})
	if allocs > 1 {
		t.Errorf("%v allocs per SolveBatch, want 1 (the caller-owned response slice)", allocs)
	}
}

// TestStats checks the observability counters and configuration echo.
func TestStats(t *testing.T) {
	p := randomProblem(t, 60, 130, 3, 0.01, 29)
	s, err := Prepare(p, MethodLinBP, WithWorkers(2), WithMaxIter(50))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ctx := context.Background()
	if _, err := s.Solve(ctx, p.Explicit); err != nil && !errors.Is(err, ErrNotConverged) {
		t.Fatal(err)
	}
	s.SolveBatch(ctx, []Request{{E: p.Explicit}, {E: p.Explicit}})
	st := s.Stats()
	if st.Method != MethodLinBP || st.N != 60 || st.K != 3 || st.Workers != 2 {
		t.Fatalf("config echo wrong: %+v", st)
	}
	if st.EpsilonH != 0.01 {
		t.Fatalf("EpsilonH = %v", st.EpsilonH)
	}
	if st.Solves != 1 || st.Batches != 1 || st.BatchRequests != 2 {
		t.Fatalf("counters wrong: %+v", st)
	}
	if st.Iterations == 0 {
		t.Fatalf("iterations not counted: %+v", st)
	}
}

// TestWithAutoEpsilonH checks the option against the criterion it
// implements and its effect on the prepared coupling.
func TestWithAutoEpsilonH(t *testing.T) {
	p := randomProblem(t, 60, 130, 3, 0.9, 31) // deliberately unsafe εH
	s, err := Prepare(p, MethodLinBP, WithAutoEpsilonH())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	eps := s.Stats().EpsilonH
	max, err := linbp.MaxEpsilonH(p.Graph, p.Ho, true, true)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(eps-max/2) > 1e-9*max {
		t.Fatalf("auto εH = %v, want %v", eps, max/2)
	}
	if _, err := s.Solve(context.Background(), p.Explicit); err != nil {
		t.Fatalf("auto-scaled solve must converge: %v", err)
	}
}

// TestLinBPStarMatchesRun checks that a prepared LinBP* solver reports
// its method and reproduces the one-shot linbp.Run without echo
// cancellation bitwise.
func TestLinBPStarMatchesRun(t *testing.T) {
	p := randomProblem(t, 60, 130, 3, 0.01, 37)
	s, err := Prepare(p, MethodLinBPStar, WithMaxIter(300))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if got := s.Stats().Method; got != MethodLinBPStar {
		t.Fatalf("method = %v, want LinBP*", got)
	}
	res, err := s.Solve(context.Background(), p.Explicit)
	if err != nil {
		t.Fatal(err)
	}
	want, err := linbp.Run(p.Graph, p.Explicit, p.ScaledH(), linbp.Options{EchoCancellation: false, MaxIter: 300})
	if err != nil {
		t.Fatal(err)
	}
	if d := maxAbsDiff(res.Beliefs, want.Beliefs); d != 0 {
		t.Fatalf("LinBP* result diff %g", d)
	}
}

// TestSBPRunnerReusesOrdering checks the SBP serving path across an
// explicit-set change (the cached geodesic ordering must refresh).
func TestSBPRunnerReusesOrdering(t *testing.T) {
	g := graph.New(6)
	for i := 0; i < 5; i++ {
		g.AddUnitEdge(i, i+1)
	}
	ho := coupling.Homophily(2, 0.8)
	p := &Problem{Graph: g, Explicit: beliefs.New(6, 2), Ho: ho, EpsilonH: 0.1}
	s, err := Prepare(p, MethodSBP)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	dst := beliefs.New(6, 2)
	e1 := beliefs.New(6, 2)
	e1.Set(0, beliefs.LabelResidual(2, 0, 0.1))
	for trial := 0; trial < 2; trial++ { // second solve reuses the ordering
		e1.Row(0)[0], e1.Row(0)[1] = 0.1+0.05*float64(trial), -0.1-0.05*float64(trial)
		info, err := s.SolveInto(context.Background(), dst, e1)
		if err != nil {
			t.Fatal(err)
		}
		if info.Iterations != 5 {
			t.Fatalf("trial %d: %d levels, want 5", trial, info.Iterations)
		}
		st, err := sbp.Run(g, e1, ho)
		if err != nil {
			t.Fatal(err)
		}
		if d := maxAbsDiff(dst, st.Beliefs()); d != 0 {
			t.Fatalf("trial %d: runner vs state diff %g", trial, d)
		}
	}
	// New explicit set: ordering must be rebuilt, node 5 now explicit.
	e2 := beliefs.New(6, 2)
	e2.Set(5, beliefs.LabelResidual(2, 1, 0.1))
	if _, err := s.SolveInto(context.Background(), dst, e2); err != nil {
		t.Fatal(err)
	}
	st, err := sbp.Run(g, e2, ho)
	if err != nil {
		t.Fatal(err)
	}
	if d := maxAbsDiff(dst, st.Beliefs()); d != 0 {
		t.Fatalf("post-change diff %g", d)
	}
}

// TestMethodFABPString covers the new enum value.
func TestMethodFABPString(t *testing.T) {
	if MethodFABP.String() != "FABP" {
		t.Fatalf("String() = %q", MethodFABP.String())
	}
}
