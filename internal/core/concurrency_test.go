package core

import (
	"context"
	"errors"
	"sync"
	"testing"

	"repro/internal/beliefs"
)

// stressInputs builds a handful of distinct explicit-belief inputs and
// their reference solutions, computed sequentially before the stress
// run, so every concurrent solve can verify its own result — workspace
// cross-contamination between pooled engines would show up as a wrong
// answer, not just a race.
func stressInputs(t *testing.T, p *Problem, m Method, count int, opts ...Option) ([]*beliefs.Residual, []*beliefs.Residual) {
	t.Helper()
	s, err := Prepare(p, m, opts...)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ins := make([]*beliefs.Residual, count)
	wants := make([]*beliefs.Residual, count)
	for i := range ins {
		e, _ := beliefs.Seed(p.Graph.N(), p.K(), beliefs.SeedConfig{Fraction: 0.1, Seed: uint64(200 + i)})
		ins[i] = e
		want := beliefs.New(p.Graph.N(), p.K())
		if _, err := s.SolveInto(context.Background(), want, e); err != nil && !errors.Is(err, ErrNotConverged) {
			t.Fatal(err)
		}
		wants[i] = want
	}
	return ins, wants
}

// stressSolver hammers one shared Solver with 32 goroutines mixing
// Solve, SolveInto, SolveBatch, and Stats, with one goroutine closing
// the solver partway through ("late Close"). Run under -race (make
// test-race) this is the concurrency contract's enforcement: no data
// races, correct results before the close, clean ErrClosed after, and
// an idempotent Close.
func stressSolver(t *testing.T, p *Problem, m Method, iters int, opts ...Option) {
	t.Helper()
	const goroutines = 32
	ins, wants := stressInputs(t, p, m, 8, opts...)
	s, err := Prepare(p, m, opts...)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			dst := beliefs.New(p.Graph.N(), p.K())
			bd := []*beliefs.Residual{beliefs.New(p.Graph.N(), p.K()), beliefs.New(p.Graph.N(), p.K())}
			for it := 0; it < iters; it++ {
				in := ins[(g+it)%len(ins)]
				want := wants[(g+it)%len(ins)]
				switch it % 4 {
				case 0, 1:
					_, err := s.SolveInto(ctx, dst, in)
					if err != nil {
						if errors.Is(err, ErrClosed) || errors.Is(err, ErrNotConverged) {
							continue
						}
						t.Errorf("goroutine %d: SolveInto: %v", g, err)
						return
					}
					if d := maxAbsDiff(dst, want); d > 1e-12 {
						t.Errorf("goroutine %d: concurrent SolveInto diverges by %g", g, d)
						return
					}
				case 2:
					reqs := []Request{{E: in, Dst: bd[0]}, {E: ins[(g+it+1)%len(ins)], Dst: bd[1]}}
					for ri, r := range s.SolveBatch(ctx, reqs) {
						if r.Err != nil {
							if errors.Is(r.Err, ErrClosed) || errors.Is(r.Err, ErrNotConverged) {
								continue
							}
							t.Errorf("goroutine %d: batch request %d: %v", g, ri, r.Err)
							return
						}
						want := wants[(g+it+ri)%len(ins)]
						if d := maxAbsDiff(r.Beliefs, want); d > 1e-12 {
							t.Errorf("goroutine %d: concurrent batch diverges by %g", g, d)
							return
						}
					}
				case 3:
					st := s.Stats()
					if st.N != p.Graph.N() || st.K != p.K() {
						t.Errorf("goroutine %d: Stats shape %dx%d", g, st.N, st.K)
						return
					}
				}
				if it == iters/2 && g == 0 {
					// Late close from inside the storm: in-flight solves
					// finish, later ones fail with ErrClosed.
					if err := s.Close(); err != nil {
						t.Errorf("late Close: %v", err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if err := s.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
	if _, err := s.SolveInto(ctx, beliefs.New(p.Graph.N(), p.K()), ins[0]); !errors.Is(err, ErrClosed) {
		t.Errorf("solve after Close = %v, want ErrClosed", err)
	}
	if _, err := s.Solve(ctx, ins[0]); !errors.Is(err, ErrClosed) {
		t.Errorf("Solve after Close = %v, want ErrClosed", err)
	}
	for _, r := range s.SolveBatch(ctx, []Request{{E: ins[0]}}) {
		if !errors.Is(r.Err, ErrClosed) {
			t.Errorf("SolveBatch after Close = %v, want ErrClosed", r.Err)
		}
	}
}

// TestConcurrentSolverStress runs the 32-goroutine stress over every
// method on one shared Solver each, including the span-parallel kernel
// plane.
func TestConcurrentSolverStress(t *testing.T) {
	p3 := randomProblem(t, 220, 500, 3, 0.01, 61)
	p2 := randomProblem(t, 220, 500, 2, 0.01, 61)
	pbp := randomProblem(t, 50, 100, 3, 0.01, 61) // BP pays per-edge k² per round
	for _, tc := range []struct {
		name  string
		p     *Problem
		m     Method
		iters int
		opts  []Option
	}{
		{"LinBP", p3, MethodLinBP, 24, nil},
		{"LinBP/workers", p3, MethodLinBP, 16, []Option{WithWorkers(2)}},
		{"LinBPStar/reordered", p3, MethodLinBPStar, 16, []Option{WithReordering(ReorderRCM)}},
		{"FABP", p2, MethodFABP, 24, nil},
		{"SBP", p3, MethodSBP, 16, nil},
		{"BP", pbp, MethodBP, 6, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			stressSolver(t, tc.p, tc.m, tc.iters, tc.opts...)
		})
	}
}

// TestConcurrentSolveIntoZeroAlloc extends the zero-allocation serving
// guarantee to the shared-solver scenario: after the pool has one
// engine per concurrent caller, steady-state SolveInto allocates
// nothing even though the engines come and go through the state pool.
func TestConcurrentSolveIntoZeroAlloc(t *testing.T) {
	p := randomProblem(t, 250, 600, 3, 0.01, 67)
	s, err := Prepare(p, MethodLinBP)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ctx := context.Background()
	dst := beliefs.New(250, 3)
	if _, err := s.SolveInto(ctx, dst, p.Explicit); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := s.SolveInto(ctx, dst, p.Explicit); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Errorf("%v allocs per pooled SolveInto, want 0", allocs)
	}
}
