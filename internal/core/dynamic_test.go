package core

import (
	"context"
	"errors"
	"math"
	"sync"
	"testing"

	"repro/internal/beliefs"
	"repro/internal/graph"
	"repro/internal/xrand"
)

// freshSolve prepares a throwaway solver on p and returns the beliefs
// for e — the from-scratch reference every dynamic epoch must match.
func freshSolve(t testing.TB, p *Problem, m Method, e *beliefs.Residual, opts ...Option) *beliefs.Residual {
	t.Helper()
	s, err := Prepare(p, m, opts...)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	dst := beliefs.New(p.Graph.N(), p.K())
	if _, err := s.SolveInto(context.Background(), dst, e); err != nil && !errors.Is(err, ErrNotConverged) {
		t.Fatal(err)
	}
	return dst
}

// TestDynamicUpdateMatchesFreshPrepare walks a solver through edge
// inserts, deletes, and relabels, comparing every epoch against a
// from-scratch Prepare on the mirrored graph.
func TestDynamicUpdateMatchesFreshPrepare(t *testing.T) {
	const tol = 1e-12
	tight := []Option{WithMaxIter(400), WithTol(1e-13)}
	for _, m := range []Method{MethodLinBP, MethodLinBPStar} {
		p := randomProblem(t, 80, 160, 3, 0.05, 11)
		mirror := &Problem{Graph: p.Graph.Clone(), Explicit: p.Explicit.Clone(), Ho: p.Ho, EpsilonH: p.EpsilonH}
		s, err := Prepare(p, m, tight...)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		ctx := context.Background()

		// Initial fixpoint via an empty update.
		res, err := s.Update(ctx, Update{})
		if err != nil {
			t.Fatalf("%v initial Update: %v", m, err)
		}
		if d := maxAbsDiff(res.Beliefs, freshSolve(t, mirror, m, mirror.Explicit, tight...)); d > tol {
			t.Errorf("%v epoch 0 diverges by %g", m, d)
		}

		batches := []Update{
			{AddEdges: []graph.Edge{{S: 0, T: 41, W: 1}, {S: 7, T: 63, W: 1}, {S: 5, T: 5, W: 1}}},
			{RemoveEdges: []graph.Edge{{S: 0, T: 41}, {S: 7, T: 63}}},
			{AddEdges: []graph.Edge{{S: 0, T: 41, W: 2}},
				SetExplicit: labelMatrix(p.Graph.N(), p.K(), map[int]int{3: 1, 41: 2})},
		}
		for bi, u := range batches {
			res, err := s.Update(ctx, u)
			if err != nil {
				t.Fatalf("%v batch %d: %v", m, bi, err)
			}
			for _, e := range u.AddEdges {
				mirror.Graph.AddEdge(e.S, e.T, e.W)
			}
			mirror.Graph.RemoveEdges(u.RemoveEdges)
			if u.SetExplicit != nil {
				for _, v := range u.SetExplicit.ExplicitNodes() {
					mirror.Explicit.Set(v, u.SetExplicit.Row(v))
				}
			}
			want := freshSolve(t, mirror, m, mirror.Explicit, tight...)
			if d := maxAbsDiff(res.Beliefs, want); d > tol {
				t.Errorf("%v batch %d: warm Update result diverges by %g", m, bi, d)
			}
			// The serving path must answer on the updated snapshot too.
			dst := beliefs.New(p.Graph.N(), p.K())
			if _, err := s.SolveInto(ctx, dst, mirror.Explicit); err != nil && !errors.Is(err, ErrNotConverged) {
				t.Fatalf("%v batch %d SolveInto: %v", m, bi, err)
			}
			if d := maxAbsDiff(dst, want); d > tol {
				t.Errorf("%v batch %d: cold serve diverges by %g", m, bi, d)
			}
		}
		st := s.Stats()
		if st.Epoch != 3 || st.Updates != 4 {
			t.Errorf("%v stats: epoch=%d updates=%d, want 3/4", m, st.Epoch, st.Updates)
		}
	}
}

// labelMatrix builds an n×k update matrix labeling the given nodes.
func labelMatrix(n, k int, labels map[int]int) *beliefs.Residual {
	en := beliefs.New(n, k)
	for v, c := range labels {
		en.Set(v, beliefs.LabelResidual(k, c, 0.1))
	}
	return en
}

// TestDynamicCompaction forces a rebuild on every topology update and
// checks that the layout replay keeps answers identical and the
// counters advance.
func TestDynamicCompaction(t *testing.T) {
	tight := []Option{WithMaxIter(400), WithTol(1e-13),
		WithReordering(ReorderRCM),
		WithUpdatePolicy(UpdatePolicy{CompactionRatio: 1e-12})}
	p := randomProblem(t, 70, 150, 2, 0.05, 13)
	mirror := &Problem{Graph: p.Graph.Clone(), Explicit: p.Explicit, Ho: p.Ho, EpsilonH: p.EpsilonH}
	s, err := Prepare(p, MethodLinBP, tight...)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		u := Update{AddEdges: []graph.Edge{{S: i, T: 69 - i, W: 1}}}
		res, err := s.Update(ctx, u)
		if err != nil {
			t.Fatalf("update %d: %v", i, err)
		}
		mirror.Graph.AddEdge(i, 69-i, 1)
		want := freshSolve(t, mirror, MethodLinBP, mirror.Explicit, tight...)
		if d := maxAbsDiff(res.Beliefs, want); d > 1e-12 {
			t.Errorf("update %d: compacted epoch diverges by %g", i, d)
		}
	}
	st := s.Stats()
	if st.Rebuilds != 3 {
		t.Errorf("Rebuilds = %d, want 3", st.Rebuilds)
	}
	if st.OverlayNNZ != 0 {
		t.Errorf("OverlayNNZ = %d, want 0 after compaction", st.OverlayNNZ)
	}
	if st.Ordering != ReorderRCM {
		t.Errorf("Ordering = %v, want rcm after relayout", st.Ordering)
	}
}

// TestDynamicUpdateFABP exercises the scalar collapse through the same
// dynamic path.
func TestDynamicUpdateFABP(t *testing.T) {
	tight := []Option{WithMaxIter(800), WithTol(1e-13)}
	p := randomProblem(t, 60, 120, 2, 0.05, 17)
	mirror := &Problem{Graph: p.Graph.Clone(), Explicit: p.Explicit, Ho: p.Ho, EpsilonH: p.EpsilonH}
	s, err := Prepare(p, MethodFABP, tight...)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	u := Update{AddEdges: []graph.Edge{{S: 1, T: 50, W: 1}}, RemoveEdges: []graph.Edge{{S: 1, T: 50}}}
	// Add then remove in separate updates so both paths run.
	if _, err := s.Update(context.Background(), Update{AddEdges: u.AddEdges}); err != nil {
		t.Fatal(err)
	}
	res, err := s.Update(context.Background(), Update{RemoveEdges: u.RemoveEdges})
	if err != nil {
		t.Fatal(err)
	}
	want := freshSolve(t, mirror, MethodFABP, mirror.Explicit, tight...)
	if d := maxAbsDiff(res.Beliefs, want); d > 1e-12 {
		t.Errorf("FABP add+remove round trip diverges by %g", d)
	}
}

// TestDynamicUpdateBPAndSBP covers the cold-rebuild methods.
func TestDynamicUpdateBPAndSBP(t *testing.T) {
	for _, m := range []Method{MethodBP, MethodSBP} {
		p := randomProblem(t, 60, 120, 3, 0.05, 19)
		mirror := &Problem{Graph: p.Graph.Clone(), Explicit: p.Explicit, Ho: p.Ho, EpsilonH: p.EpsilonH}
		s, err := Prepare(p, m)
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Update(context.Background(), Update{AddEdges: []graph.Edge{{S: 2, T: 33, W: 1}}})
		if err != nil && !errors.Is(err, ErrNotConverged) {
			t.Fatalf("%v: %v", m, err)
		}
		mirror.Graph.AddEdge(2, 33, 1)
		want := freshSolve(t, mirror, m, mirror.Explicit)
		if d := maxAbsDiff(res.Beliefs, want); d > 1e-9 {
			t.Errorf("%v update diverges by %g", m, d)
		}
		if m == MethodSBP && len(res.Geodesics) != p.Graph.N() {
			t.Error("SBP update lost the geodesic numbers in Result.Geodesics")
		}
		s.Close()
	}
}

// TestDynamicWarmStartSavesIterations pins the headline property: after
// a small delta, the warm-started re-solve takes fewer rounds than a
// cold solve of the same problem — a Solve of the same explicit beliefs
// on the updated solver, which runs from Bˆ = 0 on the committed epoch
// — for LinBP and for FABP's scalar collapse alike.
func TestDynamicWarmStartSavesIterations(t *testing.T) {
	for _, tc := range []struct {
		m Method
		k int
	}{
		{MethodLinBP, 3},
		{MethodFABP, 2},
	} {
		p := randomProblem(t, 400, 900, tc.k, 0.03, 23)
		s, err := Prepare(p, tc.m, WithMaxIter(300), WithTol(1e-10))
		if err != nil {
			t.Fatal(err)
		}
		ctx := context.Background()
		if _, err := s.Update(ctx, Update{}); err != nil {
			t.Fatal(err)
		}
		delta := Update{AddEdges: []graph.Edge{{S: 3, T: 200, W: 1}, {S: 9, T: 120, W: 1}}}
		wres, err := s.Update(ctx, delta)
		if err != nil {
			t.Fatal(err)
		}
		cres, err := s.Solve(ctx, p.Explicit)
		if err != nil {
			t.Fatal(err)
		}
		if wres.Iterations >= cres.Iterations {
			t.Errorf("%v: warm start took %d iterations, cold %d — no savings", tc.m, wres.Iterations, cres.Iterations)
		}
		if d := maxAbsDiff(wres.Beliefs, cres.Beliefs); d > 1e-9 {
			t.Errorf("%v: warm and cold fixpoints diverge by %g", tc.m, d)
		}
		s.Close()
	}
}

// TestDynamicUpdateValidation pins the error taxonomy of the update
// surface.
func TestDynamicUpdateValidation(t *testing.T) {
	p := randomProblem(t, 20, 40, 2, 0.05, 29)
	s, err := Prepare(p, MethodLinBP)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	cases := []Update{
		{AddEdges: []graph.Edge{{S: -1, T: 0, W: 1}}},
		{AddEdges: []graph.Edge{{S: 0, T: 20, W: 1}}},
		{RemoveEdges: []graph.Edge{{S: 0, T: 99}}},
		{SetExplicit: beliefs.New(21, 2)},
	}
	for i, u := range cases {
		if _, err := s.Update(ctx, u); err == nil {
			t.Errorf("case %d: invalid update accepted", i)
		}
	}
	for _, w := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		if _, err := s.Update(ctx, Update{AddEdges: []graph.Edge{{S: 0, T: 1, W: w}}}); err == nil {
			t.Errorf("weight %v accepted", w)
		}
	}
	// A failed update must not have mutated the maintained state.
	if st := s.Stats(); st.Updates != 0 || st.Epoch != 0 {
		t.Errorf("failed updates committed: %+v", st)
	}
	s.Close()
	if _, err := s.Update(ctx, Update{}); !errors.Is(err, ErrClosed) {
		t.Errorf("Update after Close: %v, want ErrClosed", err)
	}
	if s.Close() != nil {
		t.Error("second Close errored")
	}
}

// TestDynamicConcurrentUpdateStress is the torn-snapshot detector: 8
// reader goroutines hammer the solver with a fixed input while an
// updater commits topology updates (including forced compaction
// rebuilds) and finally closes the solver mid-traffic. Every
// successful read must match the fixpoint of SOME epoch — a result
// matching no epoch would mean a reader saw a half-swapped snapshot.
// Run under -race via make test-race.
func TestDynamicConcurrentUpdateStress(t *testing.T) {
	const (
		readers = 8
		updates = 12
	)
	p := randomProblem(t, 150, 300, 3, 0.05, 31)
	opts := []Option{WithMaxIter(300), WithTol(1e-13), WithWorkers(2),
		WithUpdatePolicy(UpdatePolicy{CompactionRatio: 0.01})}
	s, err := Prepare(p, MethodLinBP, opts...)
	if err != nil {
		t.Fatal(err)
	}
	e0 := p.Explicit
	mirror := &Problem{Graph: p.Graph.Clone(), Explicit: e0, Ho: p.Ho, EpsilonH: p.EpsilonH}

	// expected[i] = fresh fixpoint for e0 after i update batches; the
	// updater appends to it before committing each batch so readers can
	// always match against a published epoch.
	var expMu sync.Mutex
	expected := []*beliefs.Residual{freshSolve(t, mirror, MethodLinBP, e0, opts...)}
	snapshotExpected := func() []*beliefs.Residual {
		expMu.Lock()
		defer expMu.Unlock()
		return expected[:len(expected):len(expected)]
	}

	ctx := context.Background()
	var wg sync.WaitGroup
	closed := make(chan struct{})
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			dst := beliefs.New(p.Graph.N(), p.K())
			for it := 0; ; it++ {
				_, err := s.SolveInto(ctx, dst, e0)
				if errors.Is(err, ErrClosed) {
					select {
					case <-closed:
						return // legitimate: the updater closed the solver
					default:
						t.Errorf("reader %d: ErrClosed before Close", r)
						return
					}
				}
				if err != nil && !errors.Is(err, ErrNotConverged) {
					t.Errorf("reader %d: %v", r, err)
					return
				}
				best := math.Inf(1)
				for _, want := range snapshotExpected() {
					if d := maxAbsDiff(dst, want); d < best {
						best = d
					}
				}
				if best > 1e-11 {
					t.Errorf("reader %d it %d: torn snapshot — best epoch distance %g", r, it, best)
					return
				}
			}
		}(r)
	}

	rng := xrand.New(99)
	for i := 0; i < updates; i++ {
		s2 := rng.Intn(p.Graph.N())
		t2 := rng.Intn(p.Graph.N())
		if s2 == t2 {
			t2 = (t2 + 1) % p.Graph.N()
		}
		u := Update{AddEdges: []graph.Edge{{S: s2, T: t2, W: 1}}}
		mirror.Graph.AddEdge(s2, t2, 1)
		want := freshSolve(t, mirror, MethodLinBP, e0, opts...)
		expMu.Lock()
		expected = append(expected, want)
		expMu.Unlock()
		if _, err := s.Update(ctx, u); err != nil {
			t.Errorf("update %d: %v", i, err)
		}
	}
	close(closed)
	if err := s.Close(); err != nil {
		t.Errorf("Close: %v", err)
	}
	wg.Wait()
	st := s.Stats()
	if st.Epoch != updates {
		t.Errorf("Epoch = %d, want %d", st.Epoch, updates)
	}
	if st.Rebuilds == 0 {
		t.Error("stress never triggered a compaction rebuild")
	}
	if _, err := s.Solve(ctx, e0); !errors.Is(err, ErrClosed) {
		t.Errorf("Solve after Close: %v, want ErrClosed", err)
	}
}

// TestDynamicCloseDrainsPendingUpdate closes the solver while an
// updater (forced compaction rebuilds) and readers are mid-flight:
// Close must wait for the in-flight Update — including its rebuild —
// then drain both the retiring and current snapshots; the updater's
// next Update fails with ErrClosed.
func TestDynamicCloseDrainsPendingUpdate(t *testing.T) {
	p := randomProblem(t, 120, 240, 3, 0.05, 37)
	s, err := Prepare(p, MethodLinBP,
		WithUpdatePolicy(UpdatePolicy{CompactionRatio: 1e-12}), // rebuild every commit
		WithMaxIter(200), WithTol(1e-12))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	var wg sync.WaitGroup
	started := make(chan struct{})
	wg.Add(1)
	go func() { // updater: commits rebuild-heavy updates until closed
		defer wg.Done()
		for i := 0; ; i++ {
			u := Update{AddEdges: []graph.Edge{{S: i % 120, T: (i*7 + 1) % 120, W: 1}}}
			if u.AddEdges[0].S == u.AddEdges[0].T {
				u.AddEdges[0].T = (u.AddEdges[0].T + 1) % 120
			}
			_, err := s.Update(ctx, u)
			if i == 0 {
				close(started)
			}
			if errors.Is(err, ErrClosed) {
				return
			}
			if err != nil && !errors.Is(err, ErrNotConverged) {
				t.Errorf("updater: %v", err)
				return
			}
		}
	}()
	for r := 0; r < 4; r++ { // readers ride through the swaps
		wg.Add(1)
		go func() {
			defer wg.Done()
			dst := beliefs.New(120, 3)
			for {
				if _, err := s.SolveInto(ctx, dst, p.Explicit); errors.Is(err, ErrClosed) {
					return
				}
			}
		}()
	}
	<-started
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	wg.Wait()
	if _, err := s.Update(ctx, Update{}); !errors.Is(err, ErrClosed) {
		t.Errorf("Update after Close: %v", err)
	}
}

// TestDynamicStatsMonotonicThroughSwap polls the lifetime counters
// while epochs swap under solve traffic: the totals must never
// decrease (the retiring epoch's counters fold atomically with the
// pointer swap, not after the drain).
func TestDynamicStatsMonotonicThroughSwap(t *testing.T) {
	p := randomProblem(t, 100, 200, 3, 0.05, 41)
	s, err := Prepare(p, MethodLinBP, WithMaxIter(200), WithTol(1e-12))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ctx := context.Background()
	done := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ { // solve traffic to give the counters volume
		wg.Add(1)
		go func() {
			defer wg.Done()
			dst := beliefs.New(100, 3)
			for {
				select {
				case <-done:
					return
				default:
					s.SolveInto(ctx, dst, p.Explicit)
				}
			}
		}()
	}
	wg.Add(1)
	go func() { // stats poller: totals must be non-decreasing
		defer wg.Done()
		var lastSolves, lastIters int64
		for {
			st := s.Stats()
			if st.Solves < lastSolves || st.Iterations < lastIters {
				t.Errorf("stats dipped: solves %d->%d iters %d->%d",
					lastSolves, st.Solves, lastIters, st.Iterations)
				return
			}
			lastSolves, lastIters = st.Solves, st.Iterations
			select {
			case <-done:
				return
			default:
			}
		}
	}()
	for i := 0; i < 10; i++ {
		u := Update{AddEdges: []graph.Edge{{S: i, T: 99 - i, W: 1}}}
		if _, err := s.Update(ctx, u); err != nil && !errors.Is(err, ErrNotConverged) {
			t.Fatalf("update %d: %v", i, err)
		}
	}
	close(done)
	wg.Wait()
}

// TestDynamicNoOpRemovalSkipsEpoch: removals of absent pairs must not
// pay a snapshot rebuild — the epoch counter stays put and the served
// answer is unchanged.
func TestDynamicNoOpRemovalSkipsEpoch(t *testing.T) {
	p := randomProblem(t, 40, 80, 2, 0.05, 43)
	s, err := Prepare(p, MethodLinBP)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ctx := context.Background()
	if _, err := s.Update(ctx, Update{RemoveEdges: []graph.Edge{{S: 0, T: 39}}}); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Epoch != 0 || st.Updates != 1 {
		t.Errorf("no-op removal: epoch=%d updates=%d, want 0/1", st.Epoch, st.Updates)
	}
	// A real removal after the no-op still commits.
	victim := p.Graph.Edges()[0]
	if _, err := s.Update(ctx, Update{RemoveEdges: []graph.Edge{{S: victim.S, T: victim.T}}}); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Epoch != 1 {
		t.Errorf("real removal: epoch=%d, want 1", st.Epoch)
	}
}
