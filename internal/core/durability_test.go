package core

import (
	"context"
	"errors"
	"math"
	"testing"

	"repro/internal/beliefs"
	"repro/internal/durable"
	"repro/internal/errs"
	"repro/internal/graph"
)

var durTight = []Option{WithMaxIter(500), WithTol(1e-13)}

// applyMirror folds an Update into the reference problem.
func applyMirror(m *Problem, u Update) {
	for _, e := range u.AddEdges {
		m.Graph.AddEdge(e.S, e.T, e.W)
	}
	m.Graph.RemoveEdges(u.RemoveEdges)
	if u.SetExplicit != nil {
		for _, v := range u.SetExplicit.ExplicitNodes() {
			m.Explicit.Set(v, u.SetExplicit.Row(v))
		}
	}
}

// TestDurableOpenMatchesFreshPrepare walks every method through
// Prepare-with-durability, a short update stream, an orderly Close,
// and an Open — pinning the recovered fixpoint to a fresh Prepare on
// the mirrored problem.
func TestDurableOpenMatchesFreshPrepare(t *testing.T) {
	const tol = 1e-12
	for _, m := range []Method{MethodLinBP, MethodLinBPStar, MethodFABP, MethodBP, MethodSBP} {
		t.Run(m.String(), func(t *testing.T) {
			k := 3
			if m == MethodFABP {
				k = 2
			}
			p := randomProblem(t, 70, 150, k, 0.05, 29)
			mirror := &Problem{Graph: p.Graph.Clone(), Explicit: p.Explicit.Clone(), Ho: p.Ho, EpsilonH: p.EpsilonH}
			fs := durable.NewMemFS()
			opts := append([]Option{WithDurabilityFS(fs, "state", DurabilityPolicy{Sync: SyncAlways})}, durTight...)
			s, err := Prepare(p, m, opts...)
			if err != nil {
				t.Fatal(err)
			}
			if !HasStateFS(fs, "state") {
				t.Fatal("no snapshot after durable Prepare")
			}
			ctx := context.Background()
			batches := []Update{
				{AddEdges: []graph.Edge{{S: 0, T: 33, W: 1}, {S: 5, T: 9, W: 0.5}}},
				{RemoveEdges: []graph.Edge{{S: 0, T: 33}},
					SetExplicit: labelMatrix(p.Graph.N(), k, map[int]int{12: 1})},
				{}, // pure re-solve: still sequenced, still recoverable
			}
			for bi, u := range batches {
				if _, err := s.Update(ctx, u); err != nil && !errors.Is(err, ErrNotConverged) {
					t.Fatalf("batch %d: %v", bi, err)
				}
				applyMirror(mirror, u)
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}

			r, err := OpenFS(fs, "state", durTight...)
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			if got := r.Stats().Updates; got != int64(len(batches)) {
				t.Errorf("recovered Updates = %d, want %d", got, len(batches))
			}
			res, err := r.Update(ctx, Update{})
			if err != nil && !errors.Is(err, ErrNotConverged) {
				t.Fatal(err)
			}
			want := freshSolve(t, mirror, m, mirror.Explicit, durTight...)
			refTol := tol
			if m == MethodBP {
				refTol = 1e-9 // BP's fixpoint tolerance matches the dynamic-plane tests
			}
			if d := maxAbsDiff(res.Beliefs, want); d > refTol {
				t.Errorf("recovered fixpoint diverges from fresh Prepare by %g", d)
			}
			// The recovered solver keeps updating durably.
			u := Update{AddEdges: []graph.Edge{{S: 1, T: 2, W: 1}}}
			res, err = r.Update(ctx, u)
			if err != nil && !errors.Is(err, ErrNotConverged) {
				t.Fatal(err)
			}
			applyMirror(mirror, u)
			if d := maxAbsDiff(res.Beliefs, freshSolve(t, mirror, m, mirror.Explicit, durTight...)); d > refTol {
				t.Errorf("post-recovery update diverges by %g", d)
			}
		})
	}
}

// TestDurableCrashRecovery loses the process (no Close) after synced
// updates; Open must replay the WAL tail onto the snapshot.
func TestDurableCrashRecovery(t *testing.T) {
	p := randomProblem(t, 60, 130, 3, 0.05, 31)
	mirror := &Problem{Graph: p.Graph.Clone(), Explicit: p.Explicit.Clone(), Ho: p.Ho, EpsilonH: p.EpsilonH}
	fs := durable.NewMemFS()
	opts := append([]Option{WithDurabilityFS(fs, "st", DurabilityPolicy{Sync: SyncAlways})}, durTight...)
	s, err := Prepare(p, MethodLinBP, opts...)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, u := range []Update{
		{AddEdges: []graph.Edge{{S: 3, T: 44, W: 1}}},
		{SetExplicit: labelMatrix(p.Graph.N(), 3, map[int]int{7: 0})},
	} {
		if _, err := s.Update(ctx, u); err != nil {
			t.Fatal(err)
		}
		applyMirror(mirror, u)
	}
	// Power loss: no Close, unsynced state dropped.
	fs.Crash()

	r, err := OpenFS(fs, "st", durTight...)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if got := r.Stats().Updates; got != 2 {
		t.Fatalf("recovered Updates = %d, want 2", got)
	}
	res, err := r.Update(ctx, Update{})
	if err != nil {
		t.Fatal(err)
	}
	want := freshSolve(t, mirror, MethodLinBP, mirror.Explicit, durTight...)
	if d := maxAbsDiff(res.Beliefs, want); d > 1e-12 {
		t.Errorf("crash-recovered fixpoint diverges by %g", d)
	}
}

// TestDurableOpenCorruptSnapshot pins the typed error contract: bit
// rot in the snapshot surfaces ErrCorruptState, never a solver.
func TestDurableOpenCorruptSnapshot(t *testing.T) {
	p := randomProblem(t, 40, 80, 3, 0.05, 37)
	fs := durable.NewMemFS()
	s, err := Prepare(p, MethodLinBP, WithDurabilityFS(fs, "st", DurabilityPolicy{Sync: SyncAlways}))
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	if err := fs.FlipBit(durable.Join("st", durable.SnapshotFile), 4200, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenFS(fs, "st"); !errors.Is(err, ErrCorruptState) {
		t.Fatalf("Open on flipped bit = %v, want ErrCorruptState", err)
	}
}

// TestUpdateCancelledBeforeSwap pins the commit-abort contract: a
// context cancelled between overlay materialization and the epoch
// swap returns an error, publishes nothing, and the next Update
// commits the retained delta.
func TestUpdateCancelledBeforeSwap(t *testing.T) {
	p := randomProblem(t, 60, 130, 3, 0.05, 41)
	mirror := &Problem{Graph: p.Graph.Clone(), Explicit: p.Explicit.Clone(), Ho: p.Ho, EpsilonH: p.EpsilonH}
	s, err := Prepare(p, MethodLinBP, durTight...)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	u1 := Update{AddEdges: []graph.Edge{{S: 2, T: 50, W: 1}}}
	if _, err := s.Update(cancelled, u1); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled Update err = %v, want context.Canceled", err)
	}
	applyMirror(mirror, u1)
	if st := s.Stats(); st.Epoch != 0 {
		t.Fatalf("epoch advanced to %d despite cancellation", st.Epoch)
	}
	// Readers still serve the pre-batch epoch (n.b. the delta is
	// retained, not rolled back — it simply has not been published).
	u2 := Update{AddEdges: []graph.Edge{{S: 4, T: 17, W: 1}}}
	res, err := s.Update(context.Background(), u2)
	if err != nil {
		t.Fatal(err)
	}
	applyMirror(mirror, u2)
	if st := s.Stats(); st.Epoch != 1 {
		t.Fatalf("retry epoch = %d, want 1 (one swap for both batches)", st.Epoch)
	}
	want := freshSolve(t, mirror, MethodLinBP, mirror.Explicit, durTight...)
	if d := maxAbsDiff(res.Beliefs, want); d > 1e-12 {
		t.Errorf("post-retry fixpoint diverges by %g (pending delta lost?)", d)
	}
}

// TestPrepareRejectsNonFiniteInputs covers the typed-error satellite:
// NaN/Inf edge weights and explicit beliefs must fail validation with
// ErrNonFinite instead of poisoning the kernel.
func TestPrepareRejectsNonFiniteInputs(t *testing.T) {
	p := randomProblem(t, 20, 40, 3, 0.05, 43)
	p.Graph.AddEdge(1, 2, math.NaN()) // slips past AddEdge's w <= 0 panic
	if _, err := Prepare(p, MethodLinBP); !errors.Is(err, errs.ErrNonFinite) {
		t.Fatalf("NaN edge weight: Prepare err = %v, want ErrNonFinite", err)
	}

	p2 := randomProblem(t, 20, 40, 3, 0.05, 43)
	p2.Graph.AddEdge(1, 2, math.Inf(1))
	if _, err := Prepare(p2, MethodLinBP); !errors.Is(err, errs.ErrNonFinite) {
		t.Fatalf("+Inf edge weight: Prepare err = %v, want ErrNonFinite", err)
	}

	p3 := randomProblem(t, 20, 40, 3, 0.05, 43)
	p3.Explicit.Set(4, []float64{math.NaN(), 0, 0})
	if _, err := Prepare(p3, MethodLinBP); !errors.Is(err, errs.ErrNonFinite) {
		t.Fatalf("NaN explicit belief: Prepare err = %v, want ErrNonFinite", err)
	}
}

// TestKernelDivergenceSurfacesNonFinite pins the convergence-check
// satellite: an update operator far past the spectral bound overflows
// the iteration, and the solve must fail fast with ErrNonFinite
// rather than spin to MaxIter on NaN deltas.
func TestKernelDivergenceSurfacesNonFinite(t *testing.T) {
	p := randomProblem(t, 30, 80, 3, 1e200, 47)
	s, err := Prepare(p, MethodLinBP, WithMaxIter(5000))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	dst := beliefs.New(30, 3)
	_, err = s.SolveInto(context.Background(), dst, p.Explicit)
	if !errors.Is(err, errs.ErrNonFinite) {
		t.Fatalf("diverging solve err = %v, want ErrNonFinite", err)
	}
	if st := s.Stats(); st.NotConverged == 0 {
		t.Errorf("divergence not counted as NotConverged: %+v", st)
	}
}

// TestPrepareCopiesExplicit: Prepare keeps its own copy of
// Problem.Explicit, so a caller reusing the matrix afterwards changes
// neither the served fixpoint nor the durable image — the served
// fixpoint matches a fresh solve of the problem as it was at Prepare,
// and a recovery reproduces it.
func TestPrepareCopiesExplicit(t *testing.T) {
	for _, durableState := range []bool{false, true} {
		p := kronProblem(t, 4, 3)
		atPrepare := &Problem{Graph: p.Graph.Clone(), Explicit: p.Explicit.Clone(), Ho: p.Ho, EpsilonH: p.EpsilonH}
		fs := durable.NewMemFS()
		opts := durTight
		if durableState {
			opts = append([]Option{WithDurabilityFS(fs, "st", DurabilityPolicy{Sync: SyncAlways})}, durTight...)
		}
		s, err := Prepare(p, MethodLinBP, opts...)
		if err != nil {
			t.Fatal(err)
		}
		// The caller reuses its matrix: two unlabeled rows get labels.
		changed := 0
		for v := 0; changed < 2; v++ {
			if !p.Explicit.IsExplicit(v) {
				p.Explicit.Set(v, beliefs.LabelResidual(3, changed, 0.1))
				changed++
			}
		}
		ctx := context.Background()
		u := Update{AddEdges: absentEdges(p.Graph, 1, 3)}
		served, err := s.Update(ctx, u)
		if err != nil && !errors.Is(err, ErrNotConverged) {
			t.Fatal(err)
		}
		applyMirror(atPrepare, u)
		want := freshSolve(t, atPrepare, MethodLinBP, atPrepare.Explicit, durTight...)
		if d := maxAbsDiff(served.Beliefs, want); d > 1e-12 {
			t.Errorf("durable=%v: served fixpoint differs from the problem as prepared by %g", durableState, d)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		if !durableState {
			continue
		}
		r, err := OpenFS(fs, "st", durTight...)
		if err != nil {
			t.Fatal(err)
		}
		recovered, err := r.Update(ctx, Update{})
		if err != nil && !errors.Is(err, ErrNotConverged) {
			t.Fatal(err)
		}
		if d := maxAbsDiff(recovered.Beliefs, served.Beliefs); d > 1e-12 {
			t.Errorf("recovered fixpoint differs from the served one by %g", d)
		}
		r.Close()
	}
}

// TestPrepareCopiesCoupling is TestPrepareCopiesExplicit for
// Problem.Ho: the caller rescales its coupling matrix after a durable
// Prepare, and a forced compaction then rebuilds the layout, the
// maintained fixpoint's engine, and a checkpoint from the solver's
// coupling — which must still be the prepared one, served and
// recovered.
func TestPrepareCopiesCoupling(t *testing.T) {
	p := kronProblem(t, 4, 3)
	atPrepare := &Problem{Graph: p.Graph.Clone(), Explicit: p.Explicit.Clone(), Ho: p.Ho.Clone(), EpsilonH: p.EpsilonH}
	fs := durable.NewMemFS()
	opts := append([]Option{WithDurabilityFS(fs, "st", DurabilityPolicy{Sync: SyncAlways}),
		WithUpdatePolicy(UpdatePolicy{CompactionRatio: 1e-12})}, durTight...)
	s, err := Prepare(p, MethodLinBP, opts...)
	if err != nil {
		t.Fatal(err)
	}
	hd := p.Ho.Data()
	for i := range hd {
		hd[i] *= 3
	}
	ctx := context.Background()
	u := Update{AddEdges: absentEdges(p.Graph, 1, 3)}
	served, err := s.Update(ctx, u)
	if err != nil && !errors.Is(err, ErrNotConverged) {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Rebuilds != 1 {
		t.Fatalf("Rebuilds = %d, want the forced compaction", st.Rebuilds)
	}
	applyMirror(atPrepare, u)
	want := freshSolve(t, atPrepare, MethodLinBP, atPrepare.Explicit, durTight...)
	if d := maxAbsDiff(served.Beliefs, want); d > 1e-12 {
		t.Errorf("served fixpoint differs from the problem as prepared by %g", d)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := OpenFS(fs, "st", durTight...)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	recovered, err := r.Update(ctx, Update{})
	if err != nil && !errors.Is(err, ErrNotConverged) {
		t.Fatal(err)
	}
	if d := maxAbsDiff(recovered.Beliefs, served.Beliefs); d > 1e-12 {
		t.Errorf("recovered fixpoint differs from the served one by %g", d)
	}
}

// TestPrepareCopiesGraph is the same pin for BP's and SBP's
// Problem.Graph: edges the caller adds to its graph after a durable
// Prepare reach neither the next Update's fixpoint nor the recovered
// one.
func TestPrepareCopiesGraph(t *testing.T) {
	for _, m := range []Method{MethodBP, MethodSBP} {
		p := randomProblem(t, 70, 150, 3, 0.05, 29)
		atPrepare := &Problem{Graph: p.Graph.Clone(), Explicit: p.Explicit.Clone(), Ho: p.Ho, EpsilonH: p.EpsilonH}
		fs := durable.NewMemFS()
		opts := append([]Option{WithDurabilityFS(fs, "st", DurabilityPolicy{Sync: SyncAlways})}, durTight...)
		s, err := Prepare(p, m, opts...)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range absentEdges(p.Graph, 4, 7) {
			p.Graph.AddEdge(e.S, e.T, e.W)
		}
		ctx := context.Background()
		u := Update{AddEdges: absentEdges(atPrepare.Graph, 1, 3)}
		served, err := s.Update(ctx, u)
		if err != nil && !errors.Is(err, ErrNotConverged) {
			t.Fatal(err)
		}
		applyMirror(atPrepare, u)
		want := freshSolve(t, atPrepare, m, atPrepare.Explicit, durTight...)
		if d := maxAbsDiff(served.Beliefs, want); d > 1e-12 {
			t.Errorf("%v: served fixpoint differs from the problem as prepared by %g", m, d)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		r, err := OpenFS(fs, "st", durTight...)
		if err != nil {
			t.Fatal(err)
		}
		recovered, err := r.Update(ctx, Update{})
		if err != nil && !errors.Is(err, ErrNotConverged) {
			t.Fatal(err)
		}
		if d := maxAbsDiff(recovered.Beliefs, served.Beliefs); d > 1e-12 {
			t.Errorf("%v: recovered fixpoint differs from the served one by %g", m, d)
		}
		r.Close()
	}
}
