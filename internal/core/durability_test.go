package core

import (
	"context"
	"errors"
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/beliefs"
	"repro/internal/coupling"
	"repro/internal/durable"
	"repro/internal/errs"
	"repro/internal/graph"
	"repro/internal/order"
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

// TestOpenIgnoresPartitionSection opens snapshots carrying the
// partition section that builds with a partition-parallel plane wrote.
// A section that is not an ascending list spanning [0, n) is corrupt
// state; a valid one
// opens and serves the writer's answer bitwise (that plane matched the
// serial kernel bitwise, so the section changes no answer), and the
// checkpoint after the next Update carries no section.
func TestOpenIgnoresPartitionSection(t *testing.T) {
	ctx := context.Background()
	p := randomProblem(t, 90, 200, 3, 0.05, 43)
	fs := durable.NewMemFS()
	s, err := Prepare(p, MethodLinBP, append([]Option{WithDurabilityFS(fs, "st", DurabilityPolicy{Sync: SyncAlways})}, durTight...)...)
	if err != nil {
		t.Fatal(err)
	}
	want, err := s.Solve(ctx, p.Explicit)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	snap, err := durable.LoadSnapshot(fs, "st")
	if err != nil {
		t.Fatal(err)
	}
	if snap.PartStarts != nil {
		t.Fatalf("Prepare wrote partition section %v", snap.PartStarts)
	}
	n := snap.N
	rewrite := func(t *testing.T, starts []int) {
		t.Helper()
		snap.PartStarts = starts
		if err := durable.WriteSnapshot(fs, "st", snap); err != nil {
			t.Fatal(err)
		}
	}
	for _, bad := range []struct {
		name   string
		starts []int
	}{
		{"short", []int{0, n / 2}},
		{"past-end", []int{0, n / 2, n + 1}},
		{"wrong-origin", []int{1, n / 2, n}},
		{"descending", []int{0, n/2 + 1, n / 2, n}},
		{"single-bound", []int{0}},
	} {
		t.Run("corrupt/"+bad.name, func(t *testing.T) {
			rewrite(t, bad.starts)
			if _, err := OpenFS(fs, "st", durTight...); !errors.Is(err, ErrCorruptState) {
				t.Fatalf("partition section %v: Open = %v, want ErrCorruptState", bad.starts, err)
			}
		})
	}
	rewrite(t, []int{0, n / 2, n})
	snap.Close()

	opts := append([]Option{WithWorkers(2), WithUpdatePolicy(UpdatePolicy{CompactionRatio: 1e-12})}, durTight...)
	r, err := OpenFS(fs, "st", opts...)
	if err != nil {
		t.Fatal(err)
	}
	got, err := r.Solve(ctx, p.Explicit)
	if err != nil {
		t.Fatal(err)
	}
	if got.Iterations != want.Iterations || !slices.Equal(got.Beliefs.Matrix().Data(), want.Beliefs.Matrix().Data()) {
		t.Fatalf("reopened solve (%d rounds) differs from the writer's (%d rounds)", got.Iterations, want.Iterations)
	}
	// A compacting Update checkpoints the recovered state.
	if _, err := r.Update(ctx, Update{AddEdges: absentEdges(p.Graph, 2, 5)}); err != nil {
		t.Fatal(err)
	}
	if st := r.Stats(); st.Rebuilds != 1 {
		t.Fatalf("Rebuilds = %d, want 1", st.Rebuilds)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	next, err := durable.LoadSnapshot(fs, "st")
	if err != nil {
		t.Fatal(err)
	}
	defer next.Close()
	if next.WALSeq != 1 || next.PartStarts != nil {
		t.Fatalf("checkpoint after the Update: WALSeq %d, partition section %v; want 1 and none", next.WALSeq, next.PartStarts)
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

// TestBPMultigraphRecovers: BP passes one message pair per adjacent
// pair, so a doubled edge collapses as it does in the adjacency, the
// checkpoint, and Open. A durable BP solver on a 6-ring with a chord and
// one doubled edge answers the same after Close and Open, and the same
// as a solver whose graph holds the pair once.
func TestBPMultigraphRecovers(t *testing.T) {
	ring := func(double bool) *graph.Graph {
		g := graph.New(6)
		for i := 0; i < 6; i++ {
			g.AddUnitEdge(i, (i+1)%6)
		}
		g.AddUnitEdge(0, 3)
		if double {
			g.AddUnitEdge(1, 2)
		}
		return g
	}
	e := beliefs.New(6, 3)
	e.Set(0, beliefs.LabelResidual(3, 0, 0.1))
	e.Set(4, beliefs.LabelResidual(3, 2, 0.1))
	solve := func(s Solver) *beliefs.Residual {
		t.Helper()
		dst := beliefs.New(6, 3)
		if _, err := s.SolveInto(context.Background(), dst, e); err != nil && !errors.Is(err, ErrNotConverged) {
			t.Fatal(err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		return dst
	}
	problem := func(double bool) *Problem {
		return &Problem{Graph: ring(double), Explicit: e, Ho: coupling.Fig6bResidual(), EpsilonH: 0.3}
	}
	fs := durable.NewMemFS()
	s, err := Prepare(problem(true), MethodBP, WithDurabilityFS(fs, "st", DurabilityPolicy{Sync: SyncAlways}))
	if err != nil {
		t.Fatal(err)
	}
	prepared := solve(s)
	r, err := OpenFS(fs, "st")
	if err != nil {
		t.Fatal(err)
	}
	recovered := solve(r)
	once, err := Prepare(problem(false), MethodBP)
	if err != nil {
		t.Fatal(err)
	}
	want := solve(once)
	if d := maxAbsDiff(recovered, prepared); d > 1e-12 {
		t.Errorf("recovered BP differs from the prepared one by %g", d)
	}
	if d := maxAbsDiff(prepared, want); d > 1e-12 {
		t.Errorf("BP on the doubled edge differs from the pair held once by %g", d)
	}
}

// TestOpenGraphOrderImage: an image holding the caller-order adjacency
// (GraphOrder, as BP and SBP checkpoints were written before they served
// from the layout table) still opens for BP and SBP, permuted into
// layout order, and answers what a fresh Prepare answers. A kernel
// method never wrote one, so it refuses the image, and BP and SBP
// refuse one whose pattern is not symmetric.
func TestOpenGraphOrderImage(t *testing.T) {
	ctx := context.Background()
	p := randomProblem(t, 80, 170, 3, 0.05, 31)
	a := p.Graph.Adjacency()
	perm, chosen := order.Compute(ReorderRCM, a)
	if perm == nil {
		t.Fatal("RCM kept the natural order; the image would not exercise the relabeling")
	}
	rowPtr, _, vals := a.Index()
	_, cols, ok := a.CompactIndex()
	if !ok {
		t.Fatal("no compact index")
	}
	for _, m := range []Method{MethodBP, MethodSBP, MethodLinBP} {
		t.Run(m.String(), func(t *testing.T) {
			fs := durable.NewMemFS()
			img := &durable.Snapshot{
				Method: uint32(m), Ordering: chosen.Code(), N: p.Graph.N(), K: p.K(), EpsH: p.EpsilonH,
				BandBefore: order.Bandwidth(a, nil), BandAfter: order.Bandwidth(a, perm), GraphOrder: true,
				Perm: []int(perm), RowPtr: rowPtr, ColIdx32: cols, Vals: vals,
				HO: p.Ho.Data(), Explicit: p.Explicit.Matrix().Data(),
			}
			if err := durable.WriteSnapshot(fs, "st", img); err != nil {
				t.Fatal(err)
			}
			r, err := OpenFS(fs, "st", durTight...)
			if m == MethodLinBP {
				if !errors.Is(err, ErrCorruptState) {
					t.Fatalf("Open = %v, want ErrCorruptState", err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			// Drop the first stored entry of row 0 and keep its mirror.
			if rowPtr[1] == 0 {
				t.Fatal("row 0 stores no entry to drop")
			}
			asym := *img
			asym.RowPtr = append([]int(nil), rowPtr...)
			for i := 1; i < len(asym.RowPtr); i++ {
				asym.RowPtr[i]--
			}
			asym.ColIdx32, asym.Vals = cols[1:], vals[1:]
			if err := durable.WriteSnapshot(fs, "asym", &asym); err != nil {
				t.Fatal(err)
			}
			if _, err := OpenFS(fs, "asym", durTight...); !errors.Is(err, ErrCorruptState) || !strings.Contains(err.Error(), "not symmetric") {
				t.Fatalf("Open of an asymmetric graph-order image = %v, want ErrCorruptState for the pattern", err)
			}
			want := freshSolve(t, p, m, p.Explicit, append([]Option{WithReordering(ReorderRCM)}, durTight...)...)
			got, err := r.Update(ctx, Update{})
			if err != nil && !errors.Is(err, ErrNotConverged) {
				t.Fatal(err)
			}
			if d := maxAbsDiff(got.Beliefs, want); d > 1e-12 {
				t.Errorf("opened graph-order image differs from a fresh Prepare by %g", d)
			}
		})
	}
}
