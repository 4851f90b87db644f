package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/beliefs"
	"repro/internal/durable"
	"repro/internal/errs"
	"repro/internal/graph"
)

// TestTopologyUpdateBesideHeldSolve pins that publishing an epoch waits
// for no solve: while a solve holds the solver's read side (taken through
// the solve entry's begin), a topology Update commits, publishes and
// re-solves, for every method. The held solve would be reading the
// previous epoch; nothing the Update does needs it to finish.
func TestTopologyUpdateBesideHeldSolve(t *testing.T) {
	for _, m := range []Method{MethodLinBP, MethodLinBPStar, MethodFABP, MethodBP, MethodSBP} {
		t.Run(m.String(), func(t *testing.T) {
			k := 3
			if m == MethodFABP {
				k = 2
			}
			p := kronProblem(t, 4, k)
			s, err := Prepare(p, m, WithMaxIter(300))
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			ctx := context.Background()
			if _, err := s.Update(ctx, Update{}); err != nil && !errors.Is(err, ErrNotConverged) {
				t.Fatal(err)
			}
			d := s.(*dynSolver)
			if !d.begin() {
				t.Fatal("begin on an open solver failed")
			}
			held := d.cur.Load()
			done := make(chan error, 1)
			go func() {
				_, err := s.Update(ctx, Update{AddEdges: absentEdges(p.Graph, 2, 5)})
				done <- err
			}()
			select {
			case err := <-done:
				d.end()
				if err != nil && !errors.Is(err, ErrNotConverged) {
					t.Fatal(err)
				}
			case <-time.After(5 * time.Second):
				d.end()
				<-done
				t.Fatal("a topology Update waited for a solve holding the read side")
			}
			if d.cur.Load() == held || s.Stats().Epoch != 1 {
				t.Errorf("the Update published no epoch: Epoch = %d", s.Stats().Epoch)
			}
		})
	}
}

// TestBPSelfLoopUpdateRejectedBeforeLog: BP's directed-edge layout
// refuses a self-loop, so a BP Update carrying one must fail validation
// — nothing logged, nothing committed. The next Update then succeeds,
// Updates counts only it, and the durable state reopens (a logged
// self-loop would fail every later Update's swap and every replay).
func TestBPSelfLoopUpdateRejectedBeforeLog(t *testing.T) {
	p := kronProblem(t, 4, 3)
	fs := durable.NewMemFS()
	s, err := Prepare(p, MethodBP, WithDurabilityFS(fs, "st", DurabilityPolicy{Sync: SyncAlways}))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := s.Update(ctx, Update{AddEdges: []graph.Edge{{S: 3, T: 3, W: 1}}}); !errors.Is(err, errs.ErrInvalidInput) {
		t.Fatalf("self-loop Update = %v, want ErrInvalidInput", err)
	}
	if _, err := s.Update(ctx, Update{AddEdges: absentEdges(p.Graph, 2, 3)}); err != nil && !errors.Is(err, ErrNotConverged) {
		t.Fatalf("Update after the rejected self-loop: %v", err)
	}
	if got := s.Stats().Updates; got != 1 {
		t.Errorf("Updates = %d, want 1 (only the update that succeeded)", got)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := OpenFS(fs, "st")
	if err != nil {
		t.Fatalf("OpenFS after a rejected self-loop: %v", err)
	}
	r.Close()
}

// TestOpenHonorsSchedule: Open runs Prepare's option checks and builds
// the solver's identity on the same path, so a recovered kernel solver
// serves its single solves on the configured schedule and rejects the
// option sets Prepare rejects.
func TestOpenHonorsSchedule(t *testing.T) {
	p := randomProblem(t, 80, 200, 3, 0.05, 19)
	fs := durable.NewMemFS()
	s, err := Prepare(p, MethodLinBP, WithDurabilityFS(fs, "st", DurabilityPolicy{Sync: SyncAlways}))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := OpenFS(fs, "st", WithSchedule(ScheduleResidual))
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Stats().Schedule; got != ScheduleResidual {
		t.Errorf("opened solver reports schedule %v, want residual", got)
	}
	info, err := r.SolveInto(context.Background(), beliefs.New(p.Graph.N(), 3), p.Explicit)
	if err != nil {
		t.Fatal(err)
	}
	if info.RowsRelaxed <= 0 {
		t.Errorf("opened residual solver's SolveInto relaxed %d rows, want > 0", info.RowsRelaxed)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	for name, opts := range map[string][]Option{
		"unknown schedule":           {WithSchedule(Schedule(7))},
		"residual with negative tol": {WithSchedule(ScheduleResidual), WithTol(-1)},
	} {
		if r, err := OpenFS(fs, "st", opts...); !errors.Is(err, errs.ErrInvalidInput) {
			if err == nil {
				r.Close()
			}
			t.Errorf("%s: OpenFS = %v, want ErrInvalidInput", name, err)
		}
	}
}

// checkRebuildsAcrossLayout puts pool at the layout after ep's, with
// its idle state of ep's layout still on the free list, and asserts that
// get on an epoch of the new layout builds a state instead of rebinding
// that one: a rebound engine would keep the old layout's row map and
// operator (under WithAutoEpsilonH, the old εH).
func checkRebuildsAcrossLayout[T comparable](t *testing.T, name string, pool *statePool[T], ep *epoch) {
	t.Helper()
	if pool.idle() != 1 {
		t.Fatalf("%s: %d idle states after Prepare, want the one it validated", name, pool.idle())
	}
	old := pool.free[0]
	next := *ep
	next.layout++
	pool.mu.Lock()
	pool.layout = next.layout
	pool.mu.Unlock()
	v, err := pool.get(&next)
	if err != nil {
		t.Fatal(err)
	}
	if v == old {
		t.Errorf("%s: get handed out a state of the previous layout", name)
	}
	for _, x := range pool.all {
		if x == old {
			t.Errorf("%s: the previous layout's state is still registered", name)
		}
	}
	pool.put(v, &next)
}

// TestPoolRebuildsStateOfAnotherLayout pins the bind rule's layout
// check for both kernel pools.
func TestPoolRebuildsStateOfAnotherLayout(t *testing.T) {
	p := kronProblem(t, 4, 3)
	s, err := Prepare(p, MethodLinBP, WithSchedule(ScheduleResidual))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	d := s.(*dynSolver)
	ks := d.plane.(*kernelSolver)
	checkRebuildsAcrossLayout(t, "rounds", ks.chunks[0], d.cur.Load())
	checkRebuildsAcrossLayout(t, "residual", ks.rstates, d.cur.Load())
}

// TestIdleStatesFollowPublishedEpoch: every publish rebinds the idle
// kernel engines to the new epoch, so an engine left idle by a batch
// while updates stream in pins no superseded table.
func TestIdleStatesFollowPublishedEpoch(t *testing.T) {
	p := kronProblem(t, 4, 3)
	s, err := Prepare(p, MethodLinBP, WithSchedule(ScheduleResidual))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ctx := context.Background()
	reqs := make([]Request, 4)
	for i := range reqs {
		reqs[i] = Request{E: p.Explicit}
	}
	for _, r := range s.SolveBatch(ctx, reqs) {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
	}
	for seed := uint64(1); seed <= 3; seed++ {
		if _, err := s.Update(ctx, Update{AddEdges: absentEdges(p.Graph, 2, seed)}); err != nil {
			t.Fatal(err)
		}
	}
	d := s.(*dynSolver)
	cur := d.cur.Load()
	ks := d.plane.(*kernelSolver)
	pooled := 0
	for c, pool := range ks.chunks {
		for _, ce := range pool.free {
			pooled++
			if ce.ep != cur {
				t.Errorf("an idle %d-request engine serves epoch %p, want the published %p", c+1, ce.ep, cur)
			}
		}
	}
	for _, st := range ks.rstates.free {
		if st.ep != cur {
			t.Errorf("an idle residual engine serves epoch %p, want the published %p", st.ep, cur)
		}
	}
	if pooled < 2 {
		t.Fatalf("%d idle rounds engines after a batch, want the batch's chunk engine and the validated one", pooled)
	}
}

// TestCompactionKeepsPrimedEngine: a compaction moves the pools to the
// new layout before it builds the state that validates it, so under
// ScheduleRounds the re-solve after it reuses that engine: one build.
func TestCompactionKeepsPrimedEngine(t *testing.T) {
	p := kronProblem(t, 4, 3)
	s, err := Prepare(p, MethodLinBP, WithSchedule(ScheduleRounds),
		WithUpdatePolicy(UpdatePolicy{CompactionRatio: 1e-12}))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ctx := context.Background()
	if _, err := s.Update(ctx, Update{}); err != nil {
		t.Fatal(err)
	}
	pool := s.(*dynSolver).plane.(*kernelSolver).chunks[0]
	builds := 0
	build := pool.build
	pool.build = func(ep *epoch) (*chunkEngine, error) {
		builds++
		return build(ep)
	}
	if _, err := s.Update(ctx, Update{AddEdges: absentEdges(p.Graph, 2, 3)}); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().Rebuilds; got != 1 {
		t.Fatalf("%d compactions, want 1", got)
	}
	if builds != 1 {
		t.Errorf("a compaction and its re-solve built %d rounds engines, want 1", builds)
	}
	if got := pool.idle(); got != 1 {
		t.Errorf("%d idle rounds engines after the compaction, want 1", got)
	}
}

// TestSolvesBesideRederivingCompactions runs single and batched solves
// while every topology Update compacts, re-deriving εH and replaying
// RCM. Afterwards every idle engine serves the published epoch, and a
// solve matches a fresh Prepare of the final graph at the final εH: no
// engine of an earlier layout (its row map, its εH) was kept.
func TestSolvesBesideRederivingCompactions(t *testing.T) {
	const tol = 1e-9
	p := kronProblem(t, 4, 3)
	opts := []Option{WithAutoEpsilonH(), WithReordering(ReorderRCM), WithSchedule(ScheduleRounds),
		WithMaxIter(400), WithTol(1e-13), WithUpdatePolicy(UpdatePolicy{CompactionRatio: 1e-12})}
	s, err := Prepare(p, MethodLinBP, opts...)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ctx := context.Background()
	if _, err := s.Update(ctx, Update{}); err != nil {
		t.Fatal(err)
	}
	eps0 := s.(*dynSolver).cur.Load().eps
	stop := make(chan struct{})
	done := make(chan error, 2)
	go func() {
		dst := beliefs.New(p.Graph.N(), 3)
		for {
			select {
			case <-stop:
				done <- nil
				return
			default:
			}
			if _, err := s.SolveInto(ctx, dst, p.Explicit); err != nil && !errors.Is(err, ErrNotConverged) {
				done <- err
				return
			}
		}
	}()
	go func() {
		reqs := []Request{{E: p.Explicit}, {E: p.Explicit}}
		for {
			select {
			case <-stop:
				done <- nil
				return
			default:
			}
			for _, r := range s.SolveBatch(ctx, reqs) {
				if r.Err != nil && !errors.Is(r.Err, ErrNotConverged) {
					done <- r.Err
					return
				}
			}
		}
	}()
	final := p.Graph.Clone()
	edges := absentEdges(p.Graph, 24, 11)
	for i := 0; i < len(edges); i += 4 {
		if _, err := s.Update(ctx, Update{AddEdges: edges[i : i+4]}); err != nil && !errors.Is(err, ErrNotConverged) {
			t.Error(err)
		}
		for _, e := range edges[i : i+4] {
			final.AddEdge(e.S, e.T, e.W)
		}
	}
	close(stop)
	for i := 0; i < 2; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	d := s.(*dynSolver)
	cur := d.cur.Load()
	if got := s.Stats().Rebuilds; got != int64(len(edges)/4) {
		t.Fatalf("%d compactions, want %d", got, len(edges)/4)
	}
	if cur.eps == eps0 {
		t.Fatal("the compactions kept εH; the test needs one that re-derives it")
	}
	for c, pool := range d.plane.(*kernelSolver).chunks {
		for _, ce := range pool.free {
			if ce.ep != cur {
				t.Errorf("an idle %d-request engine serves epoch %p (layout %d), want the published %p (layout %d)",
					c+1, ce.ep, ce.ep.layout, cur, cur.layout)
			}
		}
	}
	got := beliefs.New(p.Graph.N(), 3)
	if _, err := s.SolveInto(ctx, got, p.Explicit); err != nil && !errors.Is(err, ErrNotConverged) {
		t.Fatal(err)
	}
	fresh := &Problem{Graph: final, Explicit: p.Explicit, Ho: p.Ho, EpsilonH: cur.eps}
	want := freshSolve(t, fresh, MethodLinBP, p.Explicit, WithReordering(ReorderRCM), WithMaxIter(400), WithTol(1e-13))
	if diff := maxAbsDiff(got, want); diff > tol {
		t.Errorf("solve after the compactions differs from a fresh Prepare by %g (> %g)", diff, tol)
	}
}
