package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"repro/internal/beliefs"
	"repro/internal/durable"
	"repro/internal/graph"
)

// expiredCtx returns a context whose deadline has already passed.
func expiredCtx(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Minute))
	t.Cleanup(cancel)
	return ctx
}

// TestExpiredContextRejectedBeforeKernel pins the admission contract
// for every method and every solve entry point: a request carrying an
// already-expired deadline returns context.DeadlineExceeded without
// running a single kernel round. (Cancellation used to be observed
// only at round boundaries, so a dead request still paid for rounds.)
func TestExpiredContextRejectedBeforeKernel(t *testing.T) {
	for _, m := range []Method{MethodBP, MethodLinBP, MethodLinBPStar, MethodSBP, MethodFABP} {
		t.Run(m.String(), func(t *testing.T) {
			k := 3
			if m == MethodFABP {
				k = 2
			}
			p := randomProblem(t, 40, 90, k, 0.05, 7)
			s, err := Prepare(p, m, WithMaxIter(200))
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			ctx := expiredCtx(t)

			if _, err := s.Solve(ctx, p.Explicit); !errors.Is(err, context.DeadlineExceeded) {
				t.Errorf("Solve err = %v, want DeadlineExceeded", err)
			}
			dst := beliefs.New(p.Graph.N(), k)
			if _, err := s.SolveInto(ctx, dst, p.Explicit); !errors.Is(err, context.DeadlineExceeded) {
				t.Errorf("SolveInto err = %v, want DeadlineExceeded", err)
			}
			reqs := []Request{{E: p.Explicit}, {E: p.Explicit}, {E: p.Explicit}}
			for i, r := range s.SolveBatch(ctx, reqs) {
				if !errors.Is(r.Err, context.DeadlineExceeded) {
					t.Errorf("SolveBatch[%d] err = %v, want DeadlineExceeded", i, r.Err)
				}
			}
			if st := s.Stats(); st.Iterations != 0 {
				t.Errorf("%d kernel iterations ran for dead-on-arrival requests", st.Iterations)
			}
		})
	}
}

// TestStatePoolBoundedAfterBurst covers the free-list high-water cap
// in isolation: a burst checks out far more states than the cap, and
// on return the pool retains at most maxFree, destroys the excess
// exactly once each, and drops them from the Close registry.
func TestStatePoolBoundedAfterBurst(t *testing.T) {
	built, destroyed := 0, 0
	p := newStatePool(func(*epoch) (*int, error) {
		built++
		v := built
		return &v, nil
	}, func(*int, *epoch) bool { return true }).withDestroy(func(*int) { destroyed++ })
	ep := &epoch{}
	p.maxFree = 3

	const burst = 20
	out := make([]*int, burst)
	for i := range out {
		v, err := p.get(ep)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = v
	}
	if built != burst {
		t.Fatalf("built %d states for a burst of %d", built, burst)
	}
	for _, v := range out {
		p.put(v, ep)
	}
	if got := p.idle(); got != 3 {
		t.Errorf("idle after burst = %d, want maxFree = 3", got)
	}
	if destroyed != burst-3 {
		t.Errorf("destroyed = %d, want %d (burst minus cap)", destroyed, burst-3)
	}
	if len(p.all) != 3 {
		t.Errorf("registry holds %d states, want 3 (destroyed ones must leave it)", len(p.all))
	}
	p.closeAll()
	if destroyed != burst {
		t.Errorf("after closeAll destroyed = %d, want every built state (%d)", destroyed, burst)
	}
}

// TestSolverPoolShrinksAfterBurst is the end-to-end memory-regression
// guard for the cap: a burst of concurrent solves on one shared
// prepared solver must not leave more idle engines pooled than the
// high-water mark.
func TestSolverPoolShrinksAfterBurst(t *testing.T) {
	p := randomProblem(t, 60, 130, 3, 0.05, 11)
	s, err := Prepare(p, MethodLinBP, WithMaxIter(300))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	pool := s.(*dynSolver).plane.(*kernelSolver).chunks[0]

	const burst = 4 * 16
	var wg sync.WaitGroup
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			dst := beliefs.New(p.Graph.N(), 3)
			if _, err := s.SolveInto(context.Background(), dst, p.Explicit); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if got, cap := pool.idle(), pool.maxFree; got > cap {
		t.Errorf("idle engines after burst = %d, want <= high-water cap %d", got, cap)
	}
}

// TestBatchHintPerMethod pins the batch-shape hint the serving front
// end sizes its coalescing window from: the fused-kernel methods
// report batchWidth/k, the sequential ones 1.
func TestBatchHintPerMethod(t *testing.T) {
	cases := []struct {
		m    Method
		k    int
		want int
	}{
		{MethodLinBP, 2, 6},
		{MethodLinBP, 3, 4},
		{MethodLinBPStar, 3, 4},
		{MethodBP, 3, 1},
		{MethodSBP, 3, 1},
		{MethodFABP, 2, 6},
	}
	for _, c := range cases {
		p := randomProblem(t, 30, 60, c.k, 0.05, 13)
		s, err := Prepare(p, c.m, WithMaxIter(100))
		if err != nil {
			t.Fatal(err)
		}
		want := c.want
		if c.m == MethodBP || c.m == MethodSBP || c.m == MethodFABP {
			want = 1 // sequential batch paths
		}
		if got := s.Stats().BatchHint; got != want {
			t.Errorf("%v k=%d BatchHint = %d, want %d", c.m, c.k, got, want)
		}
		s.Close()
	}
}

// TestBatchChunkIsolation pins the cohort-failure contract: a request
// whose explicit beliefs blow the iteration up to ±Inf fails its own
// fused chunk with ErrNonFinite, and the batch's remaining chunks
// still solve correctly. (The whole batch used to fail once any chunk
// reported an engine error.)
func TestBatchChunkIsolation(t *testing.T) {
	p := randomProblem(t, 60, 130, 3, 0.05, 17)
	s, err := Prepare(p, MethodLinBP, WithMaxIter(300))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	// k=3 fuses 4 requests per chunk: requests 0–3 are the poisoned
	// cohort, 4–7 the innocent second chunk.
	poisoned := p.Explicit.Clone()
	pd := poisoned.Matrix().Data()
	pd[0], pd[1], pd[2] = math.MaxFloat64, -math.MaxFloat64, math.MaxFloat64

	reqs := make([]Request, 8)
	for i := range reqs {
		reqs[i] = Request{E: p.Explicit}
	}
	reqs[1].E = poisoned

	want, err := s.Solve(context.Background(), p.Explicit)
	if err != nil {
		t.Fatal(err)
	}
	resp := s.SolveBatch(context.Background(), reqs)
	for i := 0; i < 4; i++ {
		if !errors.Is(resp[i].Err, ErrNonFinite) {
			t.Errorf("poisoned chunk resp[%d].Err = %v, want ErrNonFinite", i, resp[i].Err)
		}
	}
	for i := 4; i < 8; i++ {
		if resp[i].Err != nil {
			t.Errorf("innocent chunk resp[%d].Err = %v, want nil", i, resp[i].Err)
			continue
		}
		if d := maxAbsDiff(resp[i].Beliefs, want.Beliefs); d > 1e-12 {
			t.Errorf("innocent chunk resp[%d] diverges by %g from the one-shot solve", i, d)
		}
	}
}

// walFaultFS overlays Truncate failure injection over a MemFS so an
// append rollback fails and the WAL latches its broken state.
type walFaultFS struct {
	durable.FS
	failTruncate bool
}

func (f *walFaultFS) Truncate(path string, size int64) error {
	if f.failTruncate {
		return fmt.Errorf("core test: %w", durable.ErrInjected)
	}
	return f.FS.Truncate(path, size)
}

// TestWALBrokenLatchesDegraded drives the durable plane into its
// sticky broken-WAL state and pins the degradation contract: the
// failing Update immediately latches SolverStats.Degraded, later
// Updates fail typed with ErrWALBroken, and solves keep answering
// from the last committed state.
func TestWALBrokenLatchesDegraded(t *testing.T) {
	p := randomProblem(t, 60, 130, 3, 0.05, 19)
	mem := durable.NewMemFS()
	ffs := &walFaultFS{FS: mem}
	s, err := Prepare(p, MethodLinBP, append(durTight,
		WithDurabilityFS(ffs, "st", DurabilityPolicy{Sync: SyncAlways}))...)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Update(context.Background(), Update{}); err != nil {
		t.Fatal(err)
	}
	if s.Stats().Degraded {
		t.Fatal("Degraded latched before any durable failure")
	}

	// Tear the next append mid-frame and make its rollback truncate
	// fail: the WAL is now stickily broken.
	walPath := durable.Join("st", durable.WALFile)
	size, err := mem.Size(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := mem.FailWritesAfter(walPath, size+10); err != nil {
		t.Fatal(err)
	}
	ffs.failTruncate = true
	u := Update{AddEdges: []graph.Edge{{S: 2, T: 50, W: 1}}}
	if _, err := s.Update(context.Background(), u); err == nil {
		t.Fatal("torn append committed")
	}
	mem.ClearWriteFault(walPath)
	ffs.failTruncate = false

	if !s.Stats().Degraded {
		t.Error("Degraded not latched by the torn append that broke the WAL")
	}
	if _, err := s.Update(context.Background(), u); !errors.Is(err, ErrWALBroken) {
		t.Errorf("Update on broken WAL err = %v, want ErrWALBroken", err)
	}
	// Reads keep serving: the maintained state never saw the torn
	// batch, so solves must match a fresh prepare of the same problem.
	mirror := &Problem{Graph: p.Graph.Clone(), Explicit: p.Explicit.Clone(), Ho: p.Ho, EpsilonH: p.EpsilonH}
	want := freshSolve(t, mirror, MethodLinBP, mirror.Explicit, durTight...)
	res, err := s.Solve(context.Background(), p.Explicit)
	if err != nil {
		t.Fatal(err)
	}
	if d := maxAbsDiff(res.Beliefs, want); d > 1e-12 {
		t.Errorf("degraded-mode solve diverges by %g from fresh prepare", d)
	}
}
