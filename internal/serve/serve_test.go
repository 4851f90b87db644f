package serve

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/beliefs"
	"repro/internal/core"
	"repro/internal/coupling"
	"repro/internal/durable"
	"repro/internal/errs"
	"repro/internal/gen"
	"repro/internal/graph"
)

func testProblem(t testing.TB, n, edges, k int, seed uint64) *core.Problem {
	t.Helper()
	g := gen.Random(n, edges, seed)
	e, _ := beliefs.Seed(n, k, beliefs.SeedConfig{Fraction: 0.08, Seed: seed + 1})
	p := &core.Problem{Graph: g, Explicit: e, Ho: coupling.Homophily(k, 0.8), EpsilonH: 0.05}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	return p
}

func prepared(t testing.TB, p *core.Problem, opts ...core.Option) core.Solver {
	t.Helper()
	s, err := core.Prepare(p, core.MethodLinBP, append([]core.Option{core.WithMaxIter(300)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
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

// typedOrCtx reports whether err carries a taxonomy sentinel or a
// context error — the "no request dropped without a typed error"
// contract.
func typedOrCtx(err error) bool {
	if errs.Classify(err) != "untyped" {
		return true
	}
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// TestServePinsDirectSolve: answers served through the front end must
// match the direct prepared solve bit-for-bit up to batch summation
// order (≤ 1e-12), including under concurrent coalesced callers.
func TestServePinsDirectSolve(t *testing.T) {
	p := testProblem(t, 200, 420, 3, 1)
	s := prepared(t, p)
	want, err := s.Solve(context.Background(), p.Explicit)
	if err != nil {
		t.Fatal(err)
	}
	f := New(s, Config{})
	defer f.Close()

	var wg sync.WaitGroup
	for g := 0; g < 24; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			dst, _, err := f.Solve(context.Background(), p.Explicit)
			if err != nil {
				t.Errorf("served solve: %v", err)
				return
			}
			if d := maxAbsDiff(dst, want.Beliefs); d > 1e-12 {
				t.Errorf("served beliefs diverge by %g", d)
			}
		}()
	}
	wg.Wait()
	st := f.Stats()
	if st.Admitted != 24 || st.Completed != 24 {
		t.Errorf("admitted/completed = %d/%d, want 24/24", st.Admitted, st.Completed)
	}
	if st.Solver.Batches == 0 {
		t.Error("no SolveBatch dispatches: coalescing never happened")
	}
}

// TestAdmissionValidation: malformed requests fail typed at admission
// and never reach the queue or poison a cohort.
func TestAdmissionValidation(t *testing.T) {
	p := testProblem(t, 60, 130, 3, 2)
	f := New(prepared(t, p), Config{})
	defer f.Close()

	if _, _, err := f.Solve(context.Background(), nil); !errors.Is(err, errs.ErrDimensionMismatch) {
		t.Errorf("nil beliefs err = %v, want ErrDimensionMismatch", err)
	}
	if _, _, err := f.Solve(context.Background(), beliefs.New(10, 3)); !errors.Is(err, errs.ErrDimensionMismatch) {
		t.Errorf("wrong shape err = %v, want ErrDimensionMismatch", err)
	}
	bad := p.Explicit.Clone()
	bad.Matrix().Data()[0] = math.NaN()
	if _, _, err := f.Solve(context.Background(), bad); !errors.Is(err, errs.ErrNonFinite) {
		t.Errorf("NaN beliefs err = %v, want ErrNonFinite", err)
	}
	expired, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	if _, _, err := f.Solve(expired, p.Explicit); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("expired ctx err = %v, want DeadlineExceeded", err)
	}
	st := f.Stats()
	if st.RejectedInvalid != 3 || st.Expired != 1 || st.Admitted != 0 {
		t.Errorf("counters invalid=%d expired=%d admitted=%d, want 3/1/0",
			st.RejectedInvalid, st.Expired, st.Admitted)
	}
}

// TestDeadlineBudgetShedding: once the latency estimator has data, a
// request whose remaining budget is under the estimate fails fast
// with ErrDeadlineBudget instead of queueing.
func TestDeadlineBudgetShedding(t *testing.T) {
	p := testProblem(t, 200, 420, 3, 3)
	f := New(prepared(t, p), Config{})
	defer f.Close()
	if _, _, err := f.Solve(context.Background(), p.Explicit); err != nil {
		t.Fatal(err)
	}
	if f.Stats().EstBatch <= 0 {
		t.Fatal("estimator empty after a served batch")
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	_, _, err := f.Solve(ctx, p.Explicit)
	if !errors.Is(err, errs.ErrDeadlineBudget) && !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("starved budget err = %v, want ErrDeadlineBudget (or already expired)", err)
	}
	// With a 1ns budget the request must never have been queued.
	if st := f.Stats(); st.Admitted != 1 {
		t.Errorf("admitted = %d, want 1 (budget-shed request must not queue)", st.Admitted)
	}
}

// poisonSolver wraps a real solver and panics whenever it sees the
// trigger explicit matrix — the compute-plane failure the front end
// must confine.
type poisonSolver struct {
	core.Solver
	trigger *beliefs.Residual
}

func (p *poisonSolver) SolveBatch(ctx context.Context, reqs []core.Request) []core.Response {
	for _, r := range reqs {
		if r.E == p.trigger {
			panic("poisoned request in batch")
		}
	}
	return p.Solver.SolveBatch(ctx, reqs)
}

func (p *poisonSolver) SolveInto(ctx context.Context, dst, e *beliefs.Residual) (core.SolveInfo, error) {
	if e == p.trigger {
		panic("poisoned request alone")
	}
	return p.Solver.SolveInto(ctx, dst, e)
}

// TestPanicIsolation: a panicking request fails alone with
// ErrInternal; its batch cohabitants are retried as singletons and
// still get correct answers; no panic escapes to the caller.
func TestPanicIsolation(t *testing.T) {
	p := testProblem(t, 200, 420, 3, 4)
	s := prepared(t, p)
	want, err := s.Solve(context.Background(), p.Explicit)
	if err != nil {
		t.Fatal(err)
	}
	trigger := p.Explicit.Clone()
	f := New(&poisonSolver{Solver: s, trigger: trigger}, Config{MaxInFlight: 1, MaxBatch: 8})
	defer f.Close()

	// Stall the single worker so the poisoned request and its
	// cohabitants coalesce into one batch.
	release := make(chan struct{})
	go f.Solve(slowCtx(t, release), p.Explicit)

	const cohort = 5
	var wg sync.WaitGroup
	errsCh := make(chan error, cohort+1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, _, err := f.Solve(context.Background(), trigger)
		errsCh <- err
	}()
	for i := 0; i < cohort; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			dst, _, err := f.Solve(context.Background(), p.Explicit)
			if err == nil && maxAbsDiff(dst, want.Beliefs) > 1e-12 {
				err = fmt.Errorf("cohabitant answer diverged")
			}
			errsCh <- err
		}()
	}
	time.Sleep(20 * time.Millisecond) // let the cohort queue up
	close(release)
	wg.Wait()
	close(errsCh)

	var internal, ok int
	for err := range errsCh {
		switch {
		case err == nil:
			ok++
		case errors.Is(err, errs.ErrInternal):
			internal++
		default:
			t.Errorf("unexpected cohort error: %v", err)
		}
	}
	if internal != 1 || ok != cohort {
		t.Errorf("internal=%d ok=%d, want exactly 1 ErrInternal and %d clean answers", internal, ok, cohort)
	}
	if st := f.Stats(); st.Panics == 0 || st.RetriedSingleton == 0 {
		t.Errorf("panics=%d retried=%d: confinement not exercised", st.Panics, st.RetriedSingleton)
	}
}

// slowCtx returns a context the stalling first request blocks on
// until release closes — it pins the worker inside a batch.
func slowCtx(t *testing.T, release <-chan struct{}) context.Context {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		<-release
		cancel()
	}()
	return ctx
}

// walFaultFS makes a WAL append rollback fail so the log latches its
// sticky broken state.
type walFaultFS struct {
	durable.FS
	failTruncate atomic.Bool
}

func (f *walFaultFS) Truncate(path string, size int64) error {
	if f.failTruncate.Load() {
		return fmt.Errorf("serve test: %w", durable.ErrInjected)
	}
	return f.FS.Truncate(path, size)
}

// TestDegradedModeOnWALBreak is the acceptance scenario: a broken WAL
// flips the front end read-only — later writes fail fast with
// ErrDegraded, health reflects it, and solves keep pinning ≤ 1e-12
// against a fresh Prepare of the same problem.
func TestDegradedModeOnWALBreak(t *testing.T) {
	p := testProblem(t, 200, 420, 3, 5)
	mirror := &core.Problem{Graph: p.Graph.Clone(), Explicit: p.Explicit.Clone(), Ho: p.Ho, EpsilonH: p.EpsilonH}
	mem := durable.NewMemFS()
	ffs := &walFaultFS{FS: mem}
	s := prepared(t, p, core.WithTol(1e-13), core.WithMaxIter(500),
		core.WithDurabilityFS(ffs, "st", core.DurabilityPolicy{Sync: core.SyncAlways}))
	f := New(s, Config{})
	defer f.Close()
	if _, err := f.Update(context.Background(), core.Update{}); err != nil {
		t.Fatal(err)
	}

	walPath := durable.Join("st", durable.WALFile)
	size, err := mem.Size(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := mem.FailWritesAfter(walPath, size+10); err != nil {
		t.Fatal(err)
	}
	ffs.failTruncate.Store(true)
	u := core.Update{AddEdges: []graph.Edge{{S: 2, T: 50, W: 1}}}
	if _, err := f.Update(context.Background(), u); err == nil {
		t.Fatal("torn WAL append reported success")
	}
	mem.ClearWriteFault(walPath)
	ffs.failTruncate.Store(false)

	// One more write may be needed to observe the sticky state, then
	// the front end must be latched read-only.
	if !f.Degraded() {
		if _, err := f.Update(context.Background(), u); !errors.Is(err, errs.ErrDegraded) && !errors.Is(err, core.ErrWALBroken) {
			t.Fatalf("update on broken WAL err = %v", err)
		}
	}
	if !f.Degraded() {
		t.Fatal("front end not degraded after sticky WAL failure")
	}
	if _, err := f.Update(context.Background(), u); !errors.Is(err, errs.ErrDegraded) {
		t.Errorf("degraded write err = %v, want fast ErrDegraded", err)
	}
	if f.Stats().DegradedWrites == 0 {
		t.Error("DegradedWrites counter never moved")
	}

	// Reads keep serving the last committed state, pinned against a
	// fresh Prepare of the identical problem.
	fresh := prepared(t, mirror, core.WithTol(1e-13), core.WithMaxIter(500))
	want, err := fresh.Solve(context.Background(), mirror.Explicit)
	if err != nil {
		t.Fatal(err)
	}
	dst, _, err := f.Solve(context.Background(), p.Explicit)
	if err != nil {
		t.Fatal(err)
	}
	if d := maxAbsDiff(dst, want.Beliefs); d > 1e-12 {
		t.Errorf("degraded-mode solve diverges by %g from fresh Prepare", d)
	}
}

// TestBeliefsAndTopK: a successful Update publishes the fixpoint the
// point lookups and top-K reads serve from.
func TestBeliefsAndTopK(t *testing.T) {
	p := testProblem(t, 120, 260, 3, 6)
	f := New(prepared(t, p), Config{})
	defer f.Close()

	if _, err := f.Beliefs(0); !errors.Is(err, errs.ErrInvalidInput) {
		t.Errorf("pre-fixpoint Beliefs err = %v, want ErrInvalidInput", err)
	}
	res, err := f.Update(context.Background(), core.Update{})
	if err != nil && !errors.Is(err, errs.ErrNotConverged) {
		t.Fatal(err)
	}
	row, err := f.Beliefs(7)
	if err != nil {
		t.Fatal(err)
	}
	for j := range row {
		if row[j] != res.Beliefs.Row(7)[j] {
			t.Fatalf("Beliefs(7) = %v, want fixpoint row %v", row, res.Beliefs.Row(7))
		}
	}
	if _, err := f.Beliefs(p.Graph.N()); !errors.Is(err, errs.ErrInvalidInput) {
		t.Errorf("out-of-range node err = %v, want ErrInvalidInput", err)
	}

	top, err := f.TopK(1, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(top) != 5 {
		t.Fatalf("TopK returned %d entries, want 5", len(top))
	}
	for i := 1; i < len(top); i++ {
		if top[i].Belief > top[i-1].Belief {
			t.Errorf("TopK not descending at %d: %v > %v", i, top[i].Belief, top[i-1].Belief)
		}
	}
	if _, err := f.TopK(9, 5); !errors.Is(err, errs.ErrInvalidInput) {
		t.Errorf("bad class err = %v, want ErrInvalidInput", err)
	}
	if _, err := f.TopK(0, 0); !errors.Is(err, errs.ErrInvalidInput) {
		t.Errorf("k=0 err = %v, want ErrInvalidInput", err)
	}
}

// TestDrainAndClose: Drain closes admission typed, flushes in-flight
// work, and leaves the front end answering health honestly; Close
// fails whatever is still queued with ErrClosed.
func TestDrainAndClose(t *testing.T) {
	p := testProblem(t, 120, 260, 3, 7)
	f := New(prepared(t, p), Config{})
	if _, _, err := f.Solve(context.Background(), p.Explicit); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := f.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if !f.Draining() {
		t.Error("Draining() = false after Drain")
	}
	if _, _, err := f.Solve(context.Background(), p.Explicit); !errors.Is(err, errs.ErrDraining) {
		t.Errorf("post-drain solve err = %v, want ErrDraining", err)
	}
	if _, err := f.Update(context.Background(), core.Update{}); !errors.Is(err, errs.ErrDraining) {
		t.Errorf("post-drain update err = %v, want ErrDraining", err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := f.Solve(context.Background(), p.Explicit); !errors.Is(err, errs.ErrClosed) {
		t.Errorf("post-close solve err = %v, want ErrClosed", err)
	}
	if err := f.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
}

// TestClosedLoopOverload is the loadtest acceptance scenario: at ~2×
// saturation every request is answered or shed with a typed error
// (zero silent drops, zero escaped panics), served p99 stays within
// 3× the uncontended batch latency, memory stays bounded, and after
// the burst the front end recovers to clean low-load service without
// a restart.
func TestClosedLoopOverload(t *testing.T) {
	p := testProblem(t, 1500, 4500, 3, 8)
	s := prepared(t, p)
	// One worker and a one-batch queue make the worst admitted wait
	// arithmetically ≤ 3 batch rounds (current batch + queued batch +
	// own), so the p99 bound is a property of the config, not of
	// scheduler luck.
	cfg := Config{MaxInFlight: 1, MaxBatch: 8, MaxQueue: 8}
	f := New(s, cfg)
	defer f.Close()

	// Uncontended baseline: the wall time of one full fused batch.
	reqs := make([]core.Request, cfg.MaxBatch)
	for i := range reqs {
		reqs[i] = core.Request{E: p.Explicit}
	}
	base := time.Duration(math.MaxInt64)
	for i := 0; i < 3; i++ {
		start := time.Now()
		for _, r := range s.SolveBatch(context.Background(), reqs) {
			if r.Err != nil {
				t.Fatal(r.Err)
			}
		}
		if d := time.Since(start); d < base {
			base = d
		}
	}
	budget := 3 * base

	// Overload phase: 2× the clients the serving capacity can hold
	// concurrently, each looping with a 3×-base deadline.
	clients := 2 * cfg.MaxInFlight * cfg.MaxBatch
	perClient := 8
	var wg sync.WaitGroup
	var served, shed, untyped atomic.Int64
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < perClient; r++ {
				ctx, cancel := context.WithTimeout(context.Background(), budget)
				_, _, err := f.Solve(ctx, p.Explicit)
				cancel()
				switch {
				case err == nil:
					served.Add(1)
				case typedOrCtx(err):
					shed.Add(1)
				default:
					untyped.Add(1)
					t.Errorf("untyped drop: %v", err)
				}
			}
		}()
	}
	wg.Wait()

	total := served.Load() + shed.Load() + untyped.Load()
	if got := int64(clients * perClient); total != got {
		t.Fatalf("request accounting: %d outcomes for %d requests — silent drop", total, got)
	}
	if served.Load() == 0 {
		t.Fatal("overload served nothing: shedding collapsed into outage")
	}
	st := f.Stats()
	if st.P99 > budget+budget/2 {
		t.Errorf("served p99 = %v, want <= 1.5x the 3x-base deadline %v", st.P99, budget)
	}
	if st.QueueLen != 0 || st.InFlight != 0 {
		t.Errorf("queue=%d inflight=%d after load stopped, want idle", st.QueueLen, st.InFlight)
	}

	// Memory bounded: the burst's per-request result matrices must be
	// collectable — nothing pinned by the queue or pools.
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	if ms.HeapAlloc > 256<<20 {
		t.Errorf("heap after burst = %d MiB: overload retained memory", ms.HeapAlloc>>20)
	}

	// Recovery phase: sequential low-rate traffic is served cleanly,
	// with no residual shedding.
	preShed := f.Stats().ShedOverload + f.Stats().ShedBudget
	for i := 0; i < 5; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), 10*budget)
		_, _, err := f.Solve(ctx, p.Explicit)
		cancel()
		if err != nil {
			t.Fatalf("recovery solve %d: %v", i, err)
		}
	}
	if post := f.Stats().ShedOverload + f.Stats().ShedBudget; post != preShed {
		t.Errorf("recovery phase shed %d requests, want 0", post-preShed)
	}
}

// gateSolver holds every SolveBatch until release is closed, signalling
// entered once per call — a dispatch worker it can park on demand.
type gateSolver struct {
	core.Solver
	entered chan struct{}
	release chan struct{}
}

func (g *gateSolver) SolveBatch(ctx context.Context, reqs []core.Request) []core.Response {
	g.entered <- struct{}{}
	<-g.release
	return g.Solver.SolveBatch(ctx, reqs)
}

// TestGaugesSettleBeforeAnswer: the QueueLen and InFlight gauges are
// settled by the time a caller has its outcome. (a) A caller that gives
// up while queued behind a busy worker leaves no waiter behind in the
// queue. (b) Sequential solves through one worker each read InFlight 0
// right after the answer arrives.
func TestGaugesSettleBeforeAnswer(t *testing.T) {
	p := testProblem(t, 60, 130, 3, 9)
	t.Run("abandoned", func(t *testing.T) {
		g := &gateSolver{Solver: prepared(t, p), entered: make(chan struct{}, 1), release: make(chan struct{})}
		f := New(g, Config{MaxInFlight: 1})
		defer f.Close()
		first := make(chan error, 1)
		go func() {
			_, _, err := f.Solve(context.Background(), p.Explicit)
			first <- err
		}()
		<-g.entered // the only worker is parked inside SolveBatch
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
		_, _, err := f.Solve(ctx, p.Explicit)
		cancel()
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("queued solve err = %v, want DeadlineExceeded", err)
		}
		if st := f.Stats(); st.QueueLen != 0 {
			t.Errorf("QueueLen = %d right after the queued caller gave up, want 0", st.QueueLen)
		}
		close(g.release)
		if err := <-first; err != nil {
			t.Fatal(err)
		}
	})
	t.Run("sequential", func(t *testing.T) {
		f := New(prepared(t, p), Config{MaxInFlight: 1})
		defer f.Close()
		const solves = 3000
		busy := 0
		for i := 0; i < solves; i++ {
			if _, _, err := f.Solve(context.Background(), p.Explicit); err != nil {
				t.Fatal(err)
			}
			if st := f.Stats(); st.InFlight != 0 || st.QueueLen != 0 {
				busy++
			}
		}
		if busy != 0 {
			t.Errorf("%d of %d answered solves read a busy front end (InFlight or QueueLen != 0)", busy, solves)
		}
	})
}

// TestEveryShedPathIsTyped sweeps the front end's rejection paths and
// asserts each error classifies into the taxonomy — the analyzer-less
// half of the "never drop a request without a typed error" gate.
func TestEveryShedPathIsTyped(t *testing.T) {
	p := testProblem(t, 60, 130, 3, 9)
	f := New(prepared(t, p), Config{})
	rejections := []error{}
	collect := func(_ *beliefs.Residual, _ core.SolveInfo, err error) {
		if err != nil {
			rejections = append(rejections, err)
		}
	}
	collect(f.Solve(context.Background(), nil))
	collect(f.Solve(context.Background(), beliefs.New(2, 2)))
	expired, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Hour))
	defer cancel()
	collect(f.Solve(expired, p.Explicit))
	if err := f.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	collect(f.Solve(context.Background(), p.Explicit))
	f.Close()
	collect(f.Solve(context.Background(), p.Explicit))

	if len(rejections) != 5 {
		t.Fatalf("expected 5 rejections, got %d", len(rejections))
	}
	for _, err := range rejections {
		if !typedOrCtx(err) {
			t.Errorf("rejection not typed: %v (class %q)", err, errs.Classify(err))
		}
	}
}

// BenchmarkServeSolve is the closed-loop serving benchmark behind
// `make bench-serve`: b.N requests pushed through the front end by
// GOMAXPROCS clients, coalescing into fused batches.
func BenchmarkServeSolve(b *testing.B) {
	p := testProblem(b, 1500, 4500, 3, 10)
	s := prepared(b, p)
	f := New(s, Config{})
	defer f.Close()
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, _, err := f.Solve(context.Background(), p.Explicit); err != nil {
				b.Fatal(err)
			}
		}
	})
}
