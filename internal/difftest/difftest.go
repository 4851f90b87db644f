// Package difftest is the reusable differential-correctness harness of
// the repository: it solves one identical problem instance under every
// serving configuration axis the prepared-Solver API exposes — method,
// class count, prepare-time reordering, and kernel worker count (the
// serial kernel or the span pool) — and asserts that every variant
// reproduces the reference configuration within a tight divergence
// bound (1e-12 by default; the kernel planes are in fact bitwise
// identical, the reordered ones differ only by summation order).
//
// It replaces the per-PR ad-hoc equivalence tests: a PR that adds a new
// execution plane or configuration axis extends Variants once and every
// method × k combination is covered, including the fuzzed edge-list
// entry point (FuzzLinBPEquivalence in this package's tests).
//
// The dynamic half of the harness (RunDynamic/RunDynamicMatrix) checks
// the epoch-versioned update plane: any stream of edge inserts,
// deletes, and relabels applied through Solver.Update — under every
// ordering × plane × schedule variant and every compaction policy,
// including forced rebuilds — must land within the same bound of a
// fresh Prepare+Solve on the final graph. FuzzDynamicEquivalence is
// the fuzzed entry point for byte-encoded update streams.
package difftest

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"repro/internal/beliefs"
	"repro/internal/core"
	"repro/internal/coupling"
	"repro/internal/dense"
	"repro/internal/errs"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/kernel"
	"repro/internal/xrand"
)

// DefaultTol is the divergence bound variants must stay within.
const DefaultTol = 1e-12

// ResidualScheduleTol is the divergence bound for residual-scheduled
// variants — the documented tolerance ladder of the schedule axis. The
// rounds-scheduled variants differ from the reference only by
// summation order (DefaultTol, near-bitwise); the residual plane
// relaxes rows in a data-dependent order and stops on a per-row
// residual bound, so each side is within ‖(I−M)⁻¹‖·tol_solve of the
// unique fixpoint and their distance is bounded by a small multiple of
// the solve tolerance, not by rounding noise. With the suite's solve
// tolerances (≤ 1e-12) the observed gap stays well under 1e-9.
const ResidualScheduleTol = 1e-9

// Ks is the class-count axis: the paper's experiment shapes (2, 3, 5)
// plus k = 1, the scalar collapse of Appendix E. The Problem surface
// requires k ≥ 2 (beliefs.New), so the k = 1 cell runs the kernel-level
// differential check (RunKernelK1) over the same configuration axes
// instead of the prepared-Solver one.
var Ks = []int{1, 2, 3, 5}

// Methods is the method axis: all five methods of the Problem surface.
var Methods = []core.Method{
	core.MethodBP, core.MethodLinBP, core.MethodLinBPStar, core.MethodSBP, core.MethodFABP,
}

// Variant is one point on the configuration axes. Tol, when positive,
// overrides the run's divergence bound for this variant — the
// tolerance-ladder hook the schedule axis uses (see
// ResidualScheduleTol).
type Variant struct {
	Name string
	Opts []core.Option
	Tol  float64
}

// bound resolves the effective divergence bound for the variant.
func (v Variant) bound(tol float64) float64 {
	if v.Tol > 0 {
		return v.Tol
	}
	return tol
}

// Reference is the baseline configuration every variant is compared
// against: natural order, serial.
func Reference() Variant {
	return Variant{Name: "reference", Opts: []core.Option{core.WithReordering(core.ReorderNone)}}
}

// Variants enumerates the configuration axes for a method: the full
// ordering × workers cross product for the kernel-backed methods, and the ordering axis alone for the
// message-passing methods (BP, SBP), which consume no kernel options.
func Variants(m core.Method) []Variant {
	orderings := []struct {
		name string
		r    core.Reordering
	}{
		{"natural", core.ReorderNone},
		{"rcm", core.ReorderRCM},
		{"degree", core.ReorderDegree},
	}
	var out []Variant
	if m == core.MethodBP || m == core.MethodSBP {
		for _, o := range orderings {
			out = append(out, Variant{
				Name: fmt.Sprintf("order=%s", o.name),
				Opts: []core.Option{core.WithReordering(o.r)},
			})
		}
		return out
	}
	for _, o := range orderings {
		for _, workers := range []int{0, 4} {
			out = append(out, Variant{
				Name: fmt.Sprintf("order=%s/workers=%d", o.name, workers),
				Opts: []core.Option{
					core.WithReordering(o.r),
					core.WithWorkers(workers),
				},
			})
		}
	}
	return out
}

// Problem builds the deterministic random instance the matrix runs on:
// a random graph with explicit beliefs on ~8% of the nodes and the
// k-class homophily coupling. k must be ≥ 2 (the Problem surface's
// floor); the k = 1 axis runs through RunKernelK1.
func Problem(n, edges, k int, seed uint64) (*core.Problem, error) {
	if k < 2 {
		return nil, fmt.Errorf("difftest: Problem needs k >= 2, got %d (use RunKernelK1): %w", k, errs.ErrInvalidInput)
	}
	g := gen.Random(n, edges, seed)
	ho := coupling.Homophily(k, 0.8)
	e, _ := beliefs.Seed(n, k, beliefs.SeedConfig{Fraction: 0.08, Seed: seed + 1})
	p := &core.Problem{Graph: g, Explicit: e, Ho: ho, EpsilonH: 0.01}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// Skip reports whether a method × k combination is outside the Problem
// surface (FABP is defined for k = 2 only).
func Skip(m core.Method, k int) bool {
	return m == core.MethodFABP && k != 2
}

// Run solves p with method m under the reference configuration and
// every variant, asserting that all results agree within tol (≤ 0
// selects DefaultTol). extra options (iteration caps, tolerances) are
// appended to every configuration so the comparison runs under
// identical stopping rules. Non-convergence within the iteration cap
// is fine — the iterates are still compared.
func Run(t testing.TB, p *core.Problem, m core.Method, tol float64, extra ...core.Option) {
	if tol <= 0 {
		tol = DefaultTol
	}
	want := solveOnce(t, p, m, Reference(), extra)
	for _, v := range Variants(m) {
		got := solveOnce(t, p, m, v, extra)
		if vtol := v.bound(tol); maxAbsDiff(got, want) > vtol {
			t.Errorf("%v %s: diverges from reference by %g (tol %g)", m, v.Name, maxAbsDiff(got, want), vtol)
		}
	}
}

// RunMatrix runs the full method × k matrix on deterministic random
// instances — the canonical differential suite. Each cell runs as a
// subtest so failures name their exact configuration. The k = 1 cell
// exercises the scalar kernel through RunKernelK1.
func RunMatrix(t *testing.T, n, edges int, seed uint64, extra ...core.Option) {
	for _, k := range Ks {
		if k == 1 {
			t.Run("kernel/k=1", func(t *testing.T) {
				RunKernelK1(t, n, edges, seed, DefaultTol)
			})
			continue
		}
		p, err := Problem(n, edges, k, seed)
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		for _, m := range Methods {
			if Skip(m, k) {
				continue
			}
			t.Run(fmt.Sprintf("%v/k=%d", m, k), func(t *testing.T) {
				Run(t, p, m, DefaultTol, extra...)
			})
		}
	}
}

// RunKernelK1 is the k = 1 cell of the matrix: the scalar kernel (the
// engine behind FABP's Appendix E collapse) run serially and on the
// span pool, and compared to the serial reference within tol after a
// fixed number of rounds.
func RunKernelK1(t testing.TB, n, edges int, seed uint64, tol float64) {
	if tol <= 0 {
		tol = DefaultTol
	}
	a := gen.Random(n, edges, seed).Adjacency()
	d := a.RowSumsSquared()
	h := dense.NewFromRows([][]float64{{0.04}})
	echoH := dense.NewFromRows([][]float64{{0.003}})
	e := make([]float64, n)
	x := seed*2862933555777941757 + 3037000493
	for i := range e {
		x = x*2862933555777941757 + 3037000493
		e[i] = float64(int64(x>>33)) / float64(1<<31) * 0.1
	}
	const rounds = 6
	run := func(cfg kernel.Config) []float64 {
		eng, err := kernel.New(cfg, nil)
		if err != nil {
			t.Fatalf("k=1 kernel: %v", err)
		}
		defer eng.Close()
		eng.SetExplicit(e)
		eng.Run(rounds, -1, nil)
		return append([]float64(nil), eng.Beliefs()...)
	}
	want := run(kernel.Config{A: a, D: d, H: h, EchoH: echoH, SymmetricA: true})
	for _, workers := range []int{1, 4} {
		got := run(kernel.Config{A: a, D: d, H: h, EchoH: echoH, SymmetricA: true, Workers: workers})
		for i := range got {
			diff := got[i] - want[i]
			if diff < 0 {
				diff = -diff
			}
			if diff > tol {
				t.Errorf("k=1 workers=%d: belief[%d] diverges by %g", workers, i, diff)
				return
			}
		}
	}
}

// ---------------------------------------------------------------------------
// Dynamic equivalence: any update stream applied through Solver.Update
// must land on the same answer as a fresh Prepare+Solve on the final
// graph, for every serving configuration and update policy.

// DynamicBatch is one Update batch of a dynamic-equivalence stream.
// Within a batch additions apply before removals (the Update
// contract), so mirrors must replay in the same order.
type DynamicBatch struct {
	Add    []graph.Edge
	Del    []graph.Edge
	Labels map[int]int // node → class, installed with strength 0.1
}

// ToUpdate converts the batch into the core Update surface for a
// k-class problem over n nodes.
func (b DynamicBatch) ToUpdate(n, k int) core.Update {
	u := core.Update{AddEdges: b.Add, RemoveEdges: b.Del}
	if len(b.Labels) > 0 {
		en := beliefs.New(n, k)
		for v, c := range b.Labels {
			en.Set(v, beliefs.LabelResidual(k, c, 0.1))
		}
		u.SetExplicit = en
	}
	return u
}

// ApplyMirror replays the batch onto a from-scratch mirror problem.
func (b DynamicBatch) ApplyMirror(g *graph.Graph, e *beliefs.Residual) {
	for _, ed := range b.Add {
		g.AddEdge(ed.S, ed.T, ed.W)
	}
	g.RemoveEdges(b.Del)
	for v, c := range b.Labels {
		e.Set(v, beliefs.LabelResidual(e.K(), c, 0.1))
	}
}

// DynamicStream generates a deterministic update stream against the
// problem's graph: each batch inserts a few unit edges (self-loops and
// parallel edges included occasionally — both are legal), deletes a
// couple of existing edges, and relabels a node. Unit weights keep the
// committed and fresh-build summations exactly equal, so streams stay
// inside the 1e-12 differential bound.
func DynamicStream(p *core.Problem, batches int, seed uint64) []DynamicBatch {
	rng := xrand.New(seed)
	n, k := p.Graph.N(), p.K()
	mirror := p.Graph.Clone()
	out := make([]DynamicBatch, batches)
	for bi := range out {
		var b DynamicBatch
		adds := 2 + rng.Intn(3)
		for a := 0; a < adds; a++ {
			s, t := rng.Intn(n), rng.Intn(n)
			b.Add = append(b.Add, graph.Edge{S: s, T: t, W: 1})
		}
		for _, e := range b.Add {
			mirror.AddEdge(e.S, e.T, e.W)
		}
		dels := rng.Intn(3)
		for d := 0; d < dels && mirror.NumEdges() > 1; d++ {
			edges := mirror.Edges()
			pick := edges[rng.Intn(len(edges))]
			b.Del = append(b.Del, graph.Edge{S: pick.S, T: pick.T})
			mirror.RemoveEdges(b.Del[len(b.Del)-1:])
		}
		b.Labels = map[int]int{rng.Intn(n): rng.Intn(k)}
		out[bi] = b
	}
	return out
}

// DynamicVariants enumerates the serving axes of the dynamic
// differential suite per the acceptance matrix: all orderings ×
// kernel planes × schedules for the kernel methods, and the ordering
// axis alone for BP and SBP (which have no kernel options or residual
// plane). The plane axis is the serial kernel and the span pool at two,
// three and four workers (four nnz-balanced spans per worker) — so
// epoch swaps are checked against every data plane a prepared engine
// can run on, and the pool rebinds across commits under more than one
// span layout. The residual and auto schedules
// carry the looser ResidualScheduleTol bound — the documented
// tolerance ladder: relaxation order is data-dependent, so those
// variants agree with the rounds reference within the tolerance
// budget, never bitwise.
func DynamicVariants(m core.Method) []Variant {
	orderings := []struct {
		name string
		r    core.Reordering
	}{
		{"natural", core.ReorderNone},
		{"rcm", core.ReorderRCM},
		{"degree", core.ReorderDegree},
	}
	var out []Variant
	if m == core.MethodBP || m == core.MethodSBP {
		for _, o := range orderings {
			out = append(out, Variant{
				Name: fmt.Sprintf("order=%s", o.name),
				Opts: []core.Option{core.WithReordering(o.r)},
			})
		}
		return out
	}
	schedules := []struct {
		name string
		s    core.Schedule
		tol  float64
	}{
		{"rounds", core.ScheduleRounds, 0},
		{"residual", core.ScheduleResidual, ResidualScheduleTol},
		{"auto", core.ScheduleAuto, ResidualScheduleTol},
	}
	planes := []struct {
		name string
		opt  core.Option
	}{
		{"serial", core.WithWorkers(0)},
		{"workers=2", core.WithWorkers(2)},
		{"workers=3", core.WithWorkers(3)},
		{"workers=4", core.WithWorkers(4)},
	}
	for _, o := range orderings {
		for _, plane := range planes {
			for _, sched := range schedules {
				out = append(out, Variant{
					Name: fmt.Sprintf("order=%s/%s/schedule=%s", o.name, plane.name, sched.name),
					Opts: []core.Option{
						core.WithReordering(o.r),
						plane.opt,
						core.WithSchedule(sched.s),
					},
					Tol: sched.tol,
				})
			}
		}
	}
	return out
}

// DynamicPolicies is the policy axis: the default commit-until-threshold
// behavior, a forced compaction rebuild on every topology update, and
// pure incremental commits with compaction disabled.
func DynamicPolicies() []struct {
	Name   string
	Policy core.UpdatePolicy
} {
	return []struct {
		Name   string
		Policy core.UpdatePolicy
	}{
		{"default", core.UpdatePolicy{}},
		{"force-compact", core.UpdatePolicy{CompactionRatio: 1e-12}},
		{"no-compact", core.UpdatePolicy{CompactionRatio: 1e12}},
	}
}

// RunDynamic drives one update stream through a dynamic solver under
// the variant and policy, checking after every batch that (a) the
// Update-returned (warm-started) beliefs and (b) a cold solve served
// from the updated snapshot both match a fresh Prepare+Solve on the
// mirrored final graph within tol. The tight iteration options pin
// both sides far below the bound: warm and cold iterates land within
// ~tol_solve/(1−ρ) of the unique fixpoint, so their distance cannot
// exceed the differential tolerance.
func RunDynamic(t testing.TB, p *core.Problem, m core.Method, v Variant, policy core.UpdatePolicy, stream []DynamicBatch, tol float64) {
	if tol <= 0 {
		tol = DefaultTol
	}
	tol = v.bound(tol)
	var extra []core.Option
	if m == core.MethodLinBP || m == core.MethodLinBPStar || m == core.MethodFABP {
		extra = []core.Option{core.WithMaxIter(500), core.WithTol(1e-13)}
	}
	opts := append(append(append([]core.Option{}, v.Opts...), extra...), core.WithUpdatePolicy(policy))
	s, err := core.Prepare(p, m, opts...)
	if err != nil {
		t.Fatalf("%v %s: Prepare: %v", m, v.Name, err)
	}
	defer s.Close()
	mirror := &core.Problem{Graph: p.Graph.Clone(), Explicit: p.Explicit.Clone(), Ho: p.Ho, EpsilonH: p.EpsilonH}
	ctx := context.Background()
	n, k := p.Graph.N(), p.K()
	for bi, b := range stream {
		res, err := s.Update(ctx, b.ToUpdate(n, k))
		if err != nil && !errors.Is(err, errs.ErrNotConverged) {
			t.Fatalf("%v %s batch %d: Update: %v", m, v.Name, bi, err)
		}
		b.ApplyMirror(mirror.Graph, mirror.Explicit)
		fresh := solveOnce(t, mirror, m, v, extra)
		if d := maxAbsDiff(res.Beliefs, fresh); d > tol {
			t.Errorf("%v %s batch %d: Update result diverges from fresh Prepare by %g (tol %g)", m, v.Name, bi, d, tol)
		}
		dst := beliefs.New(n, k)
		if _, err := s.SolveInto(ctx, dst, mirror.Explicit); err != nil && !errors.Is(err, errs.ErrNotConverged) {
			t.Fatalf("%v %s batch %d: SolveInto: %v", m, v.Name, bi, err)
		}
		if d := maxAbsDiff(dst, fresh); d > tol {
			t.Errorf("%v %s batch %d: served solve diverges from fresh Prepare by %g (tol %g)", m, v.Name, bi, d, tol)
		}
	}
}

// RunDynamicMatrix is the canonical dynamic differential suite: for
// every method it crosses the serving variants with the update
// policies on a deterministic stream. BP runs at a slightly looser
// bound (its message iteration stops on the message delta, not the
// belief delta, so the stale-layout epochs differ from the fresh
// prepare by more summation noise than the kernel methods).
func RunDynamicMatrix(t *testing.T, n, edges, batches int, seed uint64) {
	for _, m := range Methods {
		k := 3
		if m == core.MethodFABP {
			k = 2
		}
		p, err := Problem(n, edges, k, seed)
		if err != nil {
			t.Fatal(err)
		}
		stream := DynamicStream(p, batches, seed+7)
		tol := DefaultTol
		if m == core.MethodBP {
			tol = 1e-10
		}
		for _, v := range DynamicVariants(m) {
			for _, pol := range DynamicPolicies() {
				t.Run(fmt.Sprintf("%v/%s/policy=%s", m, v.Name, pol.Name), func(t *testing.T) {
					RunDynamic(t, p, m, v, pol.Policy, stream, tol)
				})
			}
		}
	}
}

// solveOnce prepares one configuration, runs one SolveInto, and returns
// the final beliefs.
func solveOnce(t testing.TB, p *core.Problem, m core.Method, v Variant, extra []core.Option) *beliefs.Residual {
	opts := append(append([]core.Option{}, v.Opts...), extra...)
	s, err := core.Prepare(p, m, opts...)
	if err != nil {
		t.Fatalf("%v %s: Prepare: %v", m, v.Name, err)
	}
	defer s.Close()
	dst := beliefs.New(p.Graph.N(), p.K())
	if _, err := s.SolveInto(context.Background(), dst, p.Explicit); err != nil && !errors.Is(err, errs.ErrNotConverged) {
		t.Fatalf("%v %s: SolveInto: %v", m, v.Name, err)
	}
	return dst
}

// maxAbsDiff returns the largest element-wise divergence.
func maxAbsDiff(a, b *beliefs.Residual) float64 {
	ad, bd := a.Matrix().Data(), b.Matrix().Data()
	var max float64
	for i := range ad {
		d := ad[i] - bd[i]
		if d < 0 {
			d = -d
		}
		if d > max {
			max = d
		}
	}
	return max
}
