package core

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/beliefs"
	"repro/internal/coupling"
	"repro/internal/durable"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/kernel"
	"repro/internal/xrand"
)

// kronProblem is a LinBP problem on the power-p Kronecker graph.
func kronProblem(t testing.TB, p, k int) *Problem {
	t.Helper()
	g := gen.Kronecker(p)
	e, _ := beliefs.Seed(g.N(), k, beliefs.SeedConfig{Fraction: 0.05, Seed: 1})
	return &Problem{Graph: g, Explicit: e, Ho: coupling.Homophily(k, 0.8), EpsilonH: 0.01}
}

// absentEdges draws count distinct node pairs that are not edges of g
// (and not self-loops).
func absentEdges(g *graph.Graph, count int, seed uint64) []graph.Edge {
	a := g.Adjacency()
	rng := xrand.New(seed)
	seen := map[[2]int]bool{}
	var out []graph.Edge
	for len(out) < count {
		s, t := rng.Intn(g.N()), rng.Intn(g.N())
		if s == t || a.At(s, t) != 0 || seen[[2]int{s, t}] || seen[[2]int{t, s}] {
			continue
		}
		seen[[2]int{s, t}] = true
		out = append(out, graph.Edge{S: s, T: t, W: 1})
	}
	return out
}

// TestChurnLeavesNoDrift is the compaction-accounting pin: a stream
// that inserts absent edges and deletes them again returns the graph to
// its base, so it must leave no drift behind and never trigger a
// relayout — for every method.
func TestChurnLeavesNoDrift(t *testing.T) {
	for _, m := range []Method{MethodLinBP, MethodLinBPStar, MethodFABP, MethodBP, MethodSBP} {
		k := 3
		if m == MethodFABP {
			k = 2
		}
		p := kronProblem(t, 4, k)
		s, err := Prepare(p, m, WithMaxIter(300))
		if err != nil {
			t.Fatal(err)
		}
		ctx := context.Background()
		for cycle := 0; cycle < 40; cycle++ {
			edges := absentEdges(p.Graph, 2, uint64(cycle+1))
			if _, err := s.Update(ctx, Update{AddEdges: edges}); err != nil {
				t.Fatalf("%v cycle %d insert: %v", m, cycle, err)
			}
			if st := s.Stats(); st.OverlayNNZ == 0 {
				t.Fatalf("%v cycle %d: insert left OverlayNNZ 0", m, cycle)
			}
			if _, err := s.Update(ctx, Update{RemoveEdges: edges}); err != nil {
				t.Fatalf("%v cycle %d delete: %v", m, cycle, err)
			}
		}
		st := s.Stats()
		if st.OverlayNNZ != 0 || st.Rebuilds != 0 {
			t.Errorf("%v after 40 churn cycles: OverlayNNZ=%d Rebuilds=%d, want 0/0", m, st.OverlayNNZ, st.Rebuilds)
		}
		if st.Epoch != 80 || st.RowsCommitted == 0 {
			t.Errorf("%v: Epoch=%d RowsCommitted=%d", m, st.Epoch, st.RowsCommitted)
		}
		s.Close()
	}
}

// TestUpdateAllocsIndependentOfN pins the O(touched) commit: a 16-edge
// insert-then-delete round trip allocates the same number of objects on
// power-6 and power-8 Kronecker graphs (729 vs 6,561 nodes). The edges
// join the same node ids in both graphs (absent from both), so the
// batch — and the row blocks it touches — is identical; only n differs.
func TestUpdateAllocsIndependentOfN(t *testing.T) {
	g6, g8 := gen.Kronecker(6), gen.Kronecker(8)
	a6, a8 := g6.Adjacency(), g8.Adjacency()
	rng := xrand.New(7)
	var edges []graph.Edge
	for len(edges) < 16 {
		s, t := rng.Intn(g6.N()), rng.Intn(g6.N())
		if s != t && a6.At(s, t) == 0 && a8.At(s, t) == 0 {
			edges = append(edges, graph.Edge{S: s, T: t, W: 1})
		}
	}
	allocs := map[int]float64{}
	for _, power := range []int{6, 8} {
		p := kronProblem(t, power, 3)
		s, err := Prepare(p, MethodLinBP, WithMaxIter(300), WithTol(1e-9), WithSchedule(ScheduleAuto))
		if err != nil {
			t.Fatal(err)
		}
		ctx := context.Background()
		if _, err := s.Update(ctx, Update{}); err != nil {
			t.Fatal(err)
		}
		round := func() {
			if _, err := s.Update(ctx, Update{AddEdges: edges}); err != nil {
				t.Fatal(err)
			}
			if _, err := s.Update(ctx, Update{RemoveEdges: edges}); err != nil {
				t.Fatal(err)
			}
		}
		round() // warm the reusable scratch
		allocs[power] = testing.AllocsPerRun(10, round)
		s.Close()
	}
	if allocs[6] != allocs[8] {
		t.Fatalf("16-edge Update round trip allocates %v objects at power 6 but %v at power 8", allocs[6], allocs[8])
	}
	t.Logf("allocations per insert+delete round trip: %v", allocs[6])
}

// TestEpochSolvesDuringCommits runs kernel solves on epoch N's row-block
// table while the solver commits epochs N+1 and N+2 (run under -race:
// the commits must never write a block epoch N shares), and requires
// every one of those solves to be bitwise identical to a solve on a
// flat CSR of epoch N — on the serial, span-parallel, and partitioned
// planes.
func TestEpochSolvesDuringCommits(t *testing.T) {
	p := randomProblem(t, 300, 900, 3, 0.05, 17)
	s, err := Prepare(p, MethodLinBP, WithReordering(ReorderRCM), WithPartitions(3))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	d := s.(*dynSolver)
	ctx := context.Background()
	if _, err := s.Update(ctx, Update{AddEdges: absentEdges(p.Graph, 8, 3)}); err != nil {
		t.Fatal(err)
	}
	d.mu.Lock()
	epochN := d.rows
	d.mu.Unlock()
	h := coupling.Scale(p.Ho, p.EpsilonH)
	ed := p.Explicit.Matrix().Data()
	solve := func(cfg kernel.Config) []float64 {
		eng, err := kernel.New(cfg, nil)
		if err != nil {
			t.Error(err)
			return nil
		}
		defer eng.Close()
		eng.SetExplicit(ed) // layout order does not matter for the comparison
		eng.Run(40, -1, nil)
		return slices.Clone(eng.Beliefs())
	}
	flat := epochN.Flatten()
	want := solve(kernel.Config{A: flat, D: flat.RowSumsSquared(), H: h, SymmetricA: true})
	var wg sync.WaitGroup
	results := make([][]float64, 3)
	configs := []kernel.Config{
		{Rows: epochN, H: h, SymmetricA: true},
		{Rows: epochN, H: h, SymmetricA: true, Workers: 3},
		{Rows: epochN, H: h, SymmetricA: true, PartitionStarts: d.partStarts},
	}
	for i, cfg := range configs {
		wg.Add(1)
		go func(i int, cfg kernel.Config) {
			defer wg.Done()
			results[i] = solve(cfg)
		}(i, cfg)
	}
	for e := 0; e < 2; e++ {
		if _, err := s.Update(ctx, Update{AddEdges: absentEdges(p.Graph, 8, uint64(10+e))}); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	for i, got := range results {
		if !slices.Equal(got, want) {
			t.Errorf("plane %d: epoch-N solve on the block table differs from the flat solve", i)
		}
	}
	if st := s.Stats(); st.Epoch != 3 {
		t.Fatalf("Epoch = %d, want 3", st.Epoch)
	}
}

// TestUpdateStageCounters checks the per-stage Update clocks move,
// cover no more than the call's wall time between them, and that
// RowsCommitted counts the rewritten adjacency rows and ResidualPushes
// the localized re-solve's neighbor pushes.
func TestUpdateStageCounters(t *testing.T) {
	p := randomProblem(t, 120, 300, 3, 0.05, 23)
	s, err := Prepare(p, MethodLinBP, WithSchedule(ScheduleAuto),
		WithDurabilityFS(durable.NewMemFS(), "st", DurabilityPolicy{Sync: SyncAlways}))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ctx := context.Background()
	if _, err := s.Update(ctx, Update{}); err != nil {
		t.Fatal(err)
	}
	before := s.Stats()
	edges := absentEdges(p.Graph, 3, 5)
	start := time.Now()
	if _, err := s.Update(ctx, Update{AddEdges: edges, SetExplicit: labelMatrix(p.Graph.N(), 3, map[int]int{7: 1})}); err != nil {
		t.Fatal(err)
	}
	wall := time.Since(start)
	after := s.Stats()
	rows := map[int]bool{}
	for _, e := range edges {
		rows[e.S], rows[e.T] = true, true
	}
	if got := after.RowsCommitted - before.RowsCommitted; got != int64(len(rows)) {
		t.Errorf("RowsCommitted grew by %d, want %d", got, len(rows))
	}
	var sum int64
	for name, v := range map[string]int64{
		"validate": after.UpdateValidateNS - before.UpdateValidateNS,
		"wal":      after.UpdateWALNS - before.UpdateWALNS,
		"commit":   after.UpdateCommitNS - before.UpdateCommitNS,
		"resolve":  after.UpdateResolveNS - before.UpdateResolveNS,
		"publish":  after.UpdatePublishNS - before.UpdatePublishNS,
	} {
		if v <= 0 {
			t.Errorf("%s clock did not advance (%d ns)", name, v)
		}
		sum += v
	}
	if sum > int64(wall) {
		t.Errorf("stage clocks sum to %d ns, more than the call's %d ns", sum, wall)
	}
	relaxed := after.ResidualRowsRelaxed - before.ResidualRowsRelaxed
	if pushes := after.ResidualPushes - before.ResidualPushes; relaxed <= 0 || pushes < relaxed {
		t.Errorf("localized re-solve: %d relaxations, %d pushes; want relaxations with at least one push each on this graph", relaxed, pushes)
	}
}

// TestKernelUpdatesKeepNoGraph pins the dropped mirror: a kernel-method
// solver neither retains the caller's graph nor builds one on Update.
func TestKernelUpdatesKeepNoGraph(t *testing.T) {
	for _, m := range []Method{MethodLinBP, MethodLinBPStar, MethodFABP} {
		k := 3
		if m == MethodFABP {
			k = 2
		}
		p := randomProblem(t, 60, 120, k, 0.05, 29)
		s, err := Prepare(p, m)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Update(context.Background(), Update{AddEdges: absentEdges(p.Graph, 2, 1)}); err != nil {
			t.Fatal(err)
		}
		d := s.(*dynSolver)
		if d.srcGraph != nil || d.g != nil {
			t.Errorf("%v: kernel solver holds a graph (src=%v g=%v)", m, d.srcGraph != nil, d.g != nil)
		}
		s.Close()
	}
}

// TestResidualPlaneKeepsNoIdleRoundsEngine: when the residual plane
// serves the updates (ScheduleAuto), the rounds engine of the first
// fixpoint is closed instead of returned to the Solve pool, and no later
// epoch swap or compaction brings one back; when rounds serve the
// steady updates (ScheduleRounds, or ScheduleAuto without warm starts)
// the engine stays pooled.
func TestResidualPlaneKeepsNoIdleRoundsEngine(t *testing.T) {
	idle := func(s Solver) int {
		switch snap := s.(*dynSolver).cur.Load().snap.(type) {
		case *linbpSolver:
			return snap.states.idle()
		case *fabpSolver:
			return snap.states.idle()
		}
		t.Fatal("not a kernel snapshot")
		return 0
	}
	ctx := context.Background()
	for _, m := range []Method{MethodLinBP, MethodFABP} {
		k := 3
		if m == MethodFABP {
			k = 2
		}
		for _, tc := range []struct {
			sched  Schedule
			policy UpdatePolicy
			want   int
		}{
			{ScheduleAuto, UpdatePolicy{}, 0},
			{ScheduleRounds, UpdatePolicy{}, 1},
			{ScheduleAuto, UpdatePolicy{DisableWarmStart: true}, 1},
		} {
			name := fmt.Sprintf("%v/%v/cold=%v", m, tc.sched, tc.policy.DisableWarmStart)
			p := kronProblem(t, 4, k)
			s, err := Prepare(p, m, WithSchedule(tc.sched), WithUpdatePolicy(tc.policy))
			if err != nil {
				t.Fatal(err)
			}
			if got := idle(s); got != 1 {
				t.Fatalf("%s: %d idle engines after Prepare, want the one it validated", name, got)
			}
			if _, err := s.Update(ctx, Update{}); err != nil {
				t.Fatal(err)
			}
			if got := idle(s); got != tc.want {
				t.Errorf("%s: %d idle rounds engines after the first fixpoint, want %d", name, got, tc.want)
			}
			for seed := uint64(1); seed <= 2; seed++ {
				if _, err := s.Update(ctx, Update{AddEdges: absentEdges(p.Graph, 2, seed)}); err != nil {
					t.Fatal(err)
				}
			}
			if got := idle(s); got != tc.want {
				t.Errorf("%s: %d idle rounds engines after two epoch swaps, want %d", name, got, tc.want)
			}
			s.Close()

			// A compaction builds a new snapshot, which validates a fresh
			// rounds engine; the re-solve after it still seeds locally.
			policy := tc.policy
			policy.CompactionRatio = 1e-12
			s, err = Prepare(p, m, WithSchedule(tc.sched), WithUpdatePolicy(policy))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := s.Update(ctx, Update{}); err != nil {
				t.Fatal(err)
			}
			if _, err := s.Update(ctx, Update{AddEdges: absentEdges(p.Graph, 2, 3)}); err != nil {
				t.Fatal(err)
			}
			if got := s.Stats().Rebuilds; got != 1 {
				t.Fatalf("%s: %d compactions, want 1", name, got)
			}
			if got := idle(s); got != tc.want {
				t.Errorf("%s: %d idle rounds engines after a compaction, want %d", name, got, tc.want)
			}
			s.Close()
		}
	}
}

// BenchmarkCommit measures the copy-on-write commit alone at the serving
// scale's block size: a 16-edge insert or delete on the power-p
// Kronecker layout table.
func BenchmarkCommit(b *testing.B) {
	for _, power := range []int{8, 10} {
		b.Run(fmt.Sprintf("power%d", power), func(b *testing.B) {
			p := kronProblem(b, power, 3)
			s, err := Prepare(p, MethodLinBP)
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			d := s.(*dynSolver)
			if err := d.initDynState(); err != nil {
				b.Fatal(err)
			}
			edges := absentEdges(p.Graph, 16, 7)
			add, del := Update{AddEdges: edges}, Update{RemoveEdges: edges}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				u := add
				if i%2 == 1 {
					u = del
				}
				d.mu.Lock()
				d.applyTopologyLocked(u)
				d.mu.Unlock()
			}
		})
	}
}
