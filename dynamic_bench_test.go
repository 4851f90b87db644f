// Benchmarks for the dynamic-graph serving plane: absorbing an edge
// delta through Solver.Update (copy-on-write commit + epoch swap + warm
// re-solve) against the cold solve of the same epoch, on the large
// Kronecker regime, and the commit beside concurrent solves.
// `make bench-update` archives these into BENCH_results.json; the
// acceptance bar is that the warm-started re-solve after a ≤1% edge
// delta takes measurably fewer iterations (and less wall time) than the
// cold solve of the same epoch.
package lsbp_test

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/beliefs"
	"repro/internal/core"
	"repro/internal/coupling"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/xrand"
)

// updateBenchDelta builds a deterministic ~0.5%-of-edges batch of unit
// edges over n nodes.
func updateBenchDelta(n, edges int, seed uint64) []graph.Edge {
	count := edges / 200
	if count < 8 {
		count = 8
	}
	rng := xrand.New(seed)
	out := make([]graph.Edge, 0, count)
	for len(out) < count {
		s, t := rng.Intn(n), rng.Intn(n)
		if s == t {
			continue
		}
		out = append(out, graph.Edge{S: s, T: t, W: 1})
	}
	return out
}

// BenchmarkUpdateWarmVsCold measures the warm Update round trip — the
// copy-on-write commit, the epoch swap, and the warm re-solve to
// tolerance — against the cold re-solve of the same epoch: a Solve of
// the same explicit beliefs on the updated solver, which runs from
// Bˆ = 0 (the cold side's Update runs untimed). Each op alternates
// inserting and removing the same delta batch, so the graph stays
// bounded across b.N. iters/update reports the mean re-solve rounds:
// the warm-started variant must need measurably fewer than the cold
// one.
func BenchmarkUpdateWarmVsCold(b *testing.B) {
	power := reorderBenchPower()
	g := gen.Kronecker(power)
	e, _ := beliefs.Seed(g.N(), 3, beliefs.SeedConfig{Fraction: 0.05, Seed: 1})
	delta := updateBenchDelta(g.N(), g.NumEdges(), 7)
	g.Adjacency()
	g.WeightedDegrees()

	for _, cold := range []bool{false, true} {
		name := "warm"
		if cold {
			name = "cold"
		}
		b.Run(fmt.Sprintf("%s/power%d_nodes%d_delta%d", name, power, g.N(), len(delta)), func(b *testing.B) {
			// Auto εH (half the exact Lemma 8 threshold, the paper's
			// Section 7 recommendation) gives the realistic convergence
			// regime ρ ≈ 0.5: cold solves take ~25–30 rounds to 1e-9, so
			// the warm start has something real to save.
			p := &core.Problem{Graph: g, Explicit: e, Ho: coupling.Fig6bResidual(), EpsilonH: 0.001}
			s, err := core.Prepare(p, core.MethodLinBP, core.WithAutoEpsilonH(),
				core.WithMaxIter(200), core.WithTol(1e-9))
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			ctx := context.Background()
			if _, err := s.Update(ctx, core.Update{}); err != nil {
				b.Fatal(err)
			}
			var iters int
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				u := core.Update{AddEdges: delta}
				if i%2 == 1 {
					u = core.Update{RemoveEdges: delta}
				}
				if cold {
					b.StopTimer()
				}
				res, err := s.Update(ctx, u)
				if err != nil {
					b.Fatal(err)
				}
				if cold {
					b.StartTimer()
					if res, err = s.Solve(ctx, e); err != nil {
						b.Fatal(err)
					}
				}
				iters += res.Iterations
			}
			b.ReportMetric(float64(iters)/float64(b.N), "iters/update")
		})
	}
}

// besideBenchPower is the Kronecker power of BenchmarkUpdateBesideSolves
// (59,049 nodes): a solve there takes tens of milliseconds, so a commit
// that waited for one would show.
const besideBenchPower = 10

// BenchmarkUpdateBesideSolves measures a 16-edge topology Update with
// the serving benchmark's solver settings (LinBP, k = 3, Fig. 6b Hˆo,
// εH 0.01497919, tol 1e-12, MaxIter 200, ScheduleAuto, 5% seeds) alone
// and beside one goroutine looping SolveInto on the same solver. Each
// op alternately inserts and deletes the same edges; reportStages
// splits the Updates into their stage clocks. An epoch publish waits
// for no solve, so commit-ns/op beside the reader should stay near the
// alone value: a commit that drained in-flight solves would add about
// half a solve to it.
func BenchmarkUpdateBesideSolves(b *testing.B) {
	g := gen.Kronecker(besideBenchPower)
	e, _ := beliefs.Seed(g.N(), 3, beliefs.SeedConfig{Fraction: 0.05, Seed: 1})
	delta := residualBenchDelta(g.N(), 16, 7)
	g.Adjacency()
	g.WeightedDegrees()
	p := &core.Problem{Graph: g, Explicit: e, Ho: coupling.Fig6bResidual(), EpsilonH: 0.01497919}
	for _, beside := range []bool{false, true} {
		name := "alone"
		if beside {
			name = "beside_solveinto"
		}
		b.Run(fmt.Sprintf("%s/power%d_nodes%d", name, besideBenchPower, g.N()), func(b *testing.B) {
			s, err := core.Prepare(p, core.MethodLinBP, core.WithTol(1e-12), core.WithMaxIter(200),
				core.WithSchedule(core.ScheduleAuto))
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			ctx := context.Background()
			if _, err := s.Update(ctx, core.Update{}); err != nil {
				b.Fatal(err)
			}
			stop := make(chan struct{})
			var wg sync.WaitGroup
			if beside {
				wg.Add(1)
				go func() {
					defer wg.Done()
					dst := beliefs.New(g.N(), 3)
					for {
						select {
						case <-stop:
							return
						default:
						}
						if _, err := s.SolveInto(ctx, dst, e); err != nil && !errors.Is(err, core.ErrNotConverged) {
							b.Error(err)
							return
						}
					}
				}()
			}
			pre := s.Stats()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				u := core.Update{AddEdges: delta}
				if i%2 == 1 {
					u = core.Update{RemoveEdges: delta}
				}
				if _, err := s.Update(ctx, u); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			reportStages(b, pre, s.Stats())
			close(stop)
			wg.Wait()
		})
	}
}

// BenchmarkUpdateThroughput measures the two commit shapes separately:
// a belief-only update (no snapshot rebuild — just the warm re-solve)
// and a single-edge topology update (copy-on-write commit + epoch swap +
// warm re-solve), the steady-state costs of an event stream.
func BenchmarkUpdateThroughput(b *testing.B) {
	power := reorderBenchPower()
	g := gen.Kronecker(power)
	e, _ := beliefs.Seed(g.N(), 3, beliefs.SeedConfig{Fraction: 0.05, Seed: 2})
	g.Adjacency()
	g.WeightedDegrees()
	p := &core.Problem{Graph: g, Explicit: e, Ho: coupling.Fig6bResidual(), EpsilonH: 0.001}

	relabel := beliefs.New(g.N(), 3)
	relabel.Set(1, beliefs.LabelResidual(3, 1, 0.1))
	edge := []graph.Edge{{S: 2, T: g.N() - 3, W: 1}}

	for _, tc := range []struct {
		name string
		mk   func(i int) core.Update
	}{
		{"belief", func(int) core.Update { return core.Update{SetExplicit: relabel} }},
		{"topology", func(i int) core.Update {
			if i%2 == 1 {
				return core.Update{RemoveEdges: edge}
			}
			return core.Update{AddEdges: edge}
		}},
	} {
		b.Run(fmt.Sprintf("%s/power%d_nodes%d", tc.name, power, g.N()), func(b *testing.B) {
			s, err := core.Prepare(p, core.MethodLinBP, core.WithMaxIter(200), core.WithTol(1e-9))
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			ctx := context.Background()
			if _, err := s.Update(ctx, core.Update{}); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.Update(ctx, tc.mk(i)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// graphBenchBPPower is the Kronecker power BenchmarkUpdateGraphMethods
// runs BP at: a BP Update re-solves cold, one message pair per adjacent
// pair and round, so power 11 would cost tens of seconds per op.
const graphBenchBPPower = 9

// absentBenchEdges draws count distinct unit edges of g's node range
// that g does not hold (self-loops skipped).
func absentBenchEdges(g *graph.Graph, count int, seed uint64) []graph.Edge {
	a := g.Adjacency()
	rng := xrand.New(seed)
	seen := map[[2]int]bool{}
	out := make([]graph.Edge, 0, count)
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

// BenchmarkUpdateGraphMethods measures the message-passing methods'
// Update on the ingest cycle: insert 16 absent edges, relabel 16 nodes,
// delete the 16 edges (5% seeds, the Fig. 6b coupling). Each
// sub-benchmark times one kind; the cycle's other steps run untimed, so
// the graph returns to its base every op, and reportStages splits the
// timed Updates into their stage clocks. SBP runs at Kronecker power
// LSBP_BENCH_REORDER_POWER (default 11), BP at graphBenchBPPower.
func BenchmarkUpdateGraphMethods(b *testing.B) {
	ctx := context.Background()
	for _, tc := range []struct {
		m     core.Method
		power int
	}{
		{core.MethodSBP, reorderBenchPower()},
		{core.MethodBP, graphBenchBPPower},
	} {
		g := gen.Kronecker(tc.power)
		e, _ := beliefs.Seed(g.N(), 3, beliefs.SeedConfig{Fraction: 0.05, Seed: 1})
		edges := absentBenchEdges(g, 16, 7)
		rng := xrand.New(13)
		var labels [2]*beliefs.Residual
		for c := range labels {
			labels[c] = beliefs.New(g.N(), 3)
		}
		for i := 0; i < 16; i++ {
			v := rng.Intn(g.N())
			labels[0].Set(v, beliefs.LabelResidual(3, 0, 0.1))
			labels[1].Set(v, beliefs.LabelResidual(3, 1, 0.1))
		}
		p := &core.Problem{Graph: g, Explicit: e, Ho: coupling.Fig6bResidual(), EpsilonH: 0.01497919}
		s, err := core.Prepare(p, tc.m)
		if err != nil {
			b.Fatal(err)
		}
		update := func(u core.Update) {
			if _, err := s.Update(ctx, u); err != nil && !errors.Is(err, core.ErrNotConverged) {
				b.Fatal(err)
			}
		}
		update(core.Update{})
		for _, kind := range []string{"insert", "relabel", "delete"} {
			b.Run(fmt.Sprintf("%v/%s/power%d_nodes%d", tc.m, kind, tc.power, g.N()), func(b *testing.B) {
				var acc core.SolverStats
				timed := func(u core.Update) {
					pre := s.Stats()
					b.StartTimer()
					update(u)
					b.StopTimer()
					post := s.Stats()
					acc.UpdateValidateNS += post.UpdateValidateNS - pre.UpdateValidateNS
					acc.UpdateWALNS += post.UpdateWALNS - pre.UpdateWALNS
					acc.UpdateCommitNS += post.UpdateCommitNS - pre.UpdateCommitNS
					acc.UpdateResolveNS += post.UpdateResolveNS - pre.UpdateResolveNS
					acc.UpdatePublishNS += post.UpdatePublishNS - pre.UpdatePublishNS
					acc.RowsCommitted += post.RowsCommitted - pre.RowsCommitted
				}
				b.ReportAllocs()
				b.StopTimer()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					switch kind {
					case "insert":
						timed(core.Update{AddEdges: edges})
						update(core.Update{RemoveEdges: edges})
					case "relabel":
						timed(core.Update{SetExplicit: labels[i%2]})
					case "delete":
						update(core.Update{AddEdges: edges})
						timed(core.Update{RemoveEdges: edges})
					}
				}
				reportStages(b, core.SolverStats{}, acc)
			})
		}
		s.Close()
	}
}
