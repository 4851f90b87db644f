// Benchmarks regenerating the timing side of every table and figure in
// the paper's evaluation. Each benchmark name carries the paper
// artifact it reproduces; EXPERIMENTS.md maps results back to the
// paper's numbers. Graph sizes default to the small end of Fig. 6a so
// `go test -bench=.` finishes quickly; set LSBP_BENCH_MAXGRAPH (1–9) to
// scale up.
package lsbp_test

import (
	"context"
	"errors"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"testing"

	"repro/internal/beliefs"
	"repro/internal/bp"
	"repro/internal/core"
	"repro/internal/coupling"
	"repro/internal/dense"
	"repro/internal/fabp"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/linbp"
	"repro/internal/mooij"
	"repro/internal/relalgo"
	"repro/internal/reldb"
	"repro/internal/sbp"
)

// maxBenchGraph returns the largest Fig. 6a graph number to bench.
func maxBenchGraph() int {
	if s := os.Getenv("LSBP_BENCH_MAXGRAPH"); s != "" {
		if v, err := strconv.Atoi(s); err == nil && v >= 1 && v <= 9 {
			return v
		}
	}
	return 3
}

// kron builds the Fig. 6a workload: graph #num with 5% explicit beliefs.
func kron(num int) (*graph.Graph, *beliefs.Residual) {
	g := gen.Kronecker(gen.KroneckerGraphNumber(num))
	e, _ := beliefs.Seed(g.N(), 3, beliefs.SeedConfig{Fraction: 0.05, Seed: uint64(num)})
	g.Adjacency() // warm caches so benches measure computation only
	g.WeightedDegrees()
	return g, e
}

// fig6bH returns the synthetic coupling Hˆ = 0.001·Hˆo of the timing runs.
func fig6bH() *dense.Matrix { return coupling.Fig6bResidual().Scaled(0.001) }

const timingIters = 5 // the paper times BP and LinBP for 5 iterations

// BenchmarkFig7aBP times standard BP (in-memory) per Fig. 6a graph —
// the slow line of Fig. 7(a) and the "BP (JAVA)" column of Fig. 7(c).
func BenchmarkFig7aBP(b *testing.B) {
	h := coupling.Uncenter(fig6bH())
	for num := 1; num <= maxBenchGraph(); num++ {
		g, e := kron(num)
		es := e.Clone().Scale(0.1 / e.Matrix().MaxAbs())
		b.Run(fmt.Sprintf("graph%d_edges%d", num, g.DirectedEdgeCount()), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := bp.Run(g, es, h, bp.Options{MaxIter: timingIters, Tol: -1}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig7aLinBP times in-memory LinBP — the fast line of
// Fig. 7(a) and the "LinBP (JAVA)" column of Fig. 7(c).
func BenchmarkFig7aLinBP(b *testing.B) {
	h := fig6bH()
	for num := 1; num <= maxBenchGraph(); num++ {
		g, e := kron(num)
		b.Run(fmt.Sprintf("graph%d_edges%d", num, g.DirectedEdgeCount()), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := linbp.Run(g, e, h, linbp.Options{EchoCancellation: true, MaxIter: timingIters, Tol: -1}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig7aLinBPParallel is BenchmarkFig7aLinBP with the fused
// kernel's row-partitioned worker pool at Workers = NumCPU (the role
// Parallel Colt played in the paper's JAVA runs). On a single-core host
// it degenerates to the serial fused kernel.
func BenchmarkFig7aLinBPParallel(b *testing.B) {
	h := fig6bH()
	workers := runtime.NumCPU()
	for num := 1; num <= maxBenchGraph(); num++ {
		g, e := kron(num)
		b.Run(fmt.Sprintf("graph%d_edges%d", num, g.DirectedEdgeCount()), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := linbp.Run(g, e, h, linbp.Options{EchoCancellation: true, MaxIter: timingIters, Tol: -1, Workers: workers}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEngineReuse is the serving scenario: one prepared LinBP
// engine answering repeated solves on the same graph. The fused kernel
// reuses every buffer, so steady state must report 0 allocs/op (the
// one-shot BenchmarkFig7aLinBP pays a fresh result matrix per call).
func BenchmarkEngineReuse(b *testing.B) {
	h := fig6bH()
	workers := runtime.NumCPU()
	for num := 1; num <= maxBenchGraph(); num++ {
		g, e := kron(num)
		b.Run(fmt.Sprintf("graph%d_edges%d", num, g.DirectedEdgeCount()), func(b *testing.B) {
			eng, err := linbp.NewEngine(g, h, linbp.Options{EchoCancellation: true, MaxIter: timingIters, Tol: -1, Workers: workers})
			if err != nil {
				b.Fatal(err)
			}
			defer eng.Close()
			dst := beliefs.New(g.N(), 3)
			if _, _, _, err := eng.SolveInto(dst, e); err != nil { // warm the worker pool
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, _, err := eng.SolveInto(dst, e); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSolveBatch measures the serving surface of the unified
// prepared-Solver API on the Fig. 7a graph3 workload (5 fixed LinBP
// rounds, the paper's timing convention): R independent classification
// requests answered (a) by R sequential one-shot lsbp.Solve calls —
// each paying validation, preparation, the result matrix, and the top
// assignment — and (b) by one SolveBatch on a prepared solver, which
// fuses the requests into multi-block kernel rounds that traverse the
// CSR once per round for the whole batch. Compare the oneshot and
// batch ns/op per request; the batch path is the serving-throughput
// row EXPERIMENTS.md tracks.
func BenchmarkSolveBatch(b *testing.B) {
	const nreq = 16
	g, _ := kron(3)
	ho := coupling.Fig6bResidual()
	p := &core.Problem{Graph: g, Explicit: beliefs.New(g.N(), 3), Ho: ho, EpsilonH: 0.001}
	es := make([]*beliefs.Residual, nreq)
	for i := range es {
		es[i], _ = beliefs.Seed(g.N(), 3, beliefs.SeedConfig{Fraction: 0.05, Seed: uint64(i + 1)})
	}

	b.Run(fmt.Sprintf("oneshot_%dreq", nreq), func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, e := range es {
				q := &core.Problem{Graph: g, Explicit: e, Ho: ho, EpsilonH: 0.001}
				if _, err := core.Solve(q, core.MethodLinBP, core.Options{MaxIter: timingIters, Tol: -1}); err != nil {
					b.Fatal(err)
				}
			}
		}
	})

	b.Run(fmt.Sprintf("batch_%dreq", nreq), func(b *testing.B) {
		s, err := core.Prepare(p, core.MethodLinBP, core.WithMaxIter(timingIters), core.WithTol(-1))
		if err != nil {
			b.Fatal(err)
		}
		defer s.Close()
		reqs := make([]core.Request, nreq)
		for i, e := range es {
			reqs[i] = core.Request{E: e, Dst: beliefs.New(g.N(), 3)}
		}
		ctx := context.Background()
		s.SolveBatch(ctx, reqs) // warm the fused engine
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, r := range s.SolveBatch(ctx, reqs) {
				if r.Err != nil && !errors.Is(r.Err, core.ErrNotConverged) {
					b.Fatal(r.Err)
				}
			}
		}
	})
}

// BenchmarkFig7bRelLinBP times LinBP on the relational engine — the
// "LinBP (SQL)" series of Fig. 7(b)/(c).
func BenchmarkFig7bRelLinBP(b *testing.B) {
	for num := 1; num <= min(maxBenchGraph(), 3); num++ {
		g, e := kron(num)
		db := relalgo.Load(g, e, fig6bH())
		b.Run(fmt.Sprintf("graph%d", num), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				db.LinBP(timingIters, true)
			}
		})
	}
}

// BenchmarkFig7bRelSBP times SBP on the relational engine — the "SBP
// (SQL)" series of Fig. 7(b)/(c).
func BenchmarkFig7bRelSBP(b *testing.B) {
	for num := 1; num <= min(maxBenchGraph(), 3); num++ {
		g, e := kron(num)
		db := relalgo.Load(g, e, coupling.Fig6bResidual())
		b.Run(fmt.Sprintf("graph%d", num), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				db.SBP()
			}
		})
	}
}

// BenchmarkFig7bRelDeltaSBP times the incremental ΔSBP update that
// relabels 1‰ of all nodes — the "ΔSBP" series of Fig. 7(b)/(c).
func BenchmarkFig7bRelDeltaSBP(b *testing.B) {
	for num := 1; num <= min(maxBenchGraph(), 3); num++ {
		g, e := kron(num)
		count := g.N() / 1000
		if count < 1 {
			count = 1
		}
		fresh, _ := beliefs.Seed(g.N(), 3, beliefs.SeedConfig{Count: count, Seed: 99})
		en := reldb.New("En", []string{"v", "c", "b"})
		for _, v := range fresh.ExplicitNodes() {
			for c, bb := range fresh.Row(v) {
				if bb != 0 {
					en.Insert(float64(v), float64(c), bb)
				}
			}
		}
		b.Run(fmt.Sprintf("graph%d", num), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				db := relalgo.Load(g, e, coupling.Fig6bResidual())
				st := db.SBP()
				b.StartTimer()
				st.AddExplicitBeliefs(en)
			}
		})
	}
}

// BenchmarkFig7dLinBPIteration times one LinBP round (the per-iteration
// cost LinBP pays on every round, Fig. 7(d)).
func BenchmarkFig7dLinBPIteration(b *testing.B) {
	g, e := kron(maxBenchGraph())
	h := fig6bH()
	for i := 0; i < b.N; i++ {
		if _, err := linbp.Run(g, e, h, linbp.Options{EchoCancellation: true, MaxIter: 1, Tol: -1}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig7dSBPFull times a complete SBP pass (all geodesic levels;
// each edge visited at most once, Fig. 7(d)'s point).
func BenchmarkFig7dSBPFull(b *testing.B) {
	g, e := kron(maxBenchGraph())
	h := coupling.Fig6bResidual()
	for i := 0; i < b.N; i++ {
		if _, err := sbp.Run(g, e, h); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig7eDeltaBeliefs20pct times ΔSBP with 20% of the final
// explicit beliefs new (left of Fig. 7(e)'s crossover, where
// incremental wins).
func BenchmarkFig7eDeltaBeliefs20pct(b *testing.B) {
	g, _ := kron(min(maxBenchGraph(), 3))
	n := g.N()
	total := n / 10
	all, _ := beliefs.Seed(n, 3, beliefs.SeedConfig{Count: total, Seed: 5})
	nodes := all.ExplicitNodes()
	oldCount := total * 8 / 10
	oldE := beliefs.New(n, 3)
	en := reldb.New("En", []string{"v", "c", "b"})
	for i, v := range nodes {
		if i < oldCount {
			oldE.Set(v, all.Row(v))
			continue
		}
		for c, bb := range all.Row(v) {
			if bb != 0 {
				en.Insert(float64(v), float64(c), bb)
			}
		}
	}
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		db := relalgo.Load(g, oldE, coupling.Fig6bResidual())
		st := db.SBP()
		b.StartTimer()
		st.AddExplicitBeliefs(en)
	}
}

// BenchmarkFig7eScratch is Fig. 7(e)'s horizontal line: recompute SBP
// from scratch with all beliefs present.
func BenchmarkFig7eScratch(b *testing.B) {
	g, _ := kron(min(maxBenchGraph(), 3))
	all, _ := beliefs.Seed(g.N(), 3, beliefs.SeedConfig{Count: g.N() / 10, Seed: 5})
	for i := 0; i < b.N; i++ {
		db := relalgo.Load(g, all, coupling.Fig6bResidual())
		db.SBP()
	}
}

// BenchmarkFig7fQualitySweepPoint times one quality-sweep point of
// Fig. 7(f): a BP run to convergence plus a LinBP run plus the
// precision/recall comparison.
func BenchmarkFig7fQualitySweepPoint(b *testing.B) {
	g, e := kron(min(maxBenchGraph(), 3))
	es := e.Clone().Scale(0.1 / e.Matrix().MaxAbs())
	hLin := fig6bH()
	hBP := coupling.Uncenter(hLin)
	for i := 0; i < b.N; i++ {
		bpRes, err := bp.Run(g, es, hBP, bp.Options{MaxIter: 100})
		if err != nil {
			b.Fatal(err)
		}
		linRes, err := linbp.Run(g, e, hLin, linbp.Options{EchoCancellation: true, MaxIter: 200})
		if err != nil {
			b.Fatal(err)
		}
		_ = bpRes.Beliefs.TopAssignment()
		_ = linRes.Beliefs.TopAssignment()
	}
}

// BenchmarkFig10aSBPFractions times SBP at 10% vs 90% explicit nodes
// (Fig. 10(a): SBP gets slightly faster with more labels).
func BenchmarkFig10aSBPFractions(b *testing.B) {
	g, _ := kron(maxBenchGraph())
	h := coupling.Fig6bResidual()
	for _, frac := range []float64{0.1, 0.9} {
		e, _ := beliefs.Seed(g.N(), 3, beliefs.SeedConfig{Fraction: frac, Seed: 3})
		b.Run(fmt.Sprintf("explicit%.0f%%", frac*100), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := sbp.Run(g, e, h); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig10bDeltaEdges1pct times ΔSBP edge insertion for 1% new
// edges (left of Fig. 10(b)'s ≈3% crossover).
func BenchmarkFig10bDeltaEdges1pct(b *testing.B) {
	full := gen.Kronecker(gen.KroneckerGraphNumber(min(maxBenchGraph(), 3)))
	n := full.N()
	e, _ := beliefs.Seed(n, 3, beliefs.SeedConfig{Fraction: 0.1, Seed: 4})
	edges := full.Edges()
	newCount := len(edges) / 100
	if newCount < 1 {
		newCount = 1
	}
	base := graph.New(n)
	for _, ed := range edges[:len(edges)-newCount] {
		base.AddEdge(ed.S, ed.T, ed.W)
	}
	batch := append([]graph.Edge(nil), edges[len(edges)-newCount:]...)
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		db := relalgo.Load(base.Clone(), e, coupling.Fig6bResidual())
		st := db.SBP()
		b.StartTimer()
		st.AddEdges(batch)
	}
}

// BenchmarkFig11bDBLP times one LinBP labeling of the DBLP-like graph
// (the workload behind Fig. 11(b)).
func BenchmarkFig11bDBLP(b *testing.B) {
	d := gen.DBLP(gen.DefaultDBLPConfig())
	n := d.G.N()
	e := beliefs.New(n, 4)
	for _, v := range beliefs.SeededNodes(n, beliefs.SeedConfig{Fraction: 0.104, Seed: 1}) {
		e.Set(v, beliefs.LabelResidual(4, d.TrueClass[v], 0.05))
	}
	h := coupling.Fig11aResidual().Scaled(0.001)
	d.G.Adjacency()
	d.G.WeightedDegrees()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := linbp.Run(d.G, e, h, linbp.Options{EchoCancellation: true, MaxIter: timingIters, Tol: -1}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEx20ClosedForm times the dense Kronecker-system solve of
// Proposition 7 on the torus (Example 20 / Fig. 4's exact reference).
func BenchmarkEx20ClosedForm(b *testing.B) {
	g := gen.Torus()
	e := beliefs.New(8, 3)
	e.Set(0, []float64{2, -1, -1})
	e.Set(1, []float64{-1, 2, -1})
	e.Set(2, []float64{-1, -1, 2})
	ho, err := coupling.NewResidual(coupling.Fig1c())
	if err != nil {
		b.Fatal(err)
	}
	h := ho.Scaled(0.1)
	for i := 0; i < b.N; i++ {
		if _, err := linbp.ClosedForm(g, e, h, true); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEx20ExactCriterion times the spectral-radius evaluation of
// Lemma 8 (the cost of checking convergence before running LinBP).
func BenchmarkEx20ExactCriterion(b *testing.B) {
	g, _ := kron(min(maxBenchGraph(), 3))
	h := fig6bH()
	for i := 0; i < b.N; i++ {
		if _, err := linbp.CheckConvergence(g, h, true); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAppGMooijBound times the Mooij–Kappen bound evaluation
// (Appendix G), dominated by the edge-matrix spectral radius.
func BenchmarkAppGMooijBound(b *testing.B) {
	g, _ := kron(1)
	h := coupling.Uncenter(fig6bH())
	for i := 0; i < b.N; i++ {
		if _, _, _, err := mooij.Bound(g, h); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAppEFABP times the binary-case scalar solver (Appendix E),
// the cheapest of all the methods.
func BenchmarkAppEFABP(b *testing.B) {
	g, _ := kron(maxBenchGraph())
	e := make([]float64, g.N())
	for i := 0; i < len(e); i += 20 {
		e[i] = 0.1
	}
	for i := 0; i < b.N; i++ {
		if _, err := fabp.Run(g, e, 0.01, fabp.Options{MaxIter: timingIters, Tol: -1}); err != nil {
			b.Fatal(err)
		}
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// reorderBenchPower returns the Kronecker power of the layout
// benchmarks: default 11 (177,147 nodes / ~4.2M directed entries — the
// ≥100k-node scalability regime of Fig. 7 where layout matters),
// overridable with LSBP_BENCH_REORDER_POWER for quick runs.
func reorderBenchPower() int {
	if s := os.Getenv("LSBP_BENCH_REORDER_POWER"); s != "" {
		if v, err := strconv.Atoi(s); err == nil && v >= 1 && v <= 13 {
			return v
		}
	}
	return 11
}

// BenchmarkReorderLinBP compares the prepared graph layouts on a large
// Kronecker workload (5 fixed LinBP rounds per solve, the paper's
// timing convention; same tol/iters across variants):
//
//   - compact_natural — natural node order;
//   - compact_auto — the auto-chosen prepare-time reordering (what
//     Prepare does by default on graphs this size).
//
// Both read the int32 (compact) index every kernel uses; the names keep
// the ledger rows of the int-index variant that has since been removed
// comparable. The few B/op shown are the ErrNotConverged wrap of the
// fixed-round convention; the converged serving path stays at 0
// allocs/op under every layout (TestReorderingZeroAlloc).
func BenchmarkReorderLinBP(b *testing.B) {
	power := reorderBenchPower()
	g := gen.Kronecker(power)
	e, _ := beliefs.Seed(g.N(), 3, beliefs.SeedConfig{Fraction: 0.05, Seed: 1})
	p := &core.Problem{Graph: g, Explicit: beliefs.New(g.N(), 3), Ho: coupling.Fig6bResidual(), EpsilonH: 0.001}
	g.Adjacency()
	g.WeightedDegrees()
	for _, tc := range []struct {
		name string
		opts []core.Option
	}{
		{"compact_natural", []core.Option{core.WithReordering(core.ReorderNone)}},
		{"compact_auto", []core.Option{core.WithReordering(core.ReorderAuto)}},
	} {
		opts := append([]core.Option{core.WithMaxIter(timingIters), core.WithTol(-1)}, tc.opts...)
		b.Run(fmt.Sprintf("%s/power%d_nodes%d", tc.name, power, g.N()), func(b *testing.B) {
			s, err := core.Prepare(p, core.MethodLinBP, opts...)
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			dst := beliefs.New(g.N(), 3)
			ctx := context.Background()
			if _, err := s.SolveInto(ctx, dst, e); err != nil && !errors.Is(err, core.ErrNotConverged) {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.SolveInto(ctx, dst, e); err != nil && !errors.Is(err, core.ErrNotConverged) {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkReorderSolveBatch extends the layout benchmark to the fused
// multi-request path: one 4-request SolveBatch per op over the same
// large Kronecker graph under the auto-chosen reordering.
func BenchmarkReorderSolveBatch(b *testing.B) {
	power := reorderBenchPower()
	g := gen.Kronecker(power)
	p := &core.Problem{Graph: g, Explicit: beliefs.New(g.N(), 3), Ho: coupling.Fig6bResidual(), EpsilonH: 0.001}
	g.Adjacency()
	g.WeightedDegrees()
	const nreq = 4 // one register-blocked rows3x4 chunk
	reqs := make([]core.Request, nreq)
	for i := range reqs {
		e, _ := beliefs.Seed(g.N(), 3, beliefs.SeedConfig{Fraction: 0.05, Seed: uint64(i + 1)})
		reqs[i] = core.Request{E: e, Dst: beliefs.New(g.N(), 3)}
	}
	for _, tc := range []struct {
		name string
		opts []core.Option
	}{
		{"compact_auto", []core.Option{core.WithReordering(core.ReorderAuto)}},
	} {
		opts := append([]core.Option{core.WithMaxIter(timingIters), core.WithTol(-1)}, tc.opts...)
		b.Run(fmt.Sprintf("%s/power%d_%dreq", tc.name, power, nreq), func(b *testing.B) {
			s, err := core.Prepare(p, core.MethodLinBP, opts...)
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			ctx := context.Background()
			s.SolveBatch(ctx, reqs) // warm the fused engine
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, r := range s.SolveBatch(ctx, reqs) {
					if r.Err != nil && !errors.Is(r.Err, core.ErrNotConverged) {
						b.Fatal(r.Err)
					}
				}
			}
		})
	}
}
