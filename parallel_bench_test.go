// Benchmarks for the parallel rounds plane: the serial kernel against
// the span pool (WithWorkers) on two graphs of one size — the Kronecker
// graph, whose 2^(p−1) components the default reordering lays out in
// contiguous row ranges, so a row span reads few belief rows outside
// itself, and a connected random graph with as many edges, whose rows
// read belief rows from every span. `make bench-parallel` archives
// these into BENCH_results.json.
package lsbp_test

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"repro/internal/beliefs"
	"repro/internal/core"
	"repro/internal/coupling"
	"repro/internal/gen"
	"repro/internal/graph"
)

// BenchmarkParallelLinBP times one prepared LinBP solve (5 fixed
// rounds, the paper's timing convention) on each rounds plane:
//
//   - serial — the serial kernel (the default);
//   - span_workersW — the span pool at the machine's parallelism
//     (W = GOMAXPROCS, at most 16; left out on one CPU).
//
// Each plane runs on two graphs at the Kronecker power P of
// LSBP_BENCH_REORDER_POWER (default 11): kron_powerP_nodesN is
// gen.Kronecker(P), and random_nodesN_edgesM is the connected
// gen.Random(N, M, 11) with the Kronecker graph's N nodes and M
// undirected edges (177,147 and 2,097,152 at P = 11). A graph is built
// only when a benchmark that uses it runs.
func BenchmarkParallelLinBP(b *testing.B) {
	power := reorderBenchPower()
	n, m := 1, 1
	for i := 0; i < power; i++ {
		n, m = 3*n, 4*m
	}
	m /= 2 // 4^P directed entries are 4^P/2 undirected edges
	graphs := []struct {
		name  string
		build func() *graph.Graph
	}{
		{fmt.Sprintf("kron_power%d_nodes%d", power, n), func() *graph.Graph { return gen.Kronecker(power) }},
		{fmt.Sprintf("random_nodes%d_edges%d", n, m), func() *graph.Graph { return gen.Random(n, m, 11) }},
	}
	type variant struct {
		name string
		opts []core.Option
	}
	variants := []variant{{"serial", nil}}
	if maxw := min(runtime.GOMAXPROCS(0), 16); maxw > 1 {
		variants = append(variants, variant{
			fmt.Sprintf("span_workers%d", maxw),
			[]core.Option{core.WithWorkers(maxw)},
		})
	}
	for _, gc := range graphs {
		var (
			once sync.Once
			p    *core.Problem
			e    *beliefs.Residual
		)
		problem := func() (*core.Problem, *beliefs.Residual) {
			once.Do(func() {
				g := gc.build()
				g.Adjacency()
				g.WeightedDegrees()
				e, _ = beliefs.Seed(g.N(), 3, beliefs.SeedConfig{Fraction: 0.05, Seed: 1})
				p = &core.Problem{Graph: g, Explicit: beliefs.New(g.N(), 3), Ho: coupling.Fig6bResidual(), EpsilonH: 0.001}
			})
			return p, e
		}
		for _, tc := range variants {
			opts := append([]core.Option{core.WithMaxIter(timingIters), core.WithTol(-1)}, tc.opts...)
			b.Run(tc.name+"/"+gc.name, func(b *testing.B) {
				p, e := problem()
				s, err := core.Prepare(p, core.MethodLinBP, opts...)
				if err != nil {
					b.Fatal(err)
				}
				defer s.Close()
				dst := beliefs.New(p.Graph.N(), 3)
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
}

// BenchmarkSharedSolver measures the concurrent serving
// scenario the concurrency-safe Solver exists for: G goroutines
// hammering one shared prepared solver with independent SolveInto
// calls (each on its own pooled engine). Reported time is per solve.
func BenchmarkSharedSolver(b *testing.B) {
	power := reorderBenchPower() - 2 // concurrency amplifies footprint; one size down
	if power < 5 {
		power = 5
	}
	g := gen.Kronecker(power)
	p := &core.Problem{Graph: g, Explicit: beliefs.New(g.N(), 3), Ho: coupling.Fig6bResidual(), EpsilonH: 0.001}
	g.Adjacency()
	g.WeightedDegrees()
	es := make([]*beliefs.Residual, 8)
	for i := range es {
		es[i], _ = beliefs.Seed(g.N(), 3, beliefs.SeedConfig{Fraction: 0.05, Seed: uint64(i + 1)})
	}
	for _, gr := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("goroutines%d/power%d_nodes%d", gr, power, g.N()), func(b *testing.B) {
			s, err := core.Prepare(p, core.MethodLinBP, core.WithMaxIter(timingIters), core.WithTol(-1))
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			ctx := context.Background()
			// Warm one pooled engine per goroutine.
			var warm sync.WaitGroup
			for w := 0; w < gr; w++ {
				warm.Add(1)
				go func(w int) {
					defer warm.Done()
					dst := beliefs.New(g.N(), 3)
					s.SolveInto(ctx, dst, es[w%len(es)])
				}(w)
			}
			warm.Wait()
			b.ReportAllocs()
			b.ResetTimer()
			var wg sync.WaitGroup
			per := b.N/gr + 1
			for w := 0; w < gr; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					dst := beliefs.New(g.N(), 3)
					for i := 0; i < per; i++ {
						if _, err := s.SolveInto(ctx, dst, es[(w+i)%len(es)]); err != nil && !errors.Is(err, core.ErrNotConverged) {
							b.Error(err)
							return
						}
					}
				}(w)
			}
			wg.Wait()
		})
	}
}
