// The incremental-maintenance experiment of the paper's Section 8
// (future work there; implemented here by the epoch-versioned dynamic
// serving plane): iterations and time saved by warm-starting the
// LinBP re-solve after edge deltas of increasing size, against the
// cold re-solve of the same epoch. The cold side (cold_iters, cold_ms)
// is a Solve of the same explicit beliefs on the updated solver: rounds
// from Bˆ = 0 on the committed epoch.
package experiments

import (
	"context"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/xrand"
)

// Incremental prints, for edge deltas between 0.1% and 5% of the
// graph's edges, the warm-started Update's iteration count and wall
// time next to the cold restart's — the quantity the paper's
// incremental-update discussion cares about: maintenance cost must
// scale with the delta, not the graph.
func Incremental(cfg Config) error {
	cfg = cfg.withDefaults()
	g, e := kronProblem(cfg.MaxGraph, cfg)
	p := &core.Problem{Graph: g, Explicit: e, Ho: fig6b(), EpsilonH: 0}
	header(cfg.Out, fmt.Sprintf("Section 8 incremental updates: LinBP warm vs cold re-solve, Kronecker #%d (n=%d)", cfg.MaxGraph, g.N()))
	fmt.Fprintf(cfg.Out, "%-10s %12s %12s %14s %14s\n", "delta", "warm_iters", "cold_iters", "warm_ms", "cold_ms")

	for _, frac := range []float64{0.001, 0.005, 0.01, 0.05} {
		count := int(frac * float64(g.NumEdges()))
		if count < 1 {
			count = 1
		}
		delta := make([]graph.Edge, 0, count)
		rng := xrand.New(cfg.Seed + uint64(count))
		for len(delta) < count {
			s, t := rng.Intn(g.N()), rng.Intn(g.N())
			if s != t {
				delta = append(delta, graph.Edge{S: s, T: t, W: 1})
			}
		}
		warmIters, coldIters, warmT, coldT, err := warmVsCold(p, delta)
		if err != nil {
			return err
		}
		fmt.Fprintf(cfg.Out, "%-10s %12d %12d %14.2f %14.2f\n",
			fmt.Sprintf("%.1f%%", frac*100), warmIters, coldIters,
			float64(warmT.Microseconds())/1000, float64(coldT.Microseconds())/1000)
	}
	return nil
}

// warmVsCold absorbs delta into a prepared solver with a warm Update,
// then solves the same explicit beliefs cold on the updated solver,
// returning both round counts and wall times.
func warmVsCold(p *core.Problem, delta []graph.Edge) (warmIters, coldIters int, warmT, coldT time.Duration, err error) {
	s, err := core.Prepare(p, core.MethodLinBP, core.WithAutoEpsilonH(),
		core.WithMaxIter(500), core.WithTol(1e-9))
	if err != nil {
		return 0, 0, 0, 0, err
	}
	defer s.Close()
	ctx := context.Background()
	if _, err := s.Update(ctx, core.Update{}); err != nil {
		return 0, 0, 0, 0, err
	}
	start := time.Now()
	warm, err := s.Update(ctx, core.Update{AddEdges: delta})
	if err != nil {
		return 0, 0, 0, 0, err
	}
	warmT = time.Since(start)
	start = time.Now()
	cold, err := s.Solve(ctx, p.Explicit)
	if err != nil {
		return 0, 0, 0, 0, err
	}
	return warm.Iterations, cold.Iterations, warmT, time.Since(start), nil
}
