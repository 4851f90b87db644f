// Dynamic networks through the unified epoch-versioned Update API. A
// stream of events — new edges, newly labeled users — arrives, and the
// prepared solver absorbs each batch without re-preparing: each SBP
// result carries the geodesic numbers (Definition 14) of its epoch, and
// a LinBP solver on the same stream shows the warm-start payoff (the
// Section 8 future-work direction): after a small delta the re-solve
// needs a fraction of the cold iterations. After every batch we verify
// against a full recomputation from scratch.
package main

import (
	"context"
	"fmt"
	"log"

	lsbp "repro"
)

func main() {
	// Start from a modest random network with a few labeled nodes.
	g := lsbp.RandomGraph(200, 400, 1)
	e, seeds := lsbp.SeedBeliefs(200, 3, lsbp.SeedConfig{Fraction: 0.05, Seed: 2})
	ho, err := lsbp.NewCouplingFromStochastic(lsbp.Fig1c())
	if err != nil {
		log.Fatal(err)
	}
	ctx := context.Background()
	p := &lsbp.Problem{Graph: g, Explicit: e, Ho: ho, EpsilonH: 1}
	solver, err := lsbp.PrepareSBP(p)
	if err != nil {
		log.Fatal(err)
	}
	defer solver.Close()

	// Epoch 0: the empty Update materializes the initial fixpoint (for
	// SBP, Result.Geodesics carries the geodesic numbers).
	res, err := solver.Update(ctx, lsbp.Update{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("initial: %d nodes, %d edges, %d labeled\n", g.N(), g.NumEdges(), len(seeds))
	printGeodesicHistogram(res.Geodesics)

	// Mirror problem for the from-scratch verification.
	mg, me := g.Clone(), e.Clone()

	// Event 1: a batch of new edges (the network grows).
	newEdges := []lsbp.Edge{
		{S: 0, T: 100, W: 1}, {S: 3, T: 150, W: 1}, {S: 42, T: 7, W: 1},
		{S: 99, T: 1, W: 1}, {S: 180, T: 20, W: 1},
	}
	res, err = solver.Update(ctx, lsbp.Update{AddEdges: newEdges})
	if err != nil {
		log.Fatal(err)
	}
	for _, ed := range newEdges {
		mg.AddEdge(ed.S, ed.T, ed.W)
	}
	fmt.Printf("\nafter +%d edges:\n", len(newEdges))
	printGeodesicHistogram(res.Geodesics)
	verify(res, mg, me, ho)

	// Event 2: five more users get labels.
	en := lsbp.NewBeliefs(200, 3)
	for i, v := range []int{11, 57, 123, 166, 199} {
		if !me.IsExplicit(v) {
			row := lsbp.LabelResidual(3, i%3, 0.1)
			en.Set(v, row)
			me.Set(v, row)
		}
	}
	res, err = solver.Update(ctx, lsbp.Update{SetExplicit: en})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nafter labeling 5 more users:")
	printGeodesicHistogram(res.Geodesics)
	verify(res, mg, me, ho)

	fmt.Println("\nincremental state matches from-scratch recomputation after every batch")

	// LinBP warm-start variant on the same stream: the dynamic solver
	// re-solves each Update from the previous fixpoint, so a ~1% edge
	// delta costs a fraction of the cold iterations.
	warmStartDemo(ctx, mg.Clone(), me, ho)
}

// warmStartDemo compares a warm-started Update re-solve against a cold
// solve of the same explicit beliefs on the updated solver.
func warmStartDemo(ctx context.Context, g *lsbp.Graph, e *lsbp.Beliefs, ho *lsbp.Matrix) {
	p := &lsbp.Problem{Graph: g, Explicit: e, Ho: ho, EpsilonH: 0.02}
	delta := lsbp.Update{AddEdges: []lsbp.Edge{
		{S: 5, T: 140, W: 1}, {S: 60, T: 61, W: 1}, {S: 17, T: 171, W: 1},
	}}
	s, err := lsbp.PrepareLinBP(p, lsbp.WithTol(1e-10))
	if err != nil {
		log.Fatal(err)
	}
	defer s.Close()
	r0, err := s.Update(ctx, lsbp.Update{})
	if err != nil {
		log.Fatal(err)
	}
	warm, err := s.Update(ctx, delta)
	if err != nil {
		log.Fatal(err)
	}
	// A Solve always starts from Bˆ = 0: the cold re-solve of the
	// updated graph.
	cold, err := s.Solve(ctx, e)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nLinBP on the grown network: cold solve %d iterations;\n", r0.Iterations)
	fmt.Printf("after +%d edges: warm-started re-solve %d iterations vs %d cold (%.0f%% saved)\n",
		len(delta.AddEdges), warm.Iterations, cold.Iterations, 100*(1-float64(warm.Iterations)/float64(cold.Iterations)))
}

// verify recomputes SBP from scratch on the mirrored graph and
// explicit beliefs and compares against the updated solver's result.
func verify(res *lsbp.Result, g *lsbp.Graph, e *lsbp.Beliefs, ho *lsbp.Matrix) {
	scratch, err := lsbp.RunSBP(g.Clone(), e, ho)
	if err != nil {
		log.Fatal(err)
	}
	if !res.Beliefs.Matrix().EqualApprox(scratch.Beliefs().Matrix(), 1e-9) {
		log.Fatal("updated solver diverged from scratch recomputation")
	}
}

func printGeodesicHistogram(geodesics []int) {
	hist := map[int]int{}
	maxG := 0
	for _, g := range geodesics {
		hist[g]++
		if g > maxG {
			maxG = g
		}
	}
	fmt.Print("  geodesic histogram:")
	for g := 0; g <= maxG; g++ {
		if hist[g] > 0 {
			fmt.Printf("  g=%d:%d", g, hist[g])
		}
	}
	if hist[lsbp.Unreachable] > 0 {
		fmt.Printf("  unreachable:%d", hist[lsbp.Unreachable])
	}
	fmt.Println()
}
