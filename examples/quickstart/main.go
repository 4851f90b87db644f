// Quickstart: label a small friendship network with two classes under
// homophily, using every method the library offers through the unified
// prepared-Solver API, and show that they agree — the paper's core
// claim in a dozen lines of API.
package main

import (
	"context"
	"errors"
	"fmt"
	"log"

	lsbp "repro"
)

func main() {
	// A small social network: two communities bridged by one edge.
	//
	//   0 - 1 - 2       5 - 6
	//    \  |  /    \   |   |
	//     \ | /      4--+   |
	//       3           7 --+
	g := lsbp.NewGraph(8)
	for _, e := range [][2]int{
		{0, 1}, {1, 2}, {0, 3}, {1, 3}, {2, 3}, // community A
		{5, 6}, {6, 7}, {5, 7}, {4, 5}, // community B
		{2, 4}, // bridge
	} {
		g.AddUnitEdge(e[0], e[1])
	}

	// Two labeled users: node 0 is class 0, node 7 is class 1.
	e := lsbp.NewBeliefs(8, 2)
	e.Set(0, lsbp.LabelResidual(2, 0, 0.1))
	e.Set(7, lsbp.LabelResidual(2, 1, 0.1))

	// Homophily coupling; εH picked automatically from the exact
	// convergence criterion (Lemma 8 of the paper) at Prepare time.
	ho := lsbp.Homophily(2, 0.8)
	p := &lsbp.Problem{Graph: g, Explicit: e, Ho: ho, EpsilonH: 0}
	ctx := context.Background()

	fmt.Printf("%-8s", "node:")
	for s := 0; s < g.N(); s++ {
		fmt.Printf("%4d", s)
	}
	fmt.Println()
	for i, m := range []lsbp.Method{lsbp.BP, lsbp.LinBP, lsbp.LinBPStar, lsbp.SBP, lsbp.FABP} {
		// One prepared solver per method; in a real serving setup this
		// happens once and the solver answers many queries.
		s, err := lsbp.Prepare(p, m, lsbp.WithAutoEpsilonH())
		if err != nil {
			log.Fatal(err)
		}
		res, err := s.Solve(ctx, e)
		if err != nil && !errors.Is(err, lsbp.ErrNotConverged) {
			log.Fatal(err)
		}
		if i == 0 {
			fmt.Printf("%-8s (auto eps_H = %.4f)\n", "", s.Stats().EpsilonH)
		}
		fmt.Printf("%-8s", m.String()+":")
		for _, classes := range res.Beliefs.TopAssignment() {
			fmt.Printf("%4d", classes[0])
		}
		fmt.Println()
		s.Close()
	}

	// The same solver also serves batches: here both label configurations
	// at once through one fused multi-request kernel.
	s, err := lsbp.PrepareLinBP(p, lsbp.WithAutoEpsilonH())
	if err != nil {
		log.Fatal(err)
	}
	defer s.Close()
	e2 := lsbp.NewBeliefs(8, 2) // swapped seeds
	e2.Set(0, lsbp.LabelResidual(2, 1, 0.1))
	e2.Set(7, lsbp.LabelResidual(2, 0, 0.1))
	resps := s.SolveBatch(ctx, []lsbp.Request{{E: e}, {E: e2}})
	fmt.Printf("\nbatched: original vs swapped seeds flip every node:")
	for _, r := range resps {
		if r.Err != nil {
			log.Fatal(r.Err)
		}
		fmt.Printf(" %v", r.Beliefs.TopAssignment()[4])
	}
	fmt.Println()

	fmt.Println("\nNodes 0-3 follow the class-0 seed, 4-7 the class-1 seed;")
	fmt.Println("all methods give the same assignment.")
}
