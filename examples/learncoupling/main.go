// Learning the coupling matrix from data — the paper assumes Hˆo is
// "given, e.g., by domain experts" (footnote 1) and defers learning it
// to future work. This example closes that loop: estimate the coupling
// from the labeled subgraph of the auction network, compare it to the
// true Fig. 1c matrix, and show that inference with the learned
// coupling performs on par with the expert one.
package main

import (
	"context"
	"fmt"
	"log"

	lsbp "repro"
)

func main() {
	cfg := lsbp.DefaultFraudConfig()
	cfg.Density = 0.1
	g, truth := lsbp.FraudGraph(cfg)
	n := g.N()

	// Partial labels: investigators know a third of each class.
	partial := make([]int, n)
	e := lsbp.NewBeliefs(n, 3)
	for v := 0; v < n; v++ {
		partial[v] = lsbp.UnlabeledNode
		if v%3 == 0 {
			partial[v] = truth[v]
			e.Set(v, lsbp.LabelResidual(3, truth[v], 0.1))
		}
	}

	learned, err := lsbp.EstimateCoupling(g, partial, 3)
	if err != nil {
		log.Fatal(err)
	}
	expert, err := lsbp.NewCouplingFromStochastic(lsbp.Fig1c())
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("expert residual coupling (Fig. 1c, centered):")
	printMatrix(expert)
	fmt.Println("\nlearned residual coupling (from labeled edges):")
	printMatrix(learned)

	for _, run := range []struct {
		name string
		ho   *lsbp.Matrix
	}{{"expert", expert}, {"learned", learned}} {
		p := &lsbp.Problem{Graph: g, Explicit: e, Ho: run.ho, EpsilonH: 0}
		s, err := lsbp.PrepareLinBP(p, lsbp.WithAutoEpsilonH())
		if err != nil {
			log.Fatal(err)
		}
		res, err := s.Solve(context.Background(), e)
		if err != nil {
			log.Fatal(err)
		}
		s.Close()
		top := res.Beliefs.TopAssignment()
		var correct, total int
		for v := 0; v < n; v++ {
			if partial[v] != lsbp.UnlabeledNode || len(top[v]) != 1 {
				continue
			}
			total++
			if top[v][0] == truth[v] {
				correct++
			}
		}
		fmt.Printf("\n%s coupling: accuracy %.1f%% (%d/%d unlabeled nodes)\n",
			run.name, 100*float64(correct)/float64(total), correct, total)
	}
}

func printMatrix(m *lsbp.Matrix) {
	for i := 0; i < m.Rows(); i++ {
		for j := 0; j < m.Cols(); j++ {
			fmt.Printf(" %+.3f", m.At(i, j))
		}
		fmt.Println()
	}
}
