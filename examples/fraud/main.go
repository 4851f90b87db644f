// Fraud detection in an online auction network — the paper's motivating
// example (Fig. 1c): three classes with mixed homophily and heterophily.
// Honest users trade with honest users and accomplices; accomplices
// never interact with each other but feed fraudsters' reputations;
// fraudsters form near-bipartite cores with accomplices.
//
// We synthesize such a network, reveal a few known-honest users and a
// couple of convicted fraudsters, and let LinBP infer everyone else.
package main

import (
	"context"
	"fmt"
	"log"

	lsbp "repro"
)

func main() {
	cfg := lsbp.DefaultFraudConfig()
	cfg.Density = 0.1 // a denser market gives each account more signal
	g, truth := lsbp.FraudGraph(cfg)
	n := g.N()
	classNames := []string{"honest", "accomplice", "fraudster"}

	// Reveal 10% of honest users, a third of the fraudsters, and a few
	// accomplices (investigations usually start from confirmed cases and
	// expand through their known associates).
	e := lsbp.NewBeliefs(n, 3)
	labeled := 0
	for v := 0; v < n; v++ {
		var ok bool
		switch truth[v] {
		case 0:
			ok = v%10 == 0
		case 1:
			ok = v%4 == 0
		case 2:
			ok = v%3 == 0
		}
		if ok {
			e.Set(v, lsbp.LabelResidual(3, truth[v], 0.1))
			labeled++
		}
	}

	// Fig. 1c as the coupling matrix; εH auto-scaled at Prepare time.
	// An investigation dashboard re-scores the same marketplace as new
	// labels arrive, so the LinBP solver is prepared once.
	ho, err := lsbp.NewCouplingFromStochastic(lsbp.Fig1c())
	if err != nil {
		log.Fatal(err)
	}
	p := &lsbp.Problem{Graph: g, Explicit: e, Ho: ho, EpsilonH: 0}
	s, err := lsbp.PrepareLinBP(p, lsbp.WithAutoEpsilonH())
	if err != nil {
		log.Fatal(err)
	}
	defer s.Close()
	res, err := s.Solve(context.Background(), e)
	if err != nil {
		log.Fatal(err)
	}
	top := res.Beliefs.TopAssignment()

	fmt.Printf("auction network: %d users, %d interactions, %d labeled\n",
		n, g.NumEdges(), labeled)
	fmt.Printf("auto eps_H = %.4f, converged after %d iterations\n\n",
		s.Stats().EpsilonH, res.Iterations)

	// Confusion matrix over the unlabeled nodes.
	var confusion [3][3]int
	var correct, total int
	for v := 0; v < n; v++ {
		if e.IsExplicit(v) || len(top[v]) != 1 {
			continue
		}
		pred := top[v][0]
		confusion[truth[v]][pred]++
		total++
		if pred == truth[v] {
			correct++
		}
	}
	fmt.Println("confusion over unlabeled users (rows = truth, cols = predicted):")
	fmt.Printf("%12s %8s %11s %10s\n", "", "honest", "accomplice", "fraudster")
	for c := 0; c < 3; c++ {
		fmt.Printf("%12s %8d %11d %10d\n",
			classNames[c], confusion[c][0], confusion[c][1], confusion[c][2])
	}
	fmt.Printf("\naccuracy: %.1f%% (%d/%d)\n", 100*float64(correct)/float64(total), correct, total)

	// Show the most suspicious unlabeled accounts.
	fmt.Println("\nmost fraudster-leaning unlabeled accounts:")
	type suspect struct {
		node  int
		score float64
	}
	var best suspect
	shown := 0
	seen := map[int]bool{}
	for shown < 5 {
		best = suspect{node: -1}
		for v := 0; v < n; v++ {
			if e.IsExplicit(v) || seen[v] {
				continue
			}
			if s := res.Beliefs.StandardizedRow(v)[2]; best.node == -1 || s > best.score {
				best = suspect{node: v, score: s}
			}
		}
		if best.node == -1 {
			break
		}
		seen[best.node] = true
		fmt.Printf("  user %3d: fraud z-score %.3f (truth: %s)\n",
			best.node, best.score, classNames[truth[best.node]])
		shown++
	}
}
