// Research-area labeling on a DBLP-like heterogeneous graph — the
// paper's Fig. 11 scenario: papers, authors, conferences, and title
// terms over four areas (AI, DB, DM, IR), ~10% labeled, homophily
// coupling. We label the rest with SBP (fast, εH-free) and LinBP and
// compare both against the generator's ground truth.
package main

import (
	"context"
	"fmt"
	"log"

	lsbp "repro"
)

var areas = []string{"AI", "DB", "DM", "IR"}

func main() {
	d := lsbp.NewDBLPGraph(lsbp.DefaultDBLPConfig())
	n := d.G.N()

	// Label ~10% of all nodes with their true area.
	e := lsbp.NewBeliefs(n, 4)
	labeled := 0
	for v := 0; v < n; v++ {
		if v%10 == 3 {
			e.Set(v, lsbp.LabelResidual(4, d.TrueClass[v], 0.05))
			labeled++
		}
	}
	fmt.Printf("DBLP-like graph: %d nodes, %d edges, %d labeled (%.1f%%)\n",
		n, d.G.NumEdges(), labeled, 100*float64(labeled)/float64(n))

	ho := lsbp.Fig11aCoupling()
	p := &lsbp.Problem{Graph: d.G, Explicit: e, Ho: ho, EpsilonH: 0}

	for _, m := range []lsbp.Method{lsbp.LinBP, lsbp.SBP} {
		s, err := lsbp.Prepare(p, m, lsbp.WithAutoEpsilonH())
		if err != nil {
			log.Fatal(err)
		}
		res, err := s.Solve(context.Background(), e)
		if err != nil {
			log.Fatal(err)
		}
		s.Close()
		top := res.Beliefs.TopAssignment()
		var correct, total, ties int
		perArea := map[int][2]int{} // area -> {correct, total}
		for v := 0; v < n; v++ {
			if e.IsExplicit(v) {
				continue
			}
			if len(top[v]) > 1 {
				ties++
				continue
			}
			total++
			pa := perArea[d.TrueClass[v]]
			pa[1]++
			if top[v][0] == d.TrueClass[v] {
				correct++
				pa[0]++
			}
			perArea[d.TrueClass[v]] = pa
		}
		fmt.Printf("\n%s: accuracy on unlabeled nodes %.1f%% (%d/%d, %d ties skipped)\n",
			m, 100*float64(correct)/float64(total), correct, total, ties)
		for a := 0; a < 4; a++ {
			pa := perArea[a]
			if pa[1] > 0 {
				fmt.Printf("  %s: %.1f%% (%d/%d)\n", areas[a], 100*float64(pa[0])/float64(pa[1]), pa[0], pa[1])
			}
		}
	}

	// Serving: one prepared LinBP solver answering a batch of "what if
	// we had labeled different nodes" queries through fused kernel
	// rounds — the repeated-workload scenario of the paper's
	// data-management pitch.
	s, err := lsbp.PrepareLinBP(p, lsbp.WithAutoEpsilonH())
	if err != nil {
		log.Fatal(err)
	}
	defer s.Close()
	reqs := make([]lsbp.Request, 4)
	for i := range reqs {
		alt := lsbp.NewBeliefs(n, 4)
		for v := 0; v < n; v++ {
			if v%10 == i {
				alt.Set(v, lsbp.LabelResidual(4, d.TrueClass[v], 0.05))
			}
		}
		reqs[i] = lsbp.Request{E: alt}
	}
	fmt.Println("\nbatched what-if labelings (one fused solve, accuracy per seed offset):")
	for i, r := range s.SolveBatch(context.Background(), reqs) {
		if r.Err != nil {
			log.Fatal(r.Err)
		}
		top := r.Beliefs.TopAssignment()
		var correct, total int
		for v := 0; v < n; v++ {
			if reqs[i].E.IsExplicit(v) || len(top[v]) != 1 {
				continue
			}
			total++
			if top[v][0] == d.TrueClass[v] {
				correct++
			}
		}
		fmt.Printf("  offset %d: %.1f%% (%d iterations shared)\n",
			i, 100*float64(correct)/float64(total), r.Info.Iterations)
	}
}
