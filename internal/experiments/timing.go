package experiments

import (
	"fmt"
	"time"

	"repro/internal/beliefs"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/linbp"
	"repro/internal/relalgo"
	"repro/internal/reldb"
	"repro/internal/sbp"
)

// Fig6a prints the Kronecker graph table: nodes, directed edges, e/n,
// and the explicit-belief counts at 5% and 1‰. Graphs above MaxGraph
// are reported from the closed-form counts without being generated.
func Fig6a(cfg Config) error {
	cfg = cfg.withDefaults()
	header(cfg.Out, "Fig. 6(a): Kronecker graphs")
	fmt.Fprintf(cfg.Out, "%3s %10s %12s %7s %9s %7s %10s\n",
		"#", "nodes", "edges", "e/n", "5%", "1permil", "generated")
	n, e := 1, 1
	for p := 1; p <= 4; p++ {
		n *= 3
		e *= 4
	}
	for num := 1; num <= 9; num++ {
		n *= 3
		e *= 4
		generated := "no"
		if num <= cfg.MaxGraph {
			g := gen.Kronecker(gen.KroneckerGraphNumber(num))
			if g.N() != n || g.DirectedEdgeCount() != e {
				return fmt.Errorf("fig6a: graph #%d counts %d/%d, want %d/%d",
					num, g.N(), g.DirectedEdgeCount(), n, e)
			}
			generated = "yes"
		}
		permil := (n + 500) / 1000
		if permil < 1 {
			permil = 1 // the paper labels at least one node
		}
		fmt.Fprintf(cfg.Out, "%3d %10d %12d %7.1f %9d %7d %10s\n",
			num, n, e, float64(e)/float64(n), n/20, permil, generated)
	}
	return nil
}

// methodTime runs one method on graph #num (fixed iterations, as in the
// paper's timing methodology) and returns the elapsed computation time.
func methodTime(num int, m core.Method, cfg Config) (time.Duration, int, error) {
	g, e := kronProblem(num, cfg)
	p := &core.Problem{Graph: g, Explicit: e, Ho: fig6b(), EpsilonH: 0.001}
	// Warm the adjacency cache so timing covers computation only, as the
	// paper's JAVA runs excluded loading and initialization.
	g.Adjacency()
	g.WeightedDegrees()
	var err error
	d := timeIt(func() {
		_, err = solveOnce(p, m, core.WithMaxIter(cfg.Iterations), core.WithTol(-1))
	})
	return d, g.DirectedEdgeCount(), err
}

// Fig7a prints in-memory scalability: BP vs LinBP runtimes per graph.
func Fig7a(cfg Config) error {
	cfg = cfg.withDefaults()
	header(cfg.Out, "Fig. 7(a): in-memory scalability (fixed iterations)")
	fmt.Fprintf(cfg.Out, "%3s %12s %12s %12s %10s\n", "#", "edges", "BP", "LinBP", "BP/LinBP")
	for num := 1; num <= cfg.MaxGraph; num++ {
		bpT, edges, err := methodTime(num, core.MethodBP, cfg)
		if err != nil {
			return err
		}
		linT, _, err := methodTime(num, core.MethodLinBP, cfg)
		if err != nil {
			return err
		}
		fmt.Fprintf(cfg.Out, "%3d %12d %12s %12s %10.1f\n",
			num, edges, bpT.Round(time.Microsecond), linT.Round(time.Microsecond),
			float64(bpT)/float64(linT))
	}
	return nil
}

// relProblem loads Kronecker graph #num into the relational engine.
func relProblem(num int, cfg Config) (*relalgo.DB, *graph.Graph, *beliefs.Residual) {
	g, e := kronProblem(num, cfg)
	return relalgo.Load(g, e, fig6b().Scaled(0.001)), g, e
}

// Fig7b prints relational-engine scalability: LinBP vs SBP vs ΔSBP.
// ΔSBP re-labels 1‰ of all nodes incrementally, as in Fig. 7(c).
func Fig7b(cfg Config) error {
	cfg = cfg.withDefaults()
	header(cfg.Out, "Fig. 7(b): relational engine scalability")
	fmt.Fprintf(cfg.Out, "%3s %12s %12s %12s %12s %12s %12s\n",
		"#", "edges", "LinBP", "SBP", "dSBP", "LinBP/SBP", "SBP/dSBP")
	for num := 1; num <= cfg.MaxRelGraph; num++ {
		db, g, _ := relProblem(num, cfg)
		linT := timeIt(func() { db.LinBP(cfg.Iterations, true) })

		var st *relalgo.SBPState
		sbpT := timeIt(func() { st = db.SBP() })

		// ΔSBP: 1‰ of all nodes get new labels.
		en := reldb.New("En", []string{"v", "c", "b"})
		count := g.N() / 1000
		if count < 1 {
			count = 1
		}
		fresh, _ := beliefs.Seed(g.N(), 3, beliefs.SeedConfig{Count: count, Seed: cfg.Seed * 31})
		for _, v := range fresh.ExplicitNodes() {
			for c, b := range fresh.Row(v) {
				if b != 0 {
					en.Insert(float64(v), float64(c), b)
				}
			}
		}
		deltaT := timeIt(func() { st.AddExplicitBeliefs(en) })
		fmt.Fprintf(cfg.Out, "%3d %12d %12s %12s %12s %12.1f %12.1f\n",
			num, g.DirectedEdgeCount(),
			linT.Round(time.Microsecond), sbpT.Round(time.Microsecond), deltaT.Round(time.Microsecond),
			float64(linT)/float64(sbpT), float64(sbpT)/float64(deltaT))
	}
	return nil
}

// Fig7c prints the combined timing table of the paper: in-memory BP and
// LinBP, relational LinBP, SBP, and ΔSBP, with the same ratio columns.
func Fig7c(cfg Config) error {
	cfg = cfg.withDefaults()
	header(cfg.Out, "Fig. 7(c): combined timing table")
	fmt.Fprintf(cfg.Out, "%3s %12s %12s | %12s %12s %12s | %9s %10s %9s\n",
		"#", "BP(mem)", "LinBP(mem)", "LinBP(rel)", "SBP(rel)", "dSBP(rel)",
		"BP/LinBP", "LinBP/SBP", "SBP/dSBP")
	maxNum := min(cfg.MaxGraph, cfg.MaxRelGraph)
	for num := 1; num <= maxNum; num++ {
		bpT, _, err := methodTime(num, core.MethodBP, cfg)
		if err != nil {
			return err
		}
		linMemT, _, err := methodTime(num, core.MethodLinBP, cfg)
		if err != nil {
			return err
		}
		db, g, _ := relProblem(num, cfg)
		linRelT := timeIt(func() { db.LinBP(cfg.Iterations, true) })
		var st *relalgo.SBPState
		sbpT := timeIt(func() { st = db.SBP() })
		en := reldb.New("En", []string{"v", "c", "b"})
		count := g.N() / 1000
		if count < 1 {
			count = 1
		}
		fresh, _ := beliefs.Seed(g.N(), 3, beliefs.SeedConfig{Count: count, Seed: cfg.Seed * 31})
		for _, v := range fresh.ExplicitNodes() {
			for c, b := range fresh.Row(v) {
				if b != 0 {
					en.Insert(float64(v), float64(c), b)
				}
			}
		}
		dT := timeIt(func() { st.AddExplicitBeliefs(en) })
		fmt.Fprintf(cfg.Out, "%3d %12s %12s | %12s %12s %12s | %9.1f %10.1f %9.1f\n",
			num, bpT.Round(time.Microsecond), linMemT.Round(time.Microsecond),
			linRelT.Round(time.Microsecond), sbpT.Round(time.Microsecond), dT.Round(time.Microsecond),
			float64(bpT)/float64(linMemT), float64(linRelT)/float64(sbpT), float64(sbpT)/float64(dT))
	}
	return nil
}

// Fig7d prints per-iteration work: LinBP revisits every edge each round,
// while SBP visits each geodesic level once.
func Fig7d(cfg Config) error {
	cfg = cfg.withDefaults()
	num := cfg.MaxGraph
	header(cfg.Out, fmt.Sprintf("Fig. 7(d): per-iteration time on Kronecker graph #%d", num))
	g, e := kronProblem(num, cfg)
	h := fig6b().Scaled(0.001)

	// LinBP: time each round inside a single run via the iteration hook.
	fmt.Fprintf(cfg.Out, "%5s %14s %14s %12s\n", "iter", "LinBP", "SBP(level)", "SBP nodes")
	var linTimes []time.Duration
	lastLin := time.Now()
	if _, err := linbp.Run(g, e, h, linbp.Options{
		EchoCancellation: true, MaxIter: cfg.Iterations, Tol: -1,
		OnIteration: func(iter int, delta float64) {
			now := time.Now()
			linTimes = append(linTimes, now.Sub(lastLin))
			lastLin = now
		},
	}); err != nil {
		return err
	}
	// SBP: time each geodesic level.
	type lvl struct {
		nodes int
		d     time.Duration
	}
	var levels []lvl
	last := time.Now()
	_, err := sbp.RunInstrumented(g, e, h, func(level, nodes int) {
		now := time.Now()
		levels = append(levels, lvl{nodes: nodes, d: now.Sub(last)})
		last = now
	})
	if err != nil {
		return err
	}
	for i := 0; i < len(linTimes) || i < len(levels); i++ {
		var linD time.Duration
		if i < len(linTimes) {
			linD = linTimes[i]
		}
		sbpD, nodes := time.Duration(0), 0
		if i < len(levels) {
			sbpD, nodes = levels[i].d, levels[i].nodes
		}
		fmt.Fprintf(cfg.Out, "%5d %14s %14s %12d\n",
			i+1, linD.Round(time.Microsecond), sbpD.Round(time.Microsecond), nodes)
	}
	return nil
}

// Fig7e compares incremental ΔSBP against SBP-from-scratch while the
// fraction of *new* explicit beliefs grows (Fig. 7(e): crossover ≈ 50%).
func Fig7e(cfg Config) error {
	cfg = cfg.withDefaults()
	num := cfg.MaxRelGraph
	header(cfg.Out, fmt.Sprintf("Fig. 7(e): dSBP vs SBP on Kronecker graph #%d (10%% explicit after update)", num))
	g := gen.Kronecker(gen.KroneckerGraphNumber(num))
	n := g.N()
	total := n / 10
	fmt.Fprintf(cfg.Out, "%10s %14s %14s\n", "new-frac", "dSBP", "SBP(scratch)")
	for _, frac := range []float64{0.1, 0.2, 0.4, 0.6, 0.8, 1.0} {
		newCount := int(frac * float64(total))
		oldCount := total - newCount
		all, _ := beliefs.Seed(n, 3, beliefs.SeedConfig{Count: total, Seed: cfg.Seed})
		nodes := all.ExplicitNodes()
		oldE := beliefs.New(n, 3)
		newE := reldb.New("En", []string{"v", "c", "b"})
		for i, v := range nodes {
			if i < oldCount {
				oldE.Set(v, all.Row(v))
				continue
			}
			for c, b := range all.Row(v) {
				if b != 0 {
					newE.Insert(float64(v), float64(c), b)
				}
			}
		}
		// Incremental: start from the old state, add the new beliefs.
		db := relalgo.Load(g, oldE, fig6b())
		st := db.SBP()
		deltaT := timeIt(func() { st.AddExplicitBeliefs(newE) })
		// Scratch: full SBP with all beliefs.
		db2 := relalgo.Load(g, all, fig6b())
		scratchT := timeIt(func() { db2.SBP() })
		fmt.Fprintf(cfg.Out, "%10.0f%% %13s %14s\n",
			frac*100, deltaT.Round(time.Microsecond), scratchT.Round(time.Microsecond))
	}
	return nil
}

// Fig10a measures runtime against the fraction of explicit nodes:
// LinBP grows slightly, SBP shrinks slightly (Appendix F.1).
func Fig10a(cfg Config) error {
	cfg = cfg.withDefaults()
	num := cfg.MaxGraph
	header(cfg.Out, fmt.Sprintf("Fig. 10(a): runtime vs fraction of explicit nodes (graph #%d, in-memory)", num))
	g := gen.Kronecker(gen.KroneckerGraphNumber(num))
	g.Adjacency()
	g.WeightedDegrees()
	h := fig6b().Scaled(0.001)
	fmt.Fprintf(cfg.Out, "%10s %14s %14s\n", "explicit", "LinBP", "SBP")
	for _, frac := range []float64{0.1, 0.3, 0.5, 0.7, 0.9} {
		e, _ := beliefs.Seed(g.N(), 3, beliefs.SeedConfig{Fraction: frac, Seed: cfg.Seed})
		linT := timeIt(func() {
			if _, err := linbp.Run(g, e, h, linbp.Options{EchoCancellation: true, MaxIter: cfg.Iterations, Tol: -1}); err != nil {
				panic(err)
			}
		})
		sbpT := timeIt(func() {
			if _, err := sbp.Run(g, e, fig6b()); err != nil {
				panic(err)
			}
		})
		fmt.Fprintf(cfg.Out, "%9.0f%% %14s %14s\n",
			frac*100, linT.Round(time.Microsecond), sbpT.Round(time.Microsecond))
	}
	return nil
}

// Fig10b compares incremental edge insertion (Algorithm 4) against SBP
// from scratch while the fraction of new edges grows (Appendix F.1:
// crossover ≈ 3%).
func Fig10b(cfg Config) error {
	cfg = cfg.withDefaults()
	num := cfg.MaxRelGraph
	header(cfg.Out, fmt.Sprintf("Fig. 10(b): dSBP-edges vs SBP on Kronecker graph #%d (10%% explicit)", num))
	full := gen.Kronecker(gen.KroneckerGraphNumber(num))
	n := full.N()
	e, _ := beliefs.Seed(n, 3, beliefs.SeedConfig{Fraction: 0.1, Seed: cfg.Seed})
	edges := full.Edges()
	fmt.Fprintf(cfg.Out, "%10s %14s %14s\n", "new-frac", "dSBP-edges", "SBP(scratch)")
	for _, frac := range []float64{0.005, 0.01, 0.02, 0.05, 0.1} {
		newCount := int(frac * float64(len(edges)))
		if newCount < 1 {
			newCount = 1
		}
		base := graph.New(n)
		for _, ed := range edges[:len(edges)-newCount] {
			base.AddEdge(ed.S, ed.T, ed.W)
		}
		batch := append([]graph.Edge(nil), edges[len(edges)-newCount:]...)

		db := relalgo.Load(base, e, fig6b())
		st := db.SBP()
		deltaT := timeIt(func() { st.AddEdges(batch) })

		db2 := relalgo.Load(full, e, fig6b())
		scratchT := timeIt(func() { db2.SBP() })
		fmt.Fprintf(cfg.Out, "%9.1f%% %14s %14s\n",
			frac*100, deltaT.Round(time.Microsecond), scratchT.Round(time.Microsecond))
	}
	return nil
}
