package experiments

import (
	"fmt"

	"repro/internal/beliefs"
	"repro/internal/core"
	"repro/internal/coupling"
	"repro/internal/dense"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/linbp"
	"repro/internal/metrics"
	"repro/internal/mooij"
	"repro/internal/sbp"
	"repro/internal/spectral"
)

// torusInstance returns the Example 20 problem components.
func torusInstance() (*core.Problem, *dense.Matrix) {
	ho, err := coupling.NewResidual(coupling.Fig1c())
	if err != nil {
		panic(err) // Fig. 1c is a constant; cannot fail
	}
	e := beliefs.New(8, 3)
	e.Set(0, []float64{2, -1, -1})
	e.Set(1, []float64{-1, 2, -1})
	e.Set(2, []float64{-1, -1, 2})
	return &core.Problem{Graph: gen.Torus(), Explicit: e, Ho: ho}, ho
}

// Example20 prints the paper's worked constants: spectral radii, exact
// and norm-based εH thresholds, and SBP's golden beliefs for v4.
func Example20(cfg Config) error {
	cfg = cfg.withDefaults()
	header(cfg.Out, "Example 20 (torus of Fig. 5c, coupling of Fig. 1c)")
	p, ho := torusInstance()

	rhoA, err := spectral.RadiusCSR(p.Graph.Adjacency(), spectral.Options{})
	if err != nil {
		return err
	}
	rhoH, err := spectral.RadiusDense(ho, spectral.Options{})
	if err != nil {
		return err
	}
	fmt.Fprintf(cfg.Out, "rho(A)          = %.4f   (paper: 2.414)\n", rhoA)
	fmt.Fprintf(cfg.Out, "rho(Ho)         = %.4f   (paper: 0.629)\n", rhoH)

	for _, row := range []struct {
		label string
		echo  bool
		exact bool
		paper string
	}{
		{"LinBP  exact", true, true, "0.488"},
		{"LinBP* exact", false, true, "0.658"},
		{"LinBP  norms", true, false, "0.360"},
		{"LinBP* norms", false, false, "0.455"},
	} {
		eps, err := linbp.MaxEpsilonH(p.Graph, ho, row.echo, row.exact)
		if err != nil {
			return err
		}
		fmt.Fprintf(cfg.Out, "eps_H %s = %.4f   (paper: %s)\n", row.label, eps, row.paper)
	}

	st, err := sbp.Run(p.Graph, p.Explicit, ho)
	if err != nil {
		return err
	}
	z := st.Beliefs().StandardizedRow(3)
	fmt.Fprintf(cfg.Out, "SBP zeta(b_v4)  = [%.3f %.3f %.3f]   (paper: [-0.069 1.258 -1.189])\n",
		z[0], z[1], z[2])
	fmt.Fprintf(cfg.Out, "SBP sigma(b_v4) = %.4f   (paper: 0.332 per unit eps_H^3)\n",
		dense.StdDev(st.Beliefs().Row(3)))
	return nil
}

// Fig4 sweeps εH on the torus and prints the standardized beliefs of v4
// under BP, LinBP, and LinBP* together with the SBP limit (Fig. 4a–c)
// and the standard deviations (Fig. 4d).
func Fig4(cfg Config) error {
	cfg = cfg.withDefaults()
	header(cfg.Out, "Fig. 4: standardized beliefs of v4 vs eps_H (torus)")
	p, ho := torusInstance()
	st, err := sbp.Run(p.Graph, p.Explicit, ho)
	if err != nil {
		return err
	}
	z := st.Beliefs().StandardizedRow(3)
	fmt.Fprintf(cfg.Out, "SBP limit: zeta = [%.4f %.4f %.4f]\n", z[0], z[1], z[2])
	fmt.Fprintf(cfg.Out, "%8s  %-28s %-28s %-28s %12s\n",
		"eps_H", "BP zeta(v4)", "LinBP zeta(v4)", "LinBP* zeta(v4)", "sigma(LinBP)")

	for _, eps := range logspace(0.01, 0.64, 13) {
		p.EpsilonH = eps
		row := fmt.Sprintf("%8.4f  ", eps)
		for _, m := range []core.Method{core.MethodBP, core.MethodLinBP, core.MethodLinBPStar} {
			res, err := solveOnce(p, m, core.WithMaxIter(200))
			if err != nil {
				return err
			}
			if !res.Converged {
				row += fmt.Sprintf("%-28s ", "(diverged)")
				continue
			}
			zz := res.Beliefs.StandardizedRow(3)
			row += fmt.Sprintf("[%7.3f %7.3f %7.3f]  ", zz[0], zz[1], zz[2])
		}
		res, err := solveOnce(p, core.MethodLinBP, core.WithMaxIter(200))
		if err != nil {
			return err
		}
		if res.Converged {
			row += fmt.Sprintf("%12.4g", dense.StdDev(res.Beliefs.Row(3)))
		} else {
			row += "           -"
		}
		fmt.Fprintln(cfg.Out, row)
	}
	return nil
}

// qualitySweep runs BP/LinBP/LinBP*/SBP on Kronecker graph #num over an
// εH sweep and returns per-εH precision/recall of each comparison the
// paper plots in Fig. 7f/7g.
type sweepPoint struct {
	eps               float64
	linbpVsBP         metrics.PR
	starVsLinBP       metrics.PR
	sbpVsLinBP        metrics.PR
	bpConv, linbpConv bool
}

func qualitySweep(num int, cfg Config, epss []float64) ([]sweepPoint, error) {
	g, e := kronProblem(num, cfg)
	p := &core.Problem{Graph: g, Explicit: e, Ho: fig6b()}
	sbpRes, err := solveOnce(p, core.MethodSBP)
	if err != nil {
		return nil, err
	}
	var out []sweepPoint
	for _, eps := range epss {
		p.EpsilonH = eps
		pt := sweepPoint{eps: eps}
		bpRes, err := solveOnce(p, core.MethodBP, core.WithMaxIter(100))
		if err != nil {
			return nil, err
		}
		linbpRes, err := solveOnce(p, core.MethodLinBP, core.WithMaxIter(200))
		if err != nil {
			return nil, err
		}
		starRes, err := solveOnce(p, core.MethodLinBPStar, core.WithMaxIter(200))
		if err != nil {
			return nil, err
		}
		pt.bpConv, pt.linbpConv = bpRes.Converged, linbpRes.Converged
		linbpTop := linbpRes.Beliefs.TopAssignment()
		if pt.bpConv && pt.linbpConv {
			pt.linbpVsBP, _ = metrics.Compare(bpRes.Beliefs.TopAssignment(), linbpTop)
		}
		if pt.linbpConv && starRes.Converged {
			pt.starVsLinBP, _ = metrics.Compare(linbpTop, starRes.Beliefs.TopAssignment())
		}
		if pt.linbpConv {
			pt.sbpVsLinBP, _ = metrics.Compare(linbpTop, sbpRes.Beliefs.TopAssignment())
		}
		out = append(out, pt)
	}
	return out, nil
}

// Fig7f prints recall and precision of LinBP w.r.t. BP over εH.
func Fig7f(cfg Config) error {
	cfg = cfg.withDefaults()
	num := min(cfg.MaxGraph, 4)
	header(cfg.Out, fmt.Sprintf("Fig. 7(f): LinBP vs BP on Kronecker graph #%d", num))
	pts, err := qualitySweep(num, cfg, logspace(1e-6, 2e-2, 10))
	if err != nil {
		return err
	}
	fmt.Fprintf(cfg.Out, "%10s %9s %9s %6s\n", "eps_H", "recall", "precision", "conv")
	for _, pt := range pts {
		if !pt.bpConv || !pt.linbpConv {
			fmt.Fprintf(cfg.Out, "%10.2g %9s %9s %6s\n", pt.eps, "-", "-", "no")
			continue
		}
		fmt.Fprintf(cfg.Out, "%10.2g %9.4f %9.4f %6s\n",
			pt.eps, pt.linbpVsBP.Recall, pt.linbpVsBP.Precision, "yes")
	}
	return nil
}

// Fig7g prints SBP and LinBP* quality w.r.t. LinBP over εH.
func Fig7g(cfg Config) error {
	cfg = cfg.withDefaults()
	num := min(cfg.MaxGraph, 4)
	header(cfg.Out, fmt.Sprintf("Fig. 7(g): SBP and LinBP* vs LinBP on Kronecker graph #%d", num))
	pts, err := qualitySweep(num, cfg, logspace(1e-6, 2e-2, 10))
	if err != nil {
		return err
	}
	fmt.Fprintf(cfg.Out, "%10s %9s %9s %11s\n", "eps_H", "SBP r", "SBP p", "LinBP* r=p")
	for _, pt := range pts {
		if !pt.linbpConv {
			fmt.Fprintf(cfg.Out, "%10.2g %9s %9s %11s\n", pt.eps, "-", "-", "-")
			continue
		}
		fmt.Fprintf(cfg.Out, "%10.2g %9.4f %9.4f %11.4f\n",
			pt.eps, pt.sbpVsLinBP.Recall, pt.sbpVsLinBP.Precision, pt.starVsLinBP.Recall)
	}
	return nil
}

// Fig11b runs the DBLP-like experiment: F1 of LinBP, LinBP*, and SBP
// w.r.t. BP over εH, under 4-class homophily (Fig. 11a).
func Fig11b(cfg Config) error {
	cfg = cfg.withDefaults()
	header(cfg.Out, "Fig. 11(b): DBLP-like graph, F1 w.r.t. BP vs eps_H")
	d := gen.DBLP(gen.DefaultDBLPConfig())
	n := d.G.N()
	// Label ~10.4% of the nodes with their true class, as in the paper.
	e := beliefs.New(n, 4)
	seeded := beliefs.SeededNodes(n, beliefs.SeedConfig{Fraction: 0.104, Seed: cfg.Seed})
	for _, v := range seeded {
		e.Set(v, beliefs.LabelResidual(4, d.TrueClass[v], 0.05))
	}
	p := &core.Problem{Graph: d.G, Explicit: e, Ho: coupling.Fig11aResidual()}
	fmt.Fprintf(cfg.Out, "nodes=%d directed-edges=%d labeled=%d\n",
		n, d.G.DirectedEdgeCount(), len(seeded))

	sbpRes, err := solveOnce(p, core.MethodSBP)
	if err != nil {
		return err
	}
	fmt.Fprintf(cfg.Out, "%10s %10s %10s %10s %12s\n", "eps_H", "LinBP F1", "LinBP* F1", "SBP F1", "truth-acc")
	for _, eps := range logspace(1e-5, 1e-2, 7) {
		p.EpsilonH = eps
		bpRes, err := solveOnce(p, core.MethodBP, core.WithMaxIter(100))
		if err != nil {
			return err
		}
		linbpRes, err := solveOnce(p, core.MethodLinBP, core.WithMaxIter(200))
		if err != nil {
			return err
		}
		starRes, err := solveOnce(p, core.MethodLinBPStar, core.WithMaxIter(200))
		if err != nil {
			return err
		}
		if !bpRes.Converged || !linbpRes.Converged {
			fmt.Fprintf(cfg.Out, "%10.2g (diverged)\n", eps)
			continue
		}
		bpTop, linbpTop := bpRes.Beliefs.TopAssignment(), linbpRes.Beliefs.TopAssignment()
		f1 := func(top [][]int) float64 {
			pr, _ := metrics.Compare(bpTop, top)
			return pr.F1
		}
		// Also report LinBP's agreement with the generator's true labels
		// on unlabeled nodes (not a paper series, but a useful sanity row).
		var correct, total int
		for s := 0; s < n; s++ {
			if e.IsExplicit(s) {
				continue
			}
			total++
			if len(linbpTop[s]) == 1 && linbpTop[s][0] == d.TrueClass[s] {
				correct++
			}
		}
		fmt.Fprintf(cfg.Out, "%10.2g %10.4f %10.4f %10.4f %12.4f\n",
			eps, f1(linbpTop), f1(starRes.Beliefs.TopAssignment()), f1(sbpRes.Beliefs.TopAssignment()),
			float64(correct)/float64(total))
	}
	return nil
}

// AppendixG compares the paper's LinBP criteria with the Mooij–Kappen
// bound for standard BP on three graphs, demonstrating that neither
// subsumes the other.
func AppendixG(cfg Config) error {
	cfg = cfg.withDefaults()
	header(cfg.Out, "Appendix G: LinBP* criterion vs Mooij–Kappen BP bound")
	ho := fig6b()
	fmt.Fprintf(cfg.Out, "%-10s %8s %10s %10s %10s %10s %12s %12s\n",
		"graph", "eps_H", "rho(A)", "rho(Aedge)", "c(H)", "rho(H^)", "LinBP* conv", "MK certifies")
	for _, tc := range []struct {
		name string
		g    *graph.Graph
	}{
		{"torus", gen.Torus()},
		{"kron#2", gen.Kronecker(6)},
		{"dense", gen.Random(60, 400, cfg.Seed)},
	} {
		epsMax, err := linbp.MaxEpsilonH(tc.g, ho, false, true)
		if err != nil {
			return err
		}
		rhoA, _ := spectral.RadiusCSR(tc.g.Adjacency(), spectral.Options{MaxIter: 5000})
		em, _ := tc.g.EdgeMatrix()
		rhoE, _ := spectral.RadiusCSR(em, spectral.Options{MaxIter: 10000})
		for _, f := range []float64{0.9, 1.1} {
			eps := f * epsMax
			hstoch := coupling.Uncenter(coupling.Scale(ho, eps))
			cH, _, cert, err := mooij.Bound(tc.g, hstoch)
			if err != nil {
				return err
			}
			rhoH, _ := spectral.RadiusDense(coupling.Scale(ho, eps), spectral.Options{})
			fmt.Fprintf(cfg.Out, "%-10s %8.4f %10.3f %10.3f %10.4f %10.4f %12v %12v\n",
				tc.name, eps, rhoA, rhoE, cH, rhoH, f < 1, cert)
		}
	}
	return nil
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
