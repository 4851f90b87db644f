package difftest

import (
	"testing"

	"repro/internal/beliefs"
	"repro/internal/core"
	"repro/internal/coupling"
	"repro/internal/graph"
)

// FuzzLinBPEquivalence fuzzes edge lists and explicit beliefs and
// asserts that every serving configuration (ordering × partitions ×
// workers) of the prepared LinBP solver reproduces the
// reference within 1e-12 after a fixed number of rounds. Run the seeds
// with plain `go test`; explore with
//
//	go test -fuzz=FuzzLinBPEquivalence ./internal/difftest
func FuzzLinBPEquivalence(f *testing.F) {
	// Seed corpus: a triangle with one labeled node per class count, a
	// star (hub stresses the nnz-balanced partitioner), a path, and a
	// denser random-ish blob.
	f.Add([]byte{0, 1, 0, 1, 1, 2, 2, 0, 200, 17, 64, 190, 12, 250})
	f.Add([]byte{1, 6, 0, 1, 0, 2, 0, 3, 0, 4, 0, 5, 9, 220, 31, 130, 77, 5, 255, 128})
	f.Add([]byte{2, 8, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 42, 42, 42, 42, 42, 42, 42, 42, 42, 42})
	f.Add([]byte{0, 30, 3, 11, 7, 23, 1, 29, 14, 2, 8, 8, 19, 4, 26, 13, 90, 180, 45, 210, 33, 156, 201, 78, 9})
	f.Fuzz(func(t *testing.T, raw []byte) {
		p := fuzzProblem(raw)
		if p == nil {
			t.Skip("bytes do not encode a valid instance")
		}
		// Fixed rounds: deterministic stopping across configurations
		// and no dependence on convergence of the fuzzed coupling.
		Run(t, p, core.MethodLinBP, DefaultTol, core.WithMaxIter(5), core.WithTol(-1))
	})
}

// FuzzDynamicEquivalence fuzzes byte-encoded update streams — edge
// inserts, deletes, relabels, and epoch commits — against a fixed
// small instance and asserts that the epoch-versioned Update path
// stays within 1e-12 of a fresh Prepare+Solve on the evolving graph at
// every commit. Explore with
//
//	go test -fuzz=FuzzDynamicEquivalence ./internal/difftest
func FuzzDynamicEquivalence(f *testing.F) {
	// Seeds: insert-heavy, delete/re-add churn, relabel-only, and a mix
	// with several commits.
	f.Add([]byte{0, 1, 5, 0, 2, 9, 3, 255, 0, 0, 4, 11, 0})
	f.Add([]byte{1, 1, 5, 3, 0, 1, 5, 0, 1, 5, 3, 255, 2, 4, 1})
	f.Add([]byte{2, 3, 1, 2, 7, 2, 3, 255, 2, 9, 0, 255})
	f.Add([]byte{0, 2, 13, 1, 13, 2, 255, 0, 13, 2, 3, 255, 2, 1, 1, 0, 6, 17, 255})
	f.Fuzz(func(t *testing.T, raw []byte) {
		stream := fuzzStream(raw)
		if len(stream) == 0 {
			t.Skip("bytes encode no committed batch")
		}
		p, err := Problem(24, 48, 3, 3)
		if err != nil {
			t.Fatal(err)
		}
		RunDynamic(t, p, core.MethodLinBP, Variant{Name: "fuzz"},
			core.UpdatePolicy{CompactionRatio: 0.1}, stream, DefaultTol)
	})
}

// FuzzResidualSchedule fuzzes byte-encoded update streams against a
// residual-scheduled LinBP solver: every committed batch's localized
// touched-row re-solve must stay within the tolerance budget of a
// fresh rounds-reference Prepare on the evolving graph. The seeds are
// adversarial for the seeded path specifically — repeated touches of
// the same rows, remove-then-re-add of the same edge (a no-op delta
// whose touched rows must still reconverge), relabel churn on one
// node, and a batch mixing all three. Explore with
//
//	go test -fuzz=FuzzResidualSchedule ./internal/difftest
func FuzzResidualSchedule(f *testing.F) {
	f.Add([]byte{0, 1, 5, 0, 1, 5, 0, 5, 1, 255, 0, 1, 5, 255})
	f.Add([]byte{0, 2, 9, 1, 2, 9, 0, 2, 9, 1, 2, 9, 255})
	f.Add([]byte{2, 3, 0, 2, 3, 1, 2, 3, 2, 2, 3, 0, 255, 2, 3, 1, 255})
	f.Add([]byte{0, 7, 8, 1, 7, 8, 2, 7, 1, 0, 8, 9, 255, 1, 8, 9, 2, 9, 2, 255, 255})
	f.Fuzz(func(t *testing.T, raw []byte) {
		stream := fuzzStream(raw)
		if len(stream) == 0 {
			t.Skip("bytes encode no committed batch")
		}
		p, err := Problem(24, 48, 3, 3)
		if err != nil {
			t.Fatal(err)
		}
		RunDynamic(t, p, core.MethodLinBP,
			Variant{Name: "fuzz-residual", Opts: []core.Option{core.WithSchedule(core.ScheduleResidual)}, Tol: ResidualScheduleTol},
			core.UpdatePolicy{CompactionRatio: 0.1}, stream, DefaultTol)
	})
}

// fuzzStream decodes bytes into DynamicBatches over a 24-node graph:
// opcode 0 = add edge (two operand bytes), 1 = delete edge (two
// operands), 2 = relabel (node, class), 255 = commit the batch.
// Batches and per-batch ops are capped to keep fuzz cases fast.
func fuzzStream(raw []byte) []DynamicBatch {
	const n = 24
	var out []DynamicBatch
	var cur DynamicBatch
	ops := 0
	for i := 0; i < len(raw) && len(out) < 6; {
		op := raw[i]
		switch {
		case op == 255:
			if ops > 0 {
				out = append(out, cur)
				cur = DynamicBatch{}
				ops = 0
			}
			i++
		case i+2 < len(raw):
			a, b := int(raw[i+1])%n, int(raw[i+2])%n
			switch op % 3 {
			case 0:
				cur.Add = append(cur.Add, graph.Edge{S: a, T: b, W: 1})
			case 1:
				cur.Del = append(cur.Del, graph.Edge{S: a, T: b})
			case 2:
				if cur.Labels == nil {
					cur.Labels = map[int]int{}
				}
				cur.Labels[a] = b % 3
			}
			ops++
			if ops >= 8 {
				out = append(out, cur)
				cur = DynamicBatch{}
				ops = 0
			}
			i += 3
		default:
			i = len(raw)
		}
	}
	if ops > 0 && len(out) < 6 {
		out = append(out, cur)
	}
	return out
}

// fuzzProblem decodes bytes into a small LinBP instance: byte 0 picks
// k ∈ {2, 3, 5}, byte 1 the node count, then byte pairs form edges
// until a zero pair or the belief section, whose bytes fill centered
// explicit rows. Returns nil when the bytes do not produce a valid
// problem.
func fuzzProblem(raw []byte) *core.Problem {
	if len(raw) < 6 {
		return nil
	}
	k := []int{2, 3, 5}[int(raw[0])%3]
	n := 2 + int(raw[1])%40
	g := graph.New(n)
	i := 2
	for ; i+1 < len(raw) && g.NumEdges() < 3*n; i += 2 {
		u, v := int(raw[i])%n, int(raw[i+1])%n
		if u == v {
			continue
		}
		g.AddUnitEdge(u, v)
	}
	if g.NumEdges() == 0 {
		return nil
	}
	e := beliefs.New(n, k)
	row := make([]float64, k)
	for node := 0; i+k-1 < len(raw) && node < n; node++ {
		var sum float64
		for c := 0; c < k-1; c++ {
			row[c] = (float64(raw[i+c]) - 127.5) / 127.5 * 0.1
			sum += row[c]
		}
		row[k-1] = -sum
		e.Set(node, row)
		i += k - 1
	}
	p := &core.Problem{Graph: g, Explicit: e, Ho: coupling.Homophily(k, 0.8), EpsilonH: 0.01}
	if p.Validate() != nil {
		return nil
	}
	return p
}
