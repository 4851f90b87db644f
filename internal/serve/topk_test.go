package serve

import (
	"cmp"
	"context"
	"errors"
	"math"
	"slices"
	"testing"

	"repro/internal/beliefs"
	"repro/internal/core"
	"repro/internal/errs"
	"repro/internal/xrand"
)

// fixpointSolver is a core.Solver whose Update publishes a fixed belief
// matrix, so TopK can be driven by arbitrary fixpoints.
type fixpointSolver struct {
	core.Solver // nil: only Stats, Update and Close are called
	fix         *beliefs.Residual
}

func (s *fixpointSolver) Stats() core.SolverStats {
	return core.SolverStats{N: s.fix.N(), K: s.fix.K()}
}

func (s *fixpointSolver) Update(context.Context, core.Update) (*core.Result, error) {
	return &core.Result{Beliefs: s.fix}, nil
}

func (s *fixpointSolver) Close() error { return nil }

// publishFixpoint returns a front end serving b as its fixpoint.
func publishFixpoint(t testing.TB, b *beliefs.Residual) *FrontEnd {
	t.Helper()
	f := New(&fixpointSolver{fix: b}, Config{MaxInFlight: 1})
	t.Cleanup(func() { f.Close() })
	if _, err := f.Update(context.Background(), core.Update{}); err != nil {
		t.Fatal(err)
	}
	return f
}

// quantizedFixpoint is an n×k belief matrix whose entries take one of
// a few levels (negative, zero and positive), so most beliefs tie.
func quantizedFixpoint(n, k int, seed uint64) *beliefs.Residual {
	return fixpointOf(n, k, seed, []float64{-0.25, -0.125, 0, 0, 0.0625, 0.125, 0.5})
}

// fixpointOf is an n×k belief matrix whose entries are drawn from
// levels.
func fixpointOf(n, k int, seed uint64, levels []float64) *beliefs.Residual {
	rng := xrand.New(seed)
	b := beliefs.New(n, k)
	for i, d := 0, b.Matrix().Data(); i < len(d); i++ {
		d[i] = levels[rng.Intn(len(levels))]
	}
	return b
}

// sortedColumn is the reference answer: every node of the class
// column fully sorted by belief descending (NaN last), ties by node
// ascending.
func sortedColumn(b *beliefs.Residual, class int) []NodeBelief {
	all := make([]NodeBelief, b.N())
	for i := range all {
		all[i] = NodeBelief{Node: i, Belief: b.Row(i)[class]}
	}
	slices.SortFunc(all, func(x, y NodeBelief) int {
		if c := cmp.Compare(y.Belief, x.Belief); c != 0 {
			return c
		}
		return x.Node - y.Node
	})
	return all
}

// sameAnswer compares TopK answers entry by entry, NaN beliefs equal.
func sameAnswer(a, b []NodeBelief) bool {
	return slices.EqualFunc(a, b, func(x, y NodeBelief) bool {
		return x.Node == y.Node && cmp.Compare(x.Belief, y.Belief) == 0
	})
}

// TestTopKMatchesFullSort is the differential pin of the bounded
// selection: on random heavily tied fixpoints, every class and every k
// (1, 2, 10, n−1, n, n+5) must return exactly the head of a full sort
// by (belief desc, node asc), node ids and beliefs both. The last seed
// mixes in NaN beliefs, which rank after every number.
func TestTopKMatchesFullSort(t *testing.T) {
	for seed := uint64(1); seed <= 7; seed++ {
		n, k := 3+int(seed)*37, 2+int(seed)%3
		b := quantizedFixpoint(n, k, seed)
		if seed == 7 {
			b = fixpointOf(n, k, seed, []float64{math.NaN(), -0.5, 0, 0, 0.25, math.NaN()})
		}
		f := publishFixpoint(t, b)
		for class := 0; class < k; class++ {
			want := sortedColumn(b, class)
			for _, kk := range []int{1, 2, 10, n - 1, n, n + 5} {
				got, err := f.TopK(class, kk)
				if err != nil {
					t.Fatal(err)
				}
				w := want[:min(kk, n)]
				if !sameAnswer(got, w) {
					t.Fatalf("seed %d class %d k=%d: TopK = %v, want %v", seed, class, kk, got, w)
				}
				if cap(got) != len(w) {
					t.Errorf("seed %d class %d k=%d: cap %d, want %d", seed, class, kk, cap(got), len(w))
				}
			}
		}
	}
}

// TestTopKErrors: the argument checks and the pre-fixpoint error.
func TestTopKErrors(t *testing.T) {
	b := quantizedFixpoint(20, 3, 9)
	f := New(&fixpointSolver{fix: b}, Config{MaxInFlight: 1})
	defer f.Close()
	if _, err := f.TopK(0, 3); !errors.Is(err, errs.ErrInvalidInput) {
		t.Errorf("pre-fixpoint err = %v, want ErrInvalidInput", err)
	}
	if _, err := f.Update(context.Background(), core.Update{}); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ class, k int }{{-1, 3}, {3, 3}, {0, 0}, {0, -2}} {
		if _, err := f.TopK(c.class, c.k); !errors.Is(err, errs.ErrInvalidInput) {
			t.Errorf("TopK(%d, %d) err = %v, want ErrInvalidInput", c.class, c.k, err)
		}
	}
}

// TestTopKAllocsIndependentOfN pins the one k-entry allocation: TopK
// makes the same number of allocations on 729- and 59,049-node
// fixpoints.
func TestTopKAllocsIndependentOfN(t *testing.T) {
	allocs := map[int]float64{}
	for _, n := range []int{729, 59049} {
		f := publishFixpoint(t, quantizedFixpoint(n, 3, uint64(n)))
		allocs[n] = testing.AllocsPerRun(20, func() {
			if _, err := f.TopK(1, 10); err != nil {
				t.Fatal(err)
			}
		})
	}
	if allocs[729] != allocs[59049] || allocs[729] > 1 {
		t.Fatalf("TopK(c, 10) allocates %v objects at n=729 and %v at n=59049, want the same single allocation", allocs[729], allocs[59049])
	}
}

// BenchmarkTopK is the read path of the mixed serving workload: top 10
// of one class over a 177,147-node (power-11 sized) fixpoint.
func BenchmarkTopK(b *testing.B) {
	const n, k = 177147, 3
	fix := beliefs.New(n, k)
	rng := xrand.New(11)
	for i, d := 0, fix.Matrix().Data(); i < len(d); i++ {
		d[i] = rng.Float64() - 0.5
	}
	f := publishFixpoint(b, fix)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.TopK(i%k, 10); err != nil {
			b.Fatal(err)
		}
	}
}
