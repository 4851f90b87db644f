package order

import (
	"fmt"
	"slices"
	"sort"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/sparse"
	"repro/internal/xrand"
)

// scrambledPath builds the adjacency of an n-node path whose node ids
// are scrambled, so the natural order has terrible bandwidth but a
// perfect ordering (bandwidth 1) exists.
func scrambledPath(n int) *sparse.CSR {
	label := make([]int, n)
	for i := range label {
		label[i] = (i*7919 + 13) % n // gcd(7919, n) = 1 for the n used below
	}
	b := sparse.NewBuilder(n, n)
	for i := 0; i+1 < n; i++ {
		b.AddSym(label[i], label[i+1], 1)
	}
	return b.ToCSR()
}

func TestRCMRestoresPathLocality(t *testing.T) {
	a := scrambledPath(500)
	before := Bandwidth(a, nil)
	p := RCM(a)
	if err := p.Validate(500); err != nil {
		t.Fatal(err)
	}
	after := Bandwidth(a, p)
	if after != 1 {
		t.Fatalf("RCM bandwidth on a path = %d, want 1 (before %d)", after, before)
	}
	if EdgeSpan(a, p) >= EdgeSpan(a, nil) {
		t.Fatal("RCM must reduce the edge span of a scrambled path")
	}
}

func TestRCMGrid(t *testing.T) {
	g := gen.Grid(30, 40)
	a := g.Adjacency()
	p := RCM(a)
	if err := p.Validate(a.Rows()); err != nil {
		t.Fatal(err)
	}
	// A 30×40 grid in row-major order has bandwidth 40; RCM must reach
	// the short dimension (+1 slack for the level rounding).
	if bw := Bandwidth(a, p); bw > 31 {
		t.Fatalf("RCM bandwidth on the grid = %d, want <= 31", bw)
	}
}

func TestRCMDisconnected(t *testing.T) {
	// Two scrambled components plus an isolated node.
	b := sparse.NewBuilder(21, 21)
	for i := 0; i+1 < 10; i++ {
		b.AddSym((i*3)%10, ((i+1)*3)%10, 1)
	}
	for i := 10; i+1 < 20; i++ {
		b.AddSym(10+((i*7)%10), 10+(((i+1)*7)%10), 1)
	}
	a := b.ToCSR()
	p := RCM(a)
	if err := p.Validate(21); err != nil {
		t.Fatal(err)
	}
	if bw := Bandwidth(a, p); bw >= Bandwidth(a, nil) {
		t.Fatalf("RCM did not improve the disconnected bandwidth: %d", bw)
	}
}

func TestByDegreePacksHubs(t *testing.T) {
	// A star: the hub must land at position 0, leaves keep their order.
	b := sparse.NewBuilder(6, 6)
	for i := 0; i < 6; i++ {
		if i != 3 {
			b.AddSym(3, i, 1) // hub is node 3
		}
	}
	a := b.ToCSR()
	p := ByDegree(a)
	if err := p.Validate(6); err != nil {
		t.Fatal(err)
	}
	if p[3] != 0 {
		t.Fatalf("hub position = %d, want 0", p[3])
	}
	// Stability: equal-degree leaves keep ascending relative order.
	prev := 0
	for i := 0; i < 6; i++ {
		if i == 3 {
			continue
		}
		if p[i] < prev {
			t.Fatalf("degree sort not stable: p = %v", p)
		}
		prev = p[i]
	}
}

func TestPermutationRows(t *testing.T) {
	p := Permutation{2, 0, 1}
	src := []float64{1, 10, 2, 20, 3, 30} // rows (1,10) (2,20) (3,30)
	dst := make([]float64, 6)
	p.ApplyRows(dst, src, 2)
	want := []float64{2, 20, 3, 30, 1, 10}
	for i := range want {
		if dst[i] != want[i] {
			t.Fatalf("ApplyRows = %v, want %v", dst, want)
		}
	}
	back := make([]float64, 6)
	p.InvertRows(back, dst, 2)
	for i := range src {
		if back[i] != src[i] {
			t.Fatalf("InvertRows round trip = %v, want %v", back, src)
		}
	}
	// nil permutation degrades to copy in both directions.
	var id Permutation
	id.ApplyRows(dst, src, 2)
	for i := range src {
		if dst[i] != src[i] {
			t.Fatal("nil ApplyRows must copy")
		}
	}
	inv := p.Inverse()
	if inv[2] != 0 || inv[0] != 1 || inv[1] != 2 {
		t.Fatalf("Inverse = %v", inv)
	}
}

// TestInvertRowsWidths checks the row width InvertRows special-cases
// (and the generic copy on either side) against the definition
// dst row i = src row p[i], and the ApplyRows round trip.
func TestInvertRowsWidths(t *testing.T) {
	p := Permutation{3, 0, 4, 1, 2}
	for k := 1; k <= 5; k++ {
		src := make([]float64, len(p)*k)
		for i := range src {
			src[i] = float64(i) + 0.5
		}
		dst := make([]float64, len(src))
		p.InvertRows(dst, src, k)
		for i, nw := range p {
			for c := 0; c < k; c++ {
				if dst[i*k+c] != src[nw*k+c] {
					t.Fatalf("k=%d: InvertRows row %d = %v, want row %d of %v", k, i, dst[i*k:i*k+k], nw, src)
				}
			}
		}
		back := make([]float64, len(src))
		p.ApplyRows(back, dst, k)
		for i := range src {
			if back[i] != src[i] {
				t.Fatalf("k=%d: ApplyRows(InvertRows) = %v, want %v", k, back, src)
			}
		}
	}
}

func TestValidateRejectsBadPermutations(t *testing.T) {
	for _, bad := range []Permutation{
		{0, 0, 2},
		{0, 1},
		{0, 1, 3},
		{-1, 1, 2},
	} {
		if err := bad.Validate(3); err == nil {
			t.Fatalf("permutation %v must fail validation", bad)
		}
	}
	if err := (Permutation{2, 1, 0}).Validate(3); err != nil {
		t.Fatal(err)
	}
}

func TestPartitionValidate(t *testing.T) {
	for _, bad := range [][]int{
		nil,
		{0},
		{1, 4},
		{0, 3},
		{0, 3, 2, 4},
		{-1, 4},
	} {
		if err := ValidateStarts(bad, 4); err == nil {
			t.Fatalf("invalid boundaries %v passed ValidateStarts", bad)
		}
	}
	for _, good := range [][]int{{0, 4}, {0, 2, 4}, {0, 2, 2, 4}, {0, 0, 4}} {
		if err := ValidateStarts(good, 4); err != nil {
			t.Fatalf("boundaries %v (empty blocks allowed): %v", good, err)
		}
	}
}

func TestStrategyRoundTrip(t *testing.T) {
	for _, s := range []Strategy{StrategyAuto, StrategyRCM, StrategyDegree, StrategyNone} {
		got, err := ParseStrategy(s.String())
		if err != nil || got != s {
			t.Fatalf("ParseStrategy(%q) = %v, %v", s.String(), got, err)
		}
	}
	if _, err := ParseStrategy("bogus"); err == nil {
		t.Fatal("bogus strategy must fail to parse")
	}
}

func TestComputeForcedStrategies(t *testing.T) {
	a := scrambledPath(100)
	if p, s := Compute(StrategyNone, a); p != nil || s != StrategyNone {
		t.Fatal("none must keep the natural order")
	}
	if p, s := Compute(StrategyRCM, a); p == nil || s != StrategyRCM {
		t.Fatal("forced rcm must return a permutation")
	}
	if p, s := Compute(StrategyDegree, a); p == nil || s != StrategyDegree {
		t.Fatal("forced degree must return a permutation")
	}
}

func TestComputeAutoSmallGraphKeepsOrder(t *testing.T) {
	a := scrambledPath(100) // far below AutoMinNodes
	if p, s := Compute(StrategyAuto, a); p != nil || s != StrategyNone {
		t.Fatalf("auto below AutoMinNodes must keep the natural order, got %v", s)
	}
}

func TestComputeAutoPicksImprovement(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a graph above AutoMinNodes")
	}
	a := scrambledPath(AutoMinNodes + 1)
	p, s := Compute(StrategyAuto, a)
	if s != StrategyRCM || p == nil {
		t.Fatalf("auto on a scrambled path chose %v, want rcm", s)
	}
	if Bandwidth(a, p) != 1 {
		t.Fatalf("auto RCM bandwidth = %d", Bandwidth(a, p))
	}
}

func TestRCMOnKronecker(t *testing.T) {
	g := gen.Kronecker(6) // 729 nodes
	a := g.Adjacency()
	p := RCM(a)
	if err := p.Validate(a.Rows()); err != nil {
		t.Fatal(err)
	}
	if span := EdgeSpan(a, p); span >= EdgeSpan(a, nil) {
		t.Fatalf("RCM span %d did not improve on natural %d", span, EdgeSpan(a, nil))
	}
	// Profile is a diagnostics metric; it must be consistent with a
	// valid permutation (finite, computed without panics).
	_ = Profile(a, p)
	_ = Profile(a, nil)
}

// referenceByDegree is the descending-degree ordering as a stable
// comparison sort: the definition the counting sort of ByDegree must
// reproduce.
func referenceByDegree(a *sparse.CSR) Permutation {
	n := a.Rows()
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(x, y int) bool {
		return a.RowNNZ(idx[x]) > a.RowNNZ(idx[y])
	})
	perm := make(Permutation, n)
	for nw, old := range idx {
		perm[old] = nw
	}
	return perm
}

// referenceRCM is RCM over neighbor lists of the union pattern of a and
// aᵀ (no self-loops, ascending, deduplicated) with each BFS batch
// sorted by sort.Slice: the definition RCM must reproduce on the
// structurally symmetric matrices it accepts, where the union is a's
// own pattern.
func referenceRCM(a *sparse.CSR) Permutation {
	n := a.Rows()
	nbr := referenceSymmetrizedPattern(a)
	deg := make([]int, n)
	for i, row := range nbr {
		deg[i] = len(row)
	}
	visited := make([]bool, n)
	cm := make([]int, 0, n)
	level := make([]int, n)
	queue := make([]int, 0, n)
	scratch := make([]int, 0, 64)
	bfs := func(start int, mark bool) (order []int, lastLevel int) {
		queue = queue[:0]
		queue = append(queue, start)
		visited[start] = true
		level[start] = 0
		maxLvl := 0
		for head := 0; head < len(queue); head++ {
			u := queue[head]
			scratch = scratch[:0]
			for _, v := range nbr[u] {
				if !visited[v] {
					visited[v] = true
					level[v] = level[u] + 1
					if level[v] > maxLvl {
						maxLvl = level[v]
					}
					scratch = append(scratch, v)
				}
			}
			sort.Slice(scratch, func(x, y int) bool {
				if deg[scratch[x]] != deg[scratch[y]] {
					return deg[scratch[x]] < deg[scratch[y]]
				}
				return scratch[x] < scratch[y]
			})
			queue = append(queue, scratch...)
		}
		lastLevel = len(queue)
		for i := len(queue) - 1; i >= 0 && level[queue[i]] == maxLvl; i-- {
			lastLevel = i
		}
		if !mark {
			for _, u := range queue {
				visited[u] = false
			}
		}
		return queue, lastLevel
	}
	for start := 0; start < n; start++ {
		if visited[start] {
			continue
		}
		root := start
		bestEcc := -1
		for sweep := 0; sweep < 4; sweep++ {
			orderSeen, last := bfs(root, false)
			ecc := level[orderSeen[len(orderSeen)-1]]
			if ecc <= bestEcc {
				break
			}
			bestEcc = ecc
			next := root
			for _, u := range orderSeen[last:] {
				if next == root || deg[u] < deg[next] {
					next = u
				}
			}
			if next == root {
				break
			}
			root = next
		}
		comp, _ := bfs(root, true)
		cm = append(cm, comp...)
	}
	perm := make(Permutation, n)
	for i, u := range cm {
		perm[u] = n - 1 - i
	}
	return perm
}

func referenceSymmetrizedPattern(a *sparse.CSR) [][]int {
	n := a.Rows()
	var at sparse.CSR
	a.TransposeInto(&at)
	rowPtr, colIdx, _ := a.Index()
	tRowPtr, tColIdx, _ := at.Index()
	nbr := make([][]int, n)
	for i := 0; i < n; i++ {
		row := make([]int, 0, (rowPtr[i+1]-rowPtr[i])+(tRowPtr[i+1]-tRowPtr[i]))
		p, q := rowPtr[i], tRowPtr[i]
		// Merge the two ascending column lists, dropping duplicates and
		// the diagonal.
		for p < rowPtr[i+1] || q < tRowPtr[i+1] {
			var j int
			switch {
			case p >= rowPtr[i+1]:
				j = tColIdx[q]
				q++
			case q >= tRowPtr[i+1]:
				j = colIdx[p]
				p++
			case colIdx[p] < tColIdx[q]:
				j = colIdx[p]
				p++
			case colIdx[p] > tColIdx[q]:
				j = tColIdx[q]
				q++
			default:
				j = colIdx[p]
				p++
				q++
			}
			if j != i && (len(row) == 0 || row[len(row)-1] != j) {
				row = append(row, j)
			}
		}
		nbr[i] = row
	}
	return nbr
}

// layoutCases are the structurally symmetric matrices the layout code
// is held to its references on: Kronecker powers, a grid, a scrambled
// path, random graphs, and random multigraphs with self-loops, isolated
// nodes and several components.
func layoutCases(t *testing.T) map[string]*sparse.CSR {
	t.Helper()
	cases := map[string]*sparse.CSR{
		"grid30x40":     gen.Grid(30, 40).Adjacency(),
		"scrambledPath": scrambledPath(500),
	}
	for p := 3; p <= 8; p++ {
		cases[fmt.Sprintf("kron%d", p)] = gen.Kronecker(p).Adjacency()
	}
	for _, nm := range [][2]int{{50, 60}, {300, 1200}, {2000, 9000}} {
		cases[fmt.Sprintf("random%d_%d", nm[0], nm[1])] = gen.Random(nm[0], nm[1], uint64(nm[0])).Adjacency()
	}
	for seed := uint64(1); seed <= 6; seed++ {
		rng := xrand.New(seed)
		n := 40 + rng.Intn(400)
		g := graph.New(n)
		// Components on disjoint id ranges, with the rest isolated:
		// stars (hubs above the insertion-sort cut), paths, self-loops
		// and parallel edges.
		lo := 0
		for c := 0; c < 3 && lo < n-10; c++ {
			hi := lo + 5 + rng.Intn((n-lo)/2)
			for e := 0; e < 3*(hi-lo); e++ {
				u, v := lo+rng.Intn(hi-lo), lo+rng.Intn(hi-lo)
				if e%4 == 0 {
					u = lo // the component's hub
				}
				g.AddEdge(u, v, 0.5+rng.Float64())
			}
			lo = hi + rng.Intn(3)
		}
		cases[fmt.Sprintf("multigraph_seed%d", seed)] = g.Adjacency()
	}
	return cases
}

func TestRCMMatchesReference(t *testing.T) {
	for name, a := range layoutCases(t) {
		if got, want := RCM(a), referenceRCM(a); !slices.Equal(got, want) {
			t.Errorf("%s: RCM differs from the reference", name)
		}
	}
}

func TestByDegreeMatchesReference(t *testing.T) {
	for name, a := range layoutCases(t) {
		if got, want := ByDegree(a), referenceByDegree(a); !slices.Equal(got, want) {
			t.Errorf("%s: ByDegree differs from the reference", name)
		}
	}
}
