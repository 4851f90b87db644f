package sparse

import (
	"math"
	"slices"
	"testing"
	"testing/quick"
)

func denseOf(m *CSR) [][]float64 {
	out := make([][]float64, m.Rows())
	for i := range out {
		out[i] = make([]float64, m.Cols())
		m.Row(i, func(j int, v float64) { out[i][j] = v })
	}
	return out
}

func TestBuilderBasics(t *testing.T) {
	b := NewBuilder(2, 3)
	b.Add(0, 1, 2)
	b.Add(1, 2, 3)
	if b.NNZ() != 2 {
		t.Fatalf("NNZ = %d", b.NNZ())
	}
	m := b.ToCSR()
	if m.Rows() != 2 || m.Cols() != 3 || m.NNZ() != 2 {
		t.Fatalf("bad CSR shape %dx%d nnz=%d", m.Rows(), m.Cols(), m.NNZ())
	}
	if m.At(0, 1) != 2 || m.At(1, 2) != 3 || m.At(0, 0) != 0 {
		t.Fatal("wrong values")
	}
}

func TestBuilderOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewBuilder(2, 2).Add(2, 0, 1)
}

func TestDuplicatesSummed(t *testing.T) {
	b := NewBuilder(1, 2)
	b.Add(0, 1, 2)
	b.Add(0, 1, 3)
	m := b.ToCSR()
	if m.NNZ() != 1 || m.At(0, 1) != 5 {
		t.Fatalf("duplicates not summed: nnz=%d v=%v", m.NNZ(), m.At(0, 1))
	}
}

func TestCancellationDropsZeros(t *testing.T) {
	b := NewBuilder(1, 2)
	b.Add(0, 0, 1)
	b.Add(0, 0, -1)
	b.Add(0, 1, 4)
	m := b.ToCSR()
	if m.NNZ() != 1 {
		t.Fatalf("cancelled entry kept: nnz=%d", m.NNZ())
	}
	if m.At(0, 1) != 4 {
		t.Fatal("surviving value wrong")
	}
}

func TestAddSym(t *testing.T) {
	b := NewBuilder(3, 3)
	b.AddSym(0, 2, 1.5)
	b.AddSym(1, 1, 2) // self-loop added once
	m := b.ToCSR()
	if m.At(0, 2) != 1.5 || m.At(2, 0) != 1.5 {
		t.Fatal("AddSym must mirror")
	}
	if m.At(1, 1) != 2 {
		t.Fatalf("self-loop doubled: %v", m.At(1, 1))
	}
	if !m.IsSymmetric() {
		t.Fatal("matrix should be symmetric")
	}
}

func TestRowIterationSorted(t *testing.T) {
	b := NewBuilder(1, 5)
	b.Add(0, 3, 3)
	b.Add(0, 1, 1)
	b.Add(0, 4, 4)
	m := b.ToCSR()
	var cols []int
	m.Row(0, func(j int, v float64) { cols = append(cols, j) })
	want := []int{1, 3, 4}
	for i := range want {
		if cols[i] != want[i] {
			t.Fatalf("cols = %v, want %v", cols, want)
		}
	}
	if m.RowNNZ(0) != 3 {
		t.Fatalf("RowNNZ = %d", m.RowNNZ(0))
	}
}

func TestMulVec(t *testing.T) {
	m := NewCSRFromDense([][]float64{{1, 0, 2}, {0, 3, 0}})
	y := m.MulVec([]float64{1, 2, 3})
	if y[0] != 7 || y[1] != 6 {
		t.Fatalf("y = %v", y)
	}
}

// TestMulVecMatchesNaive is a property test comparing CSR SpMV with a
// naive dense multiply on random small matrices.
func TestMulVecMatchesNaive(t *testing.T) {
	f := func(raw [12]float64, xraw [4]float64) bool {
		b := NewBuilder(3, 4)
		d := make([][]float64, 3)
		for i := range d {
			d[i] = make([]float64, 4)
		}
		for i := 0; i < 3; i++ {
			for j := 0; j < 4; j++ {
				v := math.Mod(raw[i*4+j], 10)
				if math.IsNaN(v) {
					v = 0
				}
				// Sparsify: drop ~half the entries.
				if int(math.Abs(v)*10)%2 == 0 {
					continue
				}
				b.Add(i, j, v)
				d[i][j] = v
			}
		}
		x := make([]float64, 4)
		for i, v := range xraw {
			x[i] = math.Mod(v, 10)
			if math.IsNaN(x[i]) {
				x[i] = 1
			}
		}
		got := b.ToCSR().MulVec(x)
		for i := 0; i < 3; i++ {
			var want float64
			for j := 0; j < 4; j++ {
				want += d[i][j] * x[j]
			}
			if math.Abs(got[i]-want) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMulDenseInto(t *testing.T) {
	m := NewCSRFromDense([][]float64{{1, 2}, {0, 3}})
	// X is 2x2 dense flat: rows [1,10], [2,20].
	x := []float64{1, 10, 2, 20}
	y := make([]float64, 4)
	m.MulDenseInto(y, x, 2)
	// row0 = 1*[1,10] + 2*[2,20] = [5,50]; row1 = 3*[2,20] = [6,60].
	want := []float64{5, 50, 6, 60}
	for i := range want {
		if y[i] != want[i] {
			t.Fatalf("y = %v, want %v", y, want)
		}
	}
}

func TestMulDenseIntoOverwritesGarbage(t *testing.T) {
	m := NewCSRFromDense([][]float64{{2}})
	y := []float64{999}
	m.MulDenseInto(y, []float64{3}, 1)
	if y[0] != 6 {
		t.Fatalf("y = %v, want 6 (stale contents must be cleared)", y[0])
	}
}

func TestTranspose(t *testing.T) {
	m := NewCSRFromDense([][]float64{{1, 2, 0}, {0, 0, 3}})
	mt := m.T()
	if mt.Rows() != 3 || mt.Cols() != 2 {
		t.Fatalf("shape %dx%d", mt.Rows(), mt.Cols())
	}
	if mt.At(1, 0) != 2 || mt.At(2, 1) != 3 || mt.At(0, 1) != 0 {
		t.Fatal("wrong transpose values")
	}
}

func TestTransposeInvolution(t *testing.T) {
	f := func(raw [9]float64) bool {
		b := NewBuilder(3, 3)
		for i := 0; i < 3; i++ {
			for j := 0; j < 3; j++ {
				v := math.Mod(raw[i*3+j], 5)
				if math.IsNaN(v) || v == 0 {
					continue
				}
				b.Add(i, j, v)
			}
		}
		m := b.ToCSR()
		tt := m.T().T()
		if tt.NNZ() != m.NNZ() {
			return false
		}
		for i := 0; i < 3; i++ {
			for j := 0; j < 3; j++ {
				if tt.At(i, j) != m.At(i, j) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestScaled(t *testing.T) {
	m := NewCSRFromDense([][]float64{{1, -2}})
	s := m.Scaled(3)
	if s.At(0, 0) != 3 || s.At(0, 1) != -6 {
		t.Fatal("Scaled wrong")
	}
	if m.At(0, 0) != 1 {
		t.Fatal("Scaled must not mutate the receiver")
	}
}

func TestRowSums(t *testing.T) {
	m := NewCSRFromDense([][]float64{{1, 2}, {0, -3}})
	rs := m.RowSums()
	if rs[0] != 3 || rs[1] != -3 {
		t.Fatalf("RowSums = %v", rs)
	}
	rss := m.RowSumsSquared()
	if rss[0] != 5 || rss[1] != 9 {
		t.Fatalf("RowSumsSquared = %v", rss)
	}
}

func TestNorms(t *testing.T) {
	m := NewCSRFromDense([][]float64{{1, -2}, {-3, 4}})
	if m.MaxAbsRowSum() != 7 {
		t.Fatalf("MaxAbsRowSum = %v", m.MaxAbsRowSum())
	}
	if m.MaxAbsColSum() != 6 {
		t.Fatalf("MaxAbsColSum = %v", m.MaxAbsColSum())
	}
}

func TestIsSymmetric(t *testing.T) {
	if !NewCSRFromDense([][]float64{{0, 1}, {1, 0}}).IsSymmetric() {
		t.Fatal("symmetric matrix misclassified")
	}
	if NewCSRFromDense([][]float64{{0, 1}, {0, 0}}).IsSymmetric() {
		t.Fatal("asymmetric matrix misclassified")
	}
	if NewCSRFromDense([][]float64{{0, 1, 0}, {1, 0, 0}}).IsSymmetric() {
		t.Fatal("non-square matrix cannot be symmetric")
	}
	if m := NewCSRFromDense([][]float64{{0, 1}, {2, 0}}); m.IsSymmetric() || !m.IsPatternSymmetric() {
		t.Fatal("a symmetric pattern with asymmetric values misclassified")
	}
	if NewCSRFromDense([][]float64{{0, 1}, {0, 0}}).IsPatternSymmetric() {
		t.Fatal("asymmetric pattern misclassified")
	}
}

func TestEmptyMatrix(t *testing.T) {
	m := NewBuilder(0, 0).ToCSR()
	if m.NNZ() != 0 || m.Rows() != 0 {
		t.Fatal("empty matrix mishandled")
	}
	m2 := NewBuilder(3, 3).ToCSR()
	y := m2.MulVec([]float64{1, 2, 3})
	for _, v := range y {
		if v != 0 {
			t.Fatal("empty SpMV must be zero")
		}
	}
}

func TestBuilderReusableAfterToCSR(t *testing.T) {
	b := NewBuilder(1, 2)
	b.Add(0, 0, 1)
	m1 := b.ToCSR()
	b.Add(0, 1, 2)
	m2 := b.ToCSR()
	if m1.NNZ() != 1 || m2.NNZ() != 2 {
		t.Fatalf("builder reuse broken: %d, %d", m1.NNZ(), m2.NNZ())
	}
	if m2.At(0, 0) != 1 || m2.At(0, 1) != 2 {
		t.Fatal("wrong values after reuse")
	}
}

func TestNewCSRFromDenseDropsZeros(t *testing.T) {
	m := NewCSRFromDense([][]float64{{0, 1}, {0, 0}})
	if m.NNZ() != 1 {
		t.Fatalf("NNZ = %d, want 1", m.NNZ())
	}
	_ = denseOf(m)
}

func TestBuilderReserve(t *testing.T) {
	b := NewBuilder(10, 10)
	b.Add(0, 1, 2)
	b.Reserve(100)
	b.Add(1, 2, 3)
	m := b.ToCSR()
	if m.At(0, 1) != 2 || m.At(1, 2) != 3 {
		t.Fatal("Reserve lost triplets")
	}
	// Reserving less than the current capacity is a no-op.
	b.Reserve(1)
	b.Add(2, 3, 4)
	if got := b.ToCSR().At(2, 3); got != 4 {
		t.Fatalf("At(2,3) = %v after no-op Reserve", got)
	}
	// Adds within the reserved capacity must not reallocate.
	b2 := NewBuilder(100, 100)
	b2.Reserve(50)
	allocs := testing.AllocsPerRun(1, func() {
		for i := 0; i < 50; i++ {
			b2.r = b2.r[:0]
			b2.c = b2.c[:0]
			b2.v = b2.v[:0]
			for j := 0; j < 50; j++ {
				b2.Add(j%100, (j*7)%100, 1)
			}
		}
	})
	if allocs > 0 {
		t.Errorf("%v allocs while adding within reserved capacity, want 0", allocs)
	}
}

func TestRowView(t *testing.T) {
	m := NewCSRFromDense([][]float64{
		{0, 1, 0, 2},
		{0, 0, 0, 0},
		{3, 0, 4, 5},
	})
	cols, vals := m.RowView(2)
	if len(cols) != 3 || cols[0] != 0 || cols[1] != 2 || cols[2] != 3 {
		t.Fatalf("cols = %v", cols)
	}
	if vals[0] != 3 || vals[1] != 4 || vals[2] != 5 {
		t.Fatalf("vals = %v", vals)
	}
	if cols, vals := m.RowView(1); len(cols) != 0 || len(vals) != 0 {
		t.Fatal("empty row should yield empty views")
	}
}

func TestMulDenseAddInto(t *testing.T) {
	m := NewCSRFromDense([][]float64{
		{0, 2, 0},
		{1, 0, 3},
	})
	k := 2
	x := []float64{1, 2, 3, 4, 5, 6} // 3×2
	y := []float64{10, 20, 30, 40}   // 2×2, pre-filled accumulator
	m.MulDenseAddInto(y, x, k)
	// m·x = [[6, 8], [16, 20]]; accumulated on top of y's old values.
	want := []float64{16, 28, 46, 60}
	for i := range want {
		if y[i] != want[i] {
			t.Fatalf("y = %v, want %v", y, want)
		}
	}
}

func TestMulDenseAddIntoMatchesMulDenseInto(t *testing.T) {
	b := NewBuilder(40, 40)
	for i := 0; i < 40; i++ {
		b.AddSym(i, (i*13+7)%40, float64(i%5)+0.5)
	}
	m := b.ToCSR()
	k := 3
	x := make([]float64, 40*k)
	for i := range x {
		x[i] = math.Sin(float64(i))
	}
	want := make([]float64, 40*k)
	m.MulDenseInto(want, x, k)
	got := make([]float64, 40*k)
	m.MulDenseAddInto(got, x, k) // accumulating onto zeros == plain product
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got[%d] = %g, want %g", i, got[i], want[i])
		}
	}
}

func TestMulDenseAddIntoPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected dimension-mismatch panic")
		}
	}()
	NewCSRFromDense([][]float64{{1}}).MulDenseAddInto(make([]float64, 2), make([]float64, 1), 1)
}

// TestAddSymDiagonalNotDoubled is the regression test for the AddSym
// diagonal contract: an (i, i) entry must be recorded exactly once per
// call, so accumulated self-loop weight equals the sum of the inputs,
// not twice the sum.
func TestAddSymDiagonalNotDoubled(t *testing.T) {
	b := NewBuilder(4, 4)
	b.AddSym(2, 2, 1.5)
	b.AddSym(2, 2, 2.5)
	b.AddSym(0, 3, 1)
	if b.NNZ() != 4 { // 2 diagonal triplets + 2 mirrored off-diagonal
		t.Fatalf("NNZ = %d, want 4 (diagonal triplets must not be mirrored)", b.NNZ())
	}
	m := b.ToCSR()
	if got := m.At(2, 2); got != 4 {
		t.Fatalf("At(2,2) = %v, want 4 (8 would mean the diagonal was double-added)", got)
	}
	if m.At(0, 3) != 1 || m.At(3, 0) != 1 {
		t.Fatal("off-diagonal AddSym must still mirror")
	}
}

// randomSquareCSR builds a deterministic pseudo-random n×n matrix with
// roughly fill·n² nonzeros (plus a symmetric copy of each entry when
// sym is set).
func randomSquareCSR(n int, fill float64, sym bool, seed uint64) *CSR {
	b := NewBuilder(n, n)
	state := seed*2862933555777941757 + 3037000493
	next := func() uint64 {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		return state
	}
	target := int(fill * float64(n) * float64(n))
	for t := 0; t < target; t++ {
		i := int(next() % uint64(n))
		j := int(next() % uint64(n))
		v := float64(next()%1000)/1000 + 0.25
		if sym {
			b.AddSym(i, j, v)
		} else {
			b.Add(i, j, v)
		}
	}
	return b.ToCSR()
}

// withHubs adds rows 0 and 1 as hubs (every third and every fifth
// column, weights varying) to a random matrix: rows far longer than
// the insertion-sort cut, which Permute sorts by the long-row path.
func withHubs(m *CSR, sym bool) *CSR {
	n := m.Rows()
	b := NewBuilder(n, n)
	for i := 0; i < n; i++ {
		m.Row(i, func(j int, v float64) { b.Add(i, j, v) })
	}
	for j := 2; j < n; j++ {
		for hub, step := range []int{3, 5} {
			if j%step == 0 {
				if sym {
					b.AddSym(hub, j, float64(j)/7)
				} else {
					b.Add(hub, j, float64(j)/7)
				}
			}
		}
	}
	return b.ToCSR()
}

func TestPermuteMatchesNaive(t *testing.T) {
	for _, tc := range []struct {
		name string
		m    *CSR
		sym  bool
	}{
		{"symmetric37", randomSquareCSR(37, 0.08, true, 7), true},
		{"symmetricHubs401", withHubs(randomSquareCSR(401, 0.01, true, 3), true), true},
		{"symmetricHubs997", withHubs(randomSquareCSR(997, 0.004, true, 5), true), true},
		{"asymmetricHubs401", withHubs(randomSquareCSR(401, 0.01, false, 11), false), false},
	} {
		m := tc.m
		n := m.Rows()
		// A deterministic shuffle-ish bijection.
		perm := make([]int, n)
		for i := range perm {
			perm[i] = (i*17 + 5) % n // gcd(17, n) = 1 → bijection
		}
		p := m.Permute(perm)
		if p.NNZ() != m.NNZ() {
			t.Fatalf("%s: Permute changed nnz: %d vs %d", tc.name, p.NNZ(), m.NNZ())
		}
		for i := 0; i < n; i++ {
			prev := -1
			cols, _ := p.RowView(i)
			for _, j := range cols {
				if j <= prev {
					t.Fatalf("%s: row %d columns not ascending: %v", tc.name, i, cols)
				}
				prev = j
			}
			m.Row(i, func(j int, v float64) {
				if got := p.At(perm[i], perm[j]); math.Float64bits(got) != math.Float64bits(v) {
					t.Fatalf("%s: entry (%d,%d) = %v after Permute, want %v", tc.name, i, j, got, v)
				}
			})
		}
		if tc.sym && !p.IsSymmetric() {
			t.Fatalf("%s: symmetric relabeling must stay symmetric", tc.name)
		}
	}
}

func TestPermuteIdentityAndInvalid(t *testing.T) {
	m := randomSquareCSR(12, 0.2, true, 9)
	id := make([]int, 12)
	for i := range id {
		id[i] = i
	}
	p := m.Permute(id)
	for i := 0; i < 12; i++ {
		for j := 0; j < 12; j++ {
			if p.At(i, j) != m.At(i, j) {
				t.Fatal("identity permutation must reproduce the matrix")
			}
		}
	}
	for _, bad := range [][]int{
		{0, 0, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}, // duplicate
		{0, 1, 2},                              // wrong length
		{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12}, // out of range
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("perm %v must panic", bad)
				}
			}()
			m.Permute(bad)
		}()
	}
}

func TestPermuteHubRowSorted(t *testing.T) {
	// A star with a 60-wide hub exercises the sort.Sort fallback of the
	// row sorter (insertion sort covers only short rows).
	n := 61
	b := NewBuilder(n, n)
	for i := 1; i < n; i++ {
		b.AddSym(0, i, float64(i))
	}
	m := b.ToCSR()
	perm := make([]int, n)
	for i := range perm {
		perm[i] = (i*23 + 11) % n // gcd(23, 61) = 1
	}
	p := m.Permute(perm)
	hub := perm[0]
	cols, vals := p.RowView(hub)
	prev := -1
	for pi, j := range cols {
		if j <= prev {
			t.Fatalf("hub row columns not ascending: %v", cols)
		}
		prev = j
		_ = vals[pi]
	}
	for i := 1; i < n; i++ {
		if p.At(hub, perm[i]) != float64(i) {
			t.Fatalf("hub value to node %d wrong after permute", i)
		}
	}
}

func TestTransposeIntoReuse(t *testing.T) {
	m := randomSquareCSR(25, 0.15, false, 3)
	want := denseOf(m)
	var dst CSR
	m.TransposeInto(&dst)
	for i := 0; i < 25; i++ {
		for j := 0; j < 25; j++ {
			if dst.At(j, i) != want[i][j] {
				t.Fatalf("transpose wrong at (%d,%d)", i, j)
			}
		}
	}
	// Second transpose into the same destination must reuse its storage:
	// zero allocations once the capacities fit.
	m2 := randomSquareCSR(25, 0.1, false, 5)
	allocs := testing.AllocsPerRun(10, func() { m2.TransposeInto(&dst) })
	if allocs > 0 {
		t.Errorf("TransposeInto reuse allocated %v times, want 0", allocs)
	}
	for i := 0; i < 25; i++ {
		for j := 0; j < 25; j++ {
			if dst.At(j, i) != m2.At(i, j) {
				t.Fatalf("reused transpose wrong at (%d,%d)", i, j)
			}
		}
	}
	// Ascending column order within every output row.
	for i := 0; i < dst.Rows(); i++ {
		cols, _ := dst.RowView(i)
		for p := 1; p < len(cols); p++ {
			if cols[p] <= cols[p-1] {
				t.Fatalf("row %d not sorted: %v", i, cols)
			}
		}
	}
}

func TestTransposeIntoSelfPanics(t *testing.T) {
	m := randomSquareCSR(5, 0.3, false, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("TransposeInto(self) must panic")
		}
	}()
	m.TransposeInto(m)
}

func TestCompactIndex(t *testing.T) {
	m := randomSquareCSR(50, 0.1, true, 11)
	rp32, ci32, ok := m.CompactIndex()
	if !ok {
		t.Fatal("50×50 must fit int32")
	}
	rp, ci, vals := m.Index()
	if len(rp32) != len(rp) || len(ci32) != len(ci) {
		t.Fatal("compact index length mismatch")
	}
	for i, p := range rp {
		if int(rp32[i]) != p {
			t.Fatalf("rowPtr32[%d] = %d, want %d", i, rp32[i], p)
		}
	}
	for i, j := range ci {
		if int(ci32[i]) != j {
			t.Fatalf("colIdx32[%d] = %d, want %d", i, ci32[i], j)
		}
	}
	if len(vals) != m.NNZ() {
		t.Fatal("values accessor wrong length")
	}
	// Second call returns the cached arrays (no rebuild).
	rp32b, ci32b, _ := m.CompactIndex()
	if &rp32b[0] != &rp32[0] || &ci32b[0] != &ci32[0] {
		t.Fatal("CompactIndex must cache")
	}
}

// referenceFreeze is ToCSR's specification written with a map: per
// (row, col) the triplet values summed in insertion order, sums of
// exactly zero dropped, each row in column order.
func referenceFreeze(rows int, r, c []int, v []float64) (rowPtr, colIdx []int, val []float64) {
	sum := map[[2]int]float64{}
	for t := range r {
		key := [2]int{r[t], c[t]}
		if s, ok := sum[key]; ok {
			sum[key] = s + v[t]
		} else {
			sum[key] = v[t]
		}
	}
	keys := make([][2]int, 0, len(sum))
	for key, s := range sum {
		if s != 0 {
			keys = append(keys, key)
		}
	}
	slices.SortFunc(keys, func(x, y [2]int) int {
		if x[0] != y[0] {
			return x[0] - y[0]
		}
		return x[1] - y[1]
	})
	rowPtr = make([]int, rows+1)
	for _, key := range keys {
		rowPtr[key[0]+1]++
		colIdx = append(colIdx, key[1])
		val = append(val, sum[key])
	}
	for i := 0; i < rows; i++ {
		rowPtr[i+1] += rowPtr[i]
	}
	return rowPtr, colIdx, val
}

func TestToCSRMatchesReference(t *testing.T) {
	for seed := uint64(1); seed <= 40; seed++ {
		state := seed*2862933555777941757 + 3037000493
		next := func(n int) int {
			state ^= state << 13
			state ^= state >> 7
			state ^= state << 17
			return int(state % uint64(n))
		}
		n := 2 + next(90)
		b := NewBuilder(n, n)
		var r, c []int
		var v []float64
		add := func(i, j int, x float64) {
			b.Add(i, j, x)
			r, c, v = append(r, i), append(c, j), append(v, x)
		}
		weight := func() float64 { return float64(1+next(1<<20)) / float64(1+next(1000)) }
		triplets := func(m int) {
			for k := 0; k < m; k++ {
				i, j, x := next(n), next(n), weight()
				switch next(6) {
				case 0: // a hub row, longer than the insertion-sort cut
					i = 0
				case 1: // a parallel entry to a few columns
					j = next(3)
				case 2:
					j = i // a self-loop
				case 3: // an entry that cancels to exactly zero
					add(i, j, x)
					x = -x
				}
				add(i, j, x)
			}
		}
		check := func(stage string) {
			t.Helper()
			m := b.ToCSR()
			rowPtr, colIdx, val := referenceFreeze(n, r, c, v)
			gotPtr, gotCol, gotVal := m.Index()
			if !slices.Equal(gotPtr, rowPtr) || !slices.Equal(gotCol, colIdx) {
				t.Fatalf("seed %d %s: structure differs from the reference", seed, stage)
			}
			for p := range val {
				if math.Float64bits(gotVal[p]) != math.Float64bits(val[p]) {
					t.Fatalf("seed %d %s: entry %d = %v, want the insertion-order sum %v", seed, stage, p, gotVal[p], val[p])
				}
			}
		}
		triplets(20 + next(400))
		check("first freeze")
		triplets(1 + next(200))
		check("second freeze")
	}
}

func TestAssemblerRejectsMiscountedRows(t *testing.T) {
	for name, fill := range map[string]func(a *Assembler){
		"row put too often": func(a *Assembler) { a.Put(0, 1, 1); a.Put(0, 2, 1) },
		"row never put":     func(a *Assembler) { a.Put(0, 1, 1) },
		"column too large":  func(a *Assembler) { a.Put(0, 3, 1); a.Put(1, 0, 1) },
		"negative column":   func(a *Assembler) { a.Put(0, -1, 1); a.Put(1, 0, 1) },
	} {
		a := NewAssembler(3, 3)
		a.Count(0)
		a.Count(1)
		a.Fill()
		fill(a)
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: CSR must panic", name)
				}
			}()
			a.CSR()
		}()
	}
}
