package sparse

import (
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"sync"
	"testing"
	"time"
	"unsafe"
)

// cellMirror is the ground truth a row-block table must match: one
// map per row, mutated with the same float operations in the same
// order as Commit (additions sum in arrival order, removals delete).
type cellMirror []map[int]float64

func mirrorOf(m *CSR) cellMirror {
	out := make(cellMirror, m.Rows())
	for i := range out {
		out[i] = map[int]float64{}
		m.Row(i, func(j int, v float64) { out[i][j] = v })
	}
	return out
}

func (c cellMirror) clone() cellMirror {
	out := make(cellMirror, len(c))
	for i, row := range c {
		out[i] = make(map[int]float64, len(row))
		for j, v := range row {
			out[i][j] = v
		}
	}
	return out
}

func (c cellMirror) apply(edits []Edit) {
	for _, e := range edits {
		row := c[e.Row]
		switch {
		case e.Remove:
			delete(row, e.Col)
		default:
			v := row[e.Col] + e.W
			if v == 0 {
				delete(row, e.Col)
			} else {
				row[e.Col] = v
			}
		}
	}
}

// sortedRow returns row i's columns ascending with their values.
func (c cellMirror) sortedRow(i int) ([]int32, []float64) {
	cols := make([]int, 0, len(c[i]))
	for j := range c[i] {
		cols = append(cols, j)
	}
	sort.Ints(cols)
	out32 := make([]int32, len(cols))
	vals := make([]float64, len(cols))
	for p, j := range cols {
		out32[p] = int32(j)
		vals[p] = c[i][j]
	}
	return out32, vals
}

// checkTable asserts every row and degree of m bitwise against the
// mirror, plus the table-level counters and a flat
// rebuild.
func checkTable(t *testing.T, m *RowBlocks, want, base cellMirror) {
	t.Helper()
	nnz, diff := 0, 0
	for i := range want {
		wc, wv := want.sortedRow(i)
		gc, gv := m.RowViewCompact(i)
		if !slices.Equal(gc, wc) || !slices.Equal(gv, wv) {
			t.Fatalf("row %d = %v %v, want %v %v", i, gc, gv, wc, wv)
		}
		if m.RowNNZ(i) != len(wc) {
			t.Fatalf("RowNNZ(%d) = %d, want %d", i, m.RowNNZ(i), len(wc))
		}
		if m.HasDegrees() {
			var s float64
			for _, v := range wv {
				s += v * v
			}
			if got := m.Degree(i); got != s {
				t.Fatalf("Degree(%d) = %v, want %v", i, got, s)
			}
		}
		nnz += len(wc)
		for j, v := range want[i] {
			if base[i][j] != v {
				diff++
			}
		}
		for j := range base[i] {
			if _, ok := want[i][j]; !ok {
				diff++
			}
		}
	}
	if m.NNZ() != nnz {
		t.Fatalf("NNZ = %d, want %d", m.NNZ(), nnz)
	}
	for b := 0; b < m.NumBlocks(); b++ {
		blk := m.Block(b)
		if unit := allOnes(blk.Val[:blk.nnz()]) && blk.nnz() <= maxSharedOnes; sharesOnes(blk) != unit {
			t.Fatalf("block %d: shares the ones = %v, all of its %d values 1.0 = %v", b, sharesOnes(blk), blk.nnz(), allOnes(blk.Val[:blk.nnz()]))
		}
	}
	if m.DiffCells() != diff {
		t.Fatalf("DiffCells = %d, want %d", m.DiffCells(), diff)
	}
	flat := m.Flatten()
	if flat.NNZ() != nnz {
		t.Fatalf("flat NNZ = %d, want %d", flat.NNZ(), nnz)
	}
	rp32, ci32, _ := flat.CompactIndex()
	rp, ci, vals := flat.Index()
	for i := range want {
		wc, wv := want.sortedRow(i)
		if int(rp32[i]) != rp[i] || rp[i+1]-rp[i] != len(wc) {
			t.Fatalf("flat row %d pointers %d/%d", i, rp[i], rp[i+1])
		}
		for p := range wc {
			q := rp[i] + p
			if ci32[q] != wc[p] || ci[q] != int(wc[p]) || vals[q] != wv[p] {
				t.Fatalf("flat row %d entry %d = (%d, %v), want (%d, %v)", i, p, ci[q], vals[q], wc[p], wv[p])
			}
		}
	}
}

// The shared ones are grown once, before any test builds a block, to
// their cap, more entries than any test block holds: the slice then
// never changes, so sharesOnes can identify it by its first element.
func init() { unitValues(maxSharedOnes) }

// sharesOnes reports whether blk's values are cut from the shared ones
// (every shared slice starts at the ones' first element).
func sharesOnes(blk *Block) bool {
	return unsafe.SliceData(blk.Val) == unsafe.SliceData(*ones.Load())
}

// unitBase builds an unweighted symmetric matrix: about perRow distinct
// neighbors per row, every stored value 1.0.
func unitBase(rng *rand.Rand, n, perRow int) *CSR {
	b := NewBuilder(n, n)
	seen := map[[2]int]bool{}
	for i := 0; i < n; i++ {
		for d := 0; d < perRow; d++ {
			j := rng.Intn(n)
			if j == i || seen[[2]int{min(i, j), max(i, j)}] {
				continue
			}
			seen[[2]int{min(i, j), max(i, j)}] = true
			b.AddSym(i, j, 1)
		}
	}
	return b.ToCSR()
}

// mirrorCSR rebuilds a flat CSR holding exactly the mirror's cells.
func mirrorCSR(c cellMirror) *CSR {
	b := NewBuilder(len(c), len(c))
	for i, row := range c {
		for j, v := range row {
			b.Add(i, j, v)
		}
	}
	return b.ToCSR()
}

// randomBase builds a random matrix spanning several blocks with a
// short last block, so edits hit the first, interior, and last blocks.
func randomBase(rng *rand.Rand, n, perRow int) *CSR {
	b := NewBuilder(n, n)
	for i := 0; i < n; i++ {
		for d := 0; d < perRow; d++ {
			b.AddSym(i, rng.Intn(n), 0.25+rng.Float64())
		}
	}
	return b.ToCSR()
}

// randomEdits draws a batch mixing insertions, parallel additions,
// removals of stored and absent cells, re-additions, and self-loops,
// biased toward the block boundaries and the first and last rows.
func randomEdits(rng *rand.Rand, n, count int) []Edit {
	pick := func() int {
		switch rng.Intn(4) {
		case 0:
			return []int{0, n - 1, BlockRows - 1, BlockRows, 2*BlockRows - 1}[rng.Intn(5)] % n
		default:
			return rng.Intn(n)
		}
	}
	var out []Edit
	for len(out) < count {
		i, j := pick(), pick()
		if rng.Intn(8) == 0 {
			j = i // self-loop
		}
		switch rng.Intn(5) {
		case 0, 1:
			out = append(out, Edit{Row: i, Col: j, W: 0.5 + rng.Float64()})
		case 2:
			out = append(out, Edit{Row: i, Col: j, Remove: true})
		case 3: // add-remove-add in one batch
			out = append(out, Edit{Row: i, Col: j, W: 1}, Edit{Row: i, Col: j, Remove: true}, Edit{Row: i, Col: j, W: 2.5})
		default: // parallel additions
			out = append(out, Edit{Row: i, Col: j, W: 0.125}, Edit{Row: i, Col: j, W: 0.375})
		}
	}
	return out
}

// TestRowBlocksCommitProperty replays random edit batches across block
// boundaries and checks every epoch bitwise against the mirror's flat
// rebuild, with every earlier epoch left exactly as it was.
func TestRowBlocksCommitProperty(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 3*BlockRows + 1 + rng.Intn(BlockRows-1)
		a := randomBase(rng, n, 2)
		deg := a.RowSumsSquared()
		m, err := NewRowBlocks(a, deg)
		if err != nil {
			t.Fatal(err)
		}
		base := mirrorOf(a)
		want := base.clone()
		checkTable(t, m, want, base)
		type epoch struct {
			m    *RowBlocks
			want cellMirror
		}
		history := []epoch{{m, want.clone()}}
		for batch := 0; batch < 20; batch++ {
			edits := randomEdits(rng, n, 1+rng.Intn(12))
			next, rows := m.Commit(edits, nil)
			want.apply(edits)
			checkTable(t, next, want, base)
			if !sort.IntsAreSorted(rows) {
				t.Fatalf("changed rows not ascending: %v", rows)
			}
			if len(rows) == 0 && next != m {
				t.Fatal("a no-change commit must return the same table")
			}
			m = next
			history = append(history, epoch{m, want.clone()})
		}
		for _, h := range history {
			checkTable(t, h.m, h.want, base)
		}
	}
}

// TestRowBlocksSharesUntouchedBlocks pins the copy-on-write contract:
// a commit copies exactly the blocks holding changed rows.
func TestRowBlocksSharesUntouchedBlocks(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n := 4 * BlockRows
	m, err := NewRowBlocks(randomBase(rng, n, 2), nil)
	if err != nil {
		t.Fatal(err)
	}
	next, rows := m.Commit([]Edit{{Row: 1, Col: 2, W: 1}, {Row: 3*BlockRows + 5, Col: 0, W: 1}}, nil)
	if !slices.Equal(rows, []int{1, 3*BlockRows + 5}) {
		t.Fatalf("changed rows = %v", rows)
	}
	for b := 0; b < next.NumBlocks(); b++ {
		shared := next.Block(b) == m.Block(b)
		if touched := b == 0 || b == 3; shared == touched {
			t.Errorf("block %d shared=%v, want %v", b, shared, !touched)
		}
	}
}

// Commit edge cases: removals of absent cells, several touches of one
// cell in one batch, and a batch confined to the last row.

func TestRowBlocksTombstoneOnAbsentCell(t *testing.T) {
	base := NewCSRFromDense([][]float64{{0, 1, 0}, {1, 0, 2}, {0, 2, 0}})
	m, _ := NewRowBlocks(base, nil)
	next, rows := m.Commit([]Edit{{Row: 0, Col: 0, Remove: true}, {Row: 0, Col: 2, Remove: true}, {Row: 2, Col: 0, Remove: true}}, nil)
	if next != m || len(rows) != 0 || next.DiffCells() != 0 {
		t.Fatalf("absent-only removes changed the table: rows=%v diff=%d", rows, next.DiffCells())
	}
}

func TestRowBlocksAddRemoveAddOneBatch(t *testing.T) {
	base := NewCSRFromDense([][]float64{{0, 4}, {4, 0}})
	m, _ := NewRowBlocks(base, nil)
	// The removal discards the base entry and the first addition; the
	// final value is exactly the last addition — not base+w, not w1+w2.
	m, _ = m.Commit([]Edit{{Row: 0, Col: 1, W: 3}, {Row: 0, Col: 1, Remove: true}, {Row: 0, Col: 1, W: 7}}, nil)
	if got := m.At(0, 1); got != 7 {
		t.Errorf("add-remove-add cell = %v, want exactly 7", got)
	}
	m, _ = m.Commit([]Edit{{Row: 1, Col: 1, W: 2}, {Row: 1, Col: 1, Remove: true}, {Row: 1, Col: 1, W: 5}, {Row: 1, Col: 1, W: 1}}, nil)
	if got := m.At(1, 1); got != 6 {
		t.Errorf("fresh-cell add-remove-add = %v, want 6", got)
	}
	if m.DiffCells() != 2 {
		t.Errorf("DiffCells = %d, want 2 distinct cells", m.DiffCells())
	}
	// Cancelling a cell to exactly zero drops it.
	m, _ = m.Commit([]Edit{{Row: 1, Col: 0, W: -4}}, nil)
	if m.At(1, 0) != 0 || m.RowNNZ(1) != 1 {
		t.Errorf("cancelled cell kept: row 1 nnz=%d", m.RowNNZ(1))
	}
}

func TestRowBlocksLastRowOnly(t *testing.T) {
	base := NewCSRFromDense([][]float64{{0, 1, 0, 0}, {1, 0, 0, 0}, {0, 0, 0, 0}, {0, 0, 0, 9}})
	m, _ := NewRowBlocks(base, base.RowSumsSquared())
	m, rows := m.Commit([]Edit{{Row: 3, Col: 0, W: 2}, {Row: 3, Col: 3, Remove: true}, {Row: 3, Col: 3, W: 1.25}}, nil)
	if !slices.Equal(rows, []int{3}) || m.NNZ() != 4 {
		t.Fatalf("rows=%v nnz=%d, want [3]/4", rows, m.NNZ())
	}
	if m.At(3, 0) != 2 || m.At(3, 3) != 1.25 || m.Degree(3) != 4+1.25*1.25 {
		t.Errorf("last row = (%v, %v) deg %v", m.At(3, 0), m.At(3, 3), m.Degree(3))
	}
	flat := m.Flatten()
	rp, ci, _ := flat.Index()
	if rp[4] != 4 || ci[len(ci)-1] != 3 {
		t.Errorf("tail rowPtr/colIdx = %d/%d, want 4/3", rp[4], ci[len(ci)-1])
	}
	if m.At(0, 1) != 1 || m.At(1, 0) != 1 || m.RowNNZ(2) != 0 {
		t.Error("untouched rows disturbed by last-row-only batch")
	}
}

// TestRowBlocksChurnLeavesNoDiff: inserting absent cells and deleting
// them again returns the table to its base, so the drift counter the
// compaction threshold reads goes back to zero and every block is the
// base's own again (no copies kept alive).
func TestRowBlocksChurnLeavesNoDiff(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	n := 2*BlockRows + 7
	a := randomBase(rng, n, 2)
	base, _ := NewRowBlocks(a, a.RowSumsSquared())
	m := base
	for cycle := 0; cycle < 40; cycle++ {
		var add, del []Edit
		for len(add) < 8 {
			i, j := rng.Intn(n), rng.Intn(n)
			if a.At(i, j) != 0 {
				continue
			}
			add = append(add, Edit{Row: i, Col: j, W: 1})
			del = append(del, Edit{Row: i, Col: j, Remove: true})
		}
		m, _ = m.Commit(add, nil)
		if m.DiffCells() == 0 {
			t.Fatal("insertions left no difference")
		}
		m, _ = m.Commit(del, nil)
		if m.DiffCells() != 0 {
			t.Fatalf("cycle %d: DiffCells = %d after returning to the base", cycle, m.DiffCells())
		}
		for b := 0; b < m.NumBlocks(); b++ {
			if m.Block(b) != base.Block(b) {
				t.Fatalf("cycle %d: block %d keeps a copy of base content", cycle, b)
			}
		}
	}
	checkTable(t, m, mirrorOf(a), mirrorOf(a))
}

// TestRowBlocksPrivateCopy checks the partition workers' private
// copies: the range's blocks are fresh copies equal to the source, and
// a refresh after a commit reuses exactly the blocks the commit left
// alone.
func TestRowBlocksPrivateCopy(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	n := 5 * BlockRows
	a := randomBase(rng, n, 3)
	m, _ := NewRowBlocks(a, a.RowSumsSquared())
	lo, hi := BlockRows+3, 3*BlockRows+9
	priv := m.PrivateCopy(lo, hi, nil, nil)
	for b := 0; b < priv.NumBlocks(); b++ {
		blk := priv.Block(b)
		inRange := b >= lo>>BlockShift && b <= (hi-1)>>BlockShift
		if (blk != nil) != inRange {
			t.Fatalf("block %d present=%v, want %v", b, blk != nil, inRange)
		}
		if blk == m.Block(b) {
			t.Fatalf("block %d aliases the source", b)
		}
	}
	want := mirrorOf(a)
	for i := lo; i < hi; i++ {
		wc, wv := want.sortedRow(i)
		gc, gv := priv.RowViewCompact(i)
		if !slices.Equal(gc, wc) || !slices.Equal(gv, wv) || priv.Degree(i) != m.Degree(i) {
			t.Fatalf("private row %d differs", i)
		}
	}
	next, _ := m.Commit([]Edit{{Row: 2*BlockRows + 1, Col: 0, W: 1}}, nil)
	ref := next.PrivateCopy(lo, hi, priv, m)
	for b := lo >> BlockShift; b <= (hi-1)>>BlockShift; b++ {
		reused := ref.Block(b) == priv.Block(b)
		if want := b != 2; reused != want {
			t.Errorf("refresh block %d reused=%v, want %v", b, reused, want)
		}
	}
	if got := ref.At(2*BlockRows+1, 0); got != next.At(2*BlockRows+1, 0) {
		t.Errorf("refreshed row = %v, want %v", got, next.At(2*BlockRows+1, 0))
	}
}

// TestRowBlocksConcurrentEpochReads runs readers over epoch N while
// epochs N+1 and N+2 commit on another goroutine (run under -race: no
// commit may write a block an older epoch shares), then checks epoch
// N is bitwise unchanged.
func TestRowBlocksConcurrentEpochReads(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	n := 6 * BlockRows
	a := randomBase(rng, n, 3)
	m, _ := NewRowBlocks(a, a.RowSumsSquared())
	m, _ = m.Commit(randomEdits(rng, n, 10), nil)
	snapshot := m.Flatten()
	var wg sync.WaitGroup
	sums := make([]float64, 4)
	for r := range sums {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for pass := 0; pass < 20; pass++ {
				var s float64
				for i := 0; i < n; i++ {
					cols, vals := m.RowViewCompact(i)
					for p, j := range cols {
						s += vals[p] * float64(j)
					}
					s += m.Degree(i)
				}
				sums[r] = s
			}
		}(r)
	}
	next := m
	for e := 0; e < 2; e++ {
		next, _ = next.Commit(randomEdits(rng, n, 16), nil)
	}
	wg.Wait()
	for r := 1; r < len(sums); r++ {
		if sums[r] != sums[0] {
			t.Fatalf("readers disagree: %v", sums)
		}
	}
	got := m.Flatten()
	rp0, ci0, v0 := snapshot.Index()
	rp1, ci1, v1 := got.Index()
	if !slices.Equal(rp0, rp1) || !slices.Equal(ci0, ci1) || !slices.Equal(v0, v1) {
		t.Fatal("a later commit modified an earlier epoch")
	}
	if next == m {
		t.Fatal("commits produced no new epoch")
	}
}

// TestUnitValuesConcurrentGrowth: goroutines that ask for ever longer
// runs of ones at once, growing the shared slice from empty, each get
// exactly n ones (run under -race). The shared slice is restored
// afterwards, so sharesOnes keeps working for the other tests.
func TestUnitValuesConcurrentGrowth(t *testing.T) {
	saved := ones.Load()
	defer ones.Store(saved)
	ones.Store(nil)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for n := g; n < 1<<15; n = 2*n + 1 {
				if v := unitValues(n); len(v) != n || cap(v) != n || !allOnes(v) {
					t.Errorf("unitValues(%d): len %d cap %d", n, len(v), cap(v))
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// FuzzRowBlocksCommit decodes the input into edit batches over a small
// multi-block matrix — unit-weight or weighted by the input's parity,
// with edits drawing unit and non-unit weights — and checks every epoch
// against the mirror and, block by block and bitwise, against the
// epoch-0 table of a flat rebuild of the same cells (which also pins
// which blocks share the ones).
func FuzzRowBlocksCommit(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add([]byte{255, 0, 0, 255, 128, 64, 1, 2, 200, 3, 3, 3, 3})
	f.Add([]byte{7, 7, 7, 7, 0, 0, 0, 0, 130, 130, 130, 130})
	f.Add([]byte{3, 9, 40, 67, 9, 40, 3, 40, 9, 65, 9, 40})
	f.Fuzz(func(t *testing.T, raw []byte) {
		n := 2*BlockRows + 3
		rng := rand.New(rand.NewSource(int64(len(raw))))
		a := unitBase(rng, n, 2)
		if len(raw)%3 == 1 {
			a = randomBase(rng, n, 1)
		}
		m, err := NewRowBlocks(a, a.RowSumsSquared())
		if err != nil {
			t.Fatal(err)
		}
		base := mirrorOf(a)
		want := base.clone()
		var batch []Edit
		for p := 0; p+2 < len(raw); p += 3 {
			op, x, y := raw[p], int(raw[p+1]), int(raw[p+2])
			i := (x * 3) % n
			j := (y * 3) % n
			if op&0x8 != 0 {
				j = i
			}
			// Weights 1 (twice as likely), 0.5, 2 and a removal.
			e := Edit{Row: i, Col: j, W: []float64{0, 1, 1, 0.5, 2}[op%5]}
			if op%5 == 0 {
				e.Remove = true
			}
			batch = append(batch, e)
			if op&0x40 != 0 || p+5 >= len(raw) {
				next, _ := m.Commit(batch, nil)
				want.apply(batch)
				checkTable(t, next, want, base)
				checkAgainstRebuild(t, next, want)
				m, batch = next, nil
			}
		}
	})
}

// checkAgainstRebuild compares m block by block, bitwise, with the
// epoch-0 table of a flat rebuild of want: row pointers, columns,
// values, degrees, and whether the block shares the ones.
func checkAgainstRebuild(t *testing.T, m *RowBlocks, want cellMirror) {
	t.Helper()
	a := mirrorCSR(want)
	var deg []float64
	if m.HasDegrees() {
		deg = a.RowSumsSquared()
	}
	ref, err := NewRowBlocks(a, deg)
	if err != nil {
		t.Fatal(err)
	}
	for b := 0; b < m.NumBlocks(); b++ {
		got, exp := m.Block(b), ref.Block(b)
		nnz := exp.nnz()
		if got.Off != exp.Off || !slices.Equal(got.RowPtr, exp.RowPtr) || !slices.Equal(got.Col[:got.nnz()], exp.Col[:nnz]) ||
			!slices.Equal(got.Val[:got.nnz()], exp.Val[:nnz]) || !slices.Equal(got.Deg, exp.Deg) {
			t.Fatalf("block %d differs from the flat rebuild's", b)
		}
		if sharesOnes(got) != sharesOnes(exp) {
			t.Fatalf("block %d shares the ones = %v, the rebuild's = %v", b, sharesOnes(got), sharesOnes(exp))
		}
	}
}

// TestRowBlocksHoldNoSourceCSR: an epoch-0 table keeps no reference to
// the source CSR's int column array — a finalizer on that array fires
// while only the table is live — and Flatten still returns a CSR equal
// to the source.
func TestRowBlocksHoldNoSourceCSR(t *testing.T) {
	a := randomBase(rand.New(rand.NewSource(3)), 2000, 3)
	want := randomBase(rand.New(rand.NewSource(3)), 2000, 3)
	m, err := NewRowBlocks(a, a.RowSumsSquared())
	if err != nil {
		t.Fatal(err)
	}
	freed := make(chan struct{})
	_, colIdx, _ := a.Index()
	runtime.SetFinalizer(&colIdx[0], func(*int) { close(freed) })
	a, colIdx = nil, nil
	if !collected(freed) {
		t.Error("source column array not collected while only the table is live")
	}
	flat := m.Flatten()
	frp, fci, fv := flat.Index()
	wrp, wci, wv := want.Index()
	frp32, fci32, _ := flat.CompactIndex()
	wrp32, wci32, _ := want.CompactIndex()
	if flat.Rows() != want.Rows() || flat.Cols() != want.Cols() ||
		!slices.Equal(frp, wrp) || !slices.Equal(fci, wci) || !slices.Equal(fv, wv) ||
		!slices.Equal(frp32, wrp32) || !slices.Equal(fci32, wci32) {
		t.Error("Flatten differs from the source CSR")
	}
	runtime.KeepAlive(m)
}

// collected runs the collector until the finalizer closes freed,
// giving up after a bounded number of cycles.
func collected(freed <-chan struct{}) bool {
	for i := 0; i < 20; i++ {
		runtime.GC()
		select {
		case <-freed:
			return true
		case <-time.After(10 * time.Millisecond):
		}
	}
	return false
}

// TestRowBlocksUnitTableHoldsNoSourceValues: a unit-weight epoch-0
// table shares the ones instead of aliasing the source CSR's values, so
// a finalizer on the source's values array fires while only the table
// is live; a weighted table keeps the array. Both read back the
// source's cells bitwise.
func TestRowBlocksUnitTableHoldsNoSourceValues(t *testing.T) {
	for _, unit := range []bool{true, false} {
		build := func() *CSR {
			rng := rand.New(rand.NewSource(4))
			if unit {
				return unitBase(rng, 1000, 4)
			}
			return randomBase(rng, 1000, 3)
		}
		a, want := build(), build()
		m, err := NewRowBlocks(a, a.RowSumsSquared())
		if err != nil {
			t.Fatal(err)
		}
		freed := make(chan struct{})
		_, _, vals := a.Index()
		runtime.SetFinalizer(&vals[0], func(*float64) { close(freed) })
		a, vals = nil, nil
		if got := collected(freed); got != unit {
			t.Errorf("unit=%v: source values array collected = %v", unit, got)
		}
		for b := 0; b < m.NumBlocks(); b++ {
			if sharesOnes(m.Block(b)) != unit {
				t.Fatalf("unit=%v: block %d shares the ones = %v", unit, b, !unit)
			}
		}
		checkTable(t, m, mirrorOf(want), mirrorOf(want))
		runtime.KeepAlive(m)
	}
}

// TestRowBlocksHubOwnsItsOnes: a unit-weight block beyond maxSharedOnes
// entries (a star's hub) owns its ones instead of growing the shared
// slice, and aliases no source values either — the finalizer on the
// source CSR's values array still fires — while the other blocks share;
// a unit-weight commit to the hub's block keeps it owning its ones.
func TestRowBlocksHubOwnsItsOnes(t *testing.T) {
	leaves := maxSharedOnes + BlockRows
	build := func() *CSR {
		b := NewBuilder(leaves+1, leaves+1)
		for j := 1; j <= leaves; j++ {
			b.AddSym(0, j, 1)
		}
		return b.ToCSR()
	}
	a, want := build(), build()
	m, err := NewRowBlocks(a, a.RowSumsSquared())
	if err != nil {
		t.Fatal(err)
	}
	freed := make(chan struct{})
	_, _, vals := a.Index()
	runtime.SetFinalizer(&vals[0], func(*float64) { close(freed) })
	a, vals = nil, nil
	if !collected(freed) {
		t.Error("source values array not collected")
	}
	check := func(m *RowBlocks) {
		t.Helper()
		for b := 0; b < m.NumBlocks(); b++ {
			blk := m.Block(b)
			if hub := blk.nnz() > maxSharedOnes; sharesOnes(blk) == hub || !allOnes(blk.Val) || len(blk.Val) != blk.nnz() {
				t.Fatalf("block %d (%d entries): shares the ones = %v, want %v", b, blk.nnz(), !hub, hub)
			}
		}
		if got := len(*ones.Load()); got != maxSharedOnes {
			t.Fatalf("shared ones hold %d entries, want the cap %d", got, maxSharedOnes)
		}
	}
	check(m)
	mirror := mirrorOf(want)
	next, _ := m.Commit([]Edit{{Row: 1, Col: 2, W: 1}, {Row: 2, Col: 1, W: 1}}, nil)
	check(next)
	mirror.apply([]Edit{{Row: 1, Col: 2, W: 1}, {Row: 2, Col: 1, W: 1}})
	checkTable(t, next, mirror, mirrorOf(want))
}

// TestRowBlocksCommitKeepsUnitSharing pins the unit-weight rule across
// commits: blocks that gain W = 1 edges keep sharing the ones, a block
// that gains a W = 2 edge owns its values, and it shares again once its
// values are all 1.0 — whether it returns to the base content or not.
func TestRowBlocksCommitKeepsUnitSharing(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	n := 4 * BlockRows
	a := unitBase(rng, n, 3)
	base, err := NewRowBlocks(a, a.RowSumsSquared())
	if err != nil {
		t.Fatal(err)
	}
	mirror := mirrorOf(a)
	want := mirror.clone()
	shared := func(m *RowBlocks, owners ...int) {
		t.Helper()
		for b := 0; b < m.NumBlocks(); b++ {
			if got := sharesOnes(m.Block(b)); got == slices.Contains(owners, b) {
				t.Fatalf("block %d shares the ones = %v, want %v", b, got, !got)
			}
		}
		checkTable(t, m, want, mirror)
	}
	edge := func(i, j int, w float64) []Edit {
		return []Edit{{Row: i, Col: j, W: w}, {Row: j, Col: i, W: w}}
	}
	unedge := func(i, j int) []Edit {
		return []Edit{{Row: i, Col: j, Remove: true}, {Row: j, Col: i, Remove: true}}
	}
	commit := func(m *RowBlocks, edits []Edit) *RowBlocks {
		t.Helper()
		next, rows := m.Commit(edits, nil)
		if len(rows) == 0 {
			t.Fatal("commit changed nothing")
		}
		want.apply(edits)
		return next
	}
	shared(base)
	i0, j0 := pickAbsent(t, a, 0, 2)
	m := commit(base, edge(i0, j0, 1)) // blocks 0 and 2 copied, still unit
	if m.Block(0) == base.Block(0) || m.Block(2) == base.Block(2) {
		t.Fatal("the W = 1 commit copied no block")
	}
	shared(m)
	i1, j1 := pickAbsent(t, a, 1, 3)
	i2, j2 := pickAbsent(t, a, 1, 1)
	m = commit(m, append(edge(i1, j1, 2), edge(i2, j2, 1)...))
	shared(m, 1, 3)
	m = commit(m, unedge(i1, j1)) // block 1 keeps the W = 1 edge, block 3 is back to base
	shared(m)
	if m.Block(1) == base.Block(1) || m.Block(3) != base.Block(3) {
		t.Fatal("want block 1 a unit copy and block 3 the base block again")
	}
}

// pickAbsent returns an absent off-diagonal cell (i, j) with i in block
// bi and j in block bj.
func pickAbsent(t *testing.T, a *CSR, bi, bj int) (int, int) {
	t.Helper()
	for i := bi * BlockRows; i < (bi+1)*BlockRows; i++ {
		for j := bj * BlockRows; j < (bj+1)*BlockRows; j++ {
			if i != j && a.At(i, j) == 0 {
				return i, j
			}
		}
	}
	t.Fatalf("no absent cell in blocks %d/%d", bi, bj)
	return 0, 0
}
