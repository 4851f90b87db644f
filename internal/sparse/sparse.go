// Package sparse provides the compressed sparse row (CSR) kernels that
// carry LinBP's performance-critical operation: multiplying the n×n graph
// adjacency matrix with the n×k dense belief matrix. The paper's JAVA
// implementation relied on Parallel Colt for the same purpose; this
// package is the from-scratch, standard-library substitute.
//
// Matrices are built through a COO (coordinate) builder, or an
// Assembler fed straight from an edge list, and frozen into an
// immutable CSR form. Duplicate (row, col) entries are summed on freeze
// in the order they were added, which matches how parallel edges
// accumulate weight in a weighted adjacency matrix (Section 5.2) and
// keeps a symmetrically entered matrix bitwise symmetric: rows i and j
// sum the parallel edges between them in the same order.
package sparse

import (
	"fmt"
	"slices"
	"sort"
	"sync/atomic"
)

// Builder accumulates (row, col, value) triplets for a rows×cols matrix
// and produces an immutable CSR on ToCSR. The zero value is not usable;
// call NewBuilder.
type Builder struct {
	rows, cols int
	r, c       []int
	v          []float64
}

// NewBuilder returns a builder for a rows×cols sparse matrix, with at
// most 2^32 columns.
func NewBuilder(rows, cols int) *Builder {
	checkDims(rows, cols)
	return &Builder{rows: rows, cols: cols}
}

func checkDims(rows, cols int) {
	if rows < 0 || cols < 0 || cols > maxCols {
		panic(fmt.Sprintf("sparse: dimension %dx%d is negative or has more than 2^32 columns", rows, cols))
	}
}

// Reserve grows the builder's triplet storage so that at least nnz
// triplets can be recorded in total without reallocation. Loaders that
// know their edge counts up front (Kronecker powers, grids, edge lists)
// use it to avoid repeated triple-slice append regrowth.
func (b *Builder) Reserve(nnz int) {
	if nnz <= cap(b.v) {
		return
	}
	r := make([]int, len(b.r), nnz)
	copy(r, b.r)
	b.r = r
	c := make([]int, len(b.c), nnz)
	copy(c, b.c)
	b.c = c
	v := make([]float64, len(b.v), nnz)
	copy(v, b.v)
	b.v = v
}

// Add records the triplet (i, j, v). Duplicates are summed on ToCSR.
// Zero values are kept (callers may rely on explicit structural zeros
// being dropped only at freeze time); they are eliminated in ToCSR.
func (b *Builder) Add(i, j int, v float64) {
	if i < 0 || i >= b.rows || j < 0 || j >= b.cols {
		panic(fmt.Sprintf("sparse: triplet (%d,%d) out of range %dx%d", i, j, b.rows, b.cols))
	}
	b.r = append(b.r, i)
	b.c = append(b.c, j)
	b.v = append(b.v, v)
}

// AddSym records both (i, j, v) and (j, i, v); the matrix must be square.
// This is the natural way to enter an undirected edge.
func (b *Builder) AddSym(i, j int, v float64) {
	b.Add(i, j, v)
	if i != j {
		b.Add(j, i, v)
	}
}

// NNZ returns the number of accumulated triplets (before deduplication).
func (b *Builder) NNZ() int { return len(b.v) }

// ToCSR freezes the builder into a CSR matrix through an Assembler:
// each row in column order, duplicates summed in the order they were
// added, and entries whose sum is exactly zero dropped. Summing in
// insertion order makes a matrix entered with AddSym bitwise
// symmetric, parallel entries included. The builder remains usable
// afterwards (more triplets may be added and ToCSR called again).
func (b *Builder) ToCSR() *CSR {
	a := NewAssembler(b.rows, b.cols)
	for _, i := range b.r {
		a.Count(i)
	}
	a.Fill()
	for t, i := range b.r {
		a.Put(i, b.c[t], b.v[t])
	}
	return a.CSR()
}

// Assembler builds a CSR from triplets walked twice: Count every
// triplet's row, call Fill, then Put every triplet, in any order within
// a row. The rows are filled by a counting sort into arrays sized once.
// CSR then puts each row in column order with a stable sort, run only on
// rows that are not in order already, sums duplicates in the order they
// were put and drops entries whose sum is exactly zero — with no
// allocation per row. graph.Adjacency feeds it straight from its edge
// list; ToCSR from the builder's triplets.
type Assembler struct {
	rows, cols int
	rowPtr     []int // row counts, then row starts
	next       []int // each row's next free slot while filling
	colIdx     []int
	val        []float64
}

// NewAssembler returns an assembler for a rows×cols matrix, with at
// most 2^32 columns.
func NewAssembler(rows, cols int) *Assembler {
	checkDims(rows, cols)
	return &Assembler{rows: rows, cols: cols, rowPtr: make([]int, rows+1)}
}

// Count records one triplet in row i.
func (a *Assembler) Count(i int) { a.rowPtr[i+1]++ }

// Fill ends the counting pass and sizes the arrays for the triplets
// counted.
func (a *Assembler) Fill() {
	a.next = make([]int, a.rows)
	for i := 0; i < a.rows; i++ {
		a.next[i] = a.rowPtr[i]
		a.rowPtr[i+1] += a.rowPtr[i]
	}
	a.colIdx = make([]int, a.rowPtr[a.rows])
	a.val = make([]float64, a.rowPtr[a.rows])
}

// Put places the triplet (i, j, v) after those already put in row i.
// It checks nothing: CSR rejects a row put more or less often than it
// was counted, or a column out of range.
func (a *Assembler) Put(i, j int, v float64) {
	q := a.next[i]
	a.colIdx[q], a.val[q] = j, v
	a.next[i] = q + 1
}

// CSR finishes the matrix in place: it sorts, sums and compacts every
// row, and the result adopts the assembler's arrays, so the assembler
// is spent. It panics unless Fill was called and every row was put
// exactly as often as it was counted, with columns in range.
func (a *Assembler) CSR() *CSR {
	rowPtr, col, val := a.rowPtr, a.colIdx, a.val
	var rs rowSort
	w, lo := 0, 0
	for i := 0; i < a.rows; i++ {
		hi := rowPtr[i+1]
		if a.next[i] != hi {
			panic(fmt.Sprintf("sparse: row %d got %d of its %d counted triplets", i, a.next[i]-lo, hi-lo))
		}
		for _, j := range col[lo:hi] {
			if uint(j) >= uint(a.cols) {
				panic(fmt.Sprintf("sparse: row %d holds column %d outside [0, %d)", i, j, a.cols))
			}
		}
		rs.sort(col[lo:hi], val[lo:hi])
		for p := lo; p < hi; {
			j, s := col[p], val[p]
			for p++; p < hi && col[p] == j; p++ {
				s += val[p]
			}
			if s != 0 {
				col[w], val[w] = j, s
				w++
			}
		}
		rowPtr[i+1] = w
		lo = hi
	}
	a.rowPtr, a.next, a.colIdx, a.val = nil, nil, nil, nil
	return &CSR{rows: a.rows, cols: a.cols, rowPtr: rowPtr, colIdx: col[:w], val: val[:w]}
}

// shortRow is the longest row rowSort orders by insertion sort.
const shortRow = 16

// maxCols bounds the columns (and a square matrix's rows) of the
// matrices the assembler and Permute build: rowSort packs a column into
// 32 bits.
const maxCols = 1 << 32

// rowSort puts row segments in ascending column order, moving the
// values along and keeping equal columns in their order. Its buffers
// grow to the longest row sorted and serve every later row.
type rowSort struct {
	keys []uint64
	vals []float64
}

// sort orders one row segment: not at all when it is in order already,
// by insertion sort when short, else by sorting keys that pack each
// column (high 32 bits) with its position in the row (low 32 bits).
// The keys are distinct, so the standard library's unstable sort of
// plain integers yields the stable order, with no comparison function.
func (s *rowSort) sort(cols []int, vals []float64) {
	if slices.IsSorted(cols) {
		return
	}
	if len(cols) <= shortRow {
		for i := 1; i < len(cols); i++ {
			c, v := cols[i], vals[i]
			j := i - 1
			for j >= 0 && cols[j] > c {
				cols[j+1], vals[j+1] = cols[j], vals[j]
				j--
			}
			cols[j+1], vals[j+1] = c, v
		}
		return
	}
	s.keys, s.vals = s.keys[:0], append(s.vals[:0], vals...)
	for p, c := range cols {
		s.keys = append(s.keys, uint64(c)<<32|uint64(p))
	}
	slices.Sort(s.keys)
	for p, k := range s.keys {
		cols[p], vals[p] = int(k>>32), s.vals[uint32(k)]
	}
}

// CSR is an immutable sparse matrix in compressed sparse row format.
type CSR struct {
	rows, cols int
	rowPtr     []int
	colIdx     []int
	val        []float64

	// Lazily built compact (int32) index form; see CompactIndex. The
	// value array is shared — only the index metadata is duplicated.
	rowPtr32 []int32
	colIdx32 []int32
	// split caches the epoch-0 row-block split NewRowBlocks builds on
	// the compact index; see blockSplit.
	split atomic.Pointer[rowSplit]
}

// NewCSRFromDense builds a CSR from a dense row-major value grid, keeping
// only nonzero entries. Intended for tests and tiny matrices.
func NewCSRFromDense(rows [][]float64) *CSR {
	r := len(rows)
	c := 0
	if r > 0 {
		c = len(rows[0])
	}
	b := NewBuilder(r, c)
	for i, row := range rows {
		if len(row) != c {
			panic("sparse: ragged dense input")
		}
		for j, v := range row {
			if v != 0 {
				b.Add(i, j, v)
			}
		}
	}
	return b.ToCSR()
}

// Rows returns the number of rows.
func (m *CSR) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *CSR) Cols() int { return m.cols }

// NNZ returns the number of stored nonzeros.
func (m *CSR) NNZ() int { return len(m.val) }

// At returns the value at (i, j), 0 if the entry is not stored.
// It is O(log nnz(row i)) and intended for tests, not inner loops.
func (m *CSR) At(i, j int) float64 {
	if i < 0 || i >= m.rows || j < 0 || j >= m.cols {
		panic(fmt.Sprintf("sparse: index (%d,%d) out of range %dx%d", i, j, m.rows, m.cols))
	}
	lo, hi := m.rowPtr[i], m.rowPtr[i+1]
	cols := m.colIdx[lo:hi]
	k := sort.SearchInts(cols, j)
	if k < len(cols) && cols[k] == j {
		return m.val[lo+k]
	}
	return 0
}

// Row invokes fn for every stored entry (col, val) of row i, in ascending
// column order.
func (m *CSR) Row(i int, fn func(col int, val float64)) {
	for p := m.rowPtr[i]; p < m.rowPtr[i+1]; p++ {
		fn(m.colIdx[p], m.val[p])
	}
}

// RowNNZ returns the number of stored entries in row i.
func (m *CSR) RowNNZ(i int) int { return m.rowPtr[i+1] - m.rowPtr[i] }

// RowView returns the stored column indices and values of row i as
// slices aliasing the CSR storage. Callers must not modify them. Unlike
// Row it involves no callback, so it is the zero-overhead accessor used
// by the fused compute kernels.
//
//lsbp:hotpath
func (m *CSR) RowView(i int) (cols []int, vals []float64) {
	lo, hi := m.rowPtr[i], m.rowPtr[i+1]
	return m.colIdx[lo:hi], m.val[lo:hi]
}

// Index exposes the raw CSR arrays (row pointers, column indices,
// values) for kernels that iterate the structure directly. The slices
// alias the CSR storage and must not be modified.
func (m *CSR) Index() (rowPtr, colIdx []int, vals []float64) {
	return m.rowPtr, m.colIdx, m.val
}

// CompactIndex returns the int32 form of the row pointers and column
// indices, building and caching it on first use; values are shared with
// the int form. Halving the index width halves the index bytes the
// memory system moves per SpMM traversal, which is what dominates the
// solve cost on large graphs; every kernel reads it through a
// RowBlocks table. ok is false when the dimensions or the nonzero count
// do not fit in int32: no row-block table, and so no kernel, can then
// be built over the matrix.
//
// The build is not synchronized: trigger it from a single goroutine
// (the prepare path does) before any concurrent readers start.
func (m *CSR) CompactIndex() (rowPtr, colIdx []int32, ok bool) {
	const maxInt32 = 1<<31 - 1
	if m.rows >= maxInt32 || m.cols >= maxInt32 || len(m.val) >= maxInt32 {
		return nil, nil, false
	}
	if m.rowPtr32 == nil {
		rp := make([]int32, len(m.rowPtr))
		for i, p := range m.rowPtr {
			rp[i] = int32(p)
		}
		ci := make([]int32, len(m.colIdx))
		for i, j := range m.colIdx {
			ci[i] = int32(j)
		}
		m.rowPtr32, m.colIdx32 = rp, ci
	}
	return m.rowPtr32, m.colIdx32, true
}

// Permute returns P·m·Pᵀ for the node relabeling perm, where
// perm[old] = new: entry (i, j) of m lands at (perm[i], perm[j]). The
// matrix must be square (the operation is the symmetric relabeling the
// layout optimizer applies to adjacency matrices). Rows of the result
// keep ascending column order. perm must be a bijection on [0, n).
func (m *CSR) Permute(perm []int) *CSR {
	n := m.rows
	if m.cols != n {
		panic(fmt.Sprintf("sparse: Permute needs a square matrix, got %dx%d", m.rows, m.cols))
	}
	if len(perm) != n {
		panic(fmt.Sprintf("sparse: permutation length %d, want %d", len(perm), n))
	}
	checkDims(n, n)
	inv := make([]int, n) // new -> old, doubling as the bijection check
	for i := range inv {
		inv[i] = -1
	}
	for old, nw := range perm {
		if nw < 0 || nw >= n || inv[nw] != -1 {
			panic(fmt.Sprintf("sparse: invalid permutation entry perm[%d] = %d", old, nw))
		}
		inv[nw] = old
	}
	out := &CSR{
		rows:   n,
		cols:   n,
		rowPtr: make([]int, n+1),
		colIdx: make([]int, len(m.colIdx)),
		val:    make([]float64, len(m.val)),
	}
	var rs rowSort
	pos := 0
	for r := 0; r < n; r++ {
		cols, vals := m.RowView(inv[r])
		start := pos
		for p, j := range cols {
			out.colIdx[pos] = perm[j]
			out.val[pos] = vals[p]
			pos++
		}
		rs.sort(out.colIdx[start:pos], out.val[start:pos])
		out.rowPtr[r+1] = pos
	}
	return out
}

// MulVec returns y = m·x.
func (m *CSR) MulVec(x []float64) []float64 {
	if len(x) != m.cols {
		panic(fmt.Sprintf("sparse: MulVec length %d, want %d", len(x), m.cols))
	}
	y := make([]float64, m.rows)
	m.MulVecInto(y, x)
	return y
}

// MulVecInto computes y = m·x into a caller-provided slice.
// y must not alias x.
func (m *CSR) MulVecInto(y, x []float64) {
	if len(x) != m.cols || len(y) != m.rows {
		panic("sparse: MulVecInto dimension mismatch")
	}
	for i := 0; i < m.rows; i++ {
		var s float64
		for p := m.rowPtr[i]; p < m.rowPtr[i+1]; p++ {
			s += m.val[p] * x[m.colIdx[p]]
		}
		y[i] = s
	}
}

// MulDenseInto computes Y = m·X where X and Y are dense row-major
// matrices with k columns stored as flat slices (row i occupies
// X[i*k:(i+1)*k]). This is the LinBP inner kernel: A (n×n, sparse) times
// Bˆ (n×k, dense). Y must not alias X.
func (m *CSR) MulDenseInto(y, x []float64, k int) {
	if len(x) != m.cols*k || len(y) != m.rows*k {
		panic(fmt.Sprintf("sparse: MulDenseInto dimension mismatch: len(x)=%d len(y)=%d k=%d", len(x), len(y), k))
	}
	for i := 0; i < m.rows; i++ {
		yi := y[i*k : (i+1)*k]
		for c := range yi {
			yi[c] = 0
		}
		for p := m.rowPtr[i]; p < m.rowPtr[i+1]; p++ {
			v := m.val[p]
			xj := x[m.colIdx[p]*k : (m.colIdx[p]+1)*k]
			for c, xv := range xj {
				yi[c] += v * xv
			}
		}
	}
}

// MulDenseAddInto computes Y += m·X (accumulating, without zeroing Y
// first) for dense row-major X and Y with k columns stored as flat
// slices — the fused accumulate counterpart of MulDenseInto. It lets
// callers compose updates of the form Y = C + A·X without a separate
// n×k scratch pass: by the associativity rewrite (A·B)·Hˆ = A·(B·Hˆ),
// one LinBP round is expressible as Y = Eˆ − D·(B·Hˆ²) then
// Y += A·(B·Hˆ). Y must not alias X.
func (m *CSR) MulDenseAddInto(y, x []float64, k int) {
	if len(x) != m.cols*k || len(y) != m.rows*k {
		panic(fmt.Sprintf("sparse: MulDenseAddInto dimension mismatch: len(x)=%d len(y)=%d k=%d", len(x), len(y), k))
	}
	for i := 0; i < m.rows; i++ {
		yi := y[i*k : (i+1)*k]
		for p := m.rowPtr[i]; p < m.rowPtr[i+1]; p++ {
			v := m.val[p]
			xj := x[m.colIdx[p]*k : (m.colIdx[p]+1)*k]
			for c, xv := range xj {
				yi[c] += v * xv
			}
		}
	}
}

// T returns the transpose as a new CSR. It is Transpose; the short name
// is kept for symmetry with dense.Matrix.T.
func (m *CSR) T() *CSR { return m.Transpose() }

// Transpose returns mᵀ as a new CSR, built by a direct counting pass —
// no COO builder detour, so it allocates exactly the output arrays.
func (m *CSR) Transpose() *CSR {
	dst := new(CSR)
	m.TransposeInto(dst)
	return dst
}

// TransposeInto computes mᵀ into dst, reusing dst's existing storage
// whenever the capacities suffice — the reuse path for callers that
// transpose repeatedly (prepare-time pipelines transposing per solve
// configuration pay one allocation set total, not one per transpose).
// dst must not be m itself. Output rows keep ascending column order.
func (m *CSR) TransposeInto(dst *CSR) {
	if dst == m {
		panic("sparse: TransposeInto aliases its receiver")
	}
	dst.rows, dst.cols = m.cols, m.rows
	dst.rowPtr = growInts(dst.rowPtr, m.cols+1)
	dst.colIdx = growInts(dst.colIdx, len(m.colIdx))
	dst.val = growFloats(dst.val, len(m.val))
	dst.rowPtr32, dst.colIdx32 = nil, nil // stale for the new content
	dst.split.Store(nil)
	for i := range dst.rowPtr {
		dst.rowPtr[i] = 0
	}
	// Count entries per output row (input column), prefix-sum into
	// running cursors, then scatter; walking input rows in ascending
	// order makes each output row's columns ascend automatically.
	for _, j := range m.colIdx {
		dst.rowPtr[j+1]++
	}
	for j := 0; j < m.cols; j++ {
		dst.rowPtr[j+1] += dst.rowPtr[j]
	}
	for i := 0; i < m.rows; i++ {
		for p := m.rowPtr[i]; p < m.rowPtr[i+1]; p++ {
			j := m.colIdx[p]
			q := dst.rowPtr[j]
			dst.colIdx[q] = i
			dst.val[q] = m.val[p]
			dst.rowPtr[j] = q + 1
		}
	}
	// The cursors have advanced each rowPtr[j] to the start of row j+1;
	// shift right to restore the pointer array.
	for j := m.cols; j > 0; j-- {
		dst.rowPtr[j] = dst.rowPtr[j-1]
	}
	dst.rowPtr[0] = 0
}

func growInts(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	return s[:n]
}

func growFloats(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// Scaled returns s·m as a new CSR sharing no storage with m.
func (m *CSR) Scaled(s float64) *CSR {
	out := &CSR{
		rows:   m.rows,
		cols:   m.cols,
		rowPtr: append([]int(nil), m.rowPtr...),
		colIdx: append([]int(nil), m.colIdx...),
		val:    make([]float64, len(m.val)),
	}
	for i, v := range m.val {
		out.val[i] = s * v
	}
	return out
}

// RowSums returns the vector of plain row sums Σ_j m(i,j).
func (m *CSR) RowSums() []float64 {
	out := make([]float64, m.rows)
	for i := 0; i < m.rows; i++ {
		var s float64
		for p := m.rowPtr[i]; p < m.rowPtr[i+1]; p++ {
			s += m.val[p]
		}
		out[i] = s
	}
	return out
}

// RowSumsSquared returns Σ_j m(i,j)², the weighted degree the paper uses
// for the echo-cancellation term on weighted graphs (Section 5.2: "the
// degree of a node is the sum of the squared weights to its neighbors").
func (m *CSR) RowSumsSquared() []float64 {
	out := make([]float64, m.rows)
	for i := 0; i < m.rows; i++ {
		var s float64
		for p := m.rowPtr[i]; p < m.rowPtr[i+1]; p++ {
			s += m.val[p] * m.val[p]
		}
		out[i] = s
	}
	return out
}

// MaxAbsRowSum returns the induced ∞-norm of m (max absolute row sum).
func (m *CSR) MaxAbsRowSum() float64 {
	var max float64
	for i := 0; i < m.rows; i++ {
		var s float64
		for p := m.rowPtr[i]; p < m.rowPtr[i+1]; p++ {
			if m.val[p] < 0 {
				s -= m.val[p]
			} else {
				s += m.val[p]
			}
		}
		if s > max {
			max = s
		}
	}
	return max
}

// MaxAbsColSum returns the induced 1-norm of m (max absolute column sum).
func (m *CSR) MaxAbsColSum() float64 {
	sums := make([]float64, m.cols)
	for p, j := range m.colIdx {
		v := m.val[p]
		if v < 0 {
			v = -v
		}
		sums[j] += v
	}
	var max float64
	for _, s := range sums {
		if s > max {
			max = s
		}
	}
	return max
}

// IsSymmetric reports whether m equals its transpose exactly. It runs
// one O(nnz) TransposeInto pass instead of a per-entry binary search.
func (m *CSR) IsSymmetric() bool { return m.symmetric(true) }

// IsPatternSymmetric reports whether m stores (j, i) exactly when it
// stores (i, j), whatever the values.
func (m *CSR) IsPatternSymmetric() bool { return m.symmetric(false) }

func (m *CSR) symmetric(values bool) bool {
	if m.rows != m.cols {
		return false
	}
	var t CSR
	m.TransposeInto(&t)
	for i, p := range m.rowPtr {
		if t.rowPtr[i] != p {
			return false
		}
	}
	for i, j := range m.colIdx {
		if t.colIdx[i] != j || (values && t.val[i] != m.val[i]) {
			return false
		}
	}
	return true
}
