// Package sparse provides the compressed sparse row (CSR) kernels that
// carry LinBP's performance-critical operation: multiplying the n×n graph
// adjacency matrix with the n×k dense belief matrix. The paper's JAVA
// implementation relied on Parallel Colt for the same purpose; this
// package is the from-scratch, standard-library substitute.
//
// Matrices are built through a COO (coordinate) builder and frozen into
// an immutable CSR form. Duplicate (row, col) entries in the builder are
// summed on freeze, which matches how parallel edges accumulate weight in
// a weighted adjacency matrix (Section 5.2).
package sparse

import (
	"fmt"
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

// NewBuilder returns a builder for a rows×cols sparse matrix.
func NewBuilder(rows, cols int) *Builder {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("sparse: negative dimension %dx%d", rows, cols))
	}
	return &Builder{rows: rows, cols: cols}
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

// ToCSR freezes the builder into a CSR matrix, summing duplicates and
// dropping entries whose summed value is exactly zero. The builder remains
// usable afterwards (more triplets may be added and ToCSR called again).
func (b *Builder) ToCSR() *CSR {
	// Count entries per row, then bucket-sort triplets by row.
	rowCount := make([]int, b.rows+1)
	for _, i := range b.r {
		rowCount[i+1]++
	}
	for i := 0; i < b.rows; i++ {
		rowCount[i+1] += rowCount[i]
	}
	order := make([]int, len(b.r))
	next := make([]int, b.rows)
	for t, i := range b.r {
		order[rowCount[i]+next[i]] = t
		next[i]++
	}

	csr := &CSR{rows: b.rows, cols: b.cols, rowPtr: make([]int, b.rows+1)}
	colScratch := make([]int, 0, 64)
	valScratch := make([]float64, 0, 64)
	for i := 0; i < b.rows; i++ {
		lo, hi := rowCount[i], rowCount[i+1]
		colScratch = colScratch[:0]
		valScratch = valScratch[:0]
		for _, t := range order[lo:hi] {
			colScratch = append(colScratch, b.c[t])
			valScratch = append(valScratch, b.v[t])
		}
		// Sort the row's entries by column and merge duplicates.
		idx := make([]int, len(colScratch))
		for t := range idx {
			idx[t] = t
		}
		sort.Slice(idx, func(a, c int) bool { return colScratch[idx[a]] < colScratch[idx[c]] })
		prevCol := -1
		for _, t := range idx {
			col, val := colScratch[t], valScratch[t]
			if col == prevCol {
				csr.val[len(csr.val)-1] += val
				continue
			}
			csr.colIdx = append(csr.colIdx, col)
			csr.val = append(csr.val, val)
			prevCol = col
		}
		// Drop exact zeros produced by cancellation (walk backwards over
		// the entries just appended for this row).
		start := csr.rowPtr[i]
		w := start
		for r := start; r < len(csr.val); r++ {
			if csr.val[r] != 0 {
				csr.colIdx[w] = csr.colIdx[r]
				csr.val[w] = csr.val[r]
				w++
			}
		}
		csr.colIdx = csr.colIdx[:w]
		csr.val = csr.val[:w]
		csr.rowPtr[i+1] = len(csr.val)
	}
	return csr
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
	pos := 0
	for r := 0; r < n; r++ {
		cols, vals := m.RowView(inv[r])
		start := pos
		for p, j := range cols {
			out.colIdx[pos] = perm[j]
			out.val[pos] = vals[p]
			pos++
		}
		sortRowByCol(out.colIdx[start:pos], out.val[start:pos])
		out.rowPtr[r+1] = pos
	}
	return out
}

// sortRowByCol sorts one row segment by column index, moving the values
// along. Short rows use insertion sort; long rows fall back to
// sort.Sort to avoid quadratic blowup on hub rows.
func sortRowByCol(cols []int, vals []float64) {
	if len(cols) <= 24 {
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
	sort.Sort(&rowSorter{cols: cols, vals: vals})
}

type rowSorter struct {
	cols []int
	vals []float64
}

func (s *rowSorter) Len() int           { return len(s.cols) }
func (s *rowSorter) Less(i, j int) bool { return s.cols[i] < s.cols[j] }
func (s *rowSorter) Swap(i, j int) {
	s.cols[i], s.cols[j] = s.cols[j], s.cols[i]
	s.vals[i], s.vals[j] = s.vals[j], s.vals[i]
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
func (m *CSR) IsSymmetric() bool {
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
		if t.colIdx[i] != j || t.val[i] != m.val[i] {
			return false
		}
	}
	return true
}
