// The copy-on-write row-block adjacency of the dynamic serving plane.
// A RowBlocks table splits the rows of a sparse matrix into blocks of
// BlockRows consecutive rows; every block is immutable once published,
// so any number of solves may read one epoch's table while the next
// epoch is being committed. The epoch-0 table splits the prepared
// (possibly mmap-backed) flat CSR into blocks whose int32 columns,
// values and degrees alias the flat arrays — only the row pointers are
// rebased per block — and Commit produces the next epoch by copying
// only the blocks that hold edited rows plus the block table itself:
// untouched blocks are shared by pointer between epochs, so a small
// edge delta costs O(touched blocks), not O(nnz).
//
// A block whose values are all 1.0 — every block of an unweighted
// graph — owns no values array: its Val is cut from one shared,
// read-only slice of ones (a block beyond maxSharedOnes entries, a
// high-degree hub's, owns its ones instead). Multiplying by 1.0 is
// exact, so kernels read such a block exactly as they read a block that
// owns its ones.
//
// Rows keep their column order and values exactly as a flat merge of
// the same edits would store them, so a kernel reading rows through
// the table computes bitwise the same sums as one reading the flat
// CSR. Flat arrays are materialized (CompactArrays, Flatten) only where
// a whole-graph image is needed: checkpoints and compaction relayouts.
package sparse

import (
	"fmt"
	"slices"
	"sync/atomic"
)

// BlockShift is log2 of the rows per block. 64-row blocks keep the
// copy a 16-edge commit makes at a few hundred KB on the power-11
// Kronecker graph (avg degree ~24) while the per-block loop overhead
// of the row kernels stays far below the row work it frames;
// EXPERIMENTS.md records the block-size measurement.
const BlockShift = 6

// BlockRows is the number of rows per block (the last block may be
// shorter).
const BlockRows = 1 << BlockShift

// Block is one immutable row block holding the rows [Off,
// Off+len(RowPtr)-1). Row i's entries are Col[RowPtr[i−Off]:
// RowPtr[i−Off+1]] (ascending columns, RowPtr[0] = 0) with the matching
// values in Val, and its degree is Deg[i−Off]. An epoch-0 block aliases
// sub-slices of the flat arrays it was split from; a committed or
// private copy owns its arrays; either way a block whose values are all
// 1.0 shares its Val with every other such block up to maxSharedOnes
// entries (see unitValues).
// Callers must not modify any field or element.
type Block struct {
	Off    int
	RowPtr []int32
	Col    []int32
	Val    []float64
	// Deg holds each row's weighted degree Σ_j a(i,j)² in column order
	// (RowSumsSquared's summation order); nil unless the table carries
	// degrees (HasDegrees).
	Deg []float64
}

// nnz returns the number of entries the block stores.
func (b *Block) nnz() int { return int(b.RowPtr[len(b.RowPtr)-1]) }

// RowBlocks is a copy-on-write row-block sparse matrix; see the file
// comment. The zero value is not usable; build one with NewRowBlocks
// and derive later epochs with Commit.
type RowBlocks struct {
	rows, cols int
	nnz        int
	// blocks is the block table, one entry per BlockRows rows. The
	// table keeps no reference to the CSR it was built from: once the
	// builder drops that CSR, its int row pointers and int columns are
	// garbage, and so are its values when every block is unit-weight.
	blocks []*Block
	deg    bool
	// base is the compaction base (the epoch-0 table of this lineage)
	// and diff the number of cells whose value differs from it.
	base *RowBlocks
	diff int
}

// NewRowBlocks builds the epoch-0 table over a (see CSR.blockSplit):
// blocks aliasing a's compact index, values and deg, which, when
// non-nil, supplies the per-row degrees. a's compact index and the
// split are built if needed, so call it while a has no concurrent
// readers. The table holds no reference to a itself. It fails when a
// does not fit the int32 index.
func NewRowBlocks(a *CSR, deg []float64) (*RowBlocks, error) {
	m := new(RowBlocks)
	if err := m.Init(a, deg); err != nil {
		return nil, err
	}
	return m, nil
}

// Init makes m the epoch-0 table over a in place (see NewRowBlocks),
// for holders that embed their table instead of allocating it.
func (m *RowBlocks) Init(a *CSR, deg []float64) error {
	if deg != nil && len(deg) != a.rows {
		return fmt.Errorf("sparse: degree vector length %d, want %d", len(deg), a.rows)
	}
	blocks, err := a.blockSplit(deg)
	if err != nil {
		return err
	}
	*m = RowBlocks{rows: a.rows, cols: a.cols, nnz: len(a.val), blocks: blocks, deg: deg != nil}
	m.base = m
	return nil
}

// rowSplit is a CSR's cached epoch-0 block split for one degree vector.
type rowSplit struct {
	deg    []float64
	blocks []*Block
}

// blockSplit returns a's rows as epoch-0 blocks: one array of rebased
// int32 row pointers, the int32 columns, values and deg (when non-nil)
// as per-block sub-slices of a's arrays, and the shared ones instead of
// a's values for every unit-weight block. The split is cached on a: a
// later call with a degree vector holding the same values gets the
// cached blocks back (whose degrees alias the first caller's vector),
// so the engines the one-shot solvers build per call on one graph
// allocate nothing here.
func (a *CSR) blockSplit(deg []float64) ([]*Block, error) {
	if s := a.split.Load(); s != nil && (s.deg == nil) == (deg == nil) && slices.Equal(s.deg, deg) {
		return s.blocks, nil
	}
	rp32, ci32, ok := a.CompactIndex()
	if !ok {
		return nil, fmt.Errorf("sparse: %dx%d matrix with %d entries does not fit the int32 row-block index", a.rows, a.cols, len(a.val))
	}
	n := a.rows
	nb := (n + BlockRows - 1) >> BlockShift
	rowPtr := make([]int32, n+nb) // each block's rows plus its end pointer
	store := make([]Block, nb)
	blocks := make([]*Block, nb)
	for b := range store {
		lo, hi := b<<BlockShift, min((b+1)<<BlockShift, n)
		first, last := rp32[lo], rp32[hi]
		rp := rowPtr[lo+b : hi+b+1 : hi+b+1]
		for q := range rp {
			rp[q] = rp32[lo+q] - first
		}
		blk := &store[b]
		*blk = Block{Off: lo, RowPtr: rp, Col: ci32[first:last:last], Val: a.val[first:last:last]}
		if allOnes(blk.Val) {
			blk.Val = unitValues(len(blk.Val))
		}
		if deg != nil {
			blk.Deg = deg[lo:hi:hi]
		}
		blocks[b] = blk
	}
	a.split.Store(&rowSplit{deg: deg, blocks: blocks})
	return blocks, nil
}

// maxSharedOnes caps the shared ones at 32,768 entries (256 KB), eight
// times the largest unit-weight block of the power-11 Kronecker graph
// under RCM (4,032 entries). A larger unit-weight block owns its ones,
// so a high-degree hub's are freed with its block.
const maxSharedOnes = 1 << 15

// ones is the shared read-only slice of 1.0 that the Val of every
// unit-weight block of at most maxSharedOnes entries is cut from. Its
// length is a power of two, at least 1,024, that grows to cover the
// largest such block built so far, and a block keeps the slice it was
// cut from, so the process retains less than 2·maxSharedOnes shared
// values (512 KB) once every table is gone.
var ones atomic.Pointer[[]float64]

// unitValues returns a read-only slice of n ones, capped at n: cut from
// the shared ones, or a slice of its own beyond maxSharedOnes.
func unitValues(n int) []float64 {
	if n > maxSharedOnes {
		return newOnes(n)
	}
	for {
		p := ones.Load()
		if p != nil && len(*p) >= n {
			return (*p)[:n:n]
		}
		size := 1024
		for size < n {
			size *= 2
		}
		s := newOnes(size)
		if ones.CompareAndSwap(p, &s) {
			return s[:n:n]
		}
	}
}

// newOnes returns a fresh slice of n ones.
func newOnes(n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = 1
	}
	return s
}

// allOnes reports whether every value is exactly 1.0.
func allOnes(v []float64) bool {
	for _, x := range v {
		if x != 1 {
			return false
		}
	}
	return true
}

// Rows returns the number of rows.
func (m *RowBlocks) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *RowBlocks) Cols() int { return m.cols }

// NNZ returns the number of stored entries.
func (m *RowBlocks) NNZ() int { return m.nnz }

// HasDegrees reports whether the blocks carry per-row degrees.
func (m *RowBlocks) HasDegrees() bool { return m.deg }

// NumBlocks returns the number of block-table entries.
func (m *RowBlocks) NumBlocks() int { return (m.rows + BlockRows - 1) >> BlockShift }

// Block returns block-table entry b, the block holding rows
// [b·BlockRows, min((b+1)·BlockRows, Rows())). Blocks are shared
// between epochs and must not be modified.
//
//lsbp:hotpath
func (m *RowBlocks) Block(b int) *Block { return m.blocks[b] }

// DiffCells returns the number of cells whose value differs from the
// compaction base — the epoch-0 table this one was committed from. An
// edge inserted and deleted again leaves no difference behind, so a
// stream that returns to its base graph reports 0.
func (m *RowBlocks) DiffCells() int { return m.diff }

// RowViewCompact returns row i's int32 column indices and values,
// aliasing the block storage.
//
//lsbp:hotpath
func (m *RowBlocks) RowViewCompact(i int) (cols []int32, vals []float64) {
	blk := m.Block(i >> BlockShift)
	q := i - blk.Off
	rs, re := blk.RowPtr[q], blk.RowPtr[q+1]
	return blk.Col[rs:re], blk.Val[rs:re]
}

// Degree returns row i's weighted degree; the table must carry degrees
// (HasDegrees).
//
//lsbp:hotpath
func (m *RowBlocks) Degree(i int) float64 {
	blk := m.Block(i >> BlockShift)
	return blk.Deg[i-blk.Off]
}

// RowNNZ returns the number of stored entries in row i.
//
//lsbp:hotpath
func (m *RowBlocks) RowNNZ(i int) int {
	blk := m.Block(i >> BlockShift)
	q := i - blk.Off
	return int(blk.RowPtr[q+1] - blk.RowPtr[q])
}

// At returns the value at (i, j), 0 if the entry is not stored. It
// binary-searches row i and is intended for tests, not inner loops.
func (m *RowBlocks) At(i, j int) float64 {
	if i < 0 || i >= m.rows || j < 0 || j >= m.cols {
		panic(fmt.Sprintf("sparse: index (%d,%d) out of range %dx%d", i, j, m.rows, m.cols))
	}
	cols, vals := m.RowViewCompact(i)
	if p, ok := slices.BinarySearch(cols, int32(j)); ok {
		return vals[p]
	}
	return 0
}

// Edit is one directed cell edit of a Commit batch: an addition sums W
// onto cell (Row, Col) (creating it when absent); a removal deletes
// the cell, discarding its value (W is ignored).
type Edit struct {
	Row, Col int
	W        float64
	Remove   bool
}

// rowEdit is one edited row's outcome inside Commit: the merged row
// content at tc/tv[lo:hi] and whether it differs from the old row.
type rowEdit struct {
	row     int
	lo, hi  int
	changed bool
}

// Commit returns the next epoch: m with the edits applied in order
// (additions sum in arrival order, a removal discards everything the
// cell held before it, and cells whose value reaches exactly zero are
// not stored). Only the blocks holding rows whose content changed are
// copied — and a copied block whose content is back to the compaction
// base's shares the base block instead; every other block is shared
// with m, and m itself is left untouched. The changed rows are
// appended to rowsBuf[:0] in ascending order and returned. When no
// stored entry changes, Commit returns m itself and no rows.
func (m *RowBlocks) Commit(edits []Edit, rowsBuf []int) (*RowBlocks, []int) {
	changedRows := rowsBuf[:0]
	if len(edits) == 0 {
		return m, changedRows
	}
	for _, e := range edits {
		if e.Row < 0 || e.Row >= m.rows || e.Col < 0 || e.Col >= m.cols {
			panic(fmt.Sprintf("sparse: edit cell (%d,%d) out of range %dx%d", e.Row, e.Col, m.rows, m.cols))
		}
	}
	// Group the edits by row, keeping arrival order within a row.
	ord := slices.Clone(edits)
	slices.SortStableFunc(ord, func(a, b Edit) int { return a.Row - b.Row })

	// Size the merged-row scratch up front: a row grows by at most its
	// additions.
	need := 0
	for g := 0; g < len(ord); {
		h := g
		for h < len(ord) && ord[h].Row == ord[g].Row {
			h++
		}
		need += m.RowNNZ(ord[g].Row) + (h - g)
		g = h
	}
	tc := make([]int32, 0, need)
	tv := make([]float64, 0, need)
	res := make([]rowEdit, 0, len(ord))
	diff := m.diff
	for g := 0; g < len(ord); {
		row := ord[g].Row
		h := g
		for h < len(ord) && ord[h].Row == row {
			h++
		}
		oc, ov := m.RowViewCompact(row)
		lo := len(tc)
		tc = append(tc, oc...)
		tv = append(tv, ov...)
		for _, e := range ord[g:h] {
			rc, rv := tc[lo:], tv[lo:]
			p, found := slices.BinarySearch(rc, int32(e.Col))
			switch {
			case e.Remove:
				if found {
					copy(rc[p:], rc[p+1:])
					copy(rv[p:], rv[p+1:])
					tc, tv = tc[:len(tc)-1], tv[:len(tv)-1]
				}
			case found:
				rv[p] += e.W
				if rv[p] == 0 {
					copy(rc[p:], rc[p+1:])
					copy(rv[p:], rv[p+1:])
					tc, tv = tc[:len(tc)-1], tv[:len(tv)-1]
				}
			case e.W != 0:
				tc = slices.Insert(tc, lo+p, int32(e.Col))
				tv = slices.Insert(tv, lo+p, e.W)
			}
		}
		nc, nv := tc[lo:], tv[lo:]
		changed := !slices.Equal(oc, nc) || !slices.Equal(ov, nv)
		if changed {
			diff += m.base.diffDelta(row, ord[g:h], oc, ov, nc, nv)
			changedRows = append(changedRows, row)
		}
		res = append(res, rowEdit{row: row, lo: lo, hi: len(tc), changed: changed})
		g = h
	}
	if len(changedRows) == 0 {
		return m, changedRows
	}

	// Size the copied blocks: each keeps its unchanged rows verbatim and
	// takes the merged content of its changed rows.
	type blockCopy struct {
		b, nnz, rows int
		first        int // index of the block's first changed row in res
	}
	copies := make([]blockCopy, 0, len(changedRows))
	nnz := m.nnz
	for i, r := range res {
		if !r.changed {
			continue
		}
		b := r.row >> BlockShift
		if len(copies) == 0 || copies[len(copies)-1].b != b {
			blk := m.Block(b)
			copies = append(copies, blockCopy{b: b, nnz: blk.nnz(), rows: len(blk.RowPtr) - 1, first: i})
		}
		grow := (r.hi - r.lo) - m.RowNNZ(r.row)
		copies[len(copies)-1].nnz += grow
		nnz += grow
	}
	blocks := slices.Clone(m.blocks)
	for _, c := range copies {
		off := c.b << BlockShift
		src := mergedRows{old: m.Block(c.b), res: res[c.first:], tc: tc, tv: tv}
		// A block whose merged values are all 1.0 shares the ones
		// instead of owning a values array.
		unit := true
		for q := 0; q < c.rows && unit; q++ {
			_, vals, _ := src.row(off + q)
			unit = allOnes(vals)
		}
		src.ri = 0
		nb := newBlock(off, c.rows, c.nnz, m.deg, unit)
		pos := int32(0)
		for q := 0; q < c.rows; q++ {
			cols, vals, fresh := src.row(off + q)
			nb.RowPtr[q] = pos
			copy(nb.Col[pos:], cols)
			if !unit {
				copy(nb.Val[pos:], vals)
			}
			if m.deg {
				if fresh {
					var s float64
					for _, v := range vals {
						s += v * v
					}
					nb.Deg[q] = s
				} else {
					nb.Deg[q] = src.old.Deg[q]
				}
			}
			pos += int32(len(cols))
		}
		nb.RowPtr[c.rows] = pos
		if bb := m.base.Block(c.b); m.base != m && sameRows(nb, bb, off, c.rows) {
			// The block is back to its compaction-base content (an
			// insert undone by a delete): share the base block again
			// instead of keeping a copy alive.
			nb = bb
		}
		blocks[c.b] = nb
	}
	return &RowBlocks{rows: m.rows, cols: m.cols, nnz: nnz, blocks: blocks,
		deg: m.deg, base: m.base, diff: diff}, changedRows
}

// mergedRows yields, in ascending row order, the rows of one block a
// commit copies: a changed row's merged content from the commit's
// scratch, any other row from the old block.
type mergedRows struct {
	old *Block
	res []rowEdit // the edited rows, from the block's first changed one
	tc  []int32
	tv  []float64
	ri  int // cursor into res
}

// row returns row i's columns and values and whether they are merged
// content; successive calls must ask for ascending rows.
func (s *mergedRows) row(i int) (cols []int32, vals []float64, fresh bool) {
	for s.ri < len(s.res) && s.res[s.ri].row < i {
		s.ri++
	}
	if s.ri < len(s.res) && s.res[s.ri].row == i && s.res[s.ri].changed {
		r := s.res[s.ri]
		return s.tc[r.lo:r.hi], s.tv[r.lo:r.hi], true
	}
	q := i - s.old.Off
	rs, re := s.old.RowPtr[q], s.old.RowPtr[q+1]
	return s.old.Col[rs:re], s.old.Val[rs:re], false
}

// newBlock allocates a block for rows [off, off+rows) holding nnz
// entries: one int32 array backs RowPtr and Col and one float64 array
// Val and Deg — a unit-weight block takes its Val from the shared ones
// and owns only the degrees — so a block costs at most three
// allocations and is freed as a unit once no epoch references it.
func newBlock(off, rows, nnz int, deg, unit bool) *Block {
	ints := make([]int32, rows+1+nnz)
	own := nnz // values the block stores itself
	if unit {
		own = 0
	}
	nf := own
	if deg {
		nf += rows
	}
	floats := make([]float64, nf)
	nb := &Block{Off: off, RowPtr: ints[: rows+1 : rows+1], Col: ints[rows+1:], Val: floats[:own:own]}
	if unit {
		nb.Val = unitValues(nnz)
	}
	if deg {
		nb.Deg = floats[own:]
	}
	return nb
}

// sameRows reports whether blocks a and b hold identical rows, degrees
// included, over [off, off+rows).
func sameRows(a, b *Block, off, rows int) bool {
	for q := 0; q < rows; q++ {
		i := off + q
		ars, are := a.RowPtr[i-a.Off], a.RowPtr[i-a.Off+1]
		brs, bre := b.RowPtr[i-b.Off], b.RowPtr[i-b.Off+1]
		if !slices.Equal(a.Col[ars:are], b.Col[brs:bre]) || !slices.Equal(a.Val[ars:are], b.Val[brs:bre]) {
			return false
		}
		if a.Deg != nil && a.Deg[i-a.Off] != b.Deg[i-b.Off] {
			return false
		}
	}
	return true
}

// diffDelta returns how the count of cells differing from the base m
// changes when a row's content moves from (oc, ov) to (nc, nv): every
// cell the edits name is compared against the base before and after.
func (m *RowBlocks) diffDelta(row int, edits []Edit, oc []int32, ov []float64, nc []int32, nv []float64) int {
	bc, bv := m.RowViewCompact(row)
	lookup := func(cols []int32, vals []float64, j int32) float64 {
		if p, ok := slices.BinarySearch(cols, j); ok {
			return vals[p]
		}
		return 0
	}
	delta := 0
	for i, e := range edits {
		j := int32(e.Col)
		seen := false
		for _, prev := range edits[:i] {
			if prev.Col == e.Col {
				seen = true
				break
			}
		}
		if seen {
			continue
		}
		b := lookup(bc, bv, j)
		if lookup(oc, ov, j) != b {
			delta--
		}
		if lookup(nc, nv, j) != b {
			delta++
		}
	}
	return delta
}

// CompactArrays materializes the table as flat arrays sharing no
// storage with the blocks: int row pointers (the checkpoint format's
// i64 section), int32 columns, and values — 1.0 for every entry of a
// unit-weight block. Unlike Flatten it builds no int column index.
func (m *RowBlocks) CompactArrays() (rowPtr []int, cols []int32, vals []float64) {
	rowPtr = make([]int, m.rows+1)
	cols = make([]int32, m.nnz)
	vals = make([]float64, m.nnz)
	pos := 0
	for _, blk := range m.blocks {
		nnz := blk.nnz()
		copy(cols[pos:], blk.Col[:nnz])
		copy(vals[pos:], blk.Val[:nnz])
		for q, p := range blk.RowPtr[1:] {
			rowPtr[blk.Off+q+1] = pos + int(p)
		}
		pos += nnz
	}
	return rowPtr, cols, vals
}

// Flatten materializes the table as one flat CSR (int and int32
// index, values) sharing no storage with the blocks.
func (m *RowBlocks) Flatten() *CSR {
	rp, ci, vals := m.CompactArrays()
	out := &CSR{rows: m.rows, cols: m.cols, rowPtr: rp, colIdx: make([]int, len(ci)), val: vals,
		rowPtr32: make([]int32, len(rp)), colIdx32: ci}
	for p, j := range ci {
		out.colIdx[p] = int(j)
	}
	for i, p := range rp {
		out.rowPtr32[i] = int32(p)
	}
	return out
}

// PrivateCopy returns a table for the rows [lo, hi) whose overlapping
// blocks are deep copies written by the calling goroutine — under the
// default first-touch page placement they land in memory local to it —
// and whose other entries are nil (the caller reads only its range).
// prev, when non-nil, is an earlier PrivateCopy of the same range taken
// from the table prevSrc: blocks m still shares with prevSrc are reused
// from prev instead of copied, so refreshing a private copy after a
// commit costs only the blocks the commit rewrote.
func (m *RowBlocks) PrivateCopy(lo, hi int, prev, prevSrc *RowBlocks) *RowBlocks {
	if lo < 0 || hi < lo || hi > m.rows {
		panic(fmt.Sprintf("sparse: row range [%d, %d) out of range %d rows", lo, hi, m.rows))
	}
	out := &RowBlocks{rows: m.rows, cols: m.cols, nnz: m.nnz, blocks: make([]*Block, m.NumBlocks()),
		deg: m.deg, base: m.base, diff: m.diff}
	if lo == hi {
		return out
	}
	for b := lo >> BlockShift; b <= (hi-1)>>BlockShift; b++ {
		src := m.Block(b)
		if prev != nil && prevSrc != nil && prevSrc.Block(b) == src {
			out.blocks[b] = prev.blocks[b]
			continue
		}
		out.blocks[b] = copyBlock(src)
	}
	return out
}

// copyBlock deep-copies src into a fresh block (sharing the ones when
// src is unit-weight).
func copyBlock(src *Block) *Block {
	rows, nnz := len(src.RowPtr)-1, src.nnz()
	unit := allOnes(src.Val[:nnz])
	nb := newBlock(src.Off, rows, nnz, src.Deg != nil, unit)
	copy(nb.RowPtr, src.RowPtr)
	copy(nb.Col, src.Col[:nnz])
	if !unit {
		copy(nb.Val, src.Val[:nnz])
	}
	if src.Deg != nil {
		copy(nb.Deg, src.Deg)
	}
	return nb
}
