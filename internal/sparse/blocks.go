// The copy-on-write row-block adjacency of the dynamic serving plane.
// A RowBlocks table splits the rows of a sparse matrix into blocks of
// BlockRows consecutive rows; every block is immutable once published,
// so any number of solves may read one epoch's table while the next
// epoch is being committed. The epoch-0 table aliases the prepared
// (possibly mmap-backed) flat CSR arrays — no copy — and Commit
// produces the next epoch by copying only the blocks that hold edited
// rows plus the block table itself: untouched blocks are shared by
// pointer between epochs, so a small edge delta costs O(touched
// blocks), not O(nnz).
//
// Rows keep their column order and values exactly as a flat merge of
// the same edits would store them, so a kernel reading rows through
// the table computes bitwise the same sums as one reading the flat
// CSR. A flat matrix is materialized (Flatten) only where a whole-graph
// image is needed: durable checkpoints and compaction relayouts.
package sparse

import (
	"fmt"
	"slices"
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

// Block is one immutable row block holding (at least) the rows of one
// table entry. Row i's entries are Col[RowPtr[i−Off]:RowPtr[i−Off+1]]
// (ascending columns) with the matching values in Val, and its degree
// is Deg[i−Off]. An epoch-0 table points every entry at one block that
// aliases the whole flat CSR (Off = 0, absolute offsets); a copied
// block owns arrays for exactly its BlockRows rows (Off = its first
// row, offsets from zero). Callers must not modify any field or
// element.
type Block struct {
	Off    int
	RowPtr []int32
	Col    []int32
	Val    []float64
	// Wide holds the column indices as int, parallel to Col; nil unless
	// the table keeps the wide form (HasWide).
	Wide []int
	// Deg holds each row's weighted degree Σ_j a(i,j)² in column order
	// (RowSumsSquared's summation order); nil unless the table carries
	// degrees (HasDegrees).
	Deg []float64
}

// RowBlocks is a copy-on-write row-block sparse matrix; see the file
// comment. The zero value is not usable; build one with NewRowBlocks
// and derive later epochs with Commit.
type RowBlocks struct {
	rows, cols int
	nnz        int
	// blocks is the block table; nil for an epoch-0 table, whose every
	// entry is whole (see Block).
	blocks    []*Block
	wide, deg bool
	// flat is the CSR an epoch-0 table aliases (nil for committed
	// epochs); Flatten returns it instead of materializing a copy.
	// whole is the one block every epoch-0 entry points at.
	flat  *CSR
	whole Block
	// base is the compaction base (the epoch-0 table of this lineage)
	// and diff the number of cells whose value differs from it.
	base *RowBlocks
	diff int
}

// NewRowBlocks builds the epoch-0 table over a, aliasing a's compact
// index and values (a's compact index is built if needed, so call it
// while a has no concurrent readers). deg, when non-nil, supplies the
// per-row degrees (aliased); wide keeps the int column indices for
// RowView. It fails when a does not fit the int32 index.
func NewRowBlocks(a *CSR, deg []float64, wide bool) (*RowBlocks, error) {
	m := new(RowBlocks)
	if err := m.Init(a, deg, wide); err != nil {
		return nil, err
	}
	return m, nil
}

// Init makes m the epoch-0 table over a in place (see NewRowBlocks),
// for holders that embed their table instead of allocating it.
func (m *RowBlocks) Init(a *CSR, deg []float64, wide bool) error {
	rp32, ci32, ok := a.CompactIndex()
	if !ok {
		return fmt.Errorf("sparse: %dx%d matrix with %d entries does not fit the int32 row-block index", a.rows, a.cols, len(a.val))
	}
	if deg != nil && len(deg) != a.rows {
		return fmt.Errorf("sparse: degree vector length %d, want %d", len(deg), a.rows)
	}
	*m = RowBlocks{rows: a.rows, cols: a.cols, nnz: len(a.val), wide: wide, deg: deg != nil, flat: a,
		whole: Block{RowPtr: rp32, Col: ci32, Val: a.val, Deg: deg}}
	if wide {
		m.whole.Wide = a.colIdx
	}
	m.base = m
	return nil
}

// Rows returns the number of rows.
func (m *RowBlocks) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *RowBlocks) Cols() int { return m.cols }

// NNZ returns the number of stored entries.
func (m *RowBlocks) NNZ() int { return m.nnz }

// HasDegrees reports whether the blocks carry per-row degrees.
func (m *RowBlocks) HasDegrees() bool { return m.deg }

// HasWide reports whether the blocks keep int column indices.
func (m *RowBlocks) HasWide() bool { return m.wide }

// NumBlocks returns the number of block-table entries.
func (m *RowBlocks) NumBlocks() int { return (m.rows + BlockRows - 1) >> BlockShift }

// Whole returns the single block an uncommitted epoch-0 table serves
// every row from (rows [0, Rows()) with Off 0), or nil once the table
// has committed blocks — kernels then walk the range block by block.
//
//lsbp:hotpath
func (m *RowBlocks) Whole() *Block {
	if m.blocks == nil {
		return &m.whole
	}
	return nil
}

// Block returns block-table entry b, the block holding rows
// [b·BlockRows, min((b+1)·BlockRows, Rows())). Blocks are shared
// between epochs and must not be modified.
//
//lsbp:hotpath
func (m *RowBlocks) Block(b int) *Block {
	if m.blocks == nil {
		return &m.whole
	}
	return m.blocks[b]
}

// DiffCells returns the number of cells whose value differs from the
// compaction base — the epoch-0 table this one was committed from. An
// edge inserted and deleted again leaves no difference behind, so a
// stream that returns to its base graph reports 0.
func (m *RowBlocks) DiffCells() int { return m.diff }

// RowView returns row i's wide column indices and values, aliasing the
// block storage. The table must keep wide indices (HasWide).
//
//lsbp:hotpath
func (m *RowBlocks) RowView(i int) (cols []int, vals []float64) {
	blk := m.Block(i >> BlockShift)
	q := i - blk.Off
	rs, re := blk.RowPtr[q], blk.RowPtr[q+1]
	return blk.Wide[rs:re], blk.Val[rs:re]
}

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
			lo, hi := m.blockRange(b)
			blk := m.Block(b)
			nnz := int(blk.RowPtr[hi-blk.Off] - blk.RowPtr[lo-blk.Off])
			copies = append(copies, blockCopy{b: b, nnz: nnz, rows: hi - lo, first: i})
		}
		grow := (r.hi - r.lo) - m.RowNNZ(r.row)
		copies[len(copies)-1].nnz += grow
		nnz += grow
	}
	blocks := m.table()
	for _, c := range copies {
		old := m.Block(c.b)
		nb := newBlock(c.b<<BlockShift, c.rows, c.nnz, m.wide, m.deg)
		ri := c.first
		pos := int32(0)
		for q := 0; q < c.rows; q++ {
			row := nb.Off + q
			for ri < len(res) && (!res[ri].changed || res[ri].row < row) && res[ri].row>>BlockShift == c.b {
				ri++
			}
			var cols []int32
			var vals []float64
			fresh := ri < len(res) && res[ri].row == row && res[ri].changed
			if fresh {
				cols, vals = tc[res[ri].lo:res[ri].hi], tv[res[ri].lo:res[ri].hi]
			} else {
				rs, re := old.RowPtr[row-old.Off], old.RowPtr[row-old.Off+1]
				cols, vals = old.Col[rs:re], old.Val[rs:re]
			}
			nb.RowPtr[q] = pos
			copy(nb.Col[pos:], cols)
			copy(nb.Val[pos:], vals)
			if m.wide {
				for p, j := range cols {
					nb.Wide[int(pos)+p] = int(j)
				}
			}
			if m.deg {
				if fresh {
					var s float64
					for _, v := range vals {
						s += v * v
					}
					nb.Deg[q] = s
				} else {
					nb.Deg[q] = old.Deg[row-old.Off]
				}
			}
			pos += int32(len(cols))
		}
		nb.RowPtr[c.rows] = pos
		if bb := m.base.Block(c.b); m.base != m && sameRows(nb, bb, nb.Off, c.rows) {
			// The block is back to its compaction-base content (an
			// insert undone by a delete): share the base block again
			// instead of keeping a copy alive.
			nb = bb
		}
		blocks[c.b] = nb
	}
	return &RowBlocks{rows: m.rows, cols: m.cols, nnz: nnz, blocks: blocks,
		wide: m.wide, deg: m.deg, base: m.base, diff: diff}, changedRows
}

// newBlock allocates a block for rows [off, off+rows) holding nnz
// entries: one int32 array backs RowPtr and Col, one float64 array
// Val and Deg, so a block costs three allocations (four with wide
// indices) and is freed as a unit once no epoch references it.
func newBlock(off, rows, nnz int, wide, deg bool) *Block {
	ints := make([]int32, rows+1+nnz)
	nf := nnz
	if deg {
		nf += rows
	}
	floats := make([]float64, nf)
	nb := &Block{Off: off, RowPtr: ints[: rows+1 : rows+1], Col: ints[rows+1:], Val: floats[:nnz:nnz]}
	if deg {
		nb.Deg = floats[nnz:]
	}
	if wide {
		nb.Wide = make([]int, nnz)
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

// Flatten materializes the table as one flat CSR (wide and compact
// index, values) sharing no storage with the blocks — except for an
// uncommitted epoch-0 table, which returns the CSR it aliases.
func (m *RowBlocks) Flatten() *CSR {
	if m.flat != nil {
		return m.flat
	}
	out := &CSR{
		rows:     m.rows,
		cols:     m.cols,
		rowPtr:   make([]int, m.rows+1),
		colIdx:   make([]int, m.nnz),
		val:      make([]float64, m.nnz),
		rowPtr32: make([]int32, m.rows+1),
		colIdx32: make([]int32, m.nnz),
	}
	pos := 0
	for i := 0; i < m.rows; i++ {
		cols, vals := m.RowViewCompact(i)
		copy(out.colIdx32[pos:], cols)
		copy(out.val[pos:], vals)
		for p, j := range cols {
			out.colIdx[pos+p] = int(j)
		}
		pos += len(cols)
		out.rowPtr[i+1] = pos
		out.rowPtr32[i+1] = int32(pos)
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
		wide: m.wide, deg: m.deg, base: m.base, diff: m.diff}
	if lo == hi {
		return out
	}
	for b := lo >> BlockShift; b <= (hi-1)>>BlockShift; b++ {
		src := m.Block(b)
		if prev != nil && prevSrc != nil && prevSrc.Block(b) == src {
			out.blocks[b] = prev.blocks[b]
			continue
		}
		lo, hi := m.blockRange(b)
		out.blocks[b] = copyBlock(src, lo, hi)
	}
	return out
}

// table returns a fresh copy of the block table (materializing an
// epoch-0 table's implicit one).
func (m *RowBlocks) table() []*Block {
	if m.blocks != nil {
		return slices.Clone(m.blocks)
	}
	t := make([]*Block, m.NumBlocks())
	for b := range t {
		t[b] = &m.whole
	}
	return t
}

// blockRange returns the rows [lo, hi) table entry b covers.
func (m *RowBlocks) blockRange(b int) (lo, hi int) {
	lo = b << BlockShift
	return lo, min(lo+BlockRows, m.rows)
}

// copyBlock deep-copies rows [lo, hi) of src into a fresh block.
func copyBlock(src *Block, lo, hi int) *Block {
	rp := src.RowPtr[lo-src.Off : hi-src.Off+1]
	first, last := rp[0], rp[len(rp)-1]
	nb := newBlock(lo, hi-lo, int(last-first), src.Wide != nil, src.Deg != nil)
	for q, p := range rp {
		nb.RowPtr[q] = p - first
	}
	copy(nb.Col, src.Col[first:last])
	copy(nb.Val, src.Val[first:last])
	if src.Wide != nil {
		copy(nb.Wide, src.Wide[first:last])
	}
	if src.Deg != nil {
		copy(nb.Deg, src.Deg[lo-src.Off:hi-src.Off])
	}
	return nb
}
