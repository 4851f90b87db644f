// The sparse row set of the dynamic serving plane's explicit beliefs.
// LinBP and SBP propagate from a few nodes with explicit labels, so the
// maintained Eˆ is mostly zero rows; the paper's SQL implementation keeps
// it as the relation E(v, c, b) of its non-zero entries (Section 5.3). A
// RowSet keeps the same thing per row: the non-zero rows of an n×w
// matrix, ascending by row, so the solver's resident explicit state costs
// what it labels instead of n·w floats.
package sparse

import (
	"fmt"
	"math"
	"slices"
	"sort"
)

// RowSet holds the non-zero rows of a mostly-zero n×w matrix in
// ascending row order. Each row carries an id beside its w values (the
// dynamic plane keeps the caller row a layout row came from, so a
// relayout moves the set through the ids), and a row whose values are
// all zero is not in the set. A RowSet is not safe for concurrent
// mutation; readers of a set nobody mutates may share it.
type RowSet struct {
	w    int
	rows []int32   // ascending
	ids  []int32   // ids[p] belongs to rows[p]
	vals []float64 // row p's values are vals[p*w : p*w+w]
}

// NewRowSet returns an empty set of width-w rows.
func NewRowSet(w int) *RowSet {
	if w < 1 {
		panic(fmt.Sprintf("sparse: row set width %d, want >= 1", w))
	}
	return &RowSet{w: w}
}

// Width returns the number of values per row.
//
//lsbp:hotpath
func (s *RowSet) Width() int { return s.w }

// Len returns the number of rows in the set; a nil set is empty.
//
//lsbp:hotpath
func (s *RowSet) Len() int {
	if s == nil {
		return 0
	}
	return len(s.rows)
}

// Row returns the matrix row of the set's p-th row.
//
//lsbp:hotpath
func (s *RowSet) Row(p int) int32 { return s.rows[p] }

// ID returns the id stored with the set's p-th row.
func (s *RowSet) ID(p int) int32 { return s.ids[p] }

// Values returns the w values of the set's p-th row, aliasing storage.
//
//lsbp:hotpath
func (s *RowSet) Values(p int) []float64 { return s.vals[p*s.w : p*s.w+s.w : p*s.w+s.w] }

// Find returns the position of matrix row i in the set, or -1 when the
// row is zero (absent): a binary search over the sorted rows.
//
//lsbp:hotpath
func (s *RowSet) Find(i int32) int {
	n := s.Len()
	lo, hi := 0, n
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s.rows[mid] < i {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < n && s.rows[lo] == i {
		return lo
	}
	return -1
}

// Add appends row i with its id and values (copied), in any order: a set
// filled by Add is put in order by Sort before any other use. Add keeps
// an all-zero row, which Merge reads as a removal.
func (s *RowSet) Add(i, id int32, vals []float64) {
	if len(vals) != s.w {
		panic(fmt.Sprintf("sparse: row of %d values, want %d", len(vals), s.w))
	}
	s.rows = append(s.rows, i)
	s.ids = append(s.ids, id)
	s.vals = append(s.vals, vals...)
}

// Reset empties the set, keeping its storage.
func (s *RowSet) Reset() {
	s.rows, s.ids, s.vals = s.rows[:0], s.ids[:0], s.vals[:0]
}

// Sort orders the rows ascending. The rows must be distinct.
func (s *RowSet) Sort() { sort.Sort(rowSetOrder{s}) }

// Relabel moves the set to another row numbering: each row becomes
// row(id) of its id, and the set is sorted again.
func (s *RowSet) Relabel(row func(id int32) int32) {
	for p, id := range s.ids {
		s.rows[p] = row(id)
	}
	s.Sort()
}

// Merge installs the rows of b — sorted, distinct, of the set's width —
// in one pass: a row of b replaces the set's row in place, or, when the
// set lacks it, is merged in from the back so no row moves twice; an
// all-zero row of b removes the row.
func (s *RowSet) Merge(b *RowSet) {
	w := s.w
	if b.w != w {
		panic(fmt.Sprintf("sparse: merge of width %d rows into width %d", b.w, w))
	}
	add, drop := 0, false
	for q, i := range b.rows {
		v := b.Values(q)
		if p := s.Find(i); p >= 0 {
			s.ids[p] = b.ids[q]
			copy(s.Values(p), v)
			drop = drop || ZeroRow(v)
		} else if !ZeroRow(v) {
			add++
		}
	}
	if add > 0 {
		m := len(s.rows)
		s.rows = slices.Grow(s.rows, add)[:m+add]
		s.ids = slices.Grow(s.ids, add)[:m+add]
		s.vals = slices.Grow(s.vals, add*w)[:(m+add)*w]
		p, o := m-1, m+add-1
		for q := len(b.rows) - 1; q >= 0; q-- {
			i := b.rows[q]
			for p >= 0 && s.rows[p] > i {
				s.move(o, p)
				p, o = p-1, o-1
			}
			if (p >= 0 && s.rows[p] == i) || ZeroRow(b.Values(q)) {
				continue // replaced above, or a removal of an absent row
			}
			s.rows[o], s.ids[o] = i, b.ids[q]
			copy(s.Values(o), b.Values(q))
			o--
		}
	}
	if drop {
		o := 0
		for p := range s.rows {
			if !ZeroRow(s.Values(p)) {
				s.move(o, p)
				o++
			}
		}
		s.rows, s.ids, s.vals = s.rows[:o], s.ids[:o], s.vals[:o*w]
	}
}

// move copies the set's row p into position o.
func (s *RowSet) move(o, p int) {
	if o != p {
		s.rows[o], s.ids[o] = s.rows[p], s.ids[p]
		copy(s.Values(o), s.Values(p))
	}
}

// Scatter writes the set into dst, a dense n×w matrix in row order: the
// set's rows get their values and every other row zeros.
func (s *RowSet) Scatter(dst []float64) {
	clear(dst)
	w := s.w
	for p, i := range s.rows {
		copy(dst[int(i)*w:int(i)*w+w], s.Values(p))
	}
}

// MaxAbs returns the largest |value| in the set, 0 when it is empty.
func (s *RowSet) MaxAbs() float64 {
	var max float64
	for _, v := range s.vals {
		if a := math.Abs(v); a > max {
			max = a
		}
	}
	return max
}

// ZeroRow reports whether every value of v is zero (either sign).
func ZeroRow(v []float64) bool {
	for _, x := range v {
		if x != 0 {
			return false
		}
	}
	return true
}

// rowSetOrder sorts a RowSet by row, moving ids and values along.
type rowSetOrder struct{ s *RowSet }

func (o rowSetOrder) Len() int           { return len(o.s.rows) }
func (o rowSetOrder) Less(a, b int) bool { return o.s.rows[a] < o.s.rows[b] }
func (o rowSetOrder) Swap(a, b int) {
	s := o.s
	s.rows[a], s.rows[b] = s.rows[b], s.rows[a]
	s.ids[a], s.ids[b] = s.ids[b], s.ids[a]
	va, vb := s.Values(a), s.Values(b)
	for c := range va {
		va[c], vb[c] = vb[c], va[c]
	}
}
