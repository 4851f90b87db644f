package sparse

import (
	"math"
	"testing"

	"repro/internal/xrand"
)

// checkRowSet compares s with the dense n×w reference ref and the ids
// recorded for its non-zero rows: the set must hold exactly the
// non-zero rows, ascending, with their ids and bitwise values, and Find
// and Scatter must agree with it.
func checkRowSet(t *testing.T, s *RowSet, ref []float64, ids []int32, n, w int) {
	t.Helper()
	p := 0
	for i := 0; i < n; i++ {
		row := ref[i*w : i*w+w]
		got := s.Find(int32(i))
		if ZeroRow(row) {
			if got != -1 {
				t.Fatalf("zero row %d found at %d", i, got)
			}
			continue
		}
		if got != p || p >= s.Len() || s.Row(p) != int32(i) || s.ID(p) != ids[i] {
			t.Fatalf("row %d: Find = %d, want %d (len %d)", i, got, p, s.Len())
		}
		for c, v := range s.Values(p) {
			if math.Float64bits(v) != math.Float64bits(row[c]) {
				t.Fatalf("row %d value %d = %v, want %v", i, c, v, row[c])
			}
		}
		p++
	}
	if s.Len() != p {
		t.Fatalf("set holds %d rows, want %d", s.Len(), p)
	}
	dense := make([]float64, n*w)
	for i := range dense {
		dense[i] = 7 // Scatter must overwrite every row
	}
	s.Scatter(dense)
	for i, v := range dense {
		if v != ref[i] {
			t.Fatalf("Scatter entry %d = %v, want %v", i, v, ref[i])
		}
	}
}

// TestRowSetMerge drives random batches of inserts, replacements and
// removals (all-zero rows, of present and absent rows) through Merge
// and a relabeling through Relabel, against a dense reference.
func TestRowSetMerge(t *testing.T) {
	for _, w := range []int{1, 3} {
		const n = 97
		rng := xrand.New(uint64(w))
		s := NewRowSet(w)
		ref := make([]float64, n*w)
		ids := make([]int32, n)
		batch := NewRowSet(w)
		checkRowSet(t, s, ref, ids, n, w)
		for round := 0; round < 60; round++ {
			batch.Reset()
			for _, i := range rng.Perm(n)[:1+rng.Intn(12)] {
				vals := make([]float64, w)
				if rng.Float64() < 0.7 {
					for c := range vals {
						vals[c] = rng.Float64() - 0.5
					}
				} else if rng.Float64() < 0.5 {
					vals[0] = math.Copysign(0, -1) // a negative zero is a zero row
				}
				id := int32(i*1000 + round) // distinct for distinct rows
				batch.Add(int32(i), id, vals)
				copy(ref[i*w:i*w+w], vals)
				if ZeroRow(vals) {
					clear(ref[i*w : i*w+w])
				} else {
					ids[i] = id
				}
			}
			batch.Sort()
			s.Merge(batch)
			checkRowSet(t, s, ref, ids, n, w)
		}
		// Relabel by a permutation of the rows: ids move with their rows.
		perm := rng.Perm(n)
		byID := map[int32]int32{}
		moved := make([]float64, n*w)
		movedIDs := make([]int32, n)
		for p := 0; p < s.Len(); p++ {
			i := s.Row(p)
			byID[s.ID(p)] = int32(perm[i])
			copy(moved[perm[i]*w:perm[i]*w+w], s.Values(p))
			movedIDs[perm[i]] = s.ID(p)
		}
		s.Relabel(func(id int32) int32 { return byID[id] })
		checkRowSet(t, s, moved, movedIDs, n, w)
	}
}

// TestRowSetNil: a nil set is empty to the readers a seed uses.
func TestRowSetNil(t *testing.T) {
	var s *RowSet
	if s.Len() != 0 || s.Find(3) != -1 {
		t.Fatalf("nil set: Len %d, Find %d", s.Len(), s.Find(3))
	}
}

// TestRowSetFindAllocs: the lookup a localized seed runs per touched row
// allocates nothing.
func TestRowSetFindAllocs(t *testing.T) {
	s := NewRowSet(2)
	for i := int32(0); i < 64; i += 3 {
		s.Add(i, i, []float64{1, -1})
	}
	if a := testing.AllocsPerRun(100, func() {
		for i := int32(0); i < 64; i++ {
			if p := s.Find(i); p >= 0 {
				_ = s.Values(p)
			}
		}
	}); a != 0 {
		t.Fatalf("Find allocates %v times per run", a)
	}
}
