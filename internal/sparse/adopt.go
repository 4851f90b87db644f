// Validated adoption of externally produced CSR arrays — the sparse
// half of the durable snapshot format. The on-disk snapshot stores the
// three CSR arrays as raw checksummed sections; after the CRCs verify,
// the loader still cannot trust the *structure* (a checksum protects
// against bit rot, not against a foreign or truncated file that
// checksums correctly), so these constructors re-validate every CSR
// invariant before any kernel iterates the arrays. The adopted slices
// are NOT copied: the mmap-backed loader aliases the mapping directly,
// which is what makes a snapshot cold start "map + verify" instead of
// "rebuild".
package sparse

import "fmt"

// validateAdopted checks the full CSR invariant set over adopted
// arrays: shape, row-pointer monotonicity, strictly ascending in-range
// columns per row, and consistent lengths. O(nnz).
func validateAdopted(rows, cols int, rowPtr, colIdx []int, val []float64) error {
	if rows < 0 || cols < 0 {
		return fmt.Errorf("sparse: adopt: negative dimension %dx%d", rows, cols)
	}
	if len(rowPtr) != rows+1 {
		return fmt.Errorf("sparse: adopt: rowPtr length %d, want %d", len(rowPtr), rows+1)
	}
	if rowPtr[0] != 0 {
		return fmt.Errorf("sparse: adopt: rowPtr[0] = %d, want 0", rowPtr[0])
	}
	if len(colIdx) != len(val) {
		return fmt.Errorf("sparse: adopt: %d column indices for %d values", len(colIdx), len(val))
	}
	if rowPtr[rows] != len(val) {
		return fmt.Errorf("sparse: adopt: rowPtr[%d] = %d, want nnz %d", rows, rowPtr[rows], len(val))
	}
	for i := 0; i < rows; i++ {
		lo, hi := rowPtr[i], rowPtr[i+1]
		if lo > hi {
			return fmt.Errorf("sparse: adopt: rowPtr decreases at row %d (%d > %d)", i, lo, hi)
		}
		prev := -1
		for p := lo; p < hi; p++ {
			j := colIdx[p]
			if j < 0 || j >= cols {
				return fmt.Errorf("sparse: adopt: row %d column %d out of range [0,%d)", i, j, cols)
			}
			if j <= prev {
				return fmt.Errorf("sparse: adopt: row %d columns not strictly ascending (%d after %d)", i, j, prev)
			}
			prev = j
		}
	}
	return nil
}

// NewCSRFromRaw adopts prebuilt wide-index CSR arrays without copying,
// after validating every structural invariant. The caller must not
// modify the slices afterwards; they may be read-only (mmap-backed).
func NewCSRFromRaw(rows, cols int, rowPtr, colIdx []int, val []float64) (*CSR, error) {
	if err := validateAdopted(rows, cols, rowPtr, colIdx, val); err != nil {
		return nil, err
	}
	return &CSR{rows: rows, cols: cols, rowPtr: rowPtr, colIdx: colIdx, val: val}, nil
}

// NewCSRFromCompact adopts a compact-index serialization: int32 column
// indices (the on-disk form whenever the matrix fits them) plus wide
// row pointers and values. The compact index is installed directly as
// the CSR's cached int32 form — so the row-block tables the kernels
// read alias the adopted (possibly mmap-backed) array with no rebuild —
// and the int column array the remaining code paths need is
// materialized by one widening pass.
func NewCSRFromCompact(rows, cols int, rowPtr []int, colIdx32 []int32, val []float64) (*CSR, error) {
	const maxInt32 = 1<<31 - 1
	if rows >= maxInt32 || cols >= maxInt32 || len(val) >= maxInt32 {
		return nil, fmt.Errorf("sparse: adopt: %dx%d with %d values does not fit a compact index", rows, cols, len(val))
	}
	colIdx := make([]int, len(colIdx32))
	for i, j := range colIdx32 {
		colIdx[i] = int(j)
	}
	if err := validateAdopted(rows, cols, rowPtr, colIdx, val); err != nil {
		return nil, err
	}
	rowPtr32 := make([]int32, len(rowPtr))
	for i, p := range rowPtr {
		rowPtr32[i] = int32(p)
	}
	return &CSR{rows: rows, cols: cols, rowPtr: rowPtr, colIdx: colIdx, val: val,
		rowPtr32: rowPtr32, colIdx32: colIdx32}, nil
}
