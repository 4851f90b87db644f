// Package order computes cache-locality-oriented node reorderings for
// the prepared solvers. The fused kernel's cost on large graphs is
// dominated by the scattered belief-row loads of the sparse product:
// for every stored entry (i, j) the kernel reads the k-wide belief row
// of node j, so the average distance |i − j| over the stored entries is
// a direct proxy for how often those loads miss cache. Reordering the
// nodes once at prepare time shrinks that distance for every subsequent
// solve.
//
// Two orderings are provided, matching the standard playbook of
// high-performance graph systems:
//
//   - Reverse Cuthill–McKee (RCM): breadth-first levels from a
//     pseudo-peripheral start, neighbors visited in ascending-degree
//     order, final order reversed. The classic bandwidth/profile
//     reducer; ideal for mesh-like and small-world graphs.
//   - Degree sort: nodes in descending degree, original order preserved
//     within ties. On heavy-tailed graphs this packs the hub rows —
//     the belief rows touched by almost every traversal — into one
//     contiguous, cache-resident prefix.
//
// Auto picks between them (or keeps the natural order) with a cheap
// heuristic on the edge-span statistics, so callers can default to it.
package order

import (
	"fmt"
	"sort"

	"repro/internal/sparse"
)

// Permutation is a node relabeling: p[old] = new. A nil Permutation
// means the identity (natural order) everywhere in this package and in
// the solvers consuming it.
type Permutation []int

// Validate checks that p is a bijection on [0, n).
func (p Permutation) Validate(n int) error {
	if len(p) != n {
		return fmt.Errorf("order: permutation length %d, want %d", len(p), n)
	}
	seen := make([]bool, n)
	for old, nw := range p {
		if nw < 0 || nw >= n || seen[nw] {
			return fmt.Errorf("order: invalid permutation entry p[%d] = %d", old, nw)
		}
		seen[nw] = true
	}
	return nil
}

// Inverse returns the inverse permutation: Inverse()[new] = old.
func (p Permutation) Inverse() Permutation {
	inv := make(Permutation, len(p))
	for old, nw := range p {
		inv[nw] = old
	}
	return inv
}

// ApplyRows writes dst row p[i] = src row i for n rows of width k in
// flat row-major storage; with a nil receiver it degrades to a copy.
// dst and src must not alias.
//
//lsbp:hotpath
func (p Permutation) ApplyRows(dst, src []float64, k int) {
	if p == nil {
		copy(dst, src)
		return
	}
	for i, nw := range p {
		copy(dst[nw*k:nw*k+k], src[i*k:i*k+k])
	}
}

// InvertRows writes dst row i = src row p[i] — the inverse of
// ApplyRows, used to bring permuted solver output back to the caller's
// node order (every Update ends with it). dst and src must not alias.
// Rows of k = 3 move as element assignments, not one copy call per
// row.
//
//lsbp:hotpath
func (p Permutation) InvertRows(dst, src []float64, k int) {
	if p == nil {
		copy(dst, src)
		return
	}
	if k == 3 {
		for i, nw := range p {
			s := src[nw*3 : nw*3+3 : nw*3+3]
			d := dst[i*3 : i*3+3 : i*3+3]
			d[0], d[1], d[2] = s[0], s[1], s[2]
		}
		return
	}
	for i, nw := range p {
		copy(dst[i*k:i*k+k], src[nw*k:nw*k+k])
	}
}

// Strategy names a reordering choice.
type Strategy int

// The selectable strategies. StrategyAuto resolves to one of the other
// three at prepare time.
const (
	// StrategyAuto evaluates RCM and degree sort with the edge-span
	// heuristic and keeps the natural order unless one of them wins.
	StrategyAuto Strategy = iota
	// StrategyRCM forces reverse Cuthill–McKee.
	StrategyRCM
	// StrategyDegree forces the descending-degree sort.
	StrategyDegree
	// StrategyNone keeps the natural order.
	StrategyNone
)

// String implements fmt.Stringer with the flag spellings.
func (s Strategy) String() string {
	switch s {
	case StrategyAuto:
		return "auto"
	case StrategyRCM:
		return "rcm"
	case StrategyDegree:
		return "degree"
	case StrategyNone:
		return "none"
	default:
		return fmt.Sprintf("Strategy(%d)", int(s))
	}
}

// Code returns the stable on-disk identifier of a strategy for the
// durable snapshot header. The codes are frozen independently of the
// Strategy enum values (which are free to be reordered): auto is never
// persisted (snapshots record the strategy actually chosen), so 0 is
// reserved as invalid.
func (s Strategy) Code() uint32 {
	switch s {
	case StrategyRCM:
		return 1
	case StrategyDegree:
		return 2
	case StrategyNone:
		return 3
	default:
		return 0
	}
}

// StrategyFromCode inverts Code for snapshot loading; unknown codes
// (including 0/auto) are rejected.
func StrategyFromCode(c uint32) (Strategy, error) {
	switch c {
	case 1:
		return StrategyRCM, nil
	case 2:
		return StrategyDegree, nil
	case 3:
		return StrategyNone, nil
	default:
		return 0, fmt.Errorf("order: unknown strategy code %d", c)
	}
}

// ParseStrategy maps the flag spellings onto strategies.
func ParseStrategy(name string) (Strategy, error) {
	switch name {
	case "auto":
		return StrategyAuto, nil
	case "rcm":
		return StrategyRCM, nil
	case "degree":
		return StrategyDegree, nil
	case "none":
		return StrategyNone, nil
	default:
		return 0, fmt.Errorf("order: unknown strategy %q (want auto|rcm|degree|none)", name)
	}
}

// AutoMinNodes is the node count below which StrategyAuto keeps the
// natural order without evaluating candidates: the belief state and the
// CSR of smaller graphs fit comfortably in cache, so a reordering can
// only reshuffle summation order without buying locality.
const AutoMinNodes = 1 << 15

// autoImprovement is the minimum relative edge-span reduction a
// candidate must deliver before Auto prefers it over the natural order
// (reordering has a small constant cost per solve for the belief
// permutations, so marginal wins are not worth taking).
const autoImprovement = 0.95

// Compute resolves strategy s for the adjacency structure a: it returns
// the permutation to apply (nil for the natural order) and the concrete
// strategy chosen (s itself, or the winning candidate when s is
// StrategyAuto). The matrix must be square; only its pattern is read.
func Compute(s Strategy, a *sparse.CSR) (Permutation, Strategy) {
	switch s {
	case StrategyNone:
		return nil, StrategyNone
	case StrategyRCM:
		return RCM(a), StrategyRCM
	case StrategyDegree:
		return ByDegree(a), StrategyDegree
	}
	// Auto: cheap size gate first, then an edge-span bake-off.
	if a.Rows() < AutoMinNodes {
		return nil, StrategyNone
	}
	base := EdgeSpan(a, nil)
	if base == 0 {
		return nil, StrategyNone
	}
	bestPerm, bestStrat := Permutation(nil), StrategyNone
	bestSpan := uint64(float64(base) * autoImprovement)
	rcm := RCM(a)
	if span := EdgeSpan(a, rcm); span <= bestSpan {
		bestPerm, bestStrat, bestSpan = rcm, StrategyRCM, span
	}
	if p := ByDegree(a); EdgeSpan(a, p) < bestSpan {
		bestPerm, bestStrat = p, StrategyDegree
	}
	return bestPerm, bestStrat
}

// Bandwidth returns the matrix bandwidth under permutation p (nil for
// the natural order): max over stored entries of |p(i) − p(j)|.
func Bandwidth(a *sparse.CSR, p Permutation) int {
	rowPtr, colIdx, _ := a.Index()
	var bw int
	for i := 0; i < a.Rows(); i++ {
		pi := pos(p, i)
		for q := rowPtr[i]; q < rowPtr[i+1]; q++ {
			d := pi - pos(p, colIdx[q])
			if d < 0 {
				d = -d
			}
			if d > bw {
				bw = d
			}
		}
	}
	return bw
}

// EdgeSpan returns the total index distance Σ |p(i) − p(j)| over the
// stored entries under permutation p (nil for the natural order) — the
// locality proxy Auto minimizes. Unlike the classic envelope profile it
// weights every entry, so a few pathological rows cannot mask a broad
// improvement.
func EdgeSpan(a *sparse.CSR, p Permutation) uint64 {
	rowPtr, colIdx, _ := a.Index()
	var span uint64
	for i := 0; i < a.Rows(); i++ {
		pi := pos(p, i)
		for q := rowPtr[i]; q < rowPtr[i+1]; q++ {
			d := pi - pos(p, colIdx[q])
			if d < 0 {
				d = -d
			}
			span += uint64(d)
		}
	}
	return span
}

// Profile returns the envelope profile under permutation p: for every
// row (in permuted position) the distance from the leftmost stored
// entry to the diagonal, summed. The classic RCM objective; reported
// for diagnostics.
func Profile(a *sparse.CSR, p Permutation) uint64 {
	rowPtr, colIdx, _ := a.Index()
	var prof uint64
	for i := 0; i < a.Rows(); i++ {
		pi := pos(p, i)
		min := pi
		for q := rowPtr[i]; q < rowPtr[i+1]; q++ {
			if pj := pos(p, colIdx[q]); pj < min {
				min = pj
			}
		}
		prof += uint64(pi - min)
	}
	return prof
}

func pos(p Permutation, i int) int {
	if p == nil {
		return i
	}
	return p[i]
}

// ByDegree returns the descending-degree ordering: position 0 gets the
// highest-degree node. The sort is stable, so equal-degree nodes keep
// their relative natural order (which preserves whatever locality the
// loader's id assignment already has within a degree class).
func ByDegree(a *sparse.CSR) Permutation {
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

// RCM returns the reverse Cuthill–McKee ordering of a's symmetrized
// pattern. Each connected component is traversed breadth-first from a
// pseudo-peripheral node (George–Liu sweeps), neighbors in ascending
// degree order; the concatenated order is reversed at the end.
func RCM(a *sparse.CSR) Permutation {
	n := a.Rows()
	nbr := symmetrizedPattern(a)
	deg := make([]int, n)
	for i, row := range nbr {
		deg[i] = len(row)
	}

	visited := make([]bool, n)
	cm := make([]int, 0, n) // Cuthill–McKee order: position -> node
	level := make([]int, n)
	queue := make([]int, 0, n)
	scratch := make([]int, 0, 64)

	// bfs runs a level-synchronous BFS from start over unvisited-marked
	// scratch state, returning the nodes in visit order and the index
	// where the last level begins. mark controls whether visited is
	// left set (the real traversal) or rolled back (peripheral sweeps).
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
			// Ascending degree within the discovered batch (ties by id
			// for determinism).
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
		// Pseudo-peripheral search: walk to a min-degree node of the
		// farthest BFS level until the eccentricity stops growing.
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
		perm[u] = n - 1 - i // the "reverse" in reverse Cuthill–McKee
	}
	return perm
}

// symmetrizedPattern returns the union pattern of a and aᵀ as adjacency
// lists (no self-loops, ascending, deduplicated). Graph adjacencies are
// already symmetric, in which case this is just their structure; the
// transpose union makes RCM well-defined for any square input.
func symmetrizedPattern(a *sparse.CSR) [][]int {
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
