// The residual-scheduled execution plane. The round-based engines of
// kernel.go advance every node once per iteration, so one more digit of
// convergence costs a full SpMM pass even when the remaining error
// lives in a handful of rows. This plane instead runs the fixpoint
//
//	B = Eˆ + M·B,   M·X = A·X·Hˆ − D∘(X·Hˆ₂)
//
// as a push-based relaxation over the residual r = Eˆ + M·b − b,
// maintaining the invariant
//
//	x* = b + (I − M)⁻¹·r
//
// at every step: relaxing row i moves its residual δ = rᵢ into the
// belief bᵢ and pushes M·(δ at row i) back into the residuals — the
// echo term lands on row i itself, the A-term lands on the neighbors
// of i through its own CSR row (which equals its column, since the
// adjacency is symmetric). Rows are scheduled by residual magnitude
// through a bucket priority queue, so work concentrates where the
// error is and the solve costs what it touches: seeding from a small
// delta relaxes only the subgraph the delta perturbs.
//
// When the queue drains, every row's residual is at most tol in
// max-abs, so the distance to the unique fixpoint is bounded by
// ‖(I−M)⁻¹‖·tol — a small multiple of tol whenever the spectral
// convergence criterion holds. Relaxation order changes floating-point
// summation order, so results match the round-based engines within
// that tolerance budget, not bitwise; the difftest matrix pins the
// plane against the rounds schedule under an explicit tolerance
// ladder.
package kernel

import (
	"context"
	"fmt"
	"math"
	"math/bits"

	"repro/internal/errs"
	"repro/internal/sparse"
)

// residualBuckets is the bucket count of the scheduling queue: bucket b
// holds rows whose residual magnitude falls in [tol·2ᵇ, tol·2ᵇ⁺¹), so
// 44 buckets span the full ratio range a float64 solve can produce
// before the divergence check trips (2⁴⁴ ≈ 1.7e13; anything larger
// clamps into the top bucket and is simply relaxed first).
const residualBuckets = 44

// residualCtxStride is how many relaxations run between context
// checks: one relaxation touches a single adjacency row, so checking
// every operation would dominate small-row graphs, while 1024
// relaxations still bound the cancellation latency well below a full
// round on any graph this repo targets.
const residualCtxStride = 1024

// ResidualEngine executes the residual-scheduled relaxation over one
// fixed (A, D, H) configuration. Like Engine it is built once per
// graph snapshot and reused across solves; unlike Engine it is
// inherently sequential (the schedule is a priority order), so
// Workers, Blocks, and PartitionStarts do not apply. A is required to
// be symmetric (Config.SymmetricA) — the push step walks row i as
// column i.
//
// A ResidualEngine is not safe for concurrent use; run one per
// goroutine or pool them as the prepared solvers do.
type ResidualEngine struct {
	adj   *sparse.RowBlocks // adjacency, with degrees when echo is on
	h, h2 []float64         // flat k×k coupling and echo coupling
	n, k  int
	echo  bool
	tol   float64

	b []float64 // accumulated beliefs, flat n×k
	// r packs each row's residual with its queue action threshold:
	// row i is r[i*s : i*s+k], and r[i*s+k] is the magnitude above which
	// a touch must update the queue — thrFresh while the row is
	// untouched since the last reset, tol while it is idle, and its
	// bucket's upper bound bhi[b] while it is queued in bucket b. A
	// neighbor push therefore reads and writes one s-float row and makes
	// one compare; only a row that crosses its threshold takes touchSlow.
	r  []float64
	s  int       // row stride of r: k+1
	ph []float64 // k-wide push scratch: δ·Hˆ
	pg []float64 // k-wide push scratch: δ·Hˆ₂

	// Intrusive bucket queue: qnext/qprev link the rows of one bucket
	// into a doubly-linked list, heads holds each bucket's first row
	// (-1 when empty), occ mirrors bucket non-emptiness as a bitmask so
	// the top non-empty bucket is one bits.Len64 away, and qbkt records
	// each row's current bucket (qIdle when unqueued).
	qnext, qprev []int32
	heads        [residualBuckets]int32
	occ          uint64
	qbkt         []int8
	queued       int
	peak         int

	// touched lists the rows whose residual or queue slot may be
	// non-zero since the last reset (the rows whose threshold left
	// thrFresh), so a warm seed resets only what the previous solve
	// touched instead of O(n·k) state.
	touched  []int32
	ntouched int

	// bhi[b] is bucket b's magnitude upper bound tol·2ᵇ⁺¹ (clamped to
	// the largest finite float, so an infinite magnitude always crosses
	// it): the threshold of a row queued in bucket b. A row whose
	// magnitude stays at or below it needs no migration.
	bhi [residualBuckets]float64

	// pushes counts the neighbor pushes since the last seed: each
	// relaxation adds its row length.
	pushes   int
	diverged bool
}

// NewResidual validates cfg and builds a residual-scheduled engine
// with convergence tolerance tol (the queue admission threshold: rows
// whose residual magnitude is at most tol are never scheduled).
// cfg.Workers and cfg.PartitionStarts are ignored — the plane is
// sequential; cfg.Blocks > 1 and non-symmetric adjacencies are
// rejected. All state is allocated here; solves reuse it.
func NewResidual(cfg Config, tol float64) (*ResidualEngine, error) {
	if (cfg.A == nil && cfg.Rows == nil) || cfg.H == nil {
		return nil, fmt.Errorf("kernel: residual config needs A (or Rows) and H: %w", errs.ErrInvalidInput)
	}
	rows, err := configRows(cfg, new(sparse.RowBlocks))
	if err != nil {
		return nil, err
	}
	n := rows.Rows()
	k := cfg.H.Rows()
	if cfg.H.Cols() != k {
		return nil, fmt.Errorf("kernel: coupling %dx%d is not square: %w", k, cfg.H.Cols(), errs.ErrDimensionMismatch)
	}
	if cfg.EchoH != nil && (cfg.EchoH.Rows() != k || cfg.EchoH.Cols() != k) {
		return nil, fmt.Errorf("kernel: echo coupling %dx%d, want %dx%d: %w", cfg.EchoH.Rows(), cfg.EchoH.Cols(), k, k, errs.ErrDimensionMismatch)
	}
	if cfg.Blocks > 1 {
		return nil, fmt.Errorf("kernel: residual plane does not batch (Blocks=%d): %w", cfg.Blocks, errs.ErrInvalidInput)
	}
	if !cfg.SymmetricA {
		return nil, fmt.Errorf("kernel: residual plane requires a symmetric adjacency: %w", errs.ErrInvalidInput)
	}
	if !(tol > 0) || math.IsInf(tol, 1) {
		return nil, fmt.Errorf("kernel: residual tolerance %v must be positive and finite: %w", tol, errs.ErrInvalidInput)
	}
	e := &ResidualEngine{
		adj:     rows,
		n:       n,
		k:       k,
		echo:    rows.HasDegrees(),
		tol:     tol,
		b:       make([]float64, n*k),
		r:       make([]float64, n*(k+1)),
		s:       k + 1,
		ph:      make([]float64, k),
		pg:      make([]float64, k),
		qnext:   make([]int32, n),
		qprev:   make([]int32, n),
		qbkt:    make([]int8, n),
		touched: make([]int32, n),
	}
	for b := 0; b < residualBuckets; b++ {
		e.bhi[b] = min(math.Ldexp(tol, b+1), math.MaxFloat64)
	}
	// Hoist H and the echo coupling into flat slices, mirroring New.
	hbuf := make([]float64, 2*k*k)
	e.h = hbuf[:k*k]
	e.h2 = hbuf[k*k:]
	hd := cfg.H.Data()
	copy(e.h, hd)
	switch {
	case cfg.EchoH != nil:
		copy(e.h2, cfg.EchoH.Data())
	case e.echo:
		for i := 0; i < k; i++ {
			for j := 0; j < k; j++ {
				var s float64
				for m := 0; m < k; m++ {
					s += hd[i*k+m] * hd[m*k+j]
				}
				e.h2[i*k+j] = s
			}
		}
	}
	e.resetState()
	return e, nil
}

// N returns the node count the engine was built for.
func (e *ResidualEngine) N() int { return e.n }

// K returns the class count the engine was built for.
func (e *ResidualEngine) K() int { return e.k }

// Tol returns the queue admission tolerance the engine was built with.
func (e *ResidualEngine) Tol() float64 { return e.tol }

// Beliefs returns the accumulated belief state as a flat n×k view of
// the engine's buffer, valid until the next Seed*/Run. Writing it in
// place is SetBeliefs without the copy.
//
//lsbp:hotpath
func (e *ResidualEngine) Beliefs() []float64 { return e.b }

// qIdle is qbkt's value for an unqueued row.
const qIdle = -1

// thrFresh is the threshold of a row untouched since the last reset:
// below every magnitude (a max-abs is non-negative or NaN), so the
// first touch always takes touchSlow, which lists the row.
const thrFresh = -1.0

// resetState clears beliefs, residuals, and the queue — the prologue
// of a cold seed.
//
//lsbp:hotpath
func (e *ResidualEngine) resetState() {
	for i := range e.b {
		e.b[i] = 0
	}
	for i := range e.r {
		e.r[i] = 0
	}
	for i := range e.qbkt {
		e.r[i*e.s+e.k] = thrFresh
		e.qbkt[i] = qIdle
	}
	e.ntouched = 0
	e.resetQueue()
}

// resetTouched zeroes the residuals and queue slots of exactly the
// rows the previous solve touched — O(touched), leaving every other
// row's (already zero) state alone — and clears the queue. Beliefs are
// kept.
//
//lsbp:hotpath
func (e *ResidualEngine) resetTouched() {
	k := e.k
	for _, i := range e.touched[:e.ntouched] {
		ri := e.r[int(i)*e.s : int(i)*e.s+k+1]
		for c := 0; c < k; c++ {
			ri[c] = 0
		}
		ri[k] = thrFresh
		e.qbkt[i] = qIdle
	}
	e.ntouched = 0
	e.resetQueue()
}

// resetQueue clears the bucket heads and the per-solve counters.
//
//lsbp:hotpath
func (e *ResidualEngine) resetQueue() {
	for i := range e.heads {
		e.heads[i] = -1
	}
	e.occ = 0
	e.queued = 0
	e.peak = 0
	e.pushes = 0
	e.diverged = false
}

// bucketOf maps a residual magnitude (> tol) to its queue bucket:
// the binary exponent of mag/tol, clamped to the bucket range. NaN
// and +Inf clamp into the top bucket; the divergence flag (set where
// the magnitude was produced) surfaces them as ErrNonFinite.
//
//lsbp:hotpath
func (e *ResidualEngine) bucketOf(mag float64) int32 {
	b := math.Ilogb(mag / e.tol)
	if b < 0 {
		b = 0
	}
	if b >= residualBuckets {
		b = residualBuckets - 1
	}
	return int32(b)
}

// enqueue pushes row i onto bucket bkt's list and raises its
// threshold to the bucket's bound. The row must be unqueued.
//
//lsbp:hotpath
func (e *ResidualEngine) enqueue(i, bkt int32) {
	e.qbkt[i] = int8(bkt)
	e.r[int(i)*e.s+e.k] = e.bhi[bkt]
	h := e.heads[bkt]
	e.qnext[i] = h
	e.qprev[i] = -1
	if h >= 0 {
		e.qprev[h] = i
	}
	e.heads[bkt] = i
	e.occ |= 1 << uint(bkt)
	e.queued++
	if e.queued > e.peak {
		e.peak = e.queued
	}
}

// dequeue unlinks queued row i from its bucket list, leaving it idle.
//
//lsbp:hotpath
func (e *ResidualEngine) dequeue(i int32) {
	bkt := e.qbkt[i]
	p, nx := e.qprev[i], e.qnext[i]
	if p >= 0 {
		e.qnext[p] = nx
	} else {
		e.heads[bkt] = nx
		if nx < 0 {
			e.occ &^= 1 << uint(bkt)
		}
	}
	if nx >= 0 {
		e.qprev[nx] = p
	}
	e.qbkt[i] = qIdle
	e.r[int(i)*e.s+e.k] = e.tol
	e.queued--
}

// touch records that row i's residual changed to max-abs magnitude
// mag: nothing happens while mag stays at or below the row's
// threshold (NaN never does).
//
//lsbp:hotpath
func (e *ResidualEngine) touch(i int32, mag float64) {
	if !(mag <= e.r[int(i)*e.s+e.k]) {
		e.touchSlow(i, mag)
	}
}

// touchSlow is the queue bookkeeping of a touch whose magnitude
// crossed row i's threshold: a fresh row is listed for the next reset
// (and left idle when mag is at most tol), rows above tol are enqueued
// or migrated upward when their bucket grew — downward migration is
// lazy, pop filters stale entries — and non-finite magnitudes trip the
// divergence flag.
//
//lsbp:hotpath
func (e *ResidualEngine) touchSlow(i int32, mag float64) {
	thr := &e.r[int(i)*e.s+e.k]
	if *thr == thrFresh {
		*thr = e.tol
		e.touched[e.ntouched] = i
		e.ntouched++
		if mag <= e.tol {
			return
		}
	}
	// mag is a max-abs, so it is non-negative: the single comparison
	// rejects both NaN (compares false) and +Inf.
	if !(mag <= math.MaxFloat64) {
		e.diverged = true
	}
	bkt := e.bucketOf(mag)
	if cur := e.qbkt[i]; cur < 0 {
		e.enqueue(i, bkt)
	} else if int32(cur) < bkt {
		e.dequeue(i)
		e.enqueue(i, bkt)
	}
}

// pop removes and returns the row with the (approximately) largest
// residual, or -1 when every remaining residual is at most tol.
// Entries whose residual cancelled below tol after enqueueing are
// dropped here.
//
//lsbp:hotpath
func (e *ResidualEngine) pop() int32 {
	for e.occ != 0 {
		bkt := int32(bits.Len64(e.occ)) - 1
		i := e.heads[bkt]
		e.dequeue(i)
		if e.rowMag(int(i)) > e.tol {
			return i
		}
	}
	return -1
}

// relax processes one row: move its residual into the belief and push
// the resulting change through the operator — the echo term back onto
// the row itself, the A-term onto its neighbors via its own CSR row.
//
//lsbp:hotpath
func (e *ResidualEngine) relax(i int32) {
	k, st := e.k, e.s
	ri := e.r[int(i)*st : int(i)*st+k]
	bi := e.b[int(i)*k : int(i)*k+k]
	h := e.h
	ph := e.ph
	// ph = δ·Hˆ (and pg = δ·Hˆ₂) before δ = rᵢ is consumed.
	for c := 0; c < k; c++ {
		var s float64
		for m := 0; m < k; m++ {
			s += ri[m] * h[m*k+c]
		}
		ph[c] = s
	}
	if e.echo {
		h2 := e.h2
		pg := e.pg
		for c := 0; c < k; c++ {
			var s float64
			for m := 0; m < k; m++ {
				s += ri[m] * h2[m*k+c]
			}
			pg[c] = s
		}
	}
	for c := 0; c < k; c++ {
		bi[c] += ri[c]
		ri[c] = 0
	}
	if e.echo {
		d := e.adj.Degree(int(i))
		pg := e.pg
		var m float64
		for c := 0; c < k; c++ {
			ri[c] -= d * pg[c]
			// !(a <= m) instead of a > m so a NaN magnitude
			// propagates into m (and trips the divergence flag in
			// touch) rather than comparing false and vanishing.
			if a := math.Abs(ri[c]); !(a <= m) {
				m = a
			}
		}
		e.touch(i, m)
	}
	// Neighbor push: add w·δĤ to the neighbor's row, fold its max-abs,
	// and compare it with the threshold in the same row. A self-loop
	// entry lands back on ri — additive, so it composes with the echo
	// push above.
	r := e.r
	cols, vals := e.adj.RowViewCompact(int(i))
	e.pushes += len(cols)
	if k == 3 {
		e.push3(cols, vals)
		return
	}
	for p, j := range cols {
		w := vals[p]
		rj := r[int(j)*st : int(j)*st+st]
		var m float64
		for c := 0; c < k; c++ {
			rj[c] += w * ph[c]
			if a := math.Abs(rj[c]); !(a <= m) {
				m = a
			}
		}
		if !(m <= rj[k]) {
			e.touchSlow(j, m)
		}
	}
}

// push3 is relax's neighbor push for k=3, unrolled as rows3 is. It
// performs the generic loop's adds and max-abs folds in the same order
// (the first fold, |x₀| against 0, is |x₀| itself, NaN included), so
// the two are bitwise interchangeable; it costs ~0.77× the generic loop
// per push on the served tol 1e-12 Update (EXPERIMENTS.md).
//
//lsbp:hotpath
func (e *ResidualEngine) push3(cols []int32, vals []float64) {
	r := e.r
	p0, p1, p2 := e.ph[0], e.ph[1], e.ph[2]
	vals = vals[:len(cols)]
	for p, j := range cols {
		w := vals[p]
		o := int(j) * 4
		rj := r[o : o+4 : o+4]
		x0 := rj[0] + w*p0
		x1 := rj[1] + w*p1
		x2 := rj[2] + w*p2
		rj[0], rj[1], rj[2] = x0, x1, x2
		m := math.Abs(x0)
		if a := math.Abs(x1); !(a <= m) {
			m = a
		}
		if a := math.Abs(x2); !(a <= m) {
			m = a
		}
		if !(m <= rj[3]) {
			e.touchSlow(j, m)
		}
	}
}

// rowMag returns the max-abs of row i's residual.
//
//lsbp:hotpath
func (e *ResidualEngine) rowMag(i int) float64 {
	k := e.k
	ri := e.r[i*e.s : i*e.s+k]
	var m float64
	for _, v := range ri {
		if a := math.Abs(v); !(a <= m) {
			m = a
		}
	}
	return m
}

// SeedExplicit seeds a cold solve: b = 0, r = Eˆ (nil means Eˆ = 0),
// and every row with a residual above tol enqueued. This is the
// residual-plane analogue of the zero start of Section 3.
//
//lsbp:hotpath
func (e *ResidualEngine) SeedExplicit(explicit []float64) {
	if explicit != nil && len(explicit) != e.n*e.k {
		panic(fmt.Sprintf("kernel: explicit length %d, want %d", len(explicit), e.n*e.k))
	}
	e.resetState()
	if explicit == nil {
		return
	}
	k, s := e.k, e.s
	for i := 0; i < e.n; i++ {
		copy(e.r[i*s:i*s+k], explicit[i*k:i*k+k])
		if m := e.rowMag(i); m != 0 {
			e.touch(int32(i), m)
		}
	}
}

// SeedResume seeds a warm solve from the beliefs the engine already
// holds — the maintained fixpoint of the dynamic plane, kept in place
// across solves and epochs: the residual r = Eˆ + M·b − b is
// recomputed by a pull pass over the rows listed in touched
// (engine/layout order, deduplicated by the caller) — the rows a delta
// perturbed. Rows outside touched keep a zero residual, which is exact
// only when b was a converged fixpoint for their unchanged rows; the
// carried error of at most tol per prior solve is part of the plane's
// documented tolerance budget. A nil touched recomputes every row (the
// full warm seed, one round-equivalent of work, valid for any b). Only
// the state the previous solve touched is reset, so a localized seed
// costs O(touched), not O(n·k).
//
//lsbp:hotpath
func (e *ResidualEngine) SeedResume(explicit []float64, touched []int32) {
	if explicit != nil && len(explicit) != e.n*e.k {
		panic(fmt.Sprintf("kernel: explicit length %d, want %d", len(explicit), e.n*e.k))
	}
	e.resetTouched()
	if touched == nil {
		for i := 0; i < e.n; i++ {
			e.seedRow(int32(i), explicit)
		}
		return
	}
	for _, i := range touched {
		e.seedRow(i, explicit)
	}
}

// SetBeliefs overwrites the held beliefs with b (flat n×k, copied) —
// how a solve run elsewhere (the round-scheduled engines) hands its
// result to the maintained state. A later SeedResume recomputes the
// residuals it needs from these beliefs.
//
//lsbp:hotpath
func (e *ResidualEngine) SetBeliefs(b []float64) {
	if len(b) != e.n*e.k {
		panic(fmt.Sprintf("kernel: beliefs length %d, want %d", len(b), e.n*e.k))
	}
	copy(e.b, b)
}

// Rebind points the engine at another epoch of its adjacency (a table
// committed from the one it was built on: same shape and degree
// presence). The held beliefs and the touched-row bookkeeping
// carry over, so the next SeedResume continues from the fixpoint of
// the previous epoch.
func (e *ResidualEngine) Rebind(rows *sparse.RowBlocks) error {
	if rows.Rows() != e.n || rows.Cols() != e.n {
		return fmt.Errorf("kernel: rebind to %dx%d adjacency, engine has n=%d: %w", rows.Rows(), rows.Cols(), e.n, errs.ErrDimensionMismatch)
	}
	if rows.HasDegrees() != e.echo {
		return fmt.Errorf("kernel: rebind table does not match the engine's degree presence: %w", errs.ErrInvalidInput)
	}
	e.adj = rows
	return nil
}

// seedRow pull-computes row i's residual from the current beliefs:
// rᵢ = Eˆᵢ + Σ_{(j,w)∈row i} w·(b_j·Hˆ) − dᵢ·(bᵢ·Hˆ₂) − bᵢ.
//
//lsbp:hotpath
func (e *ResidualEngine) seedRow(i int32, explicit []float64) {
	k := e.k
	ph := e.ph
	// Accumulate Σ w·b_j into ph, then apply Hˆ on the way out — same
	// association as the round kernels' scratch row.
	for c := 0; c < k; c++ {
		ph[c] = 0
	}
	cols, vals := e.adj.RowViewCompact(int(i))
	for p, j := range cols {
		w := vals[p]
		bj := e.b[int(j)*k : int(j)*k+k]
		for c := 0; c < k; c++ {
			ph[c] += w * bj[c]
		}
	}
	h := e.h
	ri := e.r[int(i)*e.s : int(i)*e.s+k]
	bi := e.b[int(i)*k : int(i)*k+k]
	var m float64
	for c := 0; c < k; c++ {
		var s float64
		for mm := 0; mm < k; mm++ {
			s += ph[mm] * h[mm*k+c]
		}
		if explicit != nil {
			s += explicit[int(i)*k+c]
		}
		if e.echo {
			h2 := e.h2
			d := e.adj.Degree(int(i))
			var g float64
			for mm := 0; mm < k; mm++ {
				g += bi[mm] * h2[mm*k+c]
			}
			s -= d * g
		}
		s -= bi[c]
		ri[c] = s
		if a := math.Abs(s); !(a <= m) {
			m = a
		}
	}
	if m != 0 {
		e.touch(i, m)
	}
}

// Run drains the queue: rows are relaxed in (approximate)
// largest-residual-first order until every residual is at most tol
// (converged), the relaxation budget maxRelax is exhausted, the
// context is cancelled (checked every residualCtxStride relaxations),
// or a residual overflows (ErrNonFinite — a diverging εH past the
// spectral bound, exactly as the round engines report it). It returns
// the relaxation count, the peak queue population, and the largest
// residual magnitude remaining. The belief state is valid — the
// invariant holds — at every exit, converged or not.
//
//lsbp:hotpath
func (e *ResidualEngine) Run(ctx context.Context, maxRelax int) (relaxed, peak int, maxResid float64, converged bool, err error) {
	var done <-chan struct{}
	if ctx != nil {
		done = ctx.Done()
	}
	for {
		if e.diverged {
			return relaxed, e.peak, e.maxResidual(), false,
				fmt.Errorf("kernel: residual update overflowed after %d relaxations: %w", relaxed, errs.ErrNonFinite)
		}
		if relaxed >= maxRelax {
			return relaxed, e.peak, e.maxResidual(), false, nil
		}
		if done != nil && relaxed%residualCtxStride == residualCtxStride-1 {
			select {
			case <-done:
				return relaxed, e.peak, e.maxResidual(), false, ctx.Err()
			default:
			}
		}
		i := e.pop()
		if i < 0 {
			return relaxed, e.peak, e.maxResidual(), true, nil
		}
		e.relax(i)
		relaxed++
	}
}

// maxResidual scans the touched rows' magnitudes for the largest
// remaining residual — the plane's analogue of the round engines'
// final delta (every other row's residual is zero).
//
//lsbp:hotpath
func (e *ResidualEngine) maxResidual() float64 {
	var m float64
	for _, i := range e.touched[:e.ntouched] {
		if v := e.rowMag(int(i)); v > m {
			m = v
		}
	}
	return m
}

// Pushes returns the neighbor pushes since the last seed: the summed
// adjacency row lengths of the rows relaxed, the plane's per-entry unit
// of work (a relaxation's echo push onto its own row is not counted).
//
//lsbp:hotpath
func (e *ResidualEngine) Pushes() int { return e.pushes }
