// Package kernel is the fused compute engine behind the iterative
// linearized solvers. One LinBP round (Eq. 6/7)
//
//	Bˆ(l+1) = Eˆ + A·Bˆ(l)·Hˆ − D·Bˆ(l)·Hˆ²
//
// is executed as a single row-partitioned pass: for every node the
// sparse A·Bˆ product, the k×k coupling multiply, the echo-cancellation
// term, and the convergence delta are computed together while the row is
// hot in cache, with Hˆ and Hˆ² hoisted into flat row-major slices (no
// bounds-checked At() calls in the inner loop) and fully unrolled fast
// paths for the class counts the paper's experiments use (k ∈ {2, 3, 5},
// plus k = 1 for the binary FABP collapse of Appendix E).
//
// The engine owns reusable buffers: repeated solves on the same graph —
// the serving scenario the ROADMAP targets — perform zero steady-state
// allocations. Workspaces are recycled through a sync.Pool so that even
// independent Run calls stop reallocating their n×k work arrays. With
// Workers > 1 the rows are split into nnz-balanced spans processed by a
// persistent goroutine pool (the role Parallel Colt played in the
// paper's JAVA implementation); each worker reduces a local max-delta
// and the engine folds them at the join.
//
// Two serving-oriented hooks extend the basic round loop. RunContext
// checks context cancellation at every round boundary, so a deadline or
// cancel aborts a running solve within one kernel round. Config.Blocks
// batches several independent solves over the same (A, D, H) into one
// engine: the belief state widens to n×(blocks·k), each round traverses
// the CSR once for the whole batch (the sparse product reads each
// neighbor row as one contiguous blocks·k span instead of `blocks`
// scattered k-wide loads), and the coupling is applied block-diagonally
// so every block evolves exactly as it would alone.
package kernel

import (
	"context"
	"fmt"
	"math"
	"sync"

	"repro/internal/dense"
	"repro/internal/errs"
	"repro/internal/sparse"
)

// Config describes one fused-iteration operator
// B ↦ E + A·B·H − D∘(B·H₂).
type Config struct {
	// A is the n×n sparse adjacency matrix.
	A *sparse.CSR
	// D holds per-row echo scales (the weighted degrees of Section 5.2).
	// nil disables the echo term entirely (LinBP*).
	D []float64
	// Rows, when set, replaces A and D: the engine reads the rows (and,
	// when the table carries them, the degrees that enable the echo
	// term) through this copy-on-write row-block table — the dynamic
	// plane's epoch adjacency. Without it New builds an epoch-0 table
	// over A and D, whose block split A caches (sparse.NewRowBlocks).
	// Either way every kernel reads through a table.
	Rows *sparse.RowBlocks
	// H is the k×k residual coupling matrix Hˆ.
	H *dense.Matrix
	// EchoH optionally overrides the echo coupling matrix. When nil and
	// D is set, Hˆ² is used (LinBP). FABP's binary collapse needs the
	// override: its echo coefficient c2 is not c1² (Appendix E, Eq. 33).
	EchoH *dense.Matrix
	// Workers sets the goroutine count for row-partitioned steps.
	// Values <= 1 select the serial kernel.
	Workers int
	// Blocks batches that many independent solves sharing (A, D, H)
	// into one engine. The flat state becomes n×(blocks·k) with the
	// blocks interleaved per node, and H is applied per k-block, so
	// each block evolves exactly as it would alone (up to the
	// summation order of the blocked vs unrolled coupling multiply,
	// ~1 ulp per round). Values <= 1 select the plain engine.
	Blocks int
	// SymmetricA declares that A equals its transpose bitwise (true
	// for every adjacency built from an undirected graph, including
	// permuted ones). It licenses the push-based sparse round: the
	// second round of a solve-from-scratch starts from Bˆ = Eˆ, whose
	// rows are mostly zero, so instead of pulling over every stored
	// entry the engine pushes each active row's contribution through
	// its own adjacency row (= its column, by symmetry) and touches
	// only the active-incident entries. The summation order matches
	// the pull kernels term for term, so results stay bitwise
	// identical.
	SymmetricA bool
	// PartitionStarts, when it holds at least two boundaries, selects
	// the partition-parallel data plane (see partition.go): row block p
	// covers [PartitionStarts[p], PartitionStarts[p+1]), one persistent
	// OS-thread-locked worker per block with first-touched private CSR
	// copies and partition-local delta accumulators. It must span
	// [0, n) contiguously. Partitioned mode replaces the span pool, so
	// Workers is ignored while it is set.
	PartitionStarts []int
}

// span is one contiguous, nnz-balanced row range of a parallel pass.
type span struct{ lo, hi int }

// scratchStride returns the padded per-worker scratch width: at least k,
// rounded up to a full 64-byte cache line to avoid false sharing.
//
//lsbp:hotpath
func scratchStride(k int) int { return (k + 7) &^ 7 }

// Workspace holds the large reusable buffers of an Engine. Workspaces
// are recycled via GetWorkspace/Release so repeated solves reuse the
// same n×k arrays instead of reallocating them per call.
type Workspace struct {
	cur, next []float64
	scratch   []float64 // per-worker A·B row scratch, cache-line padded
	hbuf      []float64 // flat H and H₂/EchoH, 2·k² values
	act       []byte    // per-node activity map for the sparse round 2
	dirty     []byte    // rows reached by the push-based sparse round
}

var wsPool = sync.Pool{New: func() any { return new(Workspace) }}

// GetWorkspace returns a workspace from the package pool. Release it
// when the engine using it is closed.
//
//lsbp:hotpath-init
func GetWorkspace() *Workspace { return wsPool.Get().(*Workspace) }

// Release returns the workspace to the pool. The caller must not use
// the workspace (or any engine built on it) afterwards.
//
//lsbp:hotpath-init
func (w *Workspace) Release() { wsPool.Put(w) }

// grow resizes the workspace for a problem with n rows of width wd
// (wd = blocks·k) and a k×k coupling, reusing existing capacity
// whenever possible.
//
//lsbp:hotpath-init
func (w *Workspace) grow(n, wd, k, workers int) {
	w.cur = growSlice(w.cur, n*wd)
	w.next = growSlice(w.next, n*wd)
	w.scratch = growSlice(w.scratch, workers*scratchStride(wd))
	w.hbuf = growSlice(w.hbuf, 2*k*k)
	if cap(w.act) < n {
		w.act = make([]byte, n)
	}
	w.act = w.act[:n]
	if cap(w.dirty) < n {
		w.dirty = make([]byte, n)
	}
	w.dirty = w.dirty[:n]
}

//lsbp:hotpath-init
func growSlice(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// Engine executes fused LinBP iterations over one fixed (A, D, H)
// configuration. It is built once per graph and reused across solves;
// see New for the construction contract and Close for teardown.
type Engine struct {
	// adj is the row-block adjacency, with the degrees when echo is on;
	// own holds the epoch-0 table built from Config.A.
	adj     *sparse.RowBlocks
	own     sparse.RowBlocks
	kern    rowKernel
	e       []float64 // explicit residuals Eˆ, flat n×wd; nil reads as 0
	h, h2   []float64 // flat k×k coupling and echo coupling
	n, k    int
	blocks  int // independent solves batched into this engine
	wd      int // row width: blocks·k
	echo    bool
	symA    bool // A is bitwise symmetric (Config.SymmetricA)
	workers int
	ws      *Workspace

	// startZero marks that the belief state is the all-zero start of
	// Section 3, letting the next Step shortcut to Bˆ¹ = Eˆ (the sparse
	// product of a zero matrix contributes nothing), which skips one
	// full SpMM round on every solve-from-scratch.
	startZero bool
	// track enables the per-entry max-delta reduction. RunContext
	// clears it for the non-final rounds of fixed-round runs (tol < 0
	// with no per-iteration observer), where the intermediate deltas
	// are never read.
	track bool
	// sparseNext marks that the state equals Eˆ (the shortcut round
	// just ran), so the next round may skip neighbors whose belief row
	// is entirely zero — explicit beliefs are sparse, making round 2
	// mostly dead loads. act is the per-node nonzero map for that
	// round (nil in dense rounds); skipping exact-zero rows leaves the
	// arithmetic bitwise identical.
	sparseNext bool
	act        []byte

	// Parallel machinery, spawned lazily on the first parallel pass.
	spans   []span
	work    chan span
	results chan float64
	started bool
	closed  bool

	// Partition-parallel plane (see partition.go), spawned lazily on
	// the first partitioned pass. Non-nil partStarts selects the plane.
	partStarts  []int
	partWorkers []*partWorker
	partStarted bool
}

// New validates cfg and builds an engine on ws. A nil ws allocates a
// private workspace; passing GetWorkspace() enables pooled reuse (the
// caller releases it after Close). Beliefs start at Bˆ = 0.
func New(cfg Config, ws *Workspace) (*Engine, error) {
	if (cfg.A == nil && cfg.Rows == nil) || cfg.H == nil {
		return nil, fmt.Errorf("kernel: config needs A (or Rows) and H: %w", errs.ErrInvalidInput)
	}
	e := new(Engine)
	rows, err := configRows(cfg, &e.own)
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
	workers := cfg.Workers
	if workers < 1 {
		workers = 1
	}
	blocks := cfg.Blocks
	if blocks < 1 {
		blocks = 1
	}
	if cfg.PartitionStarts != nil {
		if err := validPartitionStarts(cfg.PartitionStarts, n); err != nil {
			return nil, err
		}
	}
	if ws == nil {
		ws = new(Workspace)
	}
	ws.grow(n, blocks*k, k, workers)

	e.adj = rows
	e.n, e.k, e.blocks, e.wd = n, k, blocks, blocks*k
	e.echo = rows.HasDegrees()
	e.symA = cfg.SymmetricA
	e.workers, e.ws, e.track = workers, ws, true
	e.kern = e.pickKernel()
	if len(cfg.PartitionStarts) >= 2 {
		e.partStarts = cfg.PartitionStarts
	}
	// Hoist H (and the echo coupling) into flat row-major slices once.
	e.h = ws.hbuf[:k*k]
	e.h2 = ws.hbuf[k*k : 2*k*k]
	hd := cfg.H.Data()
	copy(e.h, hd)
	switch {
	case cfg.EchoH != nil:
		copy(e.h2, cfg.EchoH.Data())
	case e.echo:
		// h2 = H·H computed in place, no dense.Matrix allocation.
		for i := 0; i < k; i++ {
			for j := 0; j < k; j++ {
				var s float64
				for m := 0; m < k; m++ {
					s += hd[i*k+m] * hd[m*k+j]
				}
				e.h2[i*k+j] = s
			}
		}
	default:
		for i := range e.h2 {
			e.h2[i] = 0
		}
	}
	e.Reset()
	return e, nil
}

// checkOpen panics on use after Close: a closed engine may share its
// workspace with a newer engine through the pool, so continuing to
// write would silently corrupt the other engine's state.
//
//lsbp:hotpath
func (e *Engine) checkOpen() {
	if e.closed {
		panic("kernel: engine used after Close")
	}
}

// Reset zeroes the belief state (the Bˆ = 0 start of Section 3).
//
//lsbp:hotpath
func (e *Engine) Reset() {
	e.checkOpen()
	for i := range e.ws.cur {
		e.ws.cur[i] = 0
	}
	e.startZero = true
	e.sparseNext = false
}

// ResetFast marks the zero start of Section 3 without clearing the
// state buffer: the first Step's Bˆ¹ = Eˆ shortcut overwrites the state
// in full (or zeroes it when Eˆ is nil), so the eager clear would be
// redundant stores. Callers that might read Beliefs before completing
// a round must use Reset.
//
//lsbp:hotpath
func (e *Engine) ResetFast() {
	e.checkOpen()
	e.startZero = true
	e.sparseNext = false
}

// Width returns the flat row width of the engine's state: k for a
// single-problem engine, blocks·k for a batched one.
//
//lsbp:hotpath
func (e *Engine) Width() int { return e.wd }

// SetStart warm-starts the iteration from b (flat n×width, copied).
//
//lsbp:hotpath
func (e *Engine) SetStart(b []float64) {
	e.checkOpen()
	if len(b) != e.n*e.wd {
		panic(fmt.Sprintf("kernel: start length %d, want %d", len(b), e.n*e.wd))
	}
	copy(e.ws.cur, b)
	e.startZero = false
	e.sparseNext = false
}

// SetExplicit installs the explicit residual beliefs Eˆ (flat n×width).
// The slice is retained, not copied, so callers may mutate entries
// between steps (the incremental solver does). nil means Eˆ = 0.
//
//lsbp:hotpath
func (e *Engine) SetExplicit(explicit []float64) {
	if explicit != nil && len(explicit) != e.n*e.wd {
		panic(fmt.Sprintf("kernel: explicit length %d, want %d", len(explicit), e.n*e.wd))
	}
	e.e = explicit
}

// Beliefs returns the current belief state as a flat n×width view of
// the engine's buffer. Valid until the next Step/Run; treat as
// read-only.
//
//lsbp:hotpath
func (e *Engine) Beliefs() []float64 {
	e.checkOpen()
	return e.ws.cur[:e.n*e.wd]
}

// Step executes one fused update round and returns the maximum absolute
// belief change. Steady-state Steps perform no allocations.
//
//lsbp:hotpath
func (e *Engine) Step() float64 {
	e.checkOpen()
	if e.startZero {
		// Bˆ¹ = Eˆ + A·0·Hˆ − D∘(0·Hˆ₂) = Eˆ exactly: the first round
		// from the zero start is a copy, no sparse pass needed. The
		// copy doubles as the scan for the per-node activity map that
		// lets the next round skip all-zero neighbor rows.
		e.startZero = false
		state := e.ws.cur[:e.n*e.wd]
		if e.e == nil {
			// Eˆ = 0: the zero state is the fixpoint step. Clear it
			// explicitly so the shortcut also covers ResetFast.
			for i := range state {
				state[i] = 0
			}
			return 0
		}
		copy(state, e.e)
		act := e.ws.act[:e.n]
		wd := e.wd
		var delta float64
		for i := 0; i < e.n; i++ {
			row := state[i*wd : i*wd+wd]
			var a byte
			for _, v := range row {
				if v != 0 {
					a = 1
					break
				}
			}
			act[i] = a
			if e.track {
				for _, v := range row {
					delta = delta1(delta, v, 0)
				}
			}
		}
		e.sparseNext = true
		return delta
	}
	if e.sparseNext {
		e.sparseNext = false
		if e.sparseRoundEligible() {
			// Push-based sparse round: touch only the entries incident
			// to active rows instead of scanning the whole structure.
			delta := e.sparseRound()
			e.ws.cur, e.ws.next = e.ws.next, e.ws.cur
			return delta
		}
		e.act = e.ws.act[:e.n]
	} else {
		e.act = nil
	}
	delta := e.pass()
	e.act = nil
	e.ws.cur, e.ws.next = e.ws.next, e.ws.cur
	return delta
}

// Run iterates Step up to maxIter times, stopping early once the delta
// drops to tol (tol < 0 forces exactly maxIter rounds, the paper's
// timing setup). onIter, if non-nil, observes every round.
//
//lsbp:hotpath
func (e *Engine) Run(maxIter int, tol float64, onIter func(iter int, delta float64)) (iters int, delta float64, converged bool) {
	iters, delta, converged, _ = e.RunContext(context.Background(), maxIter, tol, onIter)
	return iters, delta, converged
}

// RunContext is Run with cooperative cancellation: ctx is checked at
// every round boundary, so a cancelled context or an expired deadline
// aborts the solve within one kernel round. On abort it returns the
// rounds completed so far and ctx.Err() (context.Canceled or
// context.DeadlineExceeded); the belief state holds the last completed
// iterate. A nil ctx disables the checks.
//
//lsbp:hotpath
func (e *Engine) RunContext(ctx context.Context, maxIter int, tol float64, onIter func(iter int, delta float64)) (iters int, delta float64, converged bool, err error) {
	e.checkOpen()
	var done <-chan struct{}
	if ctx != nil {
		done = ctx.Done()
	}
	// Fixed-round runs with no observer never read the intermediate
	// deltas; skip the per-entry reduction until the final round.
	skipDelta := tol < 0 && onIter == nil
	defer func() { e.track = true }()
	for iters < maxIter {
		if done != nil {
			select {
			case <-done:
				return iters, delta, false, ctx.Err()
			default:
			}
		}
		e.track = !skipDelta || iters+1 == maxIter
		delta = e.Step()
		iters++
		if onIter != nil {
			onIter(iters, delta)
		}
		// Step maps NaN deltas to +Inf (divergence is reported, never
		// masked); once the update has overflowed no later round can
		// shrink it back under tol, so stop paying for dead rounds and
		// surface the divergence as a typed error.
		if math.IsInf(delta, 1) {
			return iters, delta, false,
				fmt.Errorf("kernel: belief update overflowed at iteration %d: %w", iters, errs.ErrNonFinite)
		}
		if delta <= tol {
			return iters, delta, true, nil
		}
	}
	return iters, delta, false, nil
}

// ApplyInto computes dst = A·src·H − D∘(src·H₂) — the bare update
// operator without the explicit-belief term — through the same fused
// row kernels as Step. It backs spectral.LinBPOp's power iteration
// (Lemma 8), so the spectral criteria and the solver share one
// implementation of the operator. dst and src are flat n×width and
// must not alias. The engine's iteration state is left untouched.
//
//lsbp:hotpath
func (e *Engine) ApplyInto(dst, src []float64) {
	e.checkOpen()
	if len(src) != e.n*e.wd || len(dst) != e.n*e.wd {
		panic("kernel: ApplyInto dimension mismatch")
	}
	savedCur, savedNext, savedE := e.ws.cur, e.ws.next, e.e
	e.ws.cur, e.ws.next, e.e = src, dst, nil
	e.pass()
	e.ws.cur, e.ws.next, e.e = savedCur, savedNext, savedE
}

// pass runs one full fused update ws.cur → ws.next and returns the max
// delta (ignored by the spectral ApplyInto path).
//
//lsbp:hotpath
func (e *Engine) pass() float64 {
	if e.partStarts != nil {
		return e.partPass()
	}
	if e.workers > 1 && e.n >= 2*e.workers {
		e.startWorkers()
		for _, s := range e.spans {
			e.work <- s
		}
		var delta float64
		for range e.spans {
			if d := <-e.results; d > delta {
				delta = d
			}
		}
		return delta
	}
	// The serial fallback runs the identical row kernel as the parallel
	// spans, so results are bitwise identical across Workers settings.
	return e.rows(0, e.n, e.ws.scratch[:scratchStride(e.wd)])
}

// startWorkers lazily spawns the persistent goroutine pool and the
// nnz-balanced spans it consumes. Spans are finer than the worker count
// so a heavy span (Kronecker graphs have very skewed rows) can be
// compensated by work stealing from the shared channel.
//
//lsbp:hotpath-init
func (e *Engine) startWorkers() {
	if e.started {
		return
	}
	nspans := e.workers * 4
	target := e.adj.NNZ()/nspans + 1
	stride := scratchStride(e.wd)
	e.spans = e.spans[:0]
	lo, acc := 0, 0
	for i := 0; i < e.n; i++ {
		acc += e.adj.RowNNZ(i)
		if acc >= target && i+1 < e.n {
			e.spans = append(e.spans, span{lo, i + 1})
			lo, acc = i+1, 0
		}
	}
	e.spans = append(e.spans, span{lo, e.n})
	e.work = make(chan span, len(e.spans))
	e.results = make(chan float64, len(e.spans))
	for w := 0; w < e.workers; w++ {
		go e.worker(e.ws.scratch[w*stride : (w+1)*stride])
	}
	e.started = true
}

//lsbp:hotpath
func (e *Engine) worker(scratch []float64) {
	for s := range e.work {
		e.results <- e.rows(s.lo, s.hi, scratch)
	}
}

// Close stops the worker pool. The engine must not be used afterwards;
// a workspace obtained from GetWorkspace may be Released only after
// Close returns.
func (e *Engine) Close() {
	if e.started && !e.closed {
		close(e.work)
	}
	if e.partStarted && !e.closed {
		for _, w := range e.partWorkers {
			close(w.work)
		}
	}
	e.closed = true
}

// rowKernel names the row kernel an engine's shape selects; see
// pickKernel.
type rowKernel uint8

const (
	kernBlocked rowKernel = iota // generic shapes
	kern1
	kern2
	kern3
	kern5
	kern3x4
	kern2x6
)

// pickKernel selects the row kernel once per engine. The unrolled
// kernels cover the class counts and batch widths of the paper's
// workloads; generic shapes run the blocked kernel.
func (e *Engine) pickKernel() rowKernel {
	if e.blocks == 1 {
		switch e.k {
		case 1:
			return kern1
		case 2:
			return kern2
		case 3:
			return kern3
		case 5:
			return kern5
		}
		return kernBlocked
	}
	switch {
	case e.k == 3 && e.blocks == 4:
		return kern3x4
	case e.k == 2 && e.blocks == 6:
		return kern2x6
	}
	return kernBlocked
}

// configRows resolves the engine's row-block table: cfg.Rows as given,
// or an epoch-0 table aliasing cfg.A and cfg.D, built in own.
func configRows(cfg Config, own *sparse.RowBlocks) (*sparse.RowBlocks, error) {
	rows := cfg.Rows
	if rows == nil {
		if cfg.D != nil && len(cfg.D) != cfg.A.Rows() {
			return nil, fmt.Errorf("kernel: degree vector length %d, want %d: %w", len(cfg.D), cfg.A.Rows(), errs.ErrDimensionMismatch)
		}
		if err := own.Init(cfg.A, cfg.D); err != nil {
			return nil, fmt.Errorf("kernel: %v: %w", err, errs.ErrInvalidInput)
		}
		rows = own
	}
	if rows.Cols() != rows.Rows() {
		return nil, fmt.Errorf("kernel: adjacency %dx%d is not square: %w", rows.Rows(), rows.Cols(), errs.ErrDimensionMismatch)
	}
	return rows, nil
}

// Rebind points the engine at another epoch of its adjacency — a table
// committed from the one it was built on, with the same shape and
// degree presence — without rebuilding anything: the next
// round reads the new rows. Partition workers refresh their private
// block copies on their next round, re-copying only the blocks the
// commits rewrote. The engine must be idle (no round in flight).
func (e *Engine) Rebind(rows *sparse.RowBlocks) error {
	e.checkOpen()
	if rows.Rows() != e.n || rows.Cols() != e.n {
		return fmt.Errorf("kernel: rebind to %dx%d adjacency, engine has n=%d: %w", rows.Rows(), rows.Cols(), e.n, errs.ErrDimensionMismatch)
	}
	if rows.HasDegrees() != e.echo {
		return fmt.Errorf("kernel: rebind table does not match the engine's degree presence: %w", errs.ErrInvalidInput)
	}
	e.adj = rows
	for _, w := range e.partWorkers {
		w.pending = rows
	}
	return nil
}

// rows processes rows [lo, hi) of one update round, fused: sparse
// product, coupling multiply, echo term, and local max delta in a
// single pass per row. The range is walked block by block through the
// row-block table; within a block each kernel runs exactly its flat-CSR
// loop, so summation order (and the result) is independent of the
// block boundaries. scratch provides width floats of per-worker storage
// for the generic kernel.
//
//lsbp:hotpath
func (e *Engine) rows(lo, hi int, scratch []float64) float64 {
	var delta float64
	for lo < hi {
		b := lo >> sparse.BlockShift
		blk, end := e.adj.Block(b), min(hi, (b+1)<<sparse.BlockShift)
		off := blk.Off
		var d float64
		switch e.kern {
		case kern1:
			d = e.rows1(blk, off, lo, end)
		case kern2:
			d = e.rows2(blk, off, lo, end)
		case kern3:
			d = e.rows3(blk, off, lo, end)
		case kern5:
			d = e.rows5(blk, off, lo, end)
		case kern3x4:
			d = e.rows3x4(blk, off, lo, end)
		case kern2x6:
			d = e.rows2x6(blk, off, lo, end)
		default:
			d = e.rowsBlocked(blk, off, lo, end, scratch)
		}
		if d > delta {
			delta = d
		}
		lo = end
	}
	return delta
}

// delta1 folds one element change into the running max, mapping the NaN
// of Inf−Inf (post-overflow divergence) to +Inf so divergence is
// reported rather than masked.
//
//lsbp:hotpath
func delta1(delta, v, b float64) float64 {
	ch := math.Abs(v - b)
	if ch != ch {
		ch = math.Inf(1)
	}
	if ch > delta {
		return ch
	}
	return delta
}

// rowsBlocked handles arbitrary k and any block count with a per-worker
// scratch row, still fused into a single pass per row. The sparse
// product accumulates the full width (all blocks of a neighbor row are
// contiguous, so a batched engine reads each neighbor once for every
// request in the batch), then the coupling and echo terms are applied
// per k-block so each block evolves exactly as in a blocks=1 engine.
//
//lsbp:hotpath
func (e *Engine) rowsBlocked(blk *sparse.Block, off, lo, hi int, scratch []float64) float64 {
	cur, next := e.ws.cur, e.ws.next
	k, wd := e.k, e.wd
	h, h2 := e.h, e.h2
	ab := scratch[:wd]
	act := e.act
	var delta float64
	for i := lo; i < hi; i++ {
		for c := range ab {
			ab[c] = 0
		}
		rs, re := blk.RowPtr[i-off], blk.RowPtr[i-off+1]
		cols, vals := blk.Col[rs:re], blk.Val[rs:re]
		for p, jj := range cols {
			j := int(jj)
			if act != nil && act[j] == 0 {
				continue // neighbor's belief row is exactly zero
			}
			v := vals[p]
			x := cur[j*wd : j*wd+wd]
			for c, xv := range x {
				ab[c] += v * xv
			}
		}
		bRow := cur[i*wd : i*wd+wd]
		nxRow := next[i*wd : i*wd+wd]
		for b := 0; b < wd; b += k {
			abb := ab[b : b+k]
			bb := bRow[b : b+k]
			for c := 0; c < k; c++ {
				var v float64
				if e.e != nil {
					v = e.e[i*wd+b+c]
				}
				for j, abv := range abb {
					v += abv * h[j*k+c]
				}
				if e.echo {
					var s float64
					for j, bv := range bb {
						s += bv * h2[j*k+c]
					}
					v -= blk.Deg[i-off] * s
				}
				if e.track {
					delta = delta1(delta, v, bb[c])
				}
				nxRow[b+c] = v
			}
		}
	}
	return delta
}

// maxSparseRoundWidth bounds the flat row width eligible for the
// push-based sparse round: its generic epilogue lifts each A·Bˆ block
// into a fixed-size stack array, so wider engines (which no serving
// path builds) take the pull round instead.
const maxSparseRoundWidth = 12

// compactBatchMinNodes is the graph size below which the width-12
// batch blocks keep round 2 on the pull kernel over the activity map:
// on smaller graphs the push round's per-row epilogue costs more than
// the pull round it replaces (EXPERIMENTS.md records the probe that
// ran the push round below the gate).
const compactBatchMinNodes = 1 << 15

// sparseRoundEligible reports whether this engine's round 2 may run as
// the push-based sparse round: serial, bitwise-symmetric A, and a shape
// whose pull kernel the push epilogue mirrors term for term — the
// unrolled single-problem class counts everywhere, and the width-12
// batch blocks above compactBatchMinNodes. Generic shapes keep the pull
// round, whose blocked epilogue accumulates in a different order.
//
//lsbp:hotpath
func (e *Engine) sparseRoundEligible() bool {
	// The partitioned plane does not disqualify: the push round runs
	// serially on the parent engine (Step takes it before dispatching
	// to pass), reading the parent's full row-block table and never
	// involving the partition workers — so partitioned solves keep the
	// cheap round 2 and stay bitwise identical to the serial plane.
	// Workers only matters on the span plane; it is ignored (here as
	// everywhere) while PartitionStarts is set.
	if !e.symA || (e.workers > 1 && e.partStarts == nil) {
		return false
	}
	if e.blocks == 1 {
		return e.k == 1 || e.k == 2 || e.k == 3 || e.k == 5
	}
	if e.n < compactBatchMinNodes {
		return false
	}
	return (e.k == 3 && e.blocks == 4) || (e.k == 2 && e.blocks == 6)
}
