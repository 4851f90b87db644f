// The epoch-versioned dynamic serving plane. Prepare returns a
// dynSolver, which serves every method's solves from the current epoch
// and adds the Update path of the paper's incremental-maintenance story
// (Section 8; SBP Algorithms 3–4) on top of the serving surface. Every
// method serves from one adjacency:
//
//   - The adjacency is a copy-on-write row-block table
//     (sparse.RowBlocks) in the prepare-time layout order. The epoch-0
//     table's blocks alias the prepared (possibly mmapped) flat arrays,
//     except that unit-weight blocks share one slice of ones instead of
//     the values; a commit copies only the blocks holding edited rows
//     plus the block table, recomputing just those rows' degrees — no
//     merge, no reordering, and no caller-order graph mirror.
//   - An epoch is a plain immutable value: the committed table, the row
//     map, the method's operator and the Stats identity. One atomic
//     store publishes it and never waits: a solve reads the current
//     epoch once and finishes on it, new solves land on the new one,
//     and an epoch no solve reads any more is garbage. The solver owns
//     everything that outlives an epoch — one lifecycle (the read side
//     of life is held by every solve; Close takes the write side), one
//     set of lifetime counters, and one set of engine pools whose
//     states are rebound to the epoch each solve reads.
//   - When the cells that differ from the compaction base exceed
//     UpdatePolicy.CompactionRatio × base nnz, the commit becomes a
//     compaction: a flat CSR is built from the table, and the
//     reordering strategy and (under WithAutoEpsilonH) the εH
//     derivation replay on it exactly as Prepare would. The result is a
//     new layout; the pools destroy the idle states of the old one.
//
// The maintained explicit beliefs are kept once, for every method, as
// their non-zero rows (sparse.RowSet) in the layout's order, each with
// its caller row and its w layout values — the relation E(v, c, b) of
// the paper's SQL implementation (Section 5.3) rather than an n×k
// matrix. Update merges each batch's rows into the set, and a
// compaction moves it to the new layout through the caller rows. A
// consumer that needs a dense matrix fills one from the set for that
// call only: the cold residual seed and the rounds re-solve (a layout
// buffer), BP's and SBP's re-solve (their caller-order request), and a
// checkpoint (its caller-order section).
//
// For the kernel-backed methods (LinBP, LinBP*, FABP) an Update costs
// what it touches. A plain commit builds no engine: the idle pooled
// engines are rebound to the new table as it is published. The maintained
// fixpoint lives once, in layout order, inside one residual engine the
// dynSolver owns and rebinds to each epoch; the rounds schedule
// warm-starts from the same state. A localized re-solve seeds only the
// touched rows, reading their explicit rows from the set, and the Update
// ends with one caller-order gather into a fresh result matrix.
//
// BP and SBP re-solve cold on the committed table, on a state built for
// it (BP lays out its directed edges again; SBP's runner caches a new
// geodesic ordering).
//
// Convergence caveat: εH (including a WithAutoEpsilonH derivation) is
// fixed between compactions. Edge insertions raise the spectral radius
// of the update operator, so a long-running insert-heavy stream should
// either keep a safety margin in εH or watch for ErrNotConverged from
// Update — the same contract the paper's Section 8 sketch implies.
package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/beliefs"
	"repro/internal/bp"
	"repro/internal/dense"
	"repro/internal/durable"
	"repro/internal/errs"
	"repro/internal/graph"
	"repro/internal/kernel"
	"repro/internal/sparse"
)

// Update is one delta batch for Solver.Update. Within a batch the
// additions apply before the removals (so a pair both added and
// removed ends up absent); the belief rows are independent of the
// topology delta. The whole batch commits as one epoch.
type Update struct {
	// AddEdges inserts undirected weighted edges (weights must be
	// positive, endpoints within the prepared node range — the node set
	// is fixed at preparation time; BP takes no self-loop).
	AddEdges []graph.Edge
	// RemoveEdges deletes all stored edges between each listed endpoint
	// pair (parallel edges go together; weights are ignored and absent
	// pairs are skipped).
	RemoveEdges []graph.Edge
	// SetExplicit installs the non-zero rows of the given n×k residual
	// matrix as new or replacement explicit beliefs of the maintained
	// problem — the belief half of the update stream. Zero rows leave
	// the node's maintained belief untouched (clearing a label is not
	// representable, matching SBP's Algorithm 3 surface).
	SetExplicit *beliefs.Residual
}

// UpdatePolicy tunes the dynamic plane; see WithUpdatePolicy. The zero
// value selects the defaults.
type UpdatePolicy struct {
	// CompactionRatio is the drift threshold that triggers a compaction
	// rebuild: when the cells whose value differs from the compaction
	// base exceed CompactionRatio × base nnz, the commit replays the
	// reordering strategy on the current graph instead of committing
	// over the stale layout (an edge inserted and deleted again leaves
	// no difference behind). <= 0 selects DefaultCompactionRatio; a very
	// small positive value forces a rebuild on every topology update
	// (the differential tests use this), a huge one disables compaction.
	CompactionRatio float64
}

// DefaultCompactionRatio is the default drift threshold: a quarter of
// the base's stored entries. Below it the stale layout's locality loss
// is marginal; above it the O(nnz) relayout amortizes.
const DefaultCompactionRatio = 0.25

// WithUpdatePolicy sets the dynamic plane's compaction policy for
// Update; solvers that never see an Update ignore it.
func WithUpdatePolicy(p UpdatePolicy) Option { return func(c *config) { c.policy = p } }

// epoch is one immutable serving epoch: the committed layout-order
// table and what a solve reads with it. It owns nothing, so publishing
// the next one waits for no solve.
type epoch struct {
	solverInfo
	rows *sparse.RowBlocks
	// rm maps caller rows to the table's layout rows.
	rm rowMap
	// layout numbers the compactions before this epoch. Epochs of one
	// layout share the row map and the operator and differ only in
	// their table, so an engine built for one serves any other once
	// rebound.
	layout int64
	op     kernelOp      // the kernel methods' operator
	h      *dense.Matrix // BP's uncentered Hˆ, SBP's Hˆo
}

// dynSolver is the epoch-versioned Solver every Prepare returns. The
// read path (Solve/SolveInto/SolveBatch/Stats) costs one atomic load of
// the current epoch; the update path serializes under mu.
type dynSolver struct {
	counters
	cfg  config
	ho   *dense.Matrix
	n, k int

	// cur is the published epoch; the epoch-atomics lint rule pins
	// every touch to Load/Store/Swap/CompareAndSwap.
	//
	//lsbp:atomic
	cur atomic.Pointer[epoch]

	// life is the solver's one lifecycle: solves hold its read side for
	// their whole duration, and Close takes the write side (after mu),
	// so it waits for in-flight solves and flips closed exactly once.
	// closed is written holding both locks, so either one reads it.
	life   sync.RWMutex
	closed bool
	// plane holds the method's engine pools for the solver's life.
	plane plane

	// Everything below mu is the updater's private state: the
	// maintained explicit beliefs, the adjacency table, the kernel
	// methods' maintained fixpoint (built on the first Update, so purely
	// static solvers pay nothing for it), and the compaction bookkeeping.
	mu sync.Mutex
	// exp is the maintained explicit beliefs: their non-zero rows, in
	// the current layout's order, each with its caller row and its w
	// layout values. Prepare and Open build it; Update merges into it.
	exp *sparse.RowSet
	// rows is the maintained adjacency table in layout order: the
	// current epoch's serving table, and the base of the next commit.
	rows    *sparse.RowBlocks
	kern    *kernelPlane // kernel methods only; nil until the first Update
	baseNNZ int

	// pendingSwap records a committed-but-unswapped table (the Update's
	// context was cancelled before the epoch swap); the next Update
	// retries the swap before anything else.
	pendingSwap bool
	// lastConverged reports that the maintained fixpoint is converged
	// for exactly the current epoch — the validity gate of the residual
	// plane's localized touched-row seeding. It is pessimistically
	// cleared at the top of every Update and restored only after a
	// successful re-solve, so any early exit (WAL failure, aborted swap,
	// cancellation) forces the next re-solve to seed fully.
	lastConverged bool
	// epsRederived latches that a compaction re-derived the auto εH to
	// a different value — the fixpoint moved globally, so the next
	// re-solve must not trust a localized seed. Consumed by Update.
	epsRederived bool
	// Reusable per-Update scratch: the touched-row accumulator of
	// collectTouched (caller-order ids, deduplicated per batch), the
	// explicit-row list and its rows staged for the merge into exp, the
	// commit's edits and changed rows.
	tlist   []int
	tmark   []bool
	erows   []int
	staged  *sparse.RowSet
	edits   []sparse.Edit
	changed []int
	// dur is the durable half (snapshot + WAL); nil without
	// WithDurability.
	dur *durability

	// Update counters, read without mu by Stats(). The stage clocks
	// accumulate Update's validate (batch checks + first-Update state
	// set-up), WAL append, commit (apply + table commit + epoch swap),
	// re-solve, and publish (result gather) time; rowsCommitted counts
	// the adjacency rows commits rewrote.
	//
	//lsbp:atomic
	epochN, updates, rebuilds, overlayNNZ atomic.Int64
	//lsbp:atomic
	validateNS, walNS, commitNS, resolveNS, publishNS, rowsCommitted atomic.Int64

	// degraded latches true when the durable plane breaks stickily
	// (ErrWALBroken from a WAL append): the solver keeps serving reads
	// from the last committed state while Stats advertises the
	// condition so a serving front end can flip to read-only mode.
	//
	//lsbp:atomic
	degraded atomic.Bool
}

// kernelPlane is the kernel methods' maintained state, in layout order.
type kernelPlane struct {
	// fix holds the maintained fixpoint (n×w beliefs, in the epoch
	// operator's layout) and runs the residual re-solves; hasFix reports
	// that it holds a solve's iterate.
	fix    *kernel.ResidualEngine
	hasFix bool
	// residual reports that the residual plane may serve re-solves (a
	// non-rounds schedule with a convergence tolerance).
	residual bool
	// keepRounds reports that rounds serve the steady re-solves, so the
	// rounds engine stays in the Solve pool between them. Otherwise the
	// rounds solves left to the dynamic plane (the first fixpoint, a
	// re-solve after a cancelled swap or a non-converged one) close
	// their engine: no idle n×k engine is kept for them.
	keepRounds bool
	maxRelax   int
	// rm maps caller rows to the layout rows of fix.
	rm rowMap
	// tl is the layout-order touched-row scratch; it grows with the
	// batches.
	tl []int32
}

// newDynSolver builds the solver that serves ep, the first epoch of a
// prepared (or recovered) layout: it creates the method's pools and
// builds one state on ep, so a bad configuration fails here. ho must be
// a private copy and exp the explicit set in ep's layout: the solver
// keeps both by reference.
func newDynSolver(m Method, cfg config, ho *dense.Matrix, exp *sparse.RowSet, ep *epoch) (*dynSolver, error) {
	d := &dynSolver{counters: counters{method: m}, cfg: cfg, ho: ho, exp: exp,
		staged: sparse.NewRowSet(exp.Width()), n: ep.n, k: ep.k, rows: ep.rows, baseNNZ: ep.rows.NNZ()}
	if kernelMethod(m) {
		d.plane = newKernelSolver(&d.counters, ep)
	} else {
		d.plane = newGraphSolver(&d.counters, bp.Options{MaxIter: cfg.maxIter, Tol: cfg.tol})
	}
	if err := d.plane.prime(ep); err != nil {
		d.plane.closeAll()
		return nil, err
	}
	d.cur.Store(ep)
	return d, nil
}

// kernelMethod reports whether method m runs on the fused kernel (and
// so keeps a maintained fixpoint).
func kernelMethod(m Method) bool {
	return m == MethodLinBP || m == MethodLinBPStar || m == MethodFABP
}

// begin enters one solve: it takes the read side of life and rejects a
// closed solver. Every solve entry point pairs it with end; nested
// begin calls are forbidden (recursive read locks can deadlock against
// a pending Close).
//
//lsbp:hotpath
func (d *dynSolver) begin() bool {
	d.life.RLock()
	if d.closed {
		d.life.RUnlock()
		return false
	}
	return true
}

//lsbp:hotpath
func (d *dynSolver) end() { d.life.RUnlock() }

func (d *dynSolver) errClosed() error {
	return fmt.Errorf("core: %v solver: %w", d.method, errs.ErrClosed)
}

// Solve, SolveInto, and SolveBatch enter the solver once and read the
// current epoch once: the solve finishes on that epoch whatever an
// Update publishes meanwhile.
func (d *dynSolver) Solve(ctx context.Context, e *beliefs.Residual) (*Result, error) {
	if !d.begin() {
		return nil, d.errClosed()
	}
	defer d.end()
	dst := beliefs.New(d.n, d.k)
	var geo []int
	if d.method == MethodSBP {
		geo = make([]int, d.n)
	}
	info, err := d.solve(ctx, d.cur.Load(), dst, e, geo)
	if err != nil && !isNotConverged(err) {
		return nil, err
	}
	return &Result{
		Method: d.method, Beliefs: dst, Geodesics: geo,
		Iterations: info.Iterations, Converged: info.Converged, Delta: info.Delta,
	}, err
}

//lsbp:hotpath
func (d *dynSolver) SolveInto(ctx context.Context, dst, e *beliefs.Residual) (SolveInfo, error) {
	if !d.begin() {
		return SolveInfo{}, d.errClosed()
	}
	defer d.end()
	return d.solve(ctx, d.cur.Load(), dst, e, nil)
}

// solve is the one single-solve entry behind Solve and SolveInto: it
// checks the shapes, counts the solve once the request is well-formed,
// admits the context, and runs the method's solve on ep.
//
//lsbp:hotpath
func (d *dynSolver) solve(ctx context.Context, ep *epoch, dst, e *beliefs.Residual, geo []int) (SolveInfo, error) {
	if err := ep.checkShapes(dst, e); err != nil {
		return SolveInfo{}, err
	}
	d.solves.Add(1)
	if err := d.admitCtx(ctx); err != nil {
		return SolveInfo{}, err
	}
	return d.plane.solve(ctx, ep, dst, e, geo)
}

//lsbp:hotpath
func (d *dynSolver) SolveBatch(ctx context.Context, reqs []Request) []Response {
	if !d.begin() {
		return failAll(reqs, d.errClosed())
	}
	defer d.end()
	d.batches.Add(1)
	d.batchReqs.Add(int64(len(reqs)))
	if err := d.admitCtx(ctx); err != nil {
		d.cancelled.Add(int64(len(reqs)) - 1) // admitCtx counted one
		return failAll(reqs, err)
	}
	return d.plane.batch(ctx, d.cur.Load(), reqs)
}

func (d *dynSolver) Stats() SolverStats {
	ep := d.cur.Load()
	return SolverStats{
		Method: d.method, N: ep.n, K: ep.k, Workers: ep.workers, EpsilonH: ep.eps,
		Ordering: ep.ordering, BandwidthBefore: ep.bandBefore, BandwidthAfter: ep.bandAfter,
		Schedule:  ep.schedule,
		BatchHint: max(ep.batchHint, 1),
		Solves:    d.solves.Load(), Batches: d.batches.Load(), BatchRequests: d.batchReqs.Load(),
		Iterations: d.iterations.Load(), NotConverged: d.notConverged.Load(), Cancelled: d.cancelled.Load(),
		ResidualRowsRelaxed: d.rowsRelaxed.Load(), ResidualQueuePeak: d.queuePeak.Load(),
		ResidualPushes: d.pushes.Load(),

		Epoch: d.epochN.Load(), Updates: d.updates.Load(), Rebuilds: d.rebuilds.Load(),
		OverlayNNZ:       d.overlayNNZ.Load(),
		UpdateValidateNS: d.validateNS.Load(), UpdateWALNS: d.walNS.Load(),
		UpdateCommitNS: d.commitNS.Load(), UpdateResolveNS: d.resolveNS.Load(),
		UpdatePublishNS: d.publishNS.Load(), RowsCommitted: d.rowsCommitted.Load(),
		Degraded: d.degraded.Load(),
	}
}

// Close waits for any in-flight Update (including its compaction
// rebuild) and then for the in-flight solves, and destroys every pooled
// state. Idempotent.
func (d *dynSolver) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.life.Lock()
	closed := d.closed
	d.closed = true
	d.life.Unlock()
	if closed {
		return nil
	}
	d.plane.closeAll()
	if d.dur != nil {
		// No solve reads the mapped snapshot arrays any more; flush and
		// release the durable half last.
		return d.dur.close()
	}
	return nil
}

// Update applies the delta batch and re-solves the maintained problem,
// returning the refreshed result (warm-started from the previous
// fixpoint for LinBP/LinBP*/FABP). An empty Update{} just (re-)solves
// the maintained problem — the idiom for obtaining the initial
// fixpoint after Prepare. Updates serialize; readers keep serving the
// previous epoch until the commit publishes the next one, and the
// commit waits for none of them. On a context
// error the delta is already committed (readers see it) and only the
// returned re-solve was aborted; the next Update re-solves from the
// maintained state.
func (d *dynSolver) Update(ctx context.Context, u Update) (*Result, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return nil, d.errClosed()
	}
	start := time.Now()
	rows, err := d.validateUpdate(u)
	if err != nil {
		return nil, err
	}
	if err := d.initDynState(); err != nil {
		return nil, err
	}
	d.validateNS.Add(int64(time.Since(start)))
	// Write-ahead: the batch is durably logged before any in-memory
	// mutation, so a crash recovers either the pre-batch or post-batch
	// state — never a torn middle. A failed append commits nothing.
	if d.dur != nil {
		start = time.Now()
		err := d.appendWALLocked(u, rows)
		d.walNS.Add(int64(time.Since(start)))
		if err != nil {
			if errors.Is(err, durable.ErrWALBroken) {
				// The WAL is stickily unusable: no further write can
				// commit durably. Latch degraded so Stats (and any
				// front end polling it) reflects read-only reality.
				d.degraded.Store(true)
			}
			return nil, err
		}
	}
	start = time.Now()
	// The localized touched-row seed is only sound when the maintained
	// fixpoint converged on exactly the previous epoch and this batch is
	// the whole epoch delta — a pending (retried) swap folds an earlier
	// batch into this commit, so its rows would be missed. Capture the
	// gate before mutating, clear it pessimistically, and restore it
	// only after a successful re-solve.
	seedable := d.lastConverged && !d.pendingSwap
	d.lastConverged = false
	touched := d.collectTouched(u, rows)
	d.applyExplicitLocked(u.SetExplicit, rows)
	if d.applyTopologyLocked(u) || d.pendingSwap {
		if err := d.swapEpochLocked(ctx); err != nil {
			return nil, err
		}
		if d.epsRederived {
			// The compaction moved the coupling scale: the old fixpoint
			// is globally stale, so this re-solve seeds fully.
			seedable = false
			d.epsRederived = false
		}
	}
	d.commitNS.Add(int64(time.Since(start)))
	d.updates.Add(1)
	if d.kern == nil {
		return d.resolveGraphLocked(ctx)
	}
	return d.resolveKernelLocked(ctx, seedable, touched)
}

// collectTouched gathers the caller-order rows whose residuals this
// batch perturbs — the endpoints of every added or removed edge (their
// adjacency rows and degrees change) plus the rows with replacement
// explicit beliefs (explicit) — deduplicated through the reusable mark
// array. The returned slice aliases d.tlist and is valid until the
// next Update; an empty (non-nil) result means a no-change batch,
// which the residual plane re-solves for free.
func (d *dynSolver) collectTouched(u Update, explicit []int) []int {
	if d.tmark == nil {
		d.tmark = make([]bool, d.n)
	}
	t := d.tlist[:0]
	add := func(i int) {
		if !d.tmark[i] {
			d.tmark[i] = true
			t = append(t, i)
		}
	}
	for _, e := range u.AddEdges {
		add(e.S)
		add(e.T)
	}
	for _, e := range u.RemoveEdges {
		add(e.S)
		add(e.T)
	}
	for _, v := range explicit {
		add(v)
	}
	for _, i := range t {
		d.tmark[i] = false
	}
	d.tlist = t
	return t
}

// applyExplicitLocked installs the batch's explicit rows (the list
// validateUpdate built) into the maintained explicit set.
func (d *dynSolver) applyExplicitLocked(set *beliefs.Residual, rows []int) {
	for _, v := range rows {
		d.stageRow(v, set.Row(v))
	}
	d.mergeStagedLocked()
}

// stageRow stages caller row v's explicit row (k values, checked) for
// the next mergeStagedLocked, as its layout row and w layout values. A
// row whose layout values are all zero (FABP's class-0 residual) stages
// a removal.
func (d *dynSolver) stageRow(v int, row []float64) {
	rm := d.cur.Load().rm
	d.staged.Add(int32(rm.at(v)), int32(v), row[:rm.w])
}

// mergeStagedLocked merges the staged rows into the explicit set in one
// pass and empties the stage.
func (d *dynSolver) mergeStagedLocked() {
	d.staged.Sort()
	d.exp.Merge(d.staged)
	d.staged.Reset()
}

// applyTopologyLocked commits the batch's edge delta to the maintained
// table, reporting whether the structure actually changed. Removals of
// absent pairs are no-ops; a batch with no net structural change skips
// the epoch entirely (an idempotent delete stream must not pay an epoch
// per call).
func (d *dynSolver) applyTopologyLocked(u Update) bool {
	if len(u.AddEdges) == 0 && len(u.RemoveEdges) == 0 {
		return false
	}
	edits := d.edits[:0]
	for _, e := range u.AddEdges {
		i, j := d.pm(e.S), d.pm(e.T)
		edits = append(edits, sparse.Edit{Row: i, Col: j, W: e.W})
		if i != j {
			edits = append(edits, sparse.Edit{Row: j, Col: i, W: e.W})
		}
	}
	for _, e := range u.RemoveEdges {
		i, j := d.pm(e.S), d.pm(e.T)
		edits = append(edits, sparse.Edit{Row: i, Col: j, Remove: true})
		if i != j {
			edits = append(edits, sparse.Edit{Row: j, Col: i, Remove: true})
		}
	}
	d.edits = edits
	next, changed := d.rows.Commit(edits, d.changed)
	d.changed = changed
	if next == d.rows {
		return false
	}
	d.rows = next
	d.rowsCommitted.Add(int64(len(changed)))
	return true
}

// pm maps a caller node id into the table's layout order.
func (d *dynSolver) pm(i int) int { return d.cur.Load().rm.at(i) }

// validateUpdate checks the batch and returns the caller-order ids of
// the non-zero rows of u.SetExplicit — found in the one scan of the
// matrix an Update makes (validation, the touched set, the apply, and
// the WAL record all share the list). The slice aliases d.erows.
func (d *dynSolver) validateUpdate(u Update) ([]int, error) {
	for _, e := range u.AddEdges {
		if e.S < 0 || e.S >= d.n || e.T < 0 || e.T >= d.n {
			return nil, fmt.Errorf("core: update edge (%d,%d) out of range n=%d: %w", e.S, e.T, d.n, errs.ErrDimensionMismatch)
		}
		// !(W > 0) also rejects NaN, which e.W <= 0 would let through —
		// and a NaN weight poisons the maintained graph permanently.
		if !(e.W > 0) || math.IsInf(e.W, 1) {
			return nil, fmt.Errorf("core: update edge (%d,%d) has invalid weight %v (want finite > 0): %w", e.S, e.T, e.W, errs.ErrInvalidInput)
		}
		// BP's directed-edge layout refuses a self-loop, so it must
		// fail here, before the batch is logged or committed.
		if e.S == e.T && d.method == MethodBP {
			return nil, fmt.Errorf("core: update edge (%d,%d) is a self-loop, which BP does not support: %w", e.S, e.T, errs.ErrInvalidInput)
		}
	}
	for _, e := range u.RemoveEdges {
		if e.S < 0 || e.S >= d.n || e.T < 0 || e.T >= d.n {
			return nil, fmt.Errorf("core: update edge (%d,%d) out of range n=%d: %w", e.S, e.T, d.n, errs.ErrDimensionMismatch)
		}
	}
	rows := d.erows[:0]
	if set := u.SetExplicit; set != nil {
		if set.N() != d.n || set.K() != d.k {
			return nil, fmt.Errorf("core: update belief matrix %dx%d does not match n=%d k=%d: %w",
				set.N(), set.K(), d.n, d.k, errs.ErrDimensionMismatch)
		}
		data := set.Matrix().Data()
		for v := 0; v < d.n; v++ {
			// Most rows of a relabel batch are zero: not explicit, and
			// nothing to check.
			row := data[v*d.k : v*d.k+d.k]
			if sparse.ZeroRow(row) {
				continue
			}
			if err := checkExplicitRow(v, row); err != nil {
				return nil, fmt.Errorf("core: update %w", err)
			}
			rows = append(rows, v)
		}
	}
	d.erows = rows
	return rows, nil
}

// checkExplicitRow checks caller row v of explicit beliefs, a non-zero
// row: finite values summing to zero within 1e-9 (Definition 3). Update,
// WAL replay and Open share it.
func checkExplicitRow(v int, row []float64) error {
	var sum float64
	for _, x := range row {
		// NaN must be rejected explicitly: it fails every comparison, so
		// a NaN row would sail through the |sum| check and silently
		// poison the fixpoint.
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return fmt.Errorf("belief row %d holds %v: %w", v, x, errs.ErrNonFinite)
		}
		sum += x
	}
	if math.Abs(sum) > 1e-9 {
		return fmt.Errorf("belief row %d sums to %v, want 0: %w", v, sum, errs.ErrInvalidInput)
	}
	return nil
}

// initDynState builds the kernel methods' maintained fixpoint engine on
// the first Update, so a solver that is never updated pays nothing for
// it.
func (d *dynSolver) initDynState() error {
	if d.kern != nil || !kernelMethod(d.method) {
		return nil
	}
	kp, err := d.newKernelPlane(d.cur.Load())
	if err != nil {
		return err
	}
	d.kern = kp
	return nil
}

// newKernelPlane builds the maintained-fixpoint engine on ep's table
// from its operator.
func (d *dynSolver) newKernelPlane(ep *epoch) (*kernelPlane, error) {
	residual := d.cfg.schedule != ScheduleRounds && d.cfg.tol >= 0
	op := ep.op
	tol := op.tol
	if !(tol > 0) {
		// A fixed-round configuration never runs the residual plane; the
		// engine then only holds the maintained state.
		tol = math.SmallestNonzeroFloat64
	}
	fix, err := kernel.NewResidual(kernel.Config{Rows: ep.rows, H: op.h, EchoH: op.echoH, SymmetricA: true}, tol)
	if err != nil {
		return nil, err
	}
	kp := &kernelPlane{
		fix:        fix,
		residual:   residual,
		keepRounds: !residual,
		maxRelax:   op.maxIter * d.n,
		rm:         ep.rm,
	}
	return kp, nil
}

// compactionRatio resolves the policy threshold.
func (d *dynSolver) compactionRatio() float64 {
	if d.cfg.policy.CompactionRatio > 0 {
		return d.cfg.policy.CompactionRatio
	}
	return DefaultCompactionRatio
}

// swapEpochLocked publishes the committed table as the next epoch —
// the current epoch with the new table, or, once the drift crosses the
// compaction threshold, a full relayout. The context is checked before
// the swap: a cancelled Update returns without publishing (the delta
// stays in the maintained table and the next Update retries the swap).
func (d *dynSolver) swapEpochLocked(ctx context.Context) error {
	if cerr := ctx.Err(); cerr != nil {
		d.pendingSwap = true
		return fmt.Errorf("core: update commit aborted before epoch swap: %w", cerr)
	}
	if float64(d.rows.DiffCells()) < d.compactionRatio()*float64(d.baseNNZ) {
		next := *d.cur.Load()
		next.rows = d.rows
		d.publishLocked(&next)
		d.pendingSwap = false
		return nil
	}
	if err := d.compactLocked(); err != nil {
		// The old epoch keeps serving; the delta stays in the maintained
		// table for the next commit attempt.
		d.pendingSwap = true
		return err
	}
	d.pendingSwap = false
	if d.dur != nil {
		// A compaction rewrote the layout: publish a checkpoint and
		// rotate the log so recovery replays from the fresh base. The
		// in-memory commit above stands either way; a checkpoint error
		// only means recovery still replays the old log.
		if cerr := d.checkpointLocked(); cerr != nil {
			return fmt.Errorf("core: compaction checkpoint: %w", cerr)
		}
	}
	return nil
}

// publishLocked makes ep the current epoch: one store, no wait. The
// pools then rebind their idle states to ep, a pointer swap each under
// the pool's lock, so an idle state never pins a superseded table.
func (d *dynSolver) publishLocked(ep *epoch) {
	d.cur.Store(ep)
	d.plane.advance(ep)
	d.epochN.Add(1)
	d.overlayNNZ.Store(int64(d.rows.DiffCells()))
}

// compactLocked is the compaction: flatten the table, undo the layout
// permutation, replay the layout decisions exactly as Prepare would,
// and publish the first epoch of the new layout — for the kernel
// methods with a new maintained fixpoint engine, into which the
// maintained beliefs carry over through the permutation change. The
// explicit set moves to the new layout through its caller rows. The
// pools move to the new layout before it is primed, destroying the idle
// states of the old one, so the primed state stays pooled for the
// re-solve; no solve can read the new epoch before it is published. On
// error the pools move back and nothing else changes.
func (d *dynSolver) compactLocked() error {
	cur := d.cur.Load()
	a := d.rows.Flatten()
	if cur.rm.perm != nil {
		a = a.Permute(cur.rm.perm.Inverse())
	}
	// Compaction already replays the layout on the current graph; under
	// WithAutoEpsilonH it re-derives εH there too, so a long insert-heavy
	// stream recovers the spectral safety margin instead of serving the
	// stale prepare-time scale. The new epoch's εH is what
	// Stats().EpsilonH reports from here on.
	info, perm, err := planLayout(d.method, d.cfg, d.ho, a, d.k, cur.eps)
	if err != nil {
		return fmt.Errorf("core: compaction auto-εH re-derivation: %w", err)
	}
	ep, err := newEpoch(d.method, d.ho, info, d.cfg, a, perm, perm)
	if err != nil {
		return err
	}
	ep.layout = cur.layout + 1
	d.plane.advance(ep)
	if err := d.plane.prime(ep); err != nil {
		d.plane.advance(cur)
		return err
	}
	if old := d.kern; old != nil {
		kp, err := d.newKernelPlane(ep)
		if err != nil {
			d.plane.advance(cur)
			return err
		}
		if !kp.keepRounds {
			// The residual plane serves the re-solves: close the rounds
			// engine prime validated instead of keeping it idle.
			d.plane.(*kernelSolver).chunks[0].closeIdle()
		}
		if old.hasFix {
			// Carry the maintained fixpoint into the new layout order.
			old.rm.moveTo(kp.rm, kp.fix.Beliefs(), old.fix.Beliefs())
			kp.hasFix = true
		}
		d.kern = kp
	}
	if ep.eps != cur.eps {
		d.epsRederived = true
	}
	d.exp.Relabel(func(id int32) int32 { return int32(ep.rm.at(int(id))) })
	d.rows, d.baseNNZ = ep.rows, ep.rows.NNZ()
	d.rebuilds.Add(1)
	d.publishLocked(ep)
	return nil
}

// resolveGraphLocked re-solves BP and SBP cold on the current epoch
// (they keep no warm state), straight from the explicit set: no
// caller-order request is built. Close waits for mu, so the solve needs
// no read side of the lifecycle.
func (d *dynSolver) resolveGraphLocked(ctx context.Context) (*Result, error) {
	start := time.Now()
	res := &Result{Method: d.method, Beliefs: beliefs.New(d.n, d.k)}
	if d.method == MethodSBP {
		res.Geodesics = make([]int, d.n)
	}
	d.solves.Add(1)
	var info SolveInfo
	err := d.admitCtx(ctx)
	if err == nil {
		info, err = d.plane.(*graphSolver).solveSet(ctx, d.cur.Load(), res.Beliefs, d.exp, res.Geodesics)
	}
	d.resolveNS.Add(int64(time.Since(start)))
	if err != nil && !isNotConverged(err) {
		return nil, err
	}
	res.Iterations, res.Converged, res.Delta = info.Iterations, info.Converged, info.Delta
	return res, err
}

// resolveKernelLocked re-solves the maintained problem on the current
// epoch, in place on the maintained fixpoint: warm unless no fixpoint
// exists yet. Under a residual schedule a seedable (localized) re-solve
// relaxes from exactly the touched rows; everything else seeds fully
// (always under ScheduleResidual, only when localized under
// ScheduleAuto — a full residual seed costs a round and converges no
// faster than warm rounds, so Auto prefers rounds there). The result is
// one caller-order gather of the maintained beliefs into a fresh
// matrix.
func (d *dynSolver) resolveKernelLocked(ctx context.Context, seedable bool, touched []int) (*Result, error) {
	kp := d.kern
	ep := d.cur.Load()
	if err := kp.fix.Rebind(ep.rows); err != nil {
		return nil, err
	}
	start := time.Now()
	warm := kp.hasFix
	localized := seedable && warm
	var info SolveInfo
	var err error
	residual := kp.residual && (localized || d.cfg.schedule == ScheduleResidual)
	if residual {
		d.solves.Add(1)
		if err = d.admitCtx(ctx); err == nil {
			switch {
			case !warm:
				// The cold seed reads a layout buffer filled for it.
				e := make([]float64, d.n*kp.rm.w)
				d.exp.Scatter(e)
				kp.fix.SeedExplicit(e)
			case localized:
				tl := kp.tl[:0]
				for _, id := range touched {
					tl = append(tl, int32(d.pm(id)))
				}
				kp.tl = tl
				kp.fix.SeedResume(d.exp, tl)
			default:
				kp.fix.SeedResume(d.exp, nil)
			}
			relaxed, peak, maxResid, converged, runErr := kp.fix.Run(ctx, kp.maxRelax)
			d.pushes.Add(int64(kp.fix.Pushes()))
			info, err = d.record(residualInfo(d.n, relaxed, peak, maxResid, converged), runErr)
		}
	} else {
		var from []float64
		if warm {
			from = kp.fix.Beliefs()
		}
		// The rounds engine copies the start into its own state before
		// the first round, so the maintained beliefs can receive the
		// result in place.
		info, err = d.plane.(*kernelSolver).solveLayout(ctx, ep, kp.fix.Beliefs(), d.exp, from, kp.keepRounds)
	}
	d.resolveNS.Add(int64(time.Since(start)))
	if err != nil && !isNotConverged(err) {
		if errors.Is(err, errs.ErrNonFinite) {
			// The iterate overflowed: never warm-start from it.
			kp.hasFix = false
		}
		return nil, err
	}
	// A residual solve always leaves a valid iterate in place; a rounds
	// solve only once a round ran.
	kp.hasFix = kp.hasFix || residual || info.Iterations > 0
	d.lastConverged = info.Converged
	start = time.Now()
	res := &Result{
		Method: d.method, Beliefs: d.gatherLocked(),
		Iterations: info.Iterations, Converged: info.Converged, Delta: info.Delta,
	}
	d.publishNS.Add(int64(time.Since(start)))
	return res, err
}

// gatherLocked copies the maintained fixpoint into a fresh caller-order
// belief matrix — the one O(n·k) step of a kernel-method Update.
func (d *dynSolver) gatherLocked() *beliefs.Residual {
	out := beliefs.New(d.n, d.k)
	d.kern.rm.out(out.Matrix().Data(), d.kern.fix.Beliefs(), 1, 0)
	return out
}

// callerExplicit fills a fresh caller-order matrix from the explicit set.
func (d *dynSolver) callerExplicit() *beliefs.Residual {
	e := beliefs.New(d.n, d.k)
	d.cur.Load().rm.outSet(e.Matrix().Data(), d.exp)
	return e
}
