// The epoch-versioned dynamic serving plane. Prepare wraps every
// method's immutable prepared state (a snapshot) in a dynSolver, which
// adds the Update path of the paper's incremental-maintenance story
// (Section 8; SBP Algorithms 3–4) on top of the existing serving
// surface. Every method serves from one adjacency:
//
//   - The adjacency is a copy-on-write row-block table
//     (sparse.RowBlocks) in the prepare-time layout order. The epoch-0
//     table's blocks alias the prepared (possibly mmapped) flat arrays,
//     except that unit-weight blocks share one slice of ones instead of
//     the values; a commit copies only the blocks holding edited rows
//     plus the block table, recomputing just those rows' degrees — no
//     merge, no reordering, and no caller-order graph mirror.
//   - The snapshot swap is RCU-style: the current-epoch pointer is
//     swapped atomically, solves already in flight drain on the old
//     snapshot (its Close waits for them), and new solves land on the
//     new one. A reader that loses the race — loads the old pointer
//     just as it retires — observes the old snapshot's ErrClosed and
//     transparently retries on the current epoch, so no caller ever
//     sees a torn graph or a spurious closed error.
//   - When the cells that differ from the compaction base exceed
//     UpdatePolicy.CompactionRatio × base nnz, the commit becomes a
//     compaction: a flat CSR is built from the table, and the
//     reordering strategy and (under WithAutoEpsilonH) the εH
//     derivation replay on it exactly as Prepare would.
//
// For the kernel-backed methods (LinBP, LinBP*, FABP) an Update costs
// what it touches. The successor snapshot builds no engine: the
// retiring epoch's idle engines are rebound to the new table and move
// over. The maintained fixpoint lives once, in layout order, inside one
// residual engine the dynSolver owns and rebinds to each epoch; the
// rounds schedule warm-starts from the same state. A localized re-solve
// seeds only the touched rows, and the Update ends with one
// caller-order gather into a fresh result matrix.
//
// BP and SBP build their successor snapshot on the committed table (BP
// lays out its directed edges again; SBP's runners are built on demand)
// and re-solve cold.
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
	"repro/internal/dense"
	"repro/internal/durable"
	"repro/internal/errs"
	"repro/internal/graph"
	"repro/internal/kernel"
	"repro/internal/order"
	"repro/internal/sparse"
)

// Update is one delta batch for Solver.Update. Within a batch the
// additions apply before the removals (so a pair both added and
// removed ends up absent); the belief rows are independent of the
// topology delta. The whole batch commits as one epoch.
type Update struct {
	// AddEdges inserts undirected weighted edges (weights must be
	// positive, endpoints within the prepared node range — the node set
	// is fixed at preparation time).
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
	// DisableWarmStart makes Update re-solve from the Bˆ = 0 cold start
	// instead of the previous fixpoint (for benchmarking the warm-start
	// payoff; the served answer is the same either way).
	DisableWarmStart bool
}

// DefaultCompactionRatio is the default drift threshold: a quarter of
// the base's stored entries. Below it the stale layout's locality loss
// is marginal; above it the O(nnz) relayout amortizes.
const DefaultCompactionRatio = 0.25

// WithUpdatePolicy sets the dynamic plane's compaction and warm-start
// policy for Update; solvers that never see an Update ignore it.
func WithUpdatePolicy(p UpdatePolicy) Option { return func(c *config) { c.policy = p } }

// epochState is one immutable serving epoch — the unit the RCU pointer
// swaps.
type epochState struct {
	snap snapshot
}

// dynSolver is the epoch-versioned Solver every Prepare returns. The
// read path (Solve/SolveInto/SolveBatch/Stats) costs one atomic load
// over the wrapped snapshot; the update path serializes under mu.
type dynSolver struct {
	method Method
	cfg    config
	ho     *dense.Matrix
	n, k   int
	eps    float64

	// cur is the published epoch; the epoch-atomics lint rule pins
	// every touch to Load/Store/Swap/CompareAndSwap.
	//
	//lsbp:atomic
	cur atomic.Pointer[epochState]

	// Everything below mu is the updater's private state: the
	// maintained explicit beliefs (adopted on the first Update so purely
	// static solvers pay nothing), the adjacency table, the kernel
	// methods' maintained fixpoint, and the layout and compaction
	// bookkeeping.
	mu     sync.Mutex
	closed bool
	// srcExp is the prepared explicit beliefs, a private copy the first
	// Update adopts as exp (nil from then on).
	srcExp *beliefs.Residual
	exp    *beliefs.Residual // maintained explicit beliefs (caller order)
	// rows is the maintained adjacency table in layout order: the
	// current epoch's serving table, and the base of the next commit.
	rows    *sparse.RowBlocks
	kern    *kernelPlane // kernel methods only; nil until the first Update
	perm    order.Permutation
	info    solverInfo
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
	// explicit-row list, the commit's edits and changed rows.
	tlist   []int
	tmark   []bool
	erows   []int
	edits   []sparse.Edit
	changed []int
	// dur is the durable half (snapshot + WAL); nil without
	// WithDurability.
	dur *durability

	// Stats counters, read without mu by Stats(). The stage clocks
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

	statsMu sync.Mutex
	retired SolverStats // folded counters of retired epochs
}

// kernelPlane is the kernel methods' maintained state, in layout order.
type kernelPlane struct {
	// fix holds the maintained fixpoint (n×w beliefs, in the snapshot
	// operator's layout) and runs the residual re-solves; hasFix reports
	// that it holds a solve's iterate.
	fix    *kernel.ResidualEngine
	hasFix bool
	// residual reports that the residual plane may serve re-solves (a
	// non-rounds schedule with a convergence tolerance).
	residual bool
	// keepRounds reports that rounds serve the steady re-solves, so the
	// rounds engine stays in the snapshot's Solve pool between them.
	// Otherwise the rounds solves left to the dynamic plane (the first
	// fixpoint, a re-solve after a cancelled swap or a non-converged
	// one) close their engine, and a compaction closes the one its new
	// snapshot validated: no idle n×k engine is kept for them.
	keepRounds bool
	maxRelax   int
	// rm maps caller rows to the layout rows of fix and exp.
	rm rowMap
	// exp is the maintained explicit beliefs in layout order (n×w).
	exp []float64
	// tl is the layout-order touched-row scratch.
	tl []int32
}

// newDynSolver wraps the freshly prepared (or recovered) snapshot. The
// layout is lifted off the snapshot so updates commit its table without
// re-deriving anything from the problem. ho and exp must be private
// copies: the solver keeps them by reference.
func newDynSolver(m Method, cfg config, ho *dense.Matrix, exp *beliefs.Residual, inner snapshot) *dynSolver {
	b := inner.base()
	d := &dynSolver{method: m, cfg: cfg, ho: ho, srcExp: exp,
		info: b.solverInfo, perm: b.rm.perm, rows: b.rows}
	d.n, d.k, d.eps = d.info.n, d.info.k, d.info.eps
	d.cur.Store(&epochState{snap: inner})
	return d
}

// kernelMethod reports whether method m runs on the fused kernel (and
// so keeps a maintained fixpoint).
func kernelMethod(m Method) bool {
	return m == MethodLinBP || m == MethodLinBPStar || m == MethodFABP
}

// Solve, SolveInto, and SolveBatch delegate to the current epoch's
// snapshot. The retry handles the RCU race: a snapshot that retired
// between the pointer load and the solve's lock acquisition answers
// ErrClosed, and as long as the epoch pointer has moved on the call
// simply re-lands on the current snapshot. When the pointer has not
// moved the ErrClosed is real (the solver itself was closed).
func (d *dynSolver) Solve(ctx context.Context, e *beliefs.Residual) (*Result, error) {
	for {
		ep := d.cur.Load()
		res, err := ep.snap.Solve(ctx, e)
		if err != nil && errors.Is(err, errs.ErrClosed) && d.cur.Load() != ep {
			continue
		}
		return res, err
	}
}

func (d *dynSolver) SolveInto(ctx context.Context, dst, e *beliefs.Residual) (SolveInfo, error) {
	for {
		ep := d.cur.Load()
		info, err := ep.snap.SolveInto(ctx, dst, e)
		if err != nil && errors.Is(err, errs.ErrClosed) && d.cur.Load() != ep {
			continue
		}
		return info, err
	}
}

func (d *dynSolver) SolveBatch(ctx context.Context, reqs []Request) []Response {
	for {
		ep := d.cur.Load()
		resp := ep.snap.SolveBatch(ctx, reqs)
		// A closed snapshot fails every request with ErrClosed, so the
		// first response tells the whole story.
		if len(resp) > 0 && errors.Is(resp[0].Err, errs.ErrClosed) && d.cur.Load() != ep {
			continue
		}
		return resp
	}
}

func (d *dynSolver) Stats() SolverStats {
	// The epoch pointer, its counters, and the retired accumulator are
	// read under one lock, and a swap reads the retiring epoch's
	// counters and folds them in the same critical section, so the
	// totals can never dip: a reader sees either the old epoch's
	// counters as of a moment before the swap's fold, or the new epoch
	// with the fold applied.
	d.statsMu.Lock()
	ep := d.cur.Load()
	r := d.retired
	st := ep.snap.Stats()
	d.statsMu.Unlock()
	st.Solves += r.Solves
	st.Batches += r.Batches
	st.BatchRequests += r.BatchRequests
	st.Iterations += r.Iterations
	st.NotConverged += r.NotConverged
	st.Cancelled += r.Cancelled
	st.ResidualRowsRelaxed += r.ResidualRowsRelaxed
	st.ResidualPushes += r.ResidualPushes
	if r.ResidualQueuePeak > st.ResidualQueuePeak {
		st.ResidualQueuePeak = r.ResidualQueuePeak
	}
	st.Epoch = d.epochN.Load()
	st.Updates = d.updates.Load()
	st.Rebuilds = d.rebuilds.Load()
	st.OverlayNNZ = d.overlayNNZ.Load()
	st.UpdateValidateNS = d.validateNS.Load()
	st.UpdateWALNS = d.walNS.Load()
	st.UpdateCommitNS = d.commitNS.Load()
	st.UpdateResolveNS = d.resolveNS.Load()
	st.UpdatePublishNS = d.publishNS.Load()
	st.RowsCommitted = d.rowsCommitted.Load()
	st.Degraded = d.degraded.Load()
	return st
}

// foldRetired accumulates counters into the retired accumulator.
func (d *dynSolver) foldRetired(st SolverStats) {
	d.statsMu.Lock()
	d.foldRetiredLocked(st)
	d.statsMu.Unlock()
}

func (d *dynSolver) foldRetiredLocked(st SolverStats) {
	d.retired.Solves += st.Solves
	d.retired.Batches += st.Batches
	d.retired.BatchRequests += st.BatchRequests
	d.retired.Iterations += st.Iterations
	d.retired.NotConverged += st.NotConverged
	d.retired.Cancelled += st.Cancelled
	d.retired.ResidualRowsRelaxed += st.ResidualRowsRelaxed
	d.retired.ResidualPushes += st.ResidualPushes
	// The queue peak is a lifetime maximum, not a sum.
	if st.ResidualQueuePeak > d.retired.ResidualQueuePeak {
		d.retired.ResidualQueuePeak = st.ResidualQueuePeak
	}
}

// statsDelta returns the counter fields of post minus pre — the bumps
// in-flight solves landed on a retiring epoch while it drained.
func statsDelta(post, pre SolverStats) SolverStats {
	return SolverStats{
		Solves:        post.Solves - pre.Solves,
		Batches:       post.Batches - pre.Batches,
		BatchRequests: post.BatchRequests - pre.BatchRequests,
		Iterations:    post.Iterations - pre.Iterations,
		NotConverged:  post.NotConverged - pre.NotConverged,
		Cancelled:     post.Cancelled - pre.Cancelled,
		// The per-snapshot peak is monotone, so the drained snapshot's
		// final peak is the right value to fold (max, not difference).
		ResidualRowsRelaxed: post.ResidualRowsRelaxed - pre.ResidualRowsRelaxed,
		ResidualPushes:      post.ResidualPushes - pre.ResidualPushes,
		ResidualQueuePeak:   post.ResidualQueuePeak,
	}
}

// Close drains and closes the current epoch after any in-flight Update
// (including its compaction rebuild) finishes; retired epochs were
// already closed at their swap. Idempotent.
func (d *dynSolver) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return nil
	}
	d.closed = true
	err := d.cur.Load().snap.Close()
	if d.dur != nil {
		// After the epoch drains nothing reads the mapped snapshot
		// arrays; flush and release the durable half last.
		if derr := d.dur.close(); err == nil {
			err = derr
		}
	}
	return err
}

// Update applies the delta batch and re-solves the maintained problem,
// returning the refreshed result (warm-started from the previous
// fixpoint for LinBP/LinBP*/FABP). An empty Update{} just (re-)solves
// the maintained problem — the idiom for obtaining the initial
// fixpoint after Prepare. Updates serialize; readers keep serving the
// previous epoch until the commit swaps the snapshot. On a context
// error the delta is already committed (readers see it) and only the
// returned re-solve was aborted; the next Update re-solves from the
// maintained state.
func (d *dynSolver) Update(ctx context.Context, u Update) (*Result, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return nil, fmt.Errorf("core: %v solver: %w", d.method, errs.ErrClosed)
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
	seedable := d.lastConverged && !d.pendingSwap && !d.cfg.policy.DisableWarmStart
	d.lastConverged = false
	touched := d.collectTouched(u, rows)
	d.applyExplicitLocked(u.SetExplicit, rows)
	if d.applyTopologyLocked(u) || d.pendingSwap {
		if err := d.swapSnapshotLocked(ctx); err != nil {
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
// validateUpdate built) into the maintained beliefs: the caller-order
// matrix and, for the kernel methods, the layout-order copy the
// re-solves read.
func (d *dynSolver) applyExplicitLocked(set *beliefs.Residual, rows []int) {
	for _, v := range rows {
		row := set.Row(v)
		d.exp.Set(v, row)
		if kp := d.kern; kp != nil {
			kp.rm.setRow(kp.exp, v, row)
		}
	}
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
func (d *dynSolver) pm(i int) int {
	if d.perm == nil {
		return i
	}
	return d.perm[i]
}

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
			row := data[v*d.k : v*d.k+d.k]
			var sum float64
			nonzero := false
			for _, x := range row {
				// Most entries of a relabel batch are zero: finite, and
				// nothing to add, so they skip the checks below.
				if x == 0 {
					continue
				}
				// NaN must be rejected explicitly: it fails every
				// comparison, so a NaN row would sail through the |sum|
				// check and silently poison the fixpoint.
				if math.IsNaN(x) || math.IsInf(x, 0) {
					return nil, fmt.Errorf("core: update belief row %d holds %v: %w", v, x, errs.ErrNonFinite)
				}
				sum += x
				nonzero = true
			}
			if !nonzero {
				continue
			}
			if math.Abs(sum) > 1e-9 {
				return nil, fmt.Errorf("core: update belief row %d sums to %v, want 0: %w", v, sum, errs.ErrInvalidInput)
			}
			rows = append(rows, v)
		}
	}
	d.erows = rows
	return rows, nil
}

// initDynState lazily sets up the mutable dynamic state on the first
// Update, so a solver that is never updated pays no copy: it adopts the
// prepared explicit beliefs as the maintained ones, and for the kernel
// methods builds the maintained fixpoint engine.
func (d *dynSolver) initDynState() error {
	if d.exp != nil {
		return nil
	}
	if kernelMethod(d.method) {
		d.exp = d.srcExp
		kp, err := d.newKernelPlane(d.cur.Load().snap.(*kernelSolver))
		if err != nil {
			d.exp = nil
			return err
		}
		d.kern = kp
	}
	d.exp, d.srcExp = d.srcExp, nil
	d.baseNNZ = d.rows.NNZ()
	return nil
}

// newKernelPlane builds the maintained-fixpoint engine on snap's table
// from its operator, and seeds its explicit beliefs from d.exp (mapped
// into snap's layout).
func (d *dynSolver) newKernelPlane(snap *kernelSolver) (*kernelPlane, error) {
	residual := d.cfg.schedule != ScheduleRounds && d.cfg.tol >= 0
	op := snap.op
	tol := op.tol
	if !(tol > 0) {
		// A fixed-round configuration never runs the residual plane; the
		// engine then only holds the maintained state.
		tol = math.SmallestNonzeroFloat64
	}
	fix, err := kernel.NewResidual(kernel.Config{Rows: snap.rows, H: op.h, EchoH: op.echoH, SymmetricA: true}, tol)
	if err != nil {
		return nil, err
	}
	kp := &kernelPlane{
		fix:      fix,
		residual: residual,
		// ScheduleAuto relaxes only localized warm re-solves, so without
		// warm starts rounds serve every one.
		keepRounds: !residual || (d.cfg.schedule == ScheduleAuto && d.cfg.policy.DisableWarmStart),
		maxRelax:   op.maxIter * d.n,
		rm:         snap.rm,
		exp:        make([]float64, d.n*op.w),
		tl:         make([]int32, 0, d.n),
	}
	kp.rm.in(kp.exp, d.exp.Matrix().Data(), 1, 0)
	return kp, nil
}

// compactionRatio resolves the policy threshold.
func (d *dynSolver) compactionRatio() float64 {
	if d.cfg.policy.CompactionRatio > 0 {
		return d.cfg.policy.CompactionRatio
	}
	return DefaultCompactionRatio
}

// swapSnapshotLocked publishes the committed table as the next epoch:
// the successor snapshot on the committed table (engines moved over,
// none built), or — once the drift crosses the compaction threshold —
// a full relayout. The context is checked before the swap: a
// cancelled Update returns without publishing (the delta stays in the
// maintained table and the next Update retries the swap).
func (d *dynSolver) swapSnapshotLocked(ctx context.Context) error {
	if cerr := ctx.Err(); cerr != nil {
		d.pendingSwap = true
		return fmt.Errorf("core: update commit aborted before epoch swap: %w", cerr)
	}
	compact := float64(d.rows.DiffCells()) >= d.compactionRatio()*float64(d.baseNNZ)
	var snap snapshot
	var err error
	switch {
	case compact:
		snap, err = d.compactLocked()
	case d.kern != nil:
		snap = d.cur.Load().snap.(*kernelSolver).successor(d.rows, d.info)
	default:
		snap, err = newGraphSolver(d.rows, d.ho, d.info, d.cfg, d.perm)
	}
	if err != nil {
		// The old epoch keeps serving; the delta stays in the maintained
		// table for the next commit attempt.
		d.pendingSwap = true
		return err
	}
	d.pendingSwap = false
	if compact {
		d.rebuilds.Add(1)
	}
	d.publishLocked(snap)
	d.overlayNNZ.Store(int64(d.rows.DiffCells()))
	if compact && d.dur != nil {
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

// publishLocked swaps snap in as the current epoch and retires the old
// one — its Close drains the in-flight solves, after which its
// counters fold into the lifetime accumulator.
func (d *dynSolver) publishLocked(snap snapshot) {
	old := d.cur.Load()
	// Read and fold the retiring epoch's counters in the same critical
	// section as the pointer swap (see Stats), so the lifetime totals
	// never dip while the old epoch drains; the bumps that land during
	// the drain are folded as a delta once Close returns.
	d.statsMu.Lock()
	pre := old.snap.Stats()
	d.cur.Store(&epochState{snap: snap})
	d.foldRetiredLocked(pre)
	d.statsMu.Unlock()
	d.epochN.Add(1)
	old.snap.Close()
	d.foldRetired(statsDelta(old.snap.Stats(), pre))
}

// relayout replays Prepare's layout decisions on a caller-order
// adjacency: the auto εH derivation (when configured; info.eps carries
// the result), the reordering strategy, and the locality diagnostics.
// It changes no solver state — the caller installs the returned layout
// once everything built on it succeeded.
func (d *dynSolver) relayout(a *sparse.CSR) (solverInfo, order.Permutation, error) {
	info := d.info
	if d.cfg.autoEps && d.method != MethodSBP {
		// Compaction already replays the layout on the current graph;
		// re-derive the auto εH there too, so a long insert-heavy
		// stream recovers the spectral safety margin instead of serving
		// the stale prepare-time scale. The new epoch's εH is what
		// Stats().EpsilonH reports from here on.
		eps, err := autoEpsilonCSR(a, d.ho, d.method == MethodLinBP || d.method == MethodBP || d.method == MethodFABP)
		if err != nil {
			return info, nil, fmt.Errorf("core: compaction auto-εH re-derivation: %w", err)
		}
		info.eps = eps
	}
	perm, chosen := order.Compute(d.cfg.reorder, a)
	info.ordering = chosen
	info.bandBefore = order.Bandwidth(a, nil)
	info.bandAfter = info.bandBefore
	if perm != nil {
		info.bandAfter = order.Bandwidth(a, perm)
	}
	return info, perm, nil
}

// installLayout adopts a compaction's layout: the permutation, εH
// (latching epsRederived when it moved), and the new drift base.
func (d *dynSolver) installLayout(info solverInfo, perm order.Permutation, rows *sparse.RowBlocks) {
	if info.eps != d.eps {
		d.eps = info.eps
		d.epsRederived = true
	}
	d.info, d.perm, d.rows, d.baseNNZ = info, perm, rows, rows.NNZ()
}

// compactLocked is the compaction: flatten the table, undo the layout
// permutation, replay the layout decisions exactly as Prepare would,
// and rebuild the snapshot on the fresh layout — for the kernel methods
// also the maintained fixpoint engine and the layout-order explicit
// beliefs, into which the maintained beliefs carry over through the
// permutation change. On error nothing changes.
func (d *dynSolver) compactLocked() (snapshot, error) {
	a := d.rows.Flatten()
	if d.perm != nil {
		a = a.Permute(d.perm.Inverse())
	}
	info, perm, err := d.relayout(a)
	if err != nil {
		return nil, err
	}
	snap, err := newSnapshot(d.method, d.ho, info, d.cfg, a, perm, perm)
	if err != nil {
		return nil, err
	}
	if old := d.kern; old != nil {
		ks := snap.(*kernelSolver)
		kp, err := d.newKernelPlane(ks)
		if err != nil {
			snap.Close()
			return nil, err
		}
		if !kp.keepRounds {
			// Close the rounds engine the new snapshot validated.
			ks.chunks[0].closeIdle()
		}
		if old.hasFix {
			// Carry the maintained fixpoint into the new layout order.
			old.rm.moveTo(kp.rm, kp.fix.Beliefs(), old.fix.Beliefs())
			kp.hasFix = true
		}
		d.kern = kp
	}
	d.installLayout(info, perm, snap.base().rows)
	return snap, nil
}

// resolveGraphLocked re-solves BP and SBP cold on the current epoch
// (they keep no warm state).
func (d *dynSolver) resolveGraphLocked(ctx context.Context) (*Result, error) {
	start := time.Now()
	res, err := d.cur.Load().snap.Solve(ctx, d.exp)
	d.resolveNS.Add(int64(time.Since(start)))
	return res, err
}

// resolveKernelLocked re-solves the maintained problem on the current
// epoch, in place on the maintained fixpoint: warm unless warm starts
// are disabled or no fixpoint exists yet. Under a residual schedule a
// seedable (localized) re-solve relaxes from exactly the touched rows;
// everything else seeds fully (always under ScheduleResidual, only
// when localized under ScheduleAuto — a full residual seed costs a
// round and converges no faster than warm rounds, so Auto prefers
// rounds there). The result is one caller-order gather of the
// maintained beliefs into a fresh matrix.
func (d *dynSolver) resolveKernelLocked(ctx context.Context, seedable bool, touched []int) (*Result, error) {
	kp := d.kern
	snap := d.cur.Load().snap.(*kernelSolver)
	sb := &snap.solverBase
	if err := kp.fix.Rebind(d.rows); err != nil {
		return nil, err
	}
	start := time.Now()
	warm := kp.hasFix && !d.cfg.policy.DisableWarmStart
	localized := seedable && warm
	var info SolveInfo
	var err error
	residual := kp.residual && (localized || d.cfg.schedule == ScheduleResidual)
	if residual {
		sb.solves.Add(1)
		if err = sb.admitCtx(ctx); err == nil {
			switch {
			case !warm:
				kp.fix.SeedExplicit(kp.exp)
			case localized:
				tl := kp.tl[:0]
				for _, id := range touched {
					tl = append(tl, int32(d.pm(id)))
				}
				kp.tl = tl
				kp.fix.SeedResume(kp.exp, tl)
			default:
				kp.fix.SeedResume(kp.exp, nil)
			}
			relaxed, peak, maxResid, converged, runErr := kp.fix.Run(ctx, kp.maxRelax)
			sb.pushes.Add(int64(kp.fix.Pushes()))
			info, err = sb.record(residualInfo(d.n, relaxed, peak, maxResid, converged), runErr)
		}
	} else {
		var from []float64
		if warm {
			from = kp.fix.Beliefs()
		}
		// The rounds engine copies the start into its own state before
		// the first round, so the maintained beliefs can receive the
		// result in place.
		info, err = snap.solveLayout(ctx, kp.fix.Beliefs(), kp.exp, from, kp.keepRounds)
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
