// The prepared-solver serving surface: Prepare builds a Solver that
// preprocesses everything derivable from the problem's fixed parts —
// the CSR adjacency, the weighted degrees, the flattened couplings,
// kernel workspaces, BP's directed-edge layout, SBP's geodesic ordering
// — once, and then answers many solves for changing explicit beliefs.
// This is the "prepare once, solve many" shape the paper's
// data-management pitch implies: one network, heavy repeated
// classification traffic.
//
// Solvers are safe for concurrent use: the prepared state (adjacency,
// degrees, couplings, layouts) is immutable and shared, while the
// mutable per-solve workspaces — kernel engines, BP message buffers,
// SBP runners, permutation scratch — are handed out through a pooled
// free list (statePool), so N goroutines can hammer one shared Solver
// with zero steady-state allocations on the SolveInto path. Stats
// reads atomic counters; Close is idempotent, waits for in-flight
// solves, and every solve after it fails with ErrClosed.
package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/beliefs"
	"repro/internal/bp"
	"repro/internal/coupling"
	"repro/internal/dense"
	"repro/internal/durable"
	"repro/internal/errs"
	"repro/internal/fabp"
	"repro/internal/graph"
	"repro/internal/kernel"
	"repro/internal/linbp"
	"repro/internal/order"
	"repro/internal/sbp"
	"repro/internal/sparse"
)

// Option configures Prepare (and Open). Unset options select the
// per-method defaults.
type Option func(*config)

type config struct {
	workers  int
	maxIter  int
	tol      float64
	autoEps  bool
	reorder  Reordering
	schedule Schedule
	policy   UpdatePolicy
	durFS    durable.FS
	durDir   string
	durPol   durable.Policy
	durSet   bool
}

// Reordering selects the prepare-time graph layout strategy; see
// WithReordering. The zero value is ReorderAuto.
type Reordering = order.Strategy

// The selectable reorderings (re-exported from internal/order).
const (
	// ReorderAuto evaluates RCM and the degree sort with a cheap
	// edge-span heuristic and keeps the natural order unless one of
	// them wins; small graphs (below order.AutoMinNodes) always keep
	// the natural order. The default.
	ReorderAuto = order.StrategyAuto
	// ReorderRCM forces reverse Cuthill–McKee.
	ReorderRCM = order.StrategyRCM
	// ReorderDegree forces the descending-degree hub-packing sort.
	ReorderDegree = order.StrategyDegree
	// ReorderNone keeps the caller's node order.
	ReorderNone = order.StrategyNone
)

// ParseReordering maps the flag spellings auto|rcm|degree|none onto
// Reordering values.
func ParseReordering(name string) (Reordering, error) { return order.ParseStrategy(name) }

// WithWorkers sets the goroutine count of the fused kernel's span
// pool: each rounds pass splits the rows into nnz-balanced spans that
// the workers share (for LinBP, LinBP* and FABP: single solves,
// batches, and Update's rounds re-solves). 0 or 1 selects the serial
// kernel. BP and SBP ignore it, and so does the residual plane, which
// is sequential.
func WithWorkers(n int) Option { return func(c *config) { c.workers = n } }

// WithMaxIter bounds the update rounds of iterative methods
// (method-specific default when unset or 0).
func WithMaxIter(n int) Option { return func(c *config) { c.maxIter = n } }

// WithTol sets the convergence tolerance: iteration stops once no
// belief (or BP message) entry changes by more than tol between
// rounds. 0 selects the method default; negative forces exactly
// MaxIter rounds (the paper's timing setup).
func WithTol(tol float64) Option { return func(c *config) { c.tol = tol } }

// WithAutoEpsilonH derives the coupling scale from the exact
// convergence criterion (half the Lemma 8 threshold, the paper's
// Section 7 recommendation) instead of using Problem.EpsilonH. BP and
// FABP borrow LinBP's criterion; SBP is εH-invariant and ignores it.
// The chosen value is reported by Stats().EpsilonH.
func WithAutoEpsilonH() Option { return func(c *config) { c.autoEps = true } }

// WithReordering selects the prepare-time node reordering of the graph
// layout optimizer (ReorderAuto when unset): the adjacency structure is
// relabeled once for cache locality, every engine the solver prepares
// runs over the relabeled layout, and explicit beliefs/results are
// permuted on the way in/out so callers keep their node ids — with no
// extra steady-state allocations on SolveInto or SolveBatch. Stats()
// reports the ordering chosen and the bandwidth before/after.
func WithReordering(r Reordering) Option { return func(c *config) { c.reorder = r } }

// Schedule selects the execution schedule of the kernel-backed methods
// (LinBP, LinBP*, FABP); see WithSchedule. The zero value is
// ScheduleRounds. BP and SBP have no alternative schedule and ignore
// the option.
type Schedule int

const (
	// ScheduleRounds runs synchronous Jacobi rounds: every update pass
	// advances all n rows once, regardless of where the remaining error
	// lives. The default, and the only schedule SolveBatch's fused
	// chunks use.
	ScheduleRounds Schedule = iota
	// ScheduleResidual runs the residual-scheduled push plane: rows are
	// relaxed in largest-residual-first order and the solve costs what
	// it touches, so localized inputs (and the dynamic plane's deltas)
	// converge without full passes. The fixpoint matches the rounds
	// schedule within the tolerance budget ‖(I−M)⁻¹‖·tol — a tolerance
	// band, never bitwise equality — and requires a positive tolerance
	// (the schedule has no fixed-round mode, so it composes with
	// WithTol(0) = method default but not with a negative tolerance).
	ScheduleResidual
	// ScheduleAuto picks per solve: synchronous rounds for cold solves
	// and batches (where every row carries error anyway), the residual
	// plane for the dynamic plane's localized Update re-solves seeded
	// from exactly the rows a delta touched.
	ScheduleAuto
)

// String returns the flag spelling of the schedule.
func (s Schedule) String() string {
	switch s {
	case ScheduleRounds:
		return "rounds"
	case ScheduleResidual:
		return "residual"
	case ScheduleAuto:
		return "auto"
	}
	return fmt.Sprintf("Schedule(%d)", int(s))
}

// ParseSchedule maps the flag spellings rounds|residual|auto onto
// Schedule values.
func ParseSchedule(name string) (Schedule, error) {
	switch name {
	case "rounds":
		return ScheduleRounds, nil
	case "residual":
		return ScheduleResidual, nil
	case "auto":
		return ScheduleAuto, nil
	}
	return 0, fmt.Errorf("core: unknown schedule %q (want rounds, residual, or auto): %w", name, errs.ErrInvalidInput)
}

// WithSchedule selects the execution schedule for the kernel-backed
// methods. Stats().Schedule reports the choice; SolveInfo.RowsRelaxed
// and SolveInfo.QueuePeak report the residual plane's per-solve work.
func WithSchedule(s Schedule) Option { return func(c *config) { c.schedule = s } }

// SolveInfo describes one completed solve on the serving path.
type SolveInfo struct {
	// Iterations is the number of update rounds executed (for SBP, the
	// number of geodesic levels propagated).
	Iterations int
	// Converged reports whether the fixpoint was reached within the
	// tolerance. SBP always converges.
	Converged bool
	// Delta is the final maximum belief/message change (0 for SBP).
	// For a residual-scheduled solve it is the largest residual
	// magnitude remaining (at most the tolerance when converged).
	Delta float64
	// RowsRelaxed is the number of row relaxations a residual-scheduled
	// solve executed (0 under the rounds schedule); Iterations then
	// reports the round-equivalent ⌈RowsRelaxed/n⌉, so iteration budgets
	// and counters stay comparable across schedules.
	RowsRelaxed int
	// QueuePeak is the residual queue's high-water population during
	// the solve (0 under the rounds schedule) — how much of the graph
	// the solve's frontier covered at its widest.
	QueuePeak int
}

// Request is one unit of work for Solver.SolveBatch.
type Request struct {
	// E holds the explicit residual beliefs of this request (n×k).
	E *beliefs.Residual
	// Dst, when non-nil, receives the final residual beliefs (n×k,
	// overwritten), so steady-state batches avoid the belief-matrix
	// allocations. When nil a fresh matrix is allocated for the
	// response.
	Dst *beliefs.Residual
}

// Response is the outcome of one batch request.
type Response struct {
	// Beliefs holds the final residual beliefs (Request.Dst when that
	// was set). nil when Err prevented the solve from running.
	Beliefs *beliefs.Residual
	// Info carries the solve diagnostics. Requests batched into the
	// same fused chunk share rounds, so they report the chunk's
	// iteration count and maximum delta.
	Info SolveInfo
	// Err is nil on success, wraps ErrNotConverged when the iteration
	// budget ran out (Beliefs then holds the last iterate), wraps
	// ErrDimensionMismatch for ill-shaped requests, or carries the
	// context error when the batch was cancelled.
	Err error
}

// SolverStats is a snapshot of a Solver's configuration and lifetime
// counters, for serving observability. It is safe to call concurrently
// with solves; the counters are read atomically.
type SolverStats struct {
	// Method is the prepared inference method.
	Method Method
	// N and K are the problem dimensions.
	N, K int
	// Workers is the configured kernel worker count (0 = serial).
	Workers int
	// EpsilonH is the effective coupling scale (after WithAutoEpsilonH).
	EpsilonH float64
	// Ordering is the node reordering the prepare-time layout
	// optimizer chose — always a concrete strategy (rcm, degree, or
	// none), never auto.
	Ordering Reordering
	// BandwidthBefore and BandwidthAfter are the adjacency bandwidths
	// under the natural and the chosen ordering (equal when Ordering
	// is none).
	BandwidthBefore, BandwidthAfter int
	// Schedule is the execution schedule of the kernel-backed methods
	// (always ScheduleRounds for BP and SBP, which have no alternative
	// plane).
	Schedule Schedule
	// Epoch is the number of snapshot swaps the dynamic plane has
	// performed (0 until the first topology Update); Updates counts
	// committed Update calls, Rebuilds the subset that triggered a
	// compaction relayout (the reordering replayed on the current
	// graph). OverlayNNZ is the number of adjacency cells whose value
	// currently differs from the compaction base (the prepared layout or
	// the last relayout) — an edge inserted and deleted again leaves no
	// difference — and resets to 0 at every compaction.
	Epoch, Updates, Rebuilds int64
	OverlayNNZ               int64
	// UpdateValidateNS, UpdateWALNS, UpdateCommitNS, UpdateResolveNS,
	// and UpdatePublishNS accumulate the wall time Update spent per
	// stage, in call order: validation (the batch checks and the
	// SetExplicit scan, plus the first Update's one-time set-up of the
	// maintained state), the write-ahead log append and its sync (0
	// without durability), the commit (explicit-belief apply, adjacency
	// commit, and epoch swap), the re-solve, and the publish (the gather
	// of the maintained fixpoint into the returned result). Together
	// they cover a successful Update except its wait for the update
	// lock. RowsCommitted counts the adjacency rows the commits
	// rewrote. Dividing by Updates gives the per-Update layer costs.
	UpdateValidateNS, UpdateWALNS                    int64
	UpdateCommitNS, UpdateResolveNS, UpdatePublishNS int64
	RowsCommitted                                    int64
	// Solves counts completed Solve/SolveInto calls; BatchRequests
	// counts requests served through SolveBatch (Batches calls) for
	// every method — batch-internal solves are not double-counted
	// into Solves.
	Solves, Batches, BatchRequests int64
	// Iterations accumulates the update rounds the engine executed —
	// the work done, so requests fused into one chunk contribute
	// their shared rounds once.
	Iterations int64
	// NotConverged counts solves that exhausted the iteration budget;
	// Cancelled counts solves aborted by context.
	NotConverged, Cancelled int64
	// ResidualRowsRelaxed accumulates the row relaxations executed by
	// residual-scheduled solves (the plane's unit of work, the analogue
	// of Iterations·n for rounds); ResidualQueuePeak is the largest
	// queue population any single residual-scheduled solve reached over
	// the solver's lifetime. ResidualPushes accumulates the neighbor
	// pushes of those relaxations (each adds its adjacency row length),
	// the plane's per-entry work: UpdateResolveNS/ResidualPushes is the
	// cost per push of an Update-only stream. All three stay 0 under
	// ScheduleRounds.
	ResidualRowsRelaxed int64
	ResidualQueuePeak   int64
	ResidualPushes      int64
	// BatchHint is the number of requests the method fuses into one
	// SolveBatch kernel chunk (always ≥ 1; 1 for methods that serve
	// batches sequentially). A front end coalescing concurrent requests
	// gets the full fused-kernel win at multiples of this size.
	BatchHint int
	// Degraded reports that the durable plane failed stickily (broken
	// write-ahead log): every further Update is rejected while solves
	// keep serving the last committed state. Always false for solvers
	// prepared without durability.
	Degraded bool
}

// Solver is a prepared inference engine over one problem configuration
// (graph + coupling + εH): construct it once with Prepare (or the
// per-method PrepareBP/PrepareLinBP/PrepareSBP/PrepareFABP wrappers in
// the facade), then issue many solves for changing explicit beliefs.
// All methods serve through this one interface with their preprocessed
// state reused across solves.
//
// The solver is epoch-versioned: the graph fixed at preparation time
// is the first epoch, and Update evolves it — edge insertions and
// deletions, explicit-belief changes — without re-preparing from
// scratch. Each committed topology update publishes a fresh immutable
// snapshot on the next copy-on-write epoch of the layout-order
// adjacency table (the kernel methods serve it with the previous
// epoch's engines, rebound to it) and swaps it in atomically; solves
// already in flight finish on the snapshot they started on, new solves
// land on the new one, and no reader ever observes a half-updated
// graph.
//
// Solvers are safe for concurrent use: any number of goroutines may
// call Solve, SolveInto, SolveBatch, Update, and Stats on one shared
// Solver (updates serialize internally). Per-solve workspaces are
// recycled through per-epoch pools, so the SolveInto serving path
// stays allocation-free in steady state no matter how many goroutines
// share the solver. Close is idempotent, waits for in-flight solves
// and a pending update (including its compaction rebuild) to drain,
// and fails later solves with ErrClosed.
type Solver interface {
	// Solve runs the method for the explicit residual beliefs e and
	// allocates a fresh result.
	// Non-convergence is reported as an error wrapping ErrNotConverged
	// with the result still returned; cancellation via ctx returns the
	// context error within one kernel round.
	Solve(ctx context.Context, e *beliefs.Residual) (*Result, error)
	// SolveInto is the serving path: it writes the final residual
	// beliefs into dst (n×k, overwritten) and skips the result
	// allocation. For the kernel-backed methods
	// (LinBP, LinBP*, FABP) steady-state calls allocate nothing.
	// Concurrent callers must pass distinct dst matrices.
	SolveInto(ctx context.Context, dst, e *beliefs.Residual) (SolveInfo, error)
	// SolveBatch answers independent requests over the shared prepared
	// state, amortizing workspace acquisition across the batch; the
	// LinBP/LinBP* implementation additionally fuses requests into
	// multi-block kernel chunks that traverse the adjacency structure
	// once per round for the whole batch. The returned slice is owned
	// by the caller (it is freshly allocated per call, the one
	// steady-state allocation of the batch path — a requirement of
	// concurrent batch callers).
	SolveBatch(ctx context.Context, reqs []Request) []Response
	// Update applies a graph/belief delta to the solver — see the
	// Update type for the delta surface and the UpdatePolicy for the
	// compaction and warm-start knobs — re-solves the maintained
	// problem (warm-started from the previous fixpoint for the
	// kernel-backed methods), and returns the refreshed result.
	// Updates serialize against each other; concurrent solves keep
	// serving the previous snapshot until the swap and are never
	// interrupted.
	Update(ctx context.Context, u Update) (*Result, error)
	// Stats returns a snapshot of configuration and serving counters;
	// safe to call concurrently with solves.
	Stats() SolverStats
	// Close releases pooled resources after waiting for in-flight
	// solves to complete. It is idempotent; any solve after Close
	// fails with ErrClosed.
	Close() error
}

// snapshot is the immutable serving surface of one epoch — the Solver
// contract minus Update. The per-method solver implementations below
// are snapshots; Prepare wraps the initial one in the epoch-versioned
// dynamic solver (dynamic.go), which swaps snapshots as updates
// commit.
type snapshot interface {
	Solve(ctx context.Context, e *beliefs.Residual) (*Result, error)
	SolveInto(ctx context.Context, dst, e *beliefs.Residual) (SolveInfo, error)
	SolveBatch(ctx context.Context, reqs []Request) []Response
	Stats() SolverStats
	Close() error
	// base returns the snapshot's shared identity and layout.
	base() *solverBase
}

// newSnapshot lays out the adjacency a and builds method m's snapshot
// on it: a is relabeled by relabel (nil keeps its order) into the
// layout whose caller-to-layout map is perm. Prepare and compaction
// pass a caller-order matrix with relabel = perm; Open passes the
// stored layout-order matrix with relabel = nil.
func newSnapshot(m Method, ho *dense.Matrix, info solverInfo, cfg config, a *sparse.CSR, relabel, perm order.Permutation) (snapshot, error) {
	if !kernelMethod(m) {
		rows, err := layoutRows(a, false, relabel)
		if err != nil {
			return nil, err
		}
		s, err := newGraphSolver(rows, ho, info, cfg, perm)
		if err != nil {
			return nil, err
		}
		return s, nil
	}
	op, err := kernelOperator(m, ho, info.eps, info.k, cfg)
	if err != nil {
		return nil, err
	}
	rows, err := layoutRows(a, op.echo, relabel)
	if err != nil {
		return nil, err
	}
	s, err := newKernelSolver(op, info, rows, perm)
	if err != nil {
		return nil, err
	}
	return s, nil
}

// Prepare validates the problem once and builds a prepared Solver for
// the method. The problem's Graph, Ho, and EpsilonH are fixed at
// preparation time. Explicit seeds the maintained problem that Update
// evolves (and a durable Prepare checkpoints): Prepare copies it, so
// later changes to the caller's matrix reach neither. It may be a
// zero matrix for pure serving use, since Solve takes its explicit
// beliefs per call.
func Prepare(p *Problem, m Method, opts ...Option) (Solver, error) {
	var cfg config
	for _, o := range opts {
		if o != nil {
			o(&cfg)
		}
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	switch m {
	case MethodBP, MethodLinBP, MethodLinBPStar, MethodSBP, MethodFABP:
	default:
		return nil, fmt.Errorf("core: unknown method %v: %w", m, errs.ErrInvalidInput)
	}
	switch cfg.schedule {
	case ScheduleRounds, ScheduleResidual, ScheduleAuto:
	default:
		return nil, fmt.Errorf("core: unknown schedule %v: %w", cfg.schedule, errs.ErrInvalidInput)
	}
	if cfg.schedule == ScheduleResidual && cfg.tol < 0 {
		return nil, fmt.Errorf("core: the residual schedule needs a convergence tolerance (a negative WithTol forces fixed rounds): %w", errs.ErrInvalidInput)
	}
	eps := p.EpsilonH
	if cfg.autoEps && m != MethodSBP {
		var err error
		eps, err = autoEpsilon(p.Graph, p.Ho, m == MethodLinBP || m == MethodBP || m == MethodFABP)
		if err != nil {
			return nil, err
		}
	}
	base := solverInfo{method: m, n: p.Graph.N(), k: p.K(), workers: cfg.workers, eps: eps}
	switch m {
	case MethodLinBP, MethodLinBPStar, MethodFABP:
		base.schedule = cfg.schedule
	default:
		// BP and SBP have no residual plane; they ignore the schedule
		// the way they ignore Workers.
	}

	// The layout optimizer runs once per prepared solver: resolve the
	// reordering strategy on the adjacency structure and record the
	// locality diagnostics. perm is nil for the natural order.
	a := p.Graph.Adjacency()
	perm, chosen := order.Compute(cfg.reorder, a)
	base.ordering = chosen
	base.bandBefore = order.Bandwidth(a, nil)
	base.bandAfter = base.bandBefore
	if perm != nil {
		base.bandAfter = order.Bandwidth(a, perm)
	}

	// The solver keeps private copies of the problem parts it reads
	// after Prepare returns: the explicit beliefs (adopted by the first
	// Update) and the coupling (every snapshot rebuild, compaction, and
	// checkpoint). A caller reusing either then changes neither the
	// served nor the recovered problem. Of the graph, every method keeps
	// only the layout table built from it here.
	ho := p.Ho.Clone()
	inner, err := newSnapshot(m, ho, base, cfg, a, perm, perm)
	if err != nil {
		return nil, err
	}
	// Every prepared solver is served through the epoch-versioned
	// dynamic plane; a solver that never sees an Update pays only an
	// atomic pointer load per solve for it.
	d := newDynSolver(m, cfg, ho, p.Explicit.Clone(), inner)
	if cfg.durDir != "" {
		// Publish the prepared state before handing the solver out, so
		// a crash at any later point recovers at least the initial
		// fixpoint problem.
		if err := d.initDurability(); err != nil {
			d.Close()
			return nil, err
		}
	}
	return d, nil
}

// autoEpsilon is AutoEpsilonH without the method restriction: half the
// exact Lemma 8 threshold for the chosen echo setting.
func autoEpsilon(g *graph.Graph, ho *dense.Matrix, echo bool) (float64, error) {
	return autoEpsilonCSR(g.Adjacency(), ho, echo)
}

// autoEpsilonCSR is autoEpsilon on a caller-order adjacency matrix —
// the compaction path, which keeps no graph.
func autoEpsilonCSR(a *sparse.CSR, ho *dense.Matrix, echo bool) (float64, error) {
	eps, err := linbp.MaxEpsilonHCSR(a, ho, echo, true)
	if err != nil {
		return 0, err
	}
	if math.IsInf(eps, 1) {
		return 1, nil
	}
	return eps / 2, nil
}

// statePool hands out per-solve workspaces from a strong-reference
// free list — deliberately not a sync.Pool: the pooled states own real
// resources (the span pool's worker goroutines, message buffers), and a
// GC-evicting pool would strand those engines in the Close registry
// while cache misses build ever more — an unbounded leak of memory and
// goroutines under sustained traffic. The free list keeps built states
// reusable until Close, so steady-state get/put allocate nothing and
// the mutex push/pop is noise against a solve — but the retained
// population is bounded by the maxFree high-water cap, not by peak
// concurrency: a burst of N concurrent solves builds N states, and the
// ones beyond the cap are destroyed as they come back instead of
// pinning their memory (and their worker goroutines) forever.
type statePool[T comparable] struct {
	mu      sync.Mutex
	free    []T
	all     []T
	build   func() (T, error)
	destroy func(T) // releases a state's resources; nil = GC suffices
	maxFree int     // high-water cap on the idle free list
}

// defaultPoolFreeCap bounds how many idle per-solve states a pool
// retains: enough that every core can be solving concurrently with
// headroom for handoff jitter, small enough that a one-off burst of
// thousands of goroutines does not permanently pin thousands of
// kernel workspaces.
func defaultPoolFreeCap() int {
	if c := 2 * runtime.GOMAXPROCS(0); c > 4 {
		return c
	}
	return 4
}

func newStatePool[T comparable](build func() (T, error)) *statePool[T] {
	return &statePool[T]{build: build, maxFree: defaultPoolFreeCap()}
}

// withDestroy registers the release hook invoked for states dropped at
// the high-water cap and for every live state at closeAll.
func (p *statePool[T]) withDestroy(f func(T)) *statePool[T] {
	p.destroy = f
	return p
}

// get returns a pooled state or builds a fresh one.
//
//lsbp:hotpath
func (p *statePool[T]) get() (T, error) {
	p.mu.Lock()
	if n := len(p.free); n > 0 {
		v := p.free[n-1]
		var zero T
		p.free[n-1] = zero
		p.free = p.free[:n-1]
		p.mu.Unlock()
		return v, nil
	}
	p.mu.Unlock()
	v, err := p.build()
	if err != nil {
		var zero T
		return zero, err
	}
	p.mu.Lock()
	p.all = append(p.all, v)
	p.mu.Unlock()
	return v, nil
}

// put returns a state for reuse, or destroys it when the free list is
// already at its high-water cap — the path that lets memory (and
// locked worker threads) return to the system after a concurrency
// burst instead of being pinned until Close.
//
//lsbp:hotpath
func (p *statePool[T]) put(v T) {
	p.mu.Lock()
	if len(p.free) < p.maxFree {
		p.free = append(p.free, v)
		p.mu.Unlock()
		return
	}
	p.dropLocked(v)
	p.mu.Unlock()
	if p.destroy != nil {
		p.destroy(v)
	}
}

// dropLocked removes v from the Close registry so a capped-out state
// is destroyed exactly once (here, not again at closeAll). It sits on
// put's annotated path but runs only on cold over-cap evictions.
//
//lsbp:hotpath
func (p *statePool[T]) dropLocked(v T) {
	for i, x := range p.all {
		if x == v {
			last := len(p.all) - 1
			p.all[i] = p.all[last]
			var zero T
			p.all[last] = zero
			p.all = p.all[:last]
			return
		}
	}
}

// discard takes v, a state get returned, out of the pool for good and
// destroys it, instead of returning it for reuse.
func (p *statePool[T]) discard(v T) {
	p.mu.Lock()
	p.dropLocked(v)
	p.mu.Unlock()
	if p.destroy != nil {
		p.destroy(v)
	}
}

// moveIdle transfers every idle state of from into to after rebind
// succeeds on it (a state that fails to rebind is destroyed): how an
// epoch successor inherits its predecessor's engines instead of
// building new ones. The moved states leave from's Close registry, so
// from's closeAll does not destroy them.
func moveIdle[T comparable](from, to *statePool[T], rebind func(T) error) {
	for _, v := range from.takeIdle() {
		if err := rebind(v); err != nil {
			if from.destroy != nil {
				from.destroy(v)
			}
			continue
		}
		to.mu.Lock()
		to.free = append(to.free, v)
		to.all = append(to.all, v)
		to.mu.Unlock()
	}
}

// takeIdle empties the free list and takes its states out of the Close
// registry: the caller owns them.
func (p *statePool[T]) takeIdle() []T {
	p.mu.Lock()
	defer p.mu.Unlock()
	idle := p.free
	p.free = nil
	for _, v := range idle {
		p.dropLocked(v)
	}
	return idle
}

// closeIdle destroys every idle state.
func (p *statePool[T]) closeIdle() {
	for _, v := range p.takeIdle() {
		if p.destroy != nil {
			p.destroy(v)
		}
	}
}

// idle reports the current free-list depth (for shrink tests).
func (p *statePool[T]) idle() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.free)
}

// closeAll destroys every state still registered and empties the
// registry. Callers guarantee no state is in use (Close holds the
// solver's write lock).
func (p *statePool[T]) closeAll() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.destroy != nil {
		for _, v := range p.all {
			p.destroy(v)
		}
	}
	p.all = nil
	p.free = nil
}

// solverInfo is the plain-data identity of a prepared solver — the
// configuration echo Stats reports. It carries no locks, so Prepare
// passes it around by value before the solver goes live.
type solverInfo struct {
	method  Method
	n, k    int
	workers int
	eps     float64

	ordering              Reordering
	bandBefore, bandAfter int
	schedule              Schedule

	// batchHint is the number of requests the method fuses into one
	// kernel chunk (0/1 for methods that serve batches sequentially) —
	// the natural coalescing granularity for a serving front end.
	batchHint int
}

// solverBase carries the identity, layout, lifecycle, and counters every
// method solver shares. Solves hold the read side of mu for their whole
// duration; Close takes the write side, so it waits for in-flight
// solves and flips closed exactly once. Counters are atomics because
// any number of solves may run concurrently.
type solverBase struct {
	solverInfo
	// rows is the epoch's layout-ordered adjacency table (with the
	// degrees when the method's operator carries them) and rm the map
	// between caller rows and layout rows.
	rows *sparse.RowBlocks
	rm   rowMap

	mu     sync.RWMutex
	closed bool

	solves, batches, batchReqs atomic.Int64
	iterations                 atomic.Int64
	notConverged, cancelled    atomic.Int64
	rowsRelaxed, pushes        atomic.Int64
	// queuePeak is a lifetime maximum, not a sum; record folds it with
	// a CAS-max.
	queuePeak atomic.Int64
}

// begin enters one solve: it takes the read lock and rejects closed
// solvers. Every public solve entry point pairs it with end; nested
// begin calls are forbidden (recursive read locks can deadlock against
// a pending Close).
//
//lsbp:hotpath
func (b *solverBase) begin() bool {
	b.mu.RLock()
	if b.closed {
		b.mu.RUnlock()
		return false
	}
	return true
}

//lsbp:hotpath
func (b *solverBase) end() { b.mu.RUnlock() }

// closeOnce runs release under the write lock the first time the solver
// is closed — after every in-flight solve has drained — and is a no-op
// afterwards.
func (b *solverBase) closeOnce(release func()) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return nil
	}
	b.closed = true
	if release != nil {
		release()
	}
	return nil
}

func (b *solverBase) base() *solverBase { return b }

func (b *solverBase) Stats() SolverStats {
	bh := b.batchHint
	if bh < 1 {
		bh = 1
	}
	return SolverStats{
		Method: b.method, N: b.n, K: b.k, Workers: b.workers, EpsilonH: b.eps,
		Ordering: b.ordering, BandwidthBefore: b.bandBefore, BandwidthAfter: b.bandAfter,
		Schedule:  b.schedule,
		BatchHint: bh,
		Solves:    b.solves.Load(), Batches: b.batches.Load(), BatchRequests: b.batchReqs.Load(),
		Iterations: b.iterations.Load(), NotConverged: b.notConverged.Load(), Cancelled: b.cancelled.Load(),
		ResidualRowsRelaxed: b.rowsRelaxed.Load(), ResidualQueuePeak: b.queuePeak.Load(),
		ResidualPushes: b.pushes.Load(),
	}
}

// admitCtx rejects a request whose context is already done before any
// kernel work runs. The iterative loops only observe cancellation at
// round boundaries; admission must fail an already-expired deadline
// without spinning up (or waiting on) an engine. The rejection counts
// as a cancelled solve, matching mid-solve aborts.
//
//lsbp:hotpath
func (b *solverBase) admitCtx(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		b.cancelled.Add(1)
		return fmt.Errorf("core: %v admission: %w", b.method, err)
	}
	return nil
}

// record folds one solve outcome into the counters and normalizes the
// error: non-convergence becomes an ErrNotConverged wrap, context
// aborts pass through.
//
//lsbp:hotpath
func (b *solverBase) record(info SolveInfo, err error) (SolveInfo, error) {
	b.iterations.Add(int64(info.Iterations))
	if info.RowsRelaxed > 0 {
		b.rowsRelaxed.Add(int64(info.RowsRelaxed))
	}
	if p := int64(info.QueuePeak); p > 0 {
		for {
			cur := b.queuePeak.Load()
			if p <= cur || b.queuePeak.CompareAndSwap(cur, p) {
				break
			}
		}
	}
	if err != nil {
		// A diverged solve (overflowed update delta) is a convergence
		// failure, not a caller abort; keep the Cancelled counter
		// meaning "context" only.
		if errors.Is(err, errs.ErrNonFinite) {
			b.notConverged.Add(1)
		} else {
			b.cancelled.Add(1)
		}
		return info, fmt.Errorf("core: %v solve: %w", b.method, err)
	}
	if !info.Converged {
		b.notConverged.Add(1)
		return info, errNotConverged[b.method]
	}
	return info, nil
}

// errNotConverged holds each method's non-convergence error, built once:
// a solve's round count and final delta travel in its SolveInfo, so the
// outcome allocates nothing — a fixed-round solve under a negative tol
// (the paper's timing convention) included.
var errNotConverged = func() (e [MethodFABP + 1]error) {
	for m := range e {
		e[m] = fmt.Errorf("core: %v solve: %w", Method(m), errs.ErrNotConverged)
	}
	return e
}()

func (b *solverBase) errClosed() error {
	return fmt.Errorf("core: %v solver: %w", b.method, errs.ErrClosed)
}

// checkShapes validates one dst/e pair against the prepared dimensions.
//
//lsbp:hotpath
func (b *solverBase) checkShapes(dst, e *beliefs.Residual) error {
	if e == nil || dst == nil {
		return fmt.Errorf("core: nil belief matrix: %w", errs.ErrDimensionMismatch)
	}
	if e.N() != b.n || e.K() != b.k || dst.N() != b.n || dst.K() != b.k {
		return fmt.Errorf("core: belief matrix %dx%d / destination %dx%d do not match n=%d k=%d: %w",
			e.N(), e.K(), dst.N(), dst.K(), b.n, b.k, errs.ErrDimensionMismatch)
	}
	return nil
}

// finish assembles the allocating-path Result from a SolveInto outcome.
func (b *solverBase) finish(dst *beliefs.Residual, info SolveInfo, err error) (*Result, error) {
	res := &Result{
		Method: b.method, Beliefs: dst,
		Iterations: info.Iterations, Converged: info.Converged, Delta: info.Delta,
	}
	if err != nil && !isNotConverged(err) {
		return nil, err
	}
	return res, err
}

func isNotConverged(err error) bool {
	return err != nil && errors.Is(err, errs.ErrNotConverged)
}

// failAll builds a response slice carrying one shared error.
func failAll(reqs []Request, err error) []Response {
	resp := make([]Response, len(reqs))
	for i := range resp {
		resp[i].Err = err
	}
	return resp
}

// sequentialBatch is the shared SolveBatch shape for methods without a
// fused multi-request kernel: requests run one after another over the
// prepared state through the method's internal (uncounted, shape-trusting)
// solve, so shapes are fully validated here. Callers hold the solver's
// read lock.
func (b *solverBase) sequentialBatch(ctx context.Context, reqs []Request,
	solve func(ctx context.Context, dst, e *beliefs.Residual) (SolveInfo, error)) []Response {
	b.batches.Add(1)
	b.batchReqs.Add(int64(len(reqs)))
	if err := b.admitCtx(ctx); err != nil {
		b.cancelled.Add(int64(len(reqs)) - 1) // admitCtx counted one
		return failAll(reqs, err)
	}
	resp := make([]Response, len(reqs))
	for i, req := range reqs {
		dst := req.Dst
		if dst == nil {
			dst = beliefs.New(b.n, b.k)
		}
		if err := b.checkShapes(dst, req.E); err != nil {
			resp[i].Err = err
			continue
		}
		info, err := solve(ctx, dst, req.E)
		resp[i] = Response{Beliefs: dst, Info: info, Err: err}
	}
	return resp
}

// ---------------------------------------------------------------------------
// LinBP / LinBP* / FABP

// batchWidth caps the flat row width (blocks·k) of a fused batch
// chunk. Width 12 keeps every chunk on the kernel's register-blocked
// fast paths (k ∈ {2, 3}) and the working set close to the
// single-problem one, which matters on cache-resident graphs.
const batchWidth = 12

// kernelOp is what a kernel method contributes to the shared snapshot:
// the fused operator's couplings, whether its layout carries the echo
// term's degrees, the layout row width, the iteration defaults, and the
// fused-chunk width.
type kernelOp struct {
	// h and echoH are kernel.Config's couplings (echoH nil = Hˆ²).
	h, echoH *dense.Matrix
	// echo reports that the layout carries the squared-weight degrees
	// (every method but LinBP*).
	echo bool
	// w is the layout row width: k, or 1 for FABP's scalar collapse.
	w       int
	maxIter int
	tol     float64
	// blocks is the number of requests fused into one batch chunk.
	blocks int
}

// kernelOperator returns method m's operator for the unscaled coupling
// ho at scale eps over k classes, with cfg's MaxIter/Tol overrides
// applied. LinBP and LinBP* run Hˆ = eps·ho, with and without the echo
// term. FABP runs the binary collapse of Appendix E: the k = 1 operator
// Hˆ = [c1] with the echo coupling overridden to [c2], one scalar per
// node. Its chunks fuse one request, because a fused k = 1 chunk runs
// the blocked kernel, whose echo term rounds differently from the
// unrolled k = 1 kernel of a single solve, and FABP batches are pinned
// bitwise to single solves.
func kernelOperator(m Method, ho *dense.Matrix, eps float64, k int, cfg config) (kernelOp, error) {
	op := kernelOp{
		echo: m != MethodLinBPStar, w: k,
		maxIter: linbp.DefaultMaxIter, tol: linbp.DefaultTol,
		blocks: max(batchWidth/k, 1),
	}
	if m == MethodFABP {
		if k != 2 {
			return op, fmt.Errorf("core: FABP needs k=2 classes, got k=%d: %w", k, errs.ErrDimensionMismatch)
		}
		// Any valid k=2 residual coupling has the form [[ĥ,−ĥ],[−ĥ,ĥ]];
		// the scaled ĥ is its (0,0) entry.
		hhat := eps * ho.At(0, 0)
		if math.Abs(hhat) >= 0.5 {
			return op, fmt.Errorf("core: FABP |ĥ| = %v must be < 1/2: %w", hhat, errs.ErrInvalidCoupling)
		}
		c1, c2 := fabp.Coefficients(hhat)
		op.h = dense.NewFromRows([][]float64{{c1}})
		op.echoH = dense.NewFromRows([][]float64{{c2}})
		op.w, op.maxIter, op.tol, op.blocks = 1, fabp.DefaultMaxIter, fabp.DefaultTol, 1
	} else {
		op.h = coupling.Scale(ho, eps)
	}
	if cfg.maxIter != 0 {
		op.maxIter = cfg.maxIter
	}
	if cfg.tol != 0 {
		op.tol = cfg.tol
	}
	return op, nil
}

// rowMap moves belief rows between the caller's order (n×k) and a
// kernel layout (n rows of width w, or block bi of a c-block
// interleaved buffer, n × c·w). The layout permutation rides along in
// the same pass, and it is the only code that knows FABP's collapse: a
// layout row holds a caller row's first w entries (FABP: the class-0
// residual b), and a scalar b comes back out as the row (b, −b).
type rowMap struct {
	perm    order.Permutation // perm[caller] = layout; nil = natural order
	n, k, w int
}

// at returns caller row i's layout row.
//
//lsbp:hotpath
func (m rowMap) at(i int) int {
	if m.perm == nil {
		return i
	}
	return m.perm[i]
}

// identity reports that caller rows are layout rows as they stand.
//
//lsbp:hotpath
func (m rowMap) identity() bool { return m.perm == nil && m.w == m.k }

// in writes the caller rows src into block bi of the c-block layout
// buffer dst. Element loops instead of per-row copy(): at k ∈ {2, 3}
// the memmove call would cost more than the moved bytes.
//
//lsbp:hotpath
func (m rowMap) in(dst, src []float64, c, bi int) {
	if c == 1 && m.identity() {
		copy(dst, src)
		return
	}
	k, w := m.k, m.w
	for i := 0; i < m.n; i++ {
		o := (m.at(i)*c + bi) * w
		d, s := dst[o:o+w], src[i*k:i*k+w]
		for j := range d {
			d[j] = s[j]
		}
	}
}

// input returns the caller rows e as a one-request layout buffer: e
// itself under the identity map, else buf filled through the map.
//
//lsbp:hotpath
func (m rowMap) input(buf, e []float64) []float64 {
	if m.identity() {
		return e
	}
	m.in(buf, e, 1, 0)
	return buf
}

// out writes block bi of the c-block layout buffer src into the caller
// rows dst.
//
//lsbp:hotpath
func (m rowMap) out(dst, src []float64, c, bi int) {
	k, w := m.k, m.w
	switch {
	case c == 1 && w == k:
		m.perm.InvertRows(dst, src, k)
	case w < k: // FABP: b expands to (b, −b)
		for i := 0; i < m.n; i++ {
			b := src[m.at(i)*c+bi]
			dst[i*k], dst[i*k+1] = b, -b
		}
	default:
		for i := 0; i < m.n; i++ {
			o := (m.at(i)*c + bi) * w
			d, s := dst[i*k:i*k+k], src[o:o+w]
			for j := range d {
				d[j] = s[j]
			}
		}
	}
}

// setRow writes caller row i into the layout buffer dst (n×w).
func (m rowMap) setRow(dst []float64, i int, row []float64) {
	li := m.at(i)
	copy(dst[li*m.w:li*m.w+m.w], row)
}

// moveTo copies the layout rows src, in m's order, into dst in to's
// order: how a compaction carries the maintained fixpoint across a
// relabeling.
func (m rowMap) moveTo(to rowMap, dst, src []float64) {
	w := m.w
	for i := 0; i < m.n; i++ {
		o, p := m.at(i)*w, to.at(i)*w
		copy(dst[p:p+w], src[o:o+w])
	}
}

// chunkEngine is one pooled rounds engine fusing c requests, with its
// layout-order explicit buffer (n × c·w; nil when c = 1 under the
// identity map, whose single solves read the caller's rows directly).
type chunkEngine struct {
	eng *kernel.Engine
	ws  *kernel.Workspace
	ein []float64
}

// residualState is one pooled residual-scheduled engine with its
// layout-order explicit buffer (nil under the identity map).
type residualState struct {
	eng *kernel.ResidualEngine
	ein []float64
}

// kernelSolver serves LinBP, LinBP*, and FABP through pooled kernel
// engines over one layout: one statePool of rounds engines per batch
// chunk size (single solves and the dynamic plane's rounds re-solves
// are one-request chunks) and, under a residual schedule, a pool of
// residual-scheduled engines. All engines share the immutable
// row-block adjacency (with its degrees), the method's operator, and
// the row map; only the mutable workspaces are per-pool-entry, so
// concurrent solves never contend on state.
type kernelSolver struct {
	solverBase
	op kernelOp

	chunks []*statePool[*chunkEngine] // index c-1 → chunks of c requests
	// rstates pools the residual-scheduled engines; nil when the
	// schedule is rounds-only or a negative tolerance forces fixed
	// rounds (the residual plane has no fixed-round mode).
	rstates *statePool[*residualState]
}

// layoutRows lays out an adjacency for a snapshot: relabel it by perm
// (nil keeps the order) and wrap the result in an epoch-0 row-block
// table — with the squared-weight degrees when echo is on. The degrees
// are the layout rows' RowSumsSquared, the same value a commit
// recomputes for an edited row. The dynamic plane commits later epochs
// of the table, reusing perm between compactions.
func layoutRows(a *sparse.CSR, echo bool, perm order.Permutation) (*sparse.RowBlocks, error) {
	if perm != nil {
		a = a.Permute(perm)
	}
	var d []float64
	if echo {
		d = a.RowSumsSquared()
	}
	rows, err := sparse.NewRowBlocks(a, d)
	if err != nil {
		return nil, fmt.Errorf("core: %v: %w", err, errs.ErrInvalidInput)
	}
	return rows, nil
}

// newKernelSolver builds the snapshot on an explicit layout — a
// row-block table and the relabeling it was laid out under — and
// validates it by building the first engine eagerly.
func newKernelSolver(op kernelOp, base solverInfo, rows *sparse.RowBlocks, perm order.Permutation) (*kernelSolver, error) {
	s := &kernelSolver{op: op}
	s.rm = rowMap{perm: perm, n: base.n, k: base.k, w: op.w}
	s.initPools(rows, base)
	ce, err := s.chunks[0].get()
	if err != nil {
		return nil, err
	}
	s.chunks[0].put(ce)
	if s.schedule == ScheduleResidual && s.rstates != nil {
		// The residual plane is this solver's serving path: validate its
		// configuration eagerly too, so Prepare (not the first solve)
		// reports a bad configuration.
		st, err := s.rstates.get()
		if err != nil {
			return nil, err
		}
		s.rstates.put(st)
	}
	return s, nil
}

// initPools binds the snapshot to its epoch's table and identity and
// creates its (empty) engine pools.
func (s *kernelSolver) initPools(rows *sparse.RowBlocks, base solverInfo) {
	s.rows = rows
	s.solverInfo = base
	s.batchHint = s.op.blocks
	s.chunks = make([]*statePool[*chunkEngine], s.op.blocks)
	for i := range s.chunks {
		c := i + 1
		s.chunks[i] = newStatePool(func() (*chunkEngine, error) {
			ws := kernel.GetWorkspace()
			eng, err := kernel.New(kernel.Config{
				Rows: s.rows, H: s.op.h, EchoH: s.op.echoH,
				Workers: s.workers, Blocks: c,
				SymmetricA: true,
			}, ws)
			if err != nil {
				ws.Release()
				return nil, fmt.Errorf("core: kernel engine: %w", err)
			}
			ce := &chunkEngine{eng: eng, ws: ws}
			if c > 1 || !s.rm.identity() {
				ce.ein = make([]float64, s.n*c*s.op.w)
			}
			return ce, nil
		}).withDestroy(func(ce *chunkEngine) {
			ce.eng.Close()
			ce.ws.Release()
		})
	}
	if s.schedule != ScheduleRounds && s.op.tol > 0 {
		s.rstates = newStatePool(func() (*residualState, error) {
			eng, err := kernel.NewResidual(kernel.Config{
				Rows: s.rows, H: s.op.h, EchoH: s.op.echoH, SymmetricA: true,
			}, s.op.tol)
			if err != nil {
				return nil, fmt.Errorf("core: residual engine: %w", err)
			}
			st := &residualState{eng: eng}
			if !s.rm.identity() {
				st.ein = make([]float64, s.n*s.op.w)
			}
			return st, nil
		})
	}
}

// successor builds the next epoch's snapshot on a table committed from
// this one's: same operator and layout, and no engine built — the idle
// engines of every pool move over, rebound to the new table (an engine
// that cannot rebind is destroyed and rebuilt on demand).
func (s *kernelSolver) successor(rows *sparse.RowBlocks, base solverInfo) *kernelSolver {
	next := &kernelSolver{op: s.op}
	next.rm = s.rm
	next.initPools(rows, base)
	for i := range s.chunks {
		moveIdle(s.chunks[i], next.chunks[i], func(ce *chunkEngine) error { return ce.eng.Rebind(rows) })
	}
	if s.rstates != nil {
		moveIdle(s.rstates, next.rstates, func(st *residualState) error { return st.eng.Rebind(rows) })
	}
	return next
}

// solveLayout runs one round-scheduled solve of the dynamic plane on a
// pooled one-request engine over layout-order buffers: e the explicit
// beliefs, start the warm start (nil = cold). When a round ran and no
// error aborted it, the final iterate is copied into out. keep returns
// the engine to the pool; otherwise it leaves the pool and is closed
// (see kernelPlane.keepRounds).
func (s *kernelSolver) solveLayout(ctx context.Context, out, e, start []float64, keep bool) (SolveInfo, error) {
	s.solves.Add(1)
	if err := s.admitCtx(ctx); err != nil {
		return SolveInfo{}, err
	}
	ce, err := s.chunks[0].get()
	if err != nil {
		return SolveInfo{}, err
	}
	if start == nil {
		ce.eng.ResetFast()
	} else {
		ce.eng.SetStart(start)
	}
	ce.eng.SetExplicit(e)
	iters, delta, converged, err := ce.eng.RunContext(ctx, s.op.maxIter, s.op.tol, nil)
	if iters > 0 && err == nil {
		copy(out, ce.eng.Beliefs())
	}
	if keep {
		s.chunks[0].put(ce)
	} else {
		s.chunks[0].discard(ce)
	}
	return s.record(SolveInfo{Iterations: iters, Converged: converged, Delta: delta}, err)
}

func (s *kernelSolver) Solve(ctx context.Context, e *beliefs.Residual) (*Result, error) {
	if !s.begin() {
		return nil, s.errClosed()
	}
	defer s.end()
	dst := beliefs.New(s.n, s.k)
	if err := s.checkShapes(dst, e); err != nil {
		return nil, err
	}
	s.solves.Add(1) // counted only once the request is well-formed
	info, err := s.solveInto(ctx, dst, e)
	return s.finish(dst, info, err)
}

//lsbp:hotpath
func (s *kernelSolver) SolveInto(ctx context.Context, dst, e *beliefs.Residual) (SolveInfo, error) {
	if !s.begin() {
		return SolveInfo{}, s.errClosed()
	}
	defer s.end()
	if err := s.checkShapes(dst, e); err != nil {
		return SolveInfo{}, err
	}
	s.solves.Add(1)
	return s.solveInto(ctx, dst, e)
}

// solveInto runs one counted-elsewhere solve: a one-request chunk on a
// pooled engine, or a residual-scheduled solve under ScheduleResidual.
// The caller holds the read lock and has validated the shapes.
//
//lsbp:hotpath
func (s *kernelSolver) solveInto(ctx context.Context, dst, e *beliefs.Residual) (SolveInfo, error) {
	if err := s.admitCtx(ctx); err != nil {
		return SolveInfo{}, err
	}
	if s.schedule == ScheduleResidual && s.rstates != nil {
		return s.solveResidual(ctx, dst, e)
	}
	ce, err := s.chunks[0].get()
	if err != nil {
		return SolveInfo{}, err
	}
	defer s.chunks[0].put(ce)
	ce.eng.ResetFast()
	ce.eng.SetExplicit(s.rm.input(ce.ein, e.Matrix().Data()))
	iters, delta, converged, err := ce.eng.RunContext(ctx, s.op.maxIter, s.op.tol, nil)
	dd := dst.Matrix().Data()
	if iters == 0 {
		// Nothing ran (pre-cancelled context or a non-positive iteration
		// cap): the last completed iterate is the zero start (with
		// ResetFast the engine buffer may hold a previous solve, so it is
		// not read).
		for i := range dd {
			dd[i] = 0
		}
	} else {
		s.rm.out(dd, ce.eng.Beliefs(), 1, 0)
	}
	return s.record(SolveInfo{Iterations: iters, Converged: converged, Delta: delta}, err)
}

// solveResidual runs one residual-scheduled cold solve on a pooled
// engine; the round-equivalent ⌈relaxed/n⌉ keeps Iterations comparable
// across schedules, and the relaxation budget is MaxIter·n rows, the
// work of MaxIter full rounds. dst receives the iterate at every exit.
// Callers hold the read lock, have validated the shapes and admitted
// the context; s.rstates must be non-nil.
//
//lsbp:hotpath
func (s *kernelSolver) solveResidual(ctx context.Context, dst, e *beliefs.Residual) (SolveInfo, error) {
	st, err := s.rstates.get()
	if err != nil {
		return SolveInfo{}, err
	}
	defer s.rstates.put(st)
	st.eng.SeedExplicit(s.rm.input(st.ein, e.Matrix().Data()))
	relaxed, peak, maxResid, converged, err := st.eng.Run(ctx, s.op.maxIter*s.n)
	s.rm.out(dst.Matrix().Data(), st.eng.Beliefs(), 1, 0)
	s.pushes.Add(int64(st.eng.Pushes()))
	return s.record(residualInfo(s.n, relaxed, peak, maxResid, converged), err)
}

// residualInfo assembles a residual-scheduled solve's SolveInfo, with
// the round-equivalent ⌈relaxed/n⌉ as its iteration count.
//
//lsbp:hotpath
func residualInfo(n, relaxed, peak int, maxResid float64, converged bool) SolveInfo {
	iters := 0
	if n > 0 {
		iters = (relaxed + n - 1) / n
	}
	return SolveInfo{Iterations: iters, Converged: converged, Delta: maxResid, RowsRelaxed: relaxed, QueuePeak: peak}
}

// SolveBatch fuses the requests into multi-block kernel chunks: each
// update round traverses the CSR once for every request in a chunk, so
// a batch of R requests costs far less than R single solves even on a
// single core (and the chunks still run on the span pool when Workers
// is set). Requests in a chunk share rounds: iteration stops once every
// request's delta is within tolerance, and the shared round count and
// maximum delta are reported for each. Results match the request's
// single solve up to summation-order rounding (~1 ulp per round);
// FABP's one-request chunks match it bitwise.
//
//lsbp:hotpath
func (s *kernelSolver) SolveBatch(ctx context.Context, reqs []Request) []Response {
	if !s.begin() {
		return failAll(reqs, s.errClosed())
	}
	defer s.end()
	s.batches.Add(1)
	s.batchReqs.Add(int64(len(reqs)))
	if err := s.admitCtx(ctx); err != nil {
		s.cancelled.Add(int64(len(reqs)) - 1) // admitCtx counted one
		return failAll(reqs, err)
	}
	//lsbp:ignore hotpath-noalloc -- the response slice is the batch path's one documented caller-owned allocation
	resp := make([]Response, len(reqs))

	// Chunk the well-shaped requests on the fly (failing ill-shaped
	// ones in place) with a fixed-size index buffer — together with the
	// response slice above, the batch path's only steady-state
	// allocation is that caller-owned slice.
	var idx [batchWidth]int
	mb := s.op.blocks
	cn := 0
	var batchErr error
	//lsbp:ignore hotpath-noalloc -- one closure per batch call, amortized over up to batchWidth solves per flush
	flush := func() {
		chunk := idx[:cn]
		cn = 0
		if batchErr != nil {
			// Once the batch's context is gone, later chunks fail
			// without running. Non-context chunk failures (a diverging
			// request poisoning its cohort) stay confined to their own
			// chunk — see solveChunk.
			for _, ri := range chunk {
				resp[ri].Err = batchErr
				s.cancelled.Add(1)
			}
			return
		}
		batchErr = s.solveChunk(ctx, reqs, resp, chunk)
	}
	for i, req := range reqs {
		if req.E == nil || req.E.N() != s.n || req.E.K() != s.k ||
			(req.Dst != nil && (req.Dst.N() != s.n || req.Dst.K() != s.k)) {
			resp[i].Err = fmt.Errorf("core: request %d does not match n=%d k=%d: %w", i, s.n, s.k, errs.ErrDimensionMismatch)
			continue
		}
		idx[cn] = i
		cn++
		if cn == mb {
			flush()
		}
	}
	if cn > 0 {
		flush()
	}
	return resp
}

// solveChunk runs one fused chunk on a pooled engine and fills its
// responses. It returns non-nil only when the batch cannot
// meaningfully continue — the shared context is done, or engines can
// no longer be built — telling SolveBatch to fail the remaining
// chunks without running them. A chunk that merely fails numerically
// (one diverging request poisons its fused cohort) reports the error
// in its own responses and returns nil, so unrelated chunks in the
// same batch still run.
//
//lsbp:hotpath
func (s *kernelSolver) solveChunk(ctx context.Context, reqs []Request, resp []Response, chunk []int) error {
	c := len(chunk)
	ce, err := s.chunks[c-1].get()
	if err != nil {
		for _, ri := range chunk {
			resp[ri].Err = err
		}
		return err
	}
	defer s.chunks[c-1].put(ce)
	// Interleave the chunk's explicit beliefs: node i's blocks·w layout
	// row holds request 0..c-1's w-wide rows back to back.
	explicit := ce.ein
	if c == 1 {
		explicit = s.rm.input(ce.ein, reqs[chunk[0]].E.Matrix().Data())
	} else {
		for bi, ri := range chunk {
			s.rm.in(ce.ein, reqs[ri].E.Matrix().Data(), c, bi)
		}
	}
	ce.eng.ResetFast()
	ce.eng.SetExplicit(explicit)
	iters, delta, converged, runErr := ce.eng.RunContext(ctx, s.op.maxIter, s.op.tol, nil)
	s.iterations.Add(int64(iters))

	// One shared error value per chunk: its requests share rounds, so
	// they share the outcome too.
	var chunkErr error
	switch {
	case runErr != nil:
		chunkErr = fmt.Errorf("core: %v batch: %w", s.method, runErr) //lsbp:ignore hotpath-noalloc -- error construction runs only on cancelled chunks
	case !converged:
		chunkErr = errNotConverged[s.method]
	}

	// De-interleave results and fill the chunk's responses. When no
	// round completed (pre-cancelled context) the engine buffer is not
	// meaningful; the responses carry only the error.
	state := ce.eng.Beliefs()
	info := SolveInfo{Iterations: iters, Converged: converged, Delta: delta}
	for bi, ri := range chunk {
		resp[ri].Info = info
		resp[ri].Err = chunkErr
		switch {
		case runErr != nil && errors.Is(runErr, errs.ErrNonFinite):
			s.notConverged.Add(1) // divergence, not a caller abort
		case runErr != nil:
			s.cancelled.Add(1)
		case !converged:
			s.notConverged.Add(1)
		}
		if iters == 0 {
			// No round completed (pre-cancelled context or a
			// non-positive iteration cap): with ResetFast the engine
			// buffer may hold a previous chunk, so expose no beliefs.
			continue
		}
		dst := reqs[ri].Dst
		if dst == nil {
			dst = beliefs.New(s.n, s.k) //lsbp:ignore hotpath-noalloc -- a nil Dst is the caller opting out of zero-alloc
		}
		s.rm.out(dst.Matrix().Data(), state, c, bi)
		resp[ri].Beliefs = dst
	}
	if runErr != nil && ctx.Err() != nil {
		// Only a dead context condemns the chunks that follow; a
		// numeric failure is this chunk's alone.
		return fmt.Errorf("core: %v batch: %w", s.method, runErr)
	}
	return nil
}

func (s *kernelSolver) Close() error {
	return s.closeOnce(func() {
		for _, p := range s.chunks {
			p.closeAll()
		}
		if s.rstates != nil {
			s.rstates.closeAll()
		}
	})
}

// ---------------------------------------------------------------------------
// BP and SBP

// graphState is one per-solve BP or SBP workspace: a clone of the
// epoch's BP engine (sharing its directed-edge layout, owning its
// message buffers) or a private SBP runner (each caches its own
// geodesic ordering), plus layout-order scratch for the explicit rows
// and the beliefs (nil under the identity map, where the caller's
// matrices serve as they stand).
type graphState struct {
	bp       *bp.Engine
	sbp      *sbp.Runner
	ein, out *beliefs.Residual
}

// graphSolver serves the message-passing methods, BP and SBP, on the
// epoch's layout-order row-block table: the table the kernel methods
// serve from and Update commits. BP passes one message pair per
// adjacent pair of the table (parallel edges collapse, as they do in
// the adjacency) and rescales explicit residuals too large to be valid
// priors per solve (bpSafeScale; Lemma 12 keeps the classification).
// SBP is εH-invariant and runs on the unscaled Hˆo; each runner reuses
// its geodesic ordering across solves with an unchanged explicit node
// set, and Solve reports the caller-order geodesic numbers in
// Result.Geodesics. The row map carries belief rows between caller and
// layout order.
type graphSolver struct {
	solverBase
	states *statePool[*graphState]
}

// newGraphSolver builds the BP or SBP snapshot (base.method) on the
// layout table rows, laid out under perm.
func newGraphSolver(rows *sparse.RowBlocks, ho *dense.Matrix, base solverInfo, cfg config, perm order.Permutation) (*graphSolver, error) {
	s := &graphSolver{}
	s.solverInfo, s.rows = base, rows
	s.rm = rowMap{perm: perm, n: base.n, k: base.k, w: base.k}
	var proto *bp.Engine
	if base.method == MethodBP {
		// proto carries the shared directed-edge layout; every pooled
		// state clones it, so concurrent pool misses never touch shared
		// mutable state.
		var err error
		h := coupling.Uncenter(coupling.Scale(ho, base.eps))
		if proto, err = bp.NewEngine(rows, h, bp.Options{MaxIter: cfg.maxIter, Tol: cfg.tol}); err != nil {
			return nil, err
		}
	}
	s.states = newStatePool(func() (*graphState, error) {
		st := &graphState{}
		if proto != nil {
			st.bp = proto.Clone()
		} else {
			var err error
			if st.sbp, err = sbp.NewRunner(rows, ho); err != nil {
				return nil, err
			}
		}
		if !s.rm.identity() {
			st.ein, st.out = beliefs.New(s.n, s.k), beliefs.New(s.n, s.k)
		}
		return st, nil
	})
	return s, nil
}

func (s *graphSolver) Solve(ctx context.Context, e *beliefs.Residual) (*Result, error) {
	if !s.begin() {
		return nil, s.errClosed()
	}
	defer s.end()
	dst := beliefs.New(s.n, s.k)
	if err := s.checkShapes(dst, e); err != nil {
		return nil, err
	}
	s.solves.Add(1)
	var geo []int
	if s.method == MethodSBP {
		geo = make([]int, s.n)
	}
	info, err := s.solveInto(ctx, dst, e, geo)
	res, err := s.finish(dst, info, err)
	if res != nil {
		res.Geodesics = geo
	}
	return res, err
}

func (s *graphSolver) SolveInto(ctx context.Context, dst, e *beliefs.Residual) (SolveInfo, error) {
	if !s.begin() {
		return SolveInfo{}, s.errClosed()
	}
	defer s.end()
	if err := s.checkShapes(dst, e); err != nil {
		return SolveInfo{}, err
	}
	s.solves.Add(1)
	return s.solveInto(ctx, dst, e, nil)
}

// solveInto runs one counted-elsewhere solve on a pooled state; for SBP
// a non-nil geo receives the caller-order geodesic numbers. The caller
// holds the read lock and has validated the shapes.
func (s *graphSolver) solveInto(ctx context.Context, dst, e *beliefs.Residual, geo []int) (SolveInfo, error) {
	if err := s.admitCtx(ctx); err != nil {
		return SolveInfo{}, err
	}
	st, err := s.states.get()
	if err != nil {
		return SolveInfo{}, err
	}
	defer s.states.put(st)
	out, ein := dst, e
	if st.ein != nil {
		s.rm.in(st.ein.Matrix().Data(), e.Matrix().Data(), 1, 0)
		out, ein = st.out, st.ein
	}
	var info SolveInfo
	if st.bp != nil {
		// Row shuffles keep MaxAbs, so the caller's e gives the scale.
		info.Iterations, info.Delta, info.Converged, err = st.bp.SolveInto(ctx, out, ein, bpSafeScale(e))
	} else {
		info.Iterations, err = st.sbp.SolveInto(ctx, out, ein)
		info.Converged = err == nil
		if err == nil {
			layout := st.sbp.Geodesics()
			for i := range geo {
				geo[i] = layout[s.rm.at(i)]
			}
		}
	}
	if st.out != nil {
		s.rm.out(dst.Matrix().Data(), st.out.Matrix().Data(), 1, 0)
	}
	return s.record(info, err)
}

func (s *graphSolver) SolveBatch(ctx context.Context, reqs []Request) []Response {
	if !s.begin() {
		return failAll(reqs, s.errClosed())
	}
	defer s.end()
	return s.sequentialBatch(ctx, reqs, func(ctx context.Context, dst, e *beliefs.Residual) (SolveInfo, error) {
		return s.solveInto(ctx, dst, e, nil)
	})
}

func (s *graphSolver) Close() error { return s.closeOnce(nil) }
