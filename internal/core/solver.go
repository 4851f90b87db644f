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
	echo     bool
	echoSet  bool
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
// the workers share (LinBP and LinBP*, single solves and batches). 0
// or 1 selects the serial kernel. FABP, BP and SBP ignore it, and so
// does the residual plane, which is sequential.
func WithWorkers(n int) Option { return func(c *config) { c.workers = n } }

// WithMaxIter bounds the update rounds of iterative methods
// (method-specific default when unset or 0).
func WithMaxIter(n int) Option { return func(c *config) { c.maxIter = n } }

// WithTol sets the convergence tolerance: iteration stops once no
// belief (or BP message) entry changes by more than tol between
// rounds. 0 selects the method default; negative forces exactly
// MaxIter rounds (the paper's timing setup).
func WithTol(tol float64) Option { return func(c *config) { c.tol = tol } }

// WithEchoCancellation selects between LinBP (true, Eq. 4) and LinBP*
// (false, Eq. 5) regardless of which of the two methods was named;
// other methods ignore it.
func WithEchoCancellation(on bool) Option {
	return func(c *config) { c.echo = on; c.echoSet = true }
}

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
// snapshot (for the kernel methods: the next copy-on-write epoch of the
// adjacency, served by the previous epoch's engines rebound to it) and
// swaps it in atomically; solves already in flight finish on the
// snapshot they started on, new solves land on the new one, and no
// reader ever observes a half-updated graph.
//
// Solvers are safe for concurrent use: any number of goroutines may
// call Solve, SolveInto, SolveBatch, Update, and Stats on one shared
// Solver (updates serialize internally). Per-solve workspaces are
// recycled through per-epoch pools, so the SolveInto serving path
// stays allocation-free in steady state no matter how many goroutines
// share the solver. Close is idempotent, waits for in-flight solves
// and a pending update (including its compaction rebuild) to drain,
// and fails later solves with ErrClosed. One carve-out: the
// incremental SBP state a Solve on an SBP solver returns (Result.SBP)
// shares the epoch's graph, so its mutators (AddEdges,
// AddExplicitBeliefs) are NOT covered by the guarantee — use Update
// instead, which keeps the solver and the graph consistent.
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
	echo := m != MethodLinBPStar // LinBP and the FABP collapse cancel echo
	if cfg.echoSet && (m == MethodLinBP || m == MethodLinBPStar) {
		echo = cfg.echo
		if echo {
			m = MethodLinBP
		} else {
			m = MethodLinBPStar
		}
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
	// Update), the coupling (every snapshot rebuild, compaction, and
	// checkpoint), and BP/SBP's caller-order graph (their snapshots and
	// updates). A caller reusing any of them then changes neither the
	// served nor the recovered problem. The kernel methods keep only the
	// layout built from the graph here.
	p = &Problem{Graph: p.Graph, Explicit: p.Explicit.Clone(), Ho: p.Ho.Clone(), EpsilonH: p.EpsilonH}
	if m == MethodBP || m == MethodSBP {
		p.Graph = p.Graph.Clone()
	}
	var inner snapshot
	var err error
	switch m {
	case MethodBP:
		inner, err = newBPSolver(p, base, cfg, perm)
	case MethodLinBP, MethodLinBPStar:
		inner, err = newLinBPSolver(p, base, cfg, perm)
	case MethodSBP:
		inner, err = newSBPSolver(p, base, perm)
	default:
		inner, err = newFABPSolver(p, base, cfg, perm)
	}
	if err != nil {
		return nil, err
	}
	// Every prepared solver is served through the epoch-versioned
	// dynamic plane; a solver that never sees an Update pays only an
	// atomic pointer load per solve for it.
	d := newDynSolver(p, m, cfg, inner)
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

// permutedLayout applies perm to the adjacency and (optionally) the
// degree vector, returning the relabeled pair. d may be nil.
func permutedLayout(a *sparse.CSR, d []float64, perm order.Permutation) (*sparse.CSR, []float64) {
	if perm == nil {
		return a, d
	}
	ap := a.Permute(perm)
	if d == nil {
		return ap, nil
	}
	dp := make([]float64, len(d))
	for i, v := range d {
		dp[perm[i]] = v
	}
	return ap, dp
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

// solverBase carries the identity, lifecycle, and counters every method
// solver shares. Solves hold the read side of mu for their whole
// duration; Close takes the write side, so it waits for in-flight
// solves and flips closed exactly once. Counters are atomics because
// any number of solves may run concurrently.
type solverBase struct {
	solverInfo

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
		return info, fmt.Errorf("core: %v after %d iterations (delta %g): %w",
			b.method, info.Iterations, info.Delta, errs.ErrNotConverged)
	}
	return info, nil
}

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
// LinBP / LinBP*

// batchWidth caps the flat row width (blocks·k) of a fused batch
// chunk. Width 12 keeps every chunk on the kernel's register-blocked
// fast paths (k ∈ {2, 3}) and the working set close to the
// single-problem one, which matters on cache-resident graphs.
const batchWidth = 12

type linbpBatchEngine struct {
	eng *kernel.Engine
	ws  *kernel.Workspace
	ein []float64 // interleaved explicit beliefs, n × blocks·k
}

// linbpSolver serves LinBP and LinBP* through pooled prepared kernel
// engines: a statePool of single-problem engines for Solve/SolveInto
// and one statePool of fused multi-block engines per batch chunk size
// for SolveBatch. All engines share the immutable row-block adjacency
// (with its degrees), coupling, and layout; only the mutable workspaces
// are per-pool-entry, so concurrent solves never contend on state.
type linbpSolver struct {
	solverBase
	rows    *sparse.RowBlocks // layout-ordered adjacency (+ degrees for LinBP) shared by all engines
	h       *dense.Matrix
	perm    order.Permutation // nil = natural order
	maxIter int
	tol     float64

	states *statePool[*linbp.Engine]
	batch  []*statePool[*linbpBatchEngine] // index c-1 → chunks of c requests
	// rstates pools the residual-scheduled engines; nil when the
	// schedule is rounds-only or a negative tolerance forces fixed
	// rounds (the residual plane has no fixed-round mode).
	rstates *statePool[*linbp.ResidualEngine]
}

// layoutRows lays out a caller-order adjacency for the kernel-backed
// methods: relabel it by perm (nil keeps the order) and wrap the result
// in an epoch-0 row-block table — with the squared-weight degrees when
// echo is on. The degrees are the layout rows' RowSumsSquared, the same
// value a commit recomputes for an edited row. The dynamic plane
// commits later epochs of the table, reusing perm between compactions.
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

func newLinBPSolver(p *Problem, base solverInfo, cfg config, perm order.Permutation) (*linbpSolver, error) {
	rows, err := layoutRows(p.Graph.Adjacency(), base.method == MethodLinBP, perm)
	if err != nil {
		return nil, err
	}
	return newLinBPSolverOn(coupling.Scale(p.Ho, base.eps), base, cfg, rows, perm)
}

// newLinBPSolverOn builds the snapshot on an explicit layout — a
// row-block table and the relabeling it was laid out under — and
// validates it by building the first engine eagerly.
func newLinBPSolverOn(h *dense.Matrix, base solverInfo, cfg config, rows *sparse.RowBlocks, perm order.Permutation) (*linbpSolver, error) {
	s := &linbpSolver{
		h:       h,
		perm:    perm,
		maxIter: cfg.maxIter,
		tol:     cfg.tol,
	}
	if s.maxIter == 0 {
		s.maxIter = linbp.DefaultMaxIter
	}
	if s.tol == 0 {
		s.tol = linbp.DefaultTol
	}
	s.initPools(rows, base)
	eng, err := s.states.get()
	if err != nil {
		return nil, err
	}
	s.states.put(eng)
	if s.schedule == ScheduleResidual {
		// The residual plane is this solver's serving path: validate its
		// configuration eagerly too, so Prepare (not the first solve)
		// reports a bad tolerance.
		reng, err := s.rstates.get()
		if err != nil {
			return nil, err
		}
		s.rstates.put(reng)
	}
	return s, nil
}

// initPools binds the snapshot to its epoch's table and identity and
// creates its (empty) engine pools.
func (s *linbpSolver) initPools(rows *sparse.RowBlocks, base solverInfo) {
	s.rows = rows
	s.solverInfo = base
	s.batchHint = s.maxBlocks()
	s.states = newStatePool(func() (*linbp.Engine, error) {
		return linbp.NewEngineRows(s.rows, s.h, s.perm, linbp.Options{
			EchoCancellation: s.method == MethodLinBP,
			MaxIter:          s.maxIter,
			Tol:              s.tol,
			Workers:          s.workers,
		})
	}).withDestroy(func(e *linbp.Engine) { e.Close() })
	s.batch = make([]*statePool[*linbpBatchEngine], s.maxBlocks())
	for i := range s.batch {
		c := i + 1
		s.batch[i] = newStatePool(func() (*linbpBatchEngine, error) {
			ws := kernel.GetWorkspace()
			eng, err := kernel.New(kernel.Config{
				Rows: s.rows, H: s.h,
				Workers: s.workers, Blocks: c,
				SymmetricA: true,
			}, ws)
			if err != nil {
				ws.Release()
				return nil, fmt.Errorf("core: batch engine: %w", err)
			}
			return &linbpBatchEngine{eng: eng, ws: ws, ein: make([]float64, s.n*c*s.k)}, nil
		}).withDestroy(func(be *linbpBatchEngine) {
			be.eng.Close()
			be.ws.Release()
		})
	}
	if s.schedule != ScheduleRounds && s.tol > 0 {
		s.rstates = newStatePool(func() (*linbp.ResidualEngine, error) {
			return linbp.NewResidualEngineRows(s.rows, s.h, s.perm, linbp.Options{
				MaxIter: s.maxIter,
				Tol:     s.tol,
			})
		}).withDestroy(func(e *linbp.ResidualEngine) { e.Close() })
	}
}

// successor builds the next epoch's snapshot on a table committed from
// this one's: same coupling and layout, and no engine built — the idle engines of every pool move over, rebound to the new
// table (an engine that cannot rebind is destroyed and rebuilt on
// demand).
func (s *linbpSolver) successor(rows *sparse.RowBlocks, base solverInfo) snapshot {
	next := &linbpSolver{h: s.h, perm: s.perm, maxIter: s.maxIter, tol: s.tol}
	next.initPools(rows, base)
	moveIdle(s.states, next.states, func(e *linbp.Engine) error { return e.Rebind(rows) })
	for i := range s.batch {
		moveIdle(s.batch[i], next.batch[i], func(be *linbpBatchEngine) error { return be.eng.Rebind(rows) })
	}
	if s.rstates != nil {
		moveIdle(s.rstates, next.rstates, func(e *linbp.ResidualEngine) error { return e.Rebind(rows) })
	}
	return next
}

// solveLayout runs one round-scheduled solve of the dynamic plane on a
// pooled engine over layout-order buffers: e the explicit beliefs,
// start the warm start (nil = cold). When a round ran and no error
// aborted it, the final iterate is copied into out. keep returns the
// engine to the pool; otherwise it leaves the pool and is closed (see
// kernelSnapshot).
func (s *linbpSolver) solveLayout(ctx context.Context, out, e, start []float64, keep bool) (SolveInfo, error) {
	s.solves.Add(1)
	if err := s.admitCtx(ctx); err != nil {
		return SolveInfo{}, err
	}
	eng, err := s.states.get()
	if err != nil {
		return SolveInfo{}, err
	}
	state, iters, delta, converged, err := eng.RunLayout(ctx, e, start)
	if iters > 0 && err == nil {
		copy(out, state)
	}
	if keep {
		s.states.put(eng)
	} else {
		s.states.discard(eng)
	}
	return s.record(SolveInfo{Iterations: iters, Converged: converged, Delta: delta}, err)
}

func (s *linbpSolver) closeIdle() { s.states.closeIdle() }

func (s *linbpSolver) base() *solverBase { return &s.solverBase }

func (s *linbpSolver) Solve(ctx context.Context, e *beliefs.Residual) (*Result, error) {
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
func (s *linbpSolver) SolveInto(ctx context.Context, dst, e *beliefs.Residual) (SolveInfo, error) {
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

// solveInto runs one counted-elsewhere solve on a pooled engine. The
// caller holds the read lock and has validated the shapes.
//
//lsbp:hotpath
func (s *linbpSolver) solveInto(ctx context.Context, dst, e *beliefs.Residual) (SolveInfo, error) {
	if err := s.admitCtx(ctx); err != nil {
		return SolveInfo{}, err
	}
	if s.schedule == ScheduleResidual && s.rstates != nil {
		return s.solveResidual(ctx, dst, e)
	}
	eng, err := s.states.get()
	if err != nil {
		return SolveInfo{}, err
	}
	defer s.states.put(eng)
	iters, delta, converged, err := eng.SolveIntoContext(ctx, dst, e)
	return s.record(SolveInfo{Iterations: iters, Converged: converged, Delta: delta}, err)
}

// solveResidual runs one residual-scheduled cold solve on a pooled
// engine; the round-equivalent ⌈relaxed/n⌉ keeps Iterations comparable
// across schedules. Callers hold the read lock, have validated the
// shapes and admitted the context; s.rstates must be non-nil.
//
//lsbp:hotpath
func (s *linbpSolver) solveResidual(ctx context.Context, dst, e *beliefs.Residual) (SolveInfo, error) {
	eng, err := s.rstates.get()
	if err != nil {
		return SolveInfo{}, err
	}
	defer s.rstates.put(eng)
	relaxed, peak, maxResid, converged, err := eng.SolveContext(ctx, dst, e)
	s.pushes.Add(int64(eng.Pushes()))
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

// maxBlocks is the largest number of requests fused into one kernel
// chunk for this solver's class count.
//
//lsbp:hotpath
func (s *linbpSolver) maxBlocks() int {
	b := batchWidth / s.k
	if b < 1 {
		return 1
	}
	return b
}

// SolveBatch fuses the requests into multi-block kernel chunks: each
// update round traverses the CSR once for every request in a chunk, so
// a batch of R requests costs far less than R single solves even on a
// single core (and the chunks still run on the span pool when Workers
// is set). Requests in a chunk share rounds: iteration stops once every
// request's delta is within tolerance, and the shared round count and
// maximum delta are reported for each. Results match the request's
// single solve up to summation-order rounding (~1 ulp per round).
//
//lsbp:hotpath
func (s *linbpSolver) SolveBatch(ctx context.Context, reqs []Request) []Response {
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
	mb := s.maxBlocks()
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

// solveChunk runs one fused chunk on a pooled batch engine and fills
// its responses. It returns non-nil only when the batch cannot
// meaningfully continue — the shared context is done, or engines can
// no longer be built — telling SolveBatch to fail the remaining
// chunks without running them. A chunk that merely fails numerically
// (one diverging request poisons its fused cohort) reports the error
// in its own responses and returns nil, so unrelated chunks in the
// same batch still run.
//
//lsbp:hotpath
func (s *linbpSolver) solveChunk(ctx context.Context, reqs []Request, resp []Response, chunk []int) error {
	c := len(chunk)
	be, err := s.batch[c-1].get()
	if err != nil {
		for _, ri := range chunk {
			resp[ri].Err = err
		}
		return err
	}
	defer s.batch[c-1].put(be)
	n, k := s.n, s.k
	// Interleave the chunk's explicit beliefs: node i's blocks·k row
	// holds request 0..c-1's k-wide rows back to back. Element loops
	// instead of per-row copy() — at k ∈ {2,3} the memmove call would
	// cost more than the moved bytes. Under a reordered layout the
	// permutation rides along in the same pass: node i lands at its
	// layout position, so the shuffle costs nothing extra.
	for bi, ri := range chunk {
		ed := reqs[ri].E.Matrix().Data()
		if s.perm == nil {
			for i := 0; i < n; i++ {
				dst := be.ein[(i*c+bi)*k : (i*c+bi)*k+k]
				src := ed[i*k : i*k+k]
				for j := range dst {
					dst[j] = src[j]
				}
			}
		} else {
			for i := 0; i < n; i++ {
				pi := s.perm[i]
				dst := be.ein[(pi*c+bi)*k : (pi*c+bi)*k+k]
				src := ed[i*k : i*k+k]
				for j := range dst {
					dst[j] = src[j]
				}
			}
		}
	}
	be.eng.ResetFast()
	be.eng.SetExplicit(be.ein)
	iters, delta, converged, runErr := be.eng.RunContext(ctx, s.maxIter, s.tol, nil)
	s.iterations.Add(int64(iters))

	// One shared error value per chunk: its requests share rounds, so
	// they share the outcome too.
	var chunkErr error
	switch {
	case runErr != nil:
		chunkErr = fmt.Errorf("core: %v batch: %w", s.method, runErr) //lsbp:ignore hotpath-noalloc -- error construction runs only on cancelled chunks
	case !converged:
		//lsbp:ignore hotpath-noalloc -- error construction runs only on non-converged chunks
		chunkErr = fmt.Errorf("core: %v after %d iterations (delta %g): %w", s.method, iters, delta, errs.ErrNotConverged)
	}

	// De-interleave results and fill the chunk's responses. When no
	// round completed (pre-cancelled context) the engine buffer is not
	// meaningful; the responses carry only the error.
	state := be.eng.Beliefs()
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
			dst = beliefs.New(n, k) //lsbp:ignore hotpath-noalloc -- a nil Dst is the caller opting out of zero-alloc
		}
		dd := dst.Matrix().Data()
		if s.perm == nil {
			for i := 0; i < n; i++ {
				out := dd[i*k : i*k+k]
				src := state[(i*c+bi)*k : (i*c+bi)*k+k]
				for j := range out {
					out[j] = src[j]
				}
			}
		} else {
			for i := 0; i < n; i++ {
				pi := s.perm[i]
				out := dd[i*k : i*k+k]
				src := state[(pi*c+bi)*k : (pi*c+bi)*k+k]
				for j := range out {
					out[j] = src[j]
				}
			}
		}
		resp[ri].Beliefs = dst
	}
	if runErr != nil && ctx.Err() != nil {
		// Only a dead context condemns the chunks that follow; a
		// numeric failure is this chunk's alone.
		return fmt.Errorf("core: %v batch: %w", s.method, runErr)
	}
	return nil
}

func (s *linbpSolver) Close() error {
	return s.closeOnce(func() {
		s.states.closeAll()
		for _, bp := range s.batch {
			bp.closeAll()
		}
		if s.rstates != nil {
			s.rstates.closeAll()
		}
	})
}

// ---------------------------------------------------------------------------
// BP

// bpState is one per-solve BP workspace: a clone of the shared
// directed-edge layout with private message buffers, plus the
// layout-order permutation scratch.
type bpState struct {
	eng          *bp.Engine
	eperm, dperm *beliefs.Residual // layout-order scratch (nil without perm)
}

// bpSolver serves standard loopy BP through pooled clones of one
// prepared bp.Engine: the directed-edge layout is built once and
// shared read-only; message buffers live in the pooled states.
// Explicit residuals too large to be valid priors are rescaled per
// solve (bpSafeScale; Lemma 12 keeps the classification). Under a
// reordered layout the engines run on the relabeled graph with scratch
// belief matrices carrying the permutation in and out.
type bpSolver struct {
	solverBase
	perm   order.Permutation
	states *statePool[*bpState]
}

func newBPSolver(p *Problem, base solverInfo, cfg config, perm order.Permutation) (*bpSolver, error) {
	return newBPSolverOn(p.Graph, p.Ho, base, cfg, perm)
}

// newBPSolverOn builds the snapshot on an explicit caller-order graph —
// the rebuild entry point of the dynamic plane (which passes a private
// clone so later updates never race the snapshot's readers).
func newBPSolverOn(cg *graph.Graph, ho *dense.Matrix, base solverInfo, cfg config, perm order.Permutation) (*bpSolver, error) {
	h := coupling.Uncenter(coupling.Scale(ho, base.eps))
	g := cg
	if perm != nil {
		g = g.Permute(perm)
	}
	// proto carries the shared directed-edge layout; every pooled state
	// clones it (sharing the layout, owning its message buffers), so
	// concurrent pool misses never touch shared mutable state.
	proto, err := bp.NewEngine(g, h, bp.Options{MaxIter: cfg.maxIter, Tol: cfg.tol})
	if err != nil {
		return nil, err
	}
	s := &bpSolver{perm: perm}
	s.solverInfo = base
	s.states = newStatePool(func() (*bpState, error) {
		st := &bpState{eng: proto.Clone()}
		if s.perm != nil {
			st.eperm = beliefs.New(s.n, s.k)
			st.dperm = beliefs.New(s.n, s.k)
		}
		return st, nil
	})
	st, err := s.states.get()
	if err != nil {
		return nil, err
	}
	s.states.put(st)
	return s, nil
}

func (s *bpSolver) Solve(ctx context.Context, e *beliefs.Residual) (*Result, error) {
	if !s.begin() {
		return nil, s.errClosed()
	}
	defer s.end()
	dst := beliefs.New(s.n, s.k)
	if err := s.checkShapes(dst, e); err != nil {
		return nil, err
	}
	s.solves.Add(1)
	info, err := s.solveInto(ctx, dst, e)
	return s.finish(dst, info, err)
}

func (s *bpSolver) SolveInto(ctx context.Context, dst, e *beliefs.Residual) (SolveInfo, error) {
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

func (s *bpSolver) solveInto(ctx context.Context, dst, e *beliefs.Residual) (SolveInfo, error) {
	if err := s.admitCtx(ctx); err != nil {
		return SolveInfo{}, err
	}
	st, err := s.states.get()
	if err != nil {
		return SolveInfo{}, err
	}
	defer s.states.put(st)
	scale := bpSafeScale(e) // row shuffles keep MaxAbs, so original e is fine
	var iters int
	var delta float64
	var converged bool
	if s.perm == nil {
		iters, delta, converged, err = st.eng.SolveInto(ctx, dst, e, scale)
	} else {
		s.perm.ApplyRows(st.eperm.Matrix().Data(), e.Matrix().Data(), s.k)
		iters, delta, converged, err = st.eng.SolveInto(ctx, st.dperm, st.eperm, scale)
		s.perm.InvertRows(dst.Matrix().Data(), st.dperm.Matrix().Data(), s.k)
	}
	return s.record(SolveInfo{Iterations: iters, Converged: converged, Delta: delta}, err)
}

func (s *bpSolver) SolveBatch(ctx context.Context, reqs []Request) []Response {
	if !s.begin() {
		return failAll(reqs, s.errClosed())
	}
	defer s.end()
	return s.sequentialBatch(ctx, reqs, s.solveInto)
}

func (s *bpSolver) Close() error { return s.closeOnce(nil) }

// ---------------------------------------------------------------------------
// SBP

// sbpState is one per-solve SBP workspace: a private Runner (each
// caches its own geodesic ordering) plus permutation scratch.
type sbpState struct {
	runner       *sbp.Runner
	eperm, dperm *beliefs.Residual // layout-order scratch (nil without perm)
}

// sbpSolver serves single-pass BP. Solve materializes a full
// incremental State (the legacy contract — Result.SBP supports
// AddExplicitBeliefs/AddEdges); that State aliases the problem's
// graph, so its mutators fall outside the solver's concurrency
// guarantee (see the Solver doc). SolveInto and SolveBatch use pooled
// prepared Runners, each reusing its geodesic ordering across solves
// with an unchanged explicit node set. SBP is εH-invariant, so the
// unscaled Hˆo is used throughout. Under a reordered layout the
// Runners work on the relabeled graph (the incremental Solve path
// keeps the caller's graph — its State exposes node ids).
type sbpSolver struct {
	solverBase
	g      *graph.Graph // caller-order graph (legacy Solve path)
	pg     *graph.Graph // layout-ordered graph the runners serve on
	ho     *dense.Matrix
	perm   order.Permutation
	states *statePool[*sbpState]
}

func newSBPSolver(p *Problem, base solverInfo, perm order.Permutation) (*sbpSolver, error) {
	return newSBPSolverOn(p.Graph, p.Ho, base, perm)
}

// newSBPSolverOn builds the snapshot on an explicit caller-order graph
// (the dynamic plane passes a private clone per epoch).
func newSBPSolverOn(cg *graph.Graph, ho *dense.Matrix, base solverInfo, perm order.Permutation) (*sbpSolver, error) {
	g := cg
	if perm != nil {
		g = g.Permute(perm)
	}
	s := &sbpSolver{g: cg, pg: g, ho: ho, perm: perm}
	s.solverInfo = base
	if cg.N() > 0 {
		// Warm the caller-order graph's lazy neighbor index while
		// preparation is single-goroutine; concurrent legacy Solves
		// then only read it. (NewRunner warms the layout-order graph.)
		cg.Degree(0)
	}
	s.states = newStatePool(func() (*sbpState, error) {
		runner, err := sbp.NewRunner(s.pg, s.ho)
		if err != nil {
			return nil, err
		}
		st := &sbpState{runner: runner}
		if s.perm != nil {
			st.eperm = beliefs.New(s.n, s.k)
			st.dperm = beliefs.New(s.n, s.k)
		}
		return st, nil
	})
	st, err := s.states.get()
	if err != nil {
		return nil, err
	}
	s.states.put(st)
	return s, nil
}

func (s *sbpSolver) Solve(ctx context.Context, e *beliefs.Residual) (*Result, error) {
	if !s.begin() {
		return nil, s.errClosed()
	}
	defer s.end()
	if err := s.checkShapes(e, e); err != nil {
		return nil, err
	}
	s.solves.Add(1)
	if err := s.admitCtx(ctx); err != nil {
		return nil, err
	}
	st, err := sbp.RunContext(ctx, s.g, e, s.ho)
	if err != nil {
		s.cancelled.Add(1)
		return nil, fmt.Errorf("core: %v solve: %w", s.method, err)
	}
	res := &Result{Method: s.method, Beliefs: st.Beliefs(), SBP: st, Converged: true}
	for _, g := range st.Geodesics() {
		if g > res.Iterations {
			res.Iterations = g
		}
	}
	s.iterations.Add(int64(res.Iterations))
	return res, nil
}

func (s *sbpSolver) SolveInto(ctx context.Context, dst, e *beliefs.Residual) (SolveInfo, error) {
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

func (s *sbpSolver) solveInto(ctx context.Context, dst, e *beliefs.Residual) (SolveInfo, error) {
	if err := s.admitCtx(ctx); err != nil {
		return SolveInfo{}, err
	}
	st, err := s.states.get()
	if err != nil {
		return SolveInfo{}, err
	}
	defer s.states.put(st)
	var levels int
	if s.perm == nil {
		levels, err = st.runner.SolveInto(ctx, dst, e)
	} else {
		s.perm.ApplyRows(st.eperm.Matrix().Data(), e.Matrix().Data(), s.k)
		levels, err = st.runner.SolveInto(ctx, st.dperm, st.eperm)
		s.perm.InvertRows(dst.Matrix().Data(), st.dperm.Matrix().Data(), s.k)
	}
	info := SolveInfo{Iterations: levels, Converged: err == nil}
	return s.record(info, err)
}

func (s *sbpSolver) SolveBatch(ctx context.Context, reqs []Request) []Response {
	if !s.begin() {
		return failAll(reqs, s.errClosed())
	}
	defer s.end()
	return s.sequentialBatch(ctx, reqs, s.solveInto)
}

func (s *sbpSolver) Close() error { return s.closeOnce(nil) }

// ---------------------------------------------------------------------------
// FABP

// fabpState is one per-solve FABP workspace: a prepared scalar engine
// plus the collapse/expand scratch vectors.
type fabpState struct {
	eng    *fabp.Engine
	es, bs []float64 // scalar explicit/result scratch (layout order)
	// reng serves the residual schedule; nil when the schedule is
	// rounds-only or a negative tolerance forces fixed rounds.
	reng *fabp.ResidualEngine
}

// rebind follows the state's engines to a later epoch's table.
func (st *fabpState) rebind(rows *sparse.RowBlocks) error {
	if err := st.eng.Rebind(rows); err != nil {
		return err
	}
	if st.reng != nil {
		return st.reng.Rebind(rows)
	}
	return nil
}

// fabpSolver serves the binary (k = 2) scalar linearization of
// Appendix E through pooled prepared fabp.Engines. The k×k residual
// problem surface is kept: explicit beliefs come in as n×2 residual
// rows whose class-0 component is the scalar input, and results are
// expanded back to (b, −b) rows, so FABP really is a drop-in fifth
// method.
type fabpSolver struct {
	solverBase
	rows    *sparse.RowBlocks // layout-ordered adjacency + squared-weight degrees
	hhat    float64
	perm    order.Permutation
	maxIter int
	tol     float64
	states  *statePool[*fabpState]
}

func newFABPSolver(p *Problem, base solverInfo, cfg config, perm order.Permutation) (*fabpSolver, error) {
	if p.K() != 2 {
		return nil, fmt.Errorf("core: FABP needs k=2 classes, got k=%d: %w", p.K(), errs.ErrDimensionMismatch)
	}
	rows, err := layoutRows(p.Graph.Adjacency(), true, perm)
	if err != nil {
		return nil, err
	}
	// Any valid k=2 residual coupling has the form [[ĥ,−ĥ],[−ĥ,ĥ]];
	// the scaled ĥ is its (0,0) entry.
	return newFABPSolverOn(base.eps*p.Ho.At(0, 0), base, cfg, rows, perm)
}

// newFABPSolverOn builds the snapshot on an explicit layout (see
// newLinBPSolverOn) and validates it by building the first state
// eagerly.
func newFABPSolverOn(hhat float64, base solverInfo, cfg config, rows *sparse.RowBlocks, perm order.Permutation) (*fabpSolver, error) {
	s := &fabpSolver{
		hhat:    hhat,
		perm:    perm,
		maxIter: cfg.maxIter,
		tol:     cfg.tol,
	}
	s.initPools(rows, base)
	st, err := s.states.get()
	if err != nil {
		return nil, err
	}
	s.states.put(st)
	return s, nil
}

// initPools binds the snapshot to its epoch's table and identity and
// creates its (empty) state pool.
func (s *fabpSolver) initPools(rows *sparse.RowBlocks, base solverInfo) {
	s.rows = rows
	s.solverInfo = base
	s.states = newStatePool(func() (*fabpState, error) {
		eng, err := fabp.NewEngineRows(s.rows, s.hhat, fabp.Options{
			MaxIter: s.maxIter, Tol: s.tol,
		})
		if err != nil {
			return nil, err
		}
		st := &fabpState{eng: eng, es: make([]float64, s.n), bs: make([]float64, s.n)}
		if s.schedule != ScheduleRounds && s.tol >= 0 {
			// Tol 0 selects the package default inside fabp, matching the
			// rounds engine above; only an explicit fixed-round tolerance
			// (< 0) leaves the residual plane out.
			st.reng, err = fabp.NewResidualEngineRows(s.rows, s.hhat, fabp.Options{
				MaxIter: s.maxIter, Tol: s.tol,
			})
			if err != nil {
				eng.Close()
				return nil, err
			}
		}
		return st, nil
	}).withDestroy(func(st *fabpState) { st.eng.Close() })
}

// successor builds the next epoch's snapshot on a table committed from
// this one's, moving the idle states over rebound (see
// linbpSolver.successor).
func (s *fabpSolver) successor(rows *sparse.RowBlocks, base solverInfo) snapshot {
	next := &fabpSolver{hhat: s.hhat, perm: s.perm, maxIter: s.maxIter, tol: s.tol}
	next.initPools(rows, base)
	moveIdle(s.states, next.states, func(st *fabpState) error { return st.rebind(rows) })
	return next
}

// solveLayout is linbpSolver.solveLayout for the scalar collapse: e,
// start, and out are layout-order scalar vectors.
func (s *fabpSolver) solveLayout(ctx context.Context, out, e, start []float64, keep bool) (SolveInfo, error) {
	s.solves.Add(1)
	if err := s.admitCtx(ctx); err != nil {
		return SolveInfo{}, err
	}
	st, err := s.states.get()
	if err != nil {
		return SolveInfo{}, err
	}
	iters, delta, converged, err := st.eng.SolveFromInto(ctx, st.bs, e, start)
	if iters > 0 && err == nil {
		copy(out, st.bs)
	}
	if keep {
		s.states.put(st)
	} else {
		s.states.discard(st)
	}
	return s.record(SolveInfo{Iterations: iters, Converged: converged, Delta: delta}, err)
}

func (s *fabpSolver) closeIdle() { s.states.closeIdle() }

func (s *fabpSolver) base() *solverBase { return &s.solverBase }

func (s *fabpSolver) Solve(ctx context.Context, e *beliefs.Residual) (*Result, error) {
	if !s.begin() {
		return nil, s.errClosed()
	}
	defer s.end()
	dst := beliefs.New(s.n, s.k)
	if err := s.checkShapes(dst, e); err != nil {
		return nil, err
	}
	s.solves.Add(1)
	info, err := s.solveInto(ctx, dst, e)
	return s.finish(dst, info, err)
}

func (s *fabpSolver) SolveInto(ctx context.Context, dst, e *beliefs.Residual) (SolveInfo, error) {
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

// solveInto is the shared collapse/solve/expand body: the class-0
// column goes in (shuffled into the layout order on the way), the
// scalar solve runs — on the residual plane under ScheduleResidual —
// and the (b, −b) rows come back out in the caller's order.
func (s *fabpSolver) solveInto(ctx context.Context, dst, e *beliefs.Residual) (SolveInfo, error) {
	if err := s.admitCtx(ctx); err != nil {
		return SolveInfo{}, err
	}
	st, err := s.states.get()
	if err != nil {
		return SolveInfo{}, err
	}
	defer s.states.put(st)
	// The scalar collapse/expand copies double as the layout shuffle:
	// indexing through perm costs nothing extra per element.
	ed := e.Matrix().Data()
	if s.perm == nil {
		for i := 0; i < s.n; i++ {
			st.es[i] = ed[i*2]
		}
	} else {
		for i := 0; i < s.n; i++ {
			st.es[s.perm[i]] = ed[i*2]
		}
	}
	var info SolveInfo
	if s.schedule == ScheduleResidual && st.reng != nil {
		var relaxed, peak int
		var maxResid float64
		var converged bool
		relaxed, peak, maxResid, converged, err = st.reng.Solve(ctx, st.bs, st.es)
		s.pushes.Add(int64(st.reng.Pushes()))
		info = residualInfo(s.n, relaxed, peak, maxResid, converged)
	} else {
		info.Iterations, info.Delta, info.Converged, err = st.eng.SolveInto(ctx, st.bs, st.es)
	}
	expandBinary(dst.Matrix().Data(), st.bs, s.perm)
	return s.record(info, err)
}

// expandBinary writes the scalar layout-order beliefs b as caller-order
// (b, −b) rows into dd.
func expandBinary(dd, b []float64, perm order.Permutation) {
	if perm == nil {
		for i, v := range b {
			dd[i*2], dd[i*2+1] = v, -v
		}
		return
	}
	for i, pi := range perm {
		v := b[pi]
		dd[i*2], dd[i*2+1] = v, -v
	}
}

func (s *fabpSolver) SolveBatch(ctx context.Context, reqs []Request) []Response {
	if !s.begin() {
		return failAll(reqs, s.errClosed())
	}
	defer s.end()
	return s.sequentialBatch(ctx, reqs, s.solveInto)
}

func (s *fabpSolver) Close() error {
	return s.closeOnce(func() {
		s.states.closeAll()
	})
}
