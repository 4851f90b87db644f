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
	// Epoch is the number of epochs the dynamic plane has published
	// (0 until the first topology Update); Updates counts
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
// scratch. Each committed topology update publishes the next epoch, an
// immutable value holding the next copy-on-write table of the
// layout-order adjacency, with one atomic store that waits for
// nothing: solves already in flight finish on the epoch they started
// on, new solves land on the new one, and no reader ever observes a
// half-updated graph.
//
// Solvers are safe for concurrent use: any number of goroutines may
// call Solve, SolveInto, SolveBatch, Update, and Stats on one shared
// Solver (updates serialize internally). Per-solve workspaces are
// recycled through the solver's pools and rebound to the epoch each
// solve reads, so the SolveInto serving path stays allocation-free in
// steady state no matter how many goroutines share the solver. Close
// is idempotent, waits for in-flight solves and a pending update
// (including its compaction rebuild) to drain, and fails later solves
// with ErrClosed.
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
	// compaction knob — re-solves the maintained problem (warm-started
	// from the previous fixpoint for the kernel-backed methods), and
	// returns the refreshed result. Updates serialize against each
	// other; concurrent solves keep serving the previous epoch until
	// the swap, are never interrupted, and are never waited for.
	Update(ctx context.Context, u Update) (*Result, error)
	// Stats returns a snapshot of configuration and serving counters;
	// safe to call concurrently with solves.
	Stats() SolverStats
	// Close releases pooled resources after waiting for in-flight
	// solves to complete. It is idempotent; any solve after Close
	// fails with ErrClosed.
	Close() error
}

// newConfig applies opts over base and checks the result: the option
// checks Prepare and Open share.
func newConfig(base config, opts []Option) (config, error) {
	cfg := base
	for _, o := range opts {
		if o != nil {
			o(&cfg)
		}
	}
	switch cfg.schedule {
	case ScheduleRounds, ScheduleResidual, ScheduleAuto:
	default:
		return cfg, fmt.Errorf("core: unknown schedule %v: %w", cfg.schedule, errs.ErrInvalidInput)
	}
	if cfg.schedule == ScheduleResidual && cfg.tol < 0 {
		return cfg, fmt.Errorf("core: the residual schedule needs a convergence tolerance (a negative WithTol forces fixed rounds): %w", errs.ErrInvalidInput)
	}
	return cfg, nil
}

// newSolverInfo is the Stats identity of method m's solver on n nodes
// and k classes at scale eps under cfg — the one constructor Prepare,
// Open and compaction share. BP and SBP have no residual plane; they
// ignore the schedule the way they ignore Workers.
func newSolverInfo(m Method, n, k int, eps float64, cfg config) solverInfo {
	info := solverInfo{method: m, n: n, k: k, workers: cfg.workers, eps: eps}
	if kernelMethod(m) {
		info.schedule = cfg.schedule
	}
	return info
}

// planLayout makes the layout decisions on a caller-order adjacency a:
// the auto εH derivation (when configured; eps otherwise), the
// reordering strategy, and the locality diagnostics. Prepare and
// compaction share it; it changes no solver state. perm is nil for the
// natural order.
func planLayout(m Method, cfg config, ho *dense.Matrix, a *sparse.CSR, k int, eps float64) (solverInfo, order.Permutation, error) {
	if cfg.autoEps && m != MethodSBP {
		var err error
		if eps, err = autoEpsilonCSR(a, ho, m != MethodLinBPStar); err != nil {
			return solverInfo{}, nil, err
		}
	}
	info := newSolverInfo(m, a.Rows(), k, eps, cfg)
	perm, chosen := order.Compute(cfg.reorder, a)
	info.ordering = chosen
	info.bandBefore = order.Bandwidth(a, nil)
	info.bandAfter = info.bandBefore
	if perm != nil {
		info.bandAfter = order.Bandwidth(a, perm)
	}
	return info, perm, nil
}

// newEpoch lays out the adjacency a and builds method m's first epoch of
// a layout on it: a is relabeled by relabel (nil keeps its order) into
// the layout whose caller-to-layout map is perm. Prepare and compaction
// pass a caller-order matrix with relabel = perm; Open passes the
// stored layout-order matrix with relabel = nil.
func newEpoch(m Method, ho *dense.Matrix, info solverInfo, cfg config, a *sparse.CSR, relabel, perm order.Permutation) (*epoch, error) {
	ep := &epoch{solverInfo: info, rm: rowMap{perm: perm, n: info.n, k: info.k, w: info.k}}
	echo := false
	switch {
	case kernelMethod(m):
		op, err := kernelOperator(m, ho, info.eps, info.k, cfg)
		if err != nil {
			return nil, err
		}
		ep.op, ep.rm.w, ep.batchHint, echo = op, op.w, op.blocks, op.echo
	case m == MethodBP:
		ep.h = coupling.Uncenter(coupling.Scale(ho, info.eps))
	default:
		// SBP is εH-invariant and runs on the unscaled Hˆo.
		ep.h = ho
	}
	rows, err := layoutSet(a, echo, relabel)
	if err != nil {
		return nil, err
	}
	ep.rows = rows
	return ep, nil
}

// Prepare validates the problem once and builds a prepared Solver for
// the method. The problem's Graph, Ho, and EpsilonH are fixed at
// preparation time. Explicit seeds the maintained problem that Update
// evolves (and a durable Prepare checkpoints): Prepare copies its
// non-zero rows, so later changes to the caller's matrix reach neither.
// It may be a zero matrix for pure serving use, since Solve takes its
// explicit beliefs per call.
func Prepare(p *Problem, m Method, opts ...Option) (Solver, error) {
	cfg, err := newConfig(config{}, opts)
	if err != nil {
		return nil, err
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	switch m {
	case MethodBP, MethodLinBP, MethodLinBPStar, MethodSBP, MethodFABP:
	default:
		return nil, fmt.Errorf("core: unknown method %v: %w", m, errs.ErrInvalidInput)
	}
	// The layout optimizer runs once per prepared solver: resolve the
	// reordering strategy on the adjacency structure and record the
	// locality diagnostics.
	a := p.Graph.Adjacency()
	info, perm, err := planLayout(m, cfg, p.Ho, a, p.K(), p.EpsilonH)
	if err != nil {
		return nil, err
	}

	// The solver keeps private copies of the problem parts it reads
	// after Prepare returns: the explicit beliefs (as their non-zero
	// rows, which Update maintains) and the coupling (every compaction
	// and checkpoint). A caller reusing either then changes neither the
	// served nor the recovered problem. Of the graph, every method keeps
	// only the layout table built from it here.
	ho := p.Ho.Clone()
	ep, err := newEpoch(m, ho, info, cfg, a, perm, perm)
	if err != nil {
		return nil, err
	}
	exp, err := ep.rm.explicitSet(p.Explicit.Matrix().Data())
	if err != nil {
		return nil, err
	}
	// Every prepared solver is served through the epoch-versioned
	// dynamic plane; a solver that never sees an Update pays only an
	// atomic pointer load per solve for it.
	d, err := newDynSolver(m, cfg, ho, exp, ep)
	if err != nil {
		return nil, err
	}
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

// autoEpsilonCSR is AutoEpsilonH on a caller-order adjacency matrix
// without the method restriction: half the exact Lemma 8 threshold for
// the chosen echo setting.
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
//
// The solver owns one pool per kind of state for its whole life, and
// every state is handed out for an epoch. Each publish moves the pool to
// the new epoch (advance): an idle state of its layout is rebound to it
// (bind), so no idle state pins a superseded table, and every other idle
// state is destroyed — all of them when a compaction starts a new
// layout. A state that served an epoch of another layout is destroyed
// when it comes back, and a solve on an epoch of another layout takes
// no pooled state: it builds its own.
type statePool[T comparable] struct {
	mu     sync.Mutex
	free   []T
	all    []T
	layout int64 // the layout of the pooled states; see advance
	build  func(*epoch) (T, error)
	// bind rebinds an idle state to ep, an epoch of the pool's layout,
	// and reports whether the state can serve it.
	bind    func(T, *epoch) bool
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

func newStatePool[T comparable](build func(*epoch) (T, error), bind func(T, *epoch) bool) *statePool[T] {
	return &statePool[T]{build: build, bind: bind, maxFree: defaultPoolFreeCap()}
}

// withDestroy registers the release hook invoked for states dropped at
// the high-water cap and for every live state at closeAll.
func (p *statePool[T]) withDestroy(f func(T)) *statePool[T] {
	p.destroy = f
	return p
}

// get returns a pooled state bound to ep, or builds one on ep. An idle
// state that cannot serve ep is destroyed.
//
//lsbp:hotpath
func (p *statePool[T]) get(ep *epoch) (T, error) {
	for {
		p.mu.Lock()
		n := len(p.free)
		if n == 0 || ep.layout != p.layout {
			p.mu.Unlock()
			break
		}
		v := p.free[n-1]
		var zero T
		p.free[n-1] = zero
		p.free = p.free[:n-1]
		p.mu.Unlock()
		if !p.bind(v, ep) {
			p.discard(v)
			continue
		}
		return v, nil
	}
	v, err := p.build(ep)
	if err != nil {
		var zero T
		return zero, err
	}
	p.mu.Lock()
	p.all = append(p.all, v)
	p.mu.Unlock()
	return v, nil
}

// put returns a state that served ep for reuse, or destroys it when ep
// is of another layout than the pool's or the free list is already at
// its high-water cap — the path that lets memory (and worker
// goroutines) return to the system after a concurrency burst instead
// of being pinned until Close.
//
//lsbp:hotpath
func (p *statePool[T]) put(v T, ep *epoch) {
	p.mu.Lock()
	if len(p.free) < p.maxFree && ep.layout == p.layout {
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

// advance moves the pool to ep, the epoch being published: on ep's
// layout every idle state is rebound to ep, and one that cannot serve it
// is destroyed; on a new layout (a compaction's) every idle state is.
// The layout and the free list change in one critical section, so get
// never hands out a state of another layout than the pool's.
func (p *statePool[T]) advance(ep *epoch) {
	p.mu.Lock()
	var dead []T
	if ep.layout != p.layout {
		p.layout = ep.layout
		dead, p.free = p.free, nil
	} else {
		kept := p.free[:0]
		for _, v := range p.free {
			if p.bind(v, ep) {
				kept = append(kept, v)
			} else {
				dead = append(dead, v)
			}
		}
		clear(p.free[len(kept):])
		p.free = kept
	}
	for _, v := range dead {
		p.dropLocked(v)
	}
	p.mu.Unlock()
	if p.destroy != nil {
		for _, v := range dead {
			p.destroy(v)
		}
	}
}

// closeIdle destroys every idle state.
func (p *statePool[T]) closeIdle() {
	p.mu.Lock()
	idle := p.free
	p.free = nil
	for _, v := range idle {
		p.dropLocked(v)
	}
	p.mu.Unlock()
	if p.destroy != nil {
		for _, v := range idle {
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

// counters are a solver's lifetime serving counters, one set for its
// whole life: every epoch's solves count here, so the totals never dip
// as epochs swap. Atomics, because any number of solves may run
// concurrently.
type counters struct {
	method Method

	solves, batches, batchReqs atomic.Int64
	iterations                 atomic.Int64
	notConverged, cancelled    atomic.Int64
	rowsRelaxed, pushes        atomic.Int64
	// queuePeak is a lifetime maximum, not a sum; record folds it with
	// a CAS-max.
	queuePeak atomic.Int64
}

// admitCtx rejects a request whose context is already done before any
// kernel work runs. The iterative loops only observe cancellation at
// round boundaries; admission must fail an already-expired deadline
// without spinning up (or waiting on) an engine. The rejection counts
// as a cancelled solve, matching mid-solve aborts.
//
//lsbp:hotpath
func (b *counters) admitCtx(ctx context.Context) error {
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
func (b *counters) record(info SolveInfo, err error) (SolveInfo, error) {
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

// checkShapes validates one dst/e pair against the prepared dimensions.
//
//lsbp:hotpath
func (b *solverInfo) checkShapes(dst, e *beliefs.Residual) error {
	if e == nil || dst == nil {
		return fmt.Errorf("core: nil belief matrix: %w", errs.ErrDimensionMismatch)
	}
	if e.N() != b.n || e.K() != b.k || dst.N() != b.n || dst.K() != b.k {
		return fmt.Errorf("core: belief matrix %dx%d / destination %dx%d do not match n=%d k=%d: %w",
			e.N(), e.K(), dst.N(), dst.K(), b.n, b.k, errs.ErrDimensionMismatch)
	}
	return nil
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

// plane is what differs by method: the engine pools, and one solve or
// one batch on pooled states for an epoch. The solver's entries hold
// its read side (or its update lock), check the shapes of a single
// solve, count it, and admit its context before they call in.
type plane interface {
	// solve runs one request on ep; for SBP a non-nil geo receives the
	// caller-order geodesic numbers.
	solve(ctx context.Context, ep *epoch, dst, e *beliefs.Residual, geo []int) (SolveInfo, error)
	// batch answers the requests on ep, checking each one's shapes.
	batch(ctx context.Context, ep *epoch, reqs []Request) []Response
	// prime builds one state on ep, whose layout the pools are on,
	// before ep is published, so a bad configuration fails there; the
	// state stays pooled for the first solve on ep.
	prime(ep *epoch) error
	// advance moves the pools to ep (see statePool.advance).
	advance(ep *epoch)
	// closeAll destroys every state; no solve may be in flight.
	closeAll()
}

// ---------------------------------------------------------------------------
// LinBP / LinBP* / FABP

// batchWidth caps the flat row width (blocks·k) of a fused batch
// chunk. Width 12 keeps every chunk on the kernel's register-blocked
// fast paths (k ∈ {2, 3}) and the working set close to the
// single-problem one, which matters on cache-resident graphs.
const batchWidth = 12

// kernelOp is what a kernel method contributes to its epochs: the fused
// operator's couplings, whether its layout carries the echo term's
// degrees, the layout row width, the iteration defaults, and the
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

// explicitSet returns the non-zero caller rows of src (n×k) as the
// explicit set of m's layout: each row's w layout values under its
// layout row, with the caller row as its id. Every non-zero row must
// pass checkExplicitRow. A row whose layout values are all zero (FABP:
// a zero class-0 residual) is not in the set.
func (m rowMap) explicitSet(src []float64) (*sparse.RowSet, error) {
	set := sparse.NewRowSet(m.w)
	k := m.k
	for i := 0; i < m.n; i++ {
		row := src[i*k : i*k+k]
		if sparse.ZeroRow(row) {
			continue
		}
		if err := checkExplicitRow(i, row); err != nil {
			return nil, err
		}
		if v := row[:m.w]; !sparse.ZeroRow(v) {
			set.Add(int32(m.at(i)), int32(i), v)
		}
	}
	set.Sort()
	return set, nil
}

// outSet writes the explicit set of m's layout into the caller rows dst
// (n×k, all zero): the set's rows at their caller rows.
func (m rowMap) outSet(dst []float64, set *sparse.RowSet) {
	k, w := m.k, m.w
	for p := 0; p < set.Len(); p++ {
		d, v := dst[int(set.ID(p))*k:int(set.ID(p))*k+k], set.Values(p)
		if w < k { // FABP: b expands to (b, −b)
			d[0], d[1] = v[0], -v[0]
		} else {
			copy(d, v)
		}
	}
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
// identity map, whose single solves read the caller's rows directly,
// until a rounds re-solve of the dynamic plane fills one) and the epoch
// it last served.
type chunkEngine struct {
	eng *kernel.Engine
	ws  *kernel.Workspace
	ein []float64
	ep  *epoch
}

// bind rebinds the engine to ep, an epoch of the layout it was built
// for: a pointer swap, no rebuild. An engine of another layout (another
// row map, and possibly another εH) cannot serve ep.
//
//lsbp:hotpath
func (ce *chunkEngine) bind(ep *epoch) bool {
	if ce.ep != ep {
		if ce.ep.layout != ep.layout || ce.eng.Rebind(ep.rows) != nil {
			return false
		}
		ce.ep = ep
	}
	return true
}

// residualState is one pooled residual-scheduled engine with its
// layout-order explicit buffer (nil under the identity map) and the
// epoch it last served.
type residualState struct {
	eng *kernel.ResidualEngine
	ein []float64
	ep  *epoch
}

// bind rebinds the engine to ep, an epoch of the layout it was built
// for (see chunkEngine.bind).
//
//lsbp:hotpath
func (st *residualState) bind(ep *epoch) bool {
	if st.ep != ep {
		if st.ep.layout != ep.layout || st.eng.Rebind(ep.rows) != nil {
			return false
		}
		st.ep = ep
	}
	return true
}

// kernelSolver serves LinBP, LinBP*, and FABP through pooled kernel
// engines: one statePool of rounds engines per batch chunk size (single
// solves and the dynamic plane's rounds re-solves are one-request
// chunks) and, under a residual schedule, a pool of residual-scheduled
// engines. Every engine reads the epoch's immutable row-block adjacency
// (with its degrees), operator and row map; only the mutable
// workspaces are per-pool-entry, so concurrent solves never contend on
// state.
type kernelSolver struct {
	*counters
	chunks []*statePool[*chunkEngine] // index c-1 → chunks of c requests
	// rstates pools the residual-scheduled engines; nil when the
	// schedule is rounds-only or a negative tolerance forces fixed
	// rounds (the residual plane has no fixed-round mode).
	rstates *statePool[*residualState]
}

// layoutSet lays out an adjacency for an epoch: relabel it by perm
// (nil keeps the order) and wrap the result in an epoch-0 row-block
// table — with the squared-weight degrees when echo is on. The degrees
// are the layout rows' RowSumsSquared, the same value a commit
// recomputes for an edited row. The dynamic plane commits later epochs
// of the table, reusing perm between compactions.
func layoutSet(a *sparse.CSR, echo bool, perm order.Permutation) (*sparse.RowBlocks, error) {
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

// newKernelSolver creates the (empty) engine pools for the epochs of
// ep's solver: the chunk sizes, the schedule and the tolerance are the
// same in every one of its layouts.
func newKernelSolver(c *counters, ep *epoch) *kernelSolver {
	s := &kernelSolver{counters: c, chunks: make([]*statePool[*chunkEngine], ep.op.blocks)}
	for i := range s.chunks {
		c := i + 1
		s.chunks[i] = newStatePool(func(ep *epoch) (*chunkEngine, error) {
			ws := kernel.GetWorkspace()
			eng, err := kernel.New(kernel.Config{
				Rows: ep.rows, H: ep.op.h, EchoH: ep.op.echoH,
				Workers: ep.workers, Blocks: c,
				SymmetricA: true,
			}, ws)
			if err != nil {
				ws.Release()
				return nil, fmt.Errorf("core: kernel engine: %w", err)
			}
			ce := &chunkEngine{eng: eng, ws: ws, ep: ep}
			if c > 1 || !ep.rm.identity() {
				ce.ein = make([]float64, ep.n*c*ep.op.w)
			}
			return ce, nil
		}, (*chunkEngine).bind).withDestroy(func(ce *chunkEngine) {
			ce.eng.Close()
			ce.ws.Release()
		})
	}
	if ep.schedule != ScheduleRounds && ep.op.tol > 0 {
		s.rstates = newStatePool(func(ep *epoch) (*residualState, error) {
			eng, err := kernel.NewResidual(kernel.Config{
				Rows: ep.rows, H: ep.op.h, EchoH: ep.op.echoH, SymmetricA: true,
			}, ep.op.tol)
			if err != nil {
				return nil, fmt.Errorf("core: residual engine: %w", err)
			}
			st := &residualState{eng: eng, ep: ep}
			if !ep.rm.identity() {
				st.ein = make([]float64, ep.n*ep.op.w)
			}
			return st, nil
		}, (*residualState).bind)
	}
	return s
}

// prime builds a rounds engine on ep and, when the residual plane is
// the solver's serving path, a residual engine too.
func (s *kernelSolver) prime(ep *epoch) error {
	ce, err := s.chunks[0].get(ep)
	if err != nil {
		return err
	}
	s.chunks[0].put(ce, ep)
	if ep.schedule == ScheduleResidual && s.rstates != nil {
		st, err := s.rstates.get(ep)
		if err != nil {
			return err
		}
		s.rstates.put(st, ep)
	}
	return nil
}

func (s *kernelSolver) advance(ep *epoch) {
	for _, p := range s.chunks {
		p.advance(ep)
	}
	if s.rstates != nil {
		s.rstates.advance(ep)
	}
}

func (s *kernelSolver) closeAll() {
	for _, p := range s.chunks {
		p.closeAll()
	}
	if s.rstates != nil {
		s.rstates.closeAll()
	}
}

// solveLayout runs one round-scheduled solve of the dynamic plane on a
// pooled one-request engine over layout-order buffers: e the explicit
// set, scattered into the engine's explicit buffer (an engine under the
// identity map gets one, which stays with it), start the warm start
// (nil = cold). When a round ran and no error aborted it, the final
// iterate is copied into out. keep returns the engine to the pool;
// otherwise it leaves the pool and is closed, its buffer with it (see
// kernelPlane.keepRounds).
func (s *kernelSolver) solveLayout(ctx context.Context, ep *epoch, out []float64, e *sparse.RowSet, start []float64, keep bool) (SolveInfo, error) {
	s.solves.Add(1)
	if err := s.admitCtx(ctx); err != nil {
		return SolveInfo{}, err
	}
	ce, err := s.chunks[0].get(ep)
	if err != nil {
		return SolveInfo{}, err
	}
	if start == nil {
		ce.eng.ResetFast()
	} else {
		ce.eng.SetStart(start)
	}
	if ce.ein == nil {
		ce.ein = make([]float64, ep.n*ep.op.w)
	}
	e.Scatter(ce.ein)
	ce.eng.SetExplicit(ce.ein)
	iters, delta, converged, err := ce.eng.RunContext(ctx, ep.op.maxIter, ep.op.tol, nil)
	if iters > 0 && err == nil {
		copy(out, ce.eng.Beliefs())
	}
	if keep {
		s.chunks[0].put(ce, ep)
	} else {
		s.chunks[0].discard(ce)
	}
	return s.record(SolveInfo{Iterations: iters, Converged: converged, Delta: delta}, err)
}

// solve runs one request: a one-request chunk on a pooled engine, or a
// residual-scheduled solve under ScheduleResidual.
//
//lsbp:hotpath
func (s *kernelSolver) solve(ctx context.Context, ep *epoch, dst, e *beliefs.Residual, _ []int) (SolveInfo, error) {
	if ep.schedule == ScheduleResidual && s.rstates != nil {
		return s.solveResidual(ctx, ep, dst, e)
	}
	ce, err := s.chunks[0].get(ep)
	if err != nil {
		return SolveInfo{}, err
	}
	defer s.chunks[0].put(ce, ep)
	ce.eng.ResetFast()
	ce.eng.SetExplicit(ep.rm.input(ce.ein, e.Matrix().Data()))
	iters, delta, converged, err := ce.eng.RunContext(ctx, ep.op.maxIter, ep.op.tol, nil)
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
		ep.rm.out(dd, ce.eng.Beliefs(), 1, 0)
	}
	return s.record(SolveInfo{Iterations: iters, Converged: converged, Delta: delta}, err)
}

// solveResidual runs one residual-scheduled cold solve on a pooled
// engine; the round-equivalent ⌈relaxed/n⌉ keeps Iterations comparable
// across schedules, and the relaxation budget is MaxIter·n rows, the
// work of MaxIter full rounds. dst receives the iterate at every exit.
// s.rstates must be non-nil.
//
//lsbp:hotpath
func (s *kernelSolver) solveResidual(ctx context.Context, ep *epoch, dst, e *beliefs.Residual) (SolveInfo, error) {
	st, err := s.rstates.get(ep)
	if err != nil {
		return SolveInfo{}, err
	}
	defer s.rstates.put(st, ep)
	st.eng.SeedExplicit(ep.rm.input(st.ein, e.Matrix().Data()))
	relaxed, peak, maxResid, converged, err := st.eng.Run(ctx, ep.op.maxIter*ep.n)
	ep.rm.out(dst.Matrix().Data(), st.eng.Beliefs(), 1, 0)
	s.pushes.Add(int64(st.eng.Pushes()))
	return s.record(residualInfo(ep.n, relaxed, peak, maxResid, converged), err)
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

// batch fuses the requests into multi-block kernel chunks: each update
// round traverses the CSR once for every request in a chunk, so a batch
// of R requests costs far less than R single solves even on a single
// core (and the chunks still run on the span pool when Workers is set).
// Requests in a chunk share rounds: iteration stops once every
// request's delta is within tolerance, and the shared round count and
// maximum delta are reported for each. Results match the request's
// single solve up to summation-order rounding (~1 ulp per round);
// FABP's one-request chunks match it bitwise.
//
//lsbp:hotpath
func (s *kernelSolver) batch(ctx context.Context, ep *epoch, reqs []Request) []Response {
	//lsbp:ignore hotpath-noalloc -- the response slice is the batch path's one documented caller-owned allocation
	resp := make([]Response, len(reqs))

	// Chunk the well-shaped requests on the fly (failing ill-shaped
	// ones in place) with a fixed-size index buffer — together with the
	// response slice above, the batch path's only steady-state
	// allocation is that caller-owned slice.
	var idx [batchWidth]int
	mb := ep.op.blocks
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
		batchErr = s.solveChunk(ctx, ep, reqs, resp, chunk)
	}
	for i, req := range reqs {
		if req.E == nil || req.E.N() != ep.n || req.E.K() != ep.k ||
			(req.Dst != nil && (req.Dst.N() != ep.n || req.Dst.K() != ep.k)) {
			resp[i].Err = fmt.Errorf("core: request %d does not match n=%d k=%d: %w", i, ep.n, ep.k, errs.ErrDimensionMismatch)
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
// no longer be built — telling batch to fail the remaining chunks
// without running them. A chunk that merely fails numerically (one
// diverging request poisons its fused cohort) reports the error in its
// own responses and returns nil, so unrelated chunks in the same batch
// still run.
//
//lsbp:hotpath
func (s *kernelSolver) solveChunk(ctx context.Context, ep *epoch, reqs []Request, resp []Response, chunk []int) error {
	c := len(chunk)
	ce, err := s.chunks[c-1].get(ep)
	if err != nil {
		for _, ri := range chunk {
			resp[ri].Err = err
		}
		return err
	}
	defer s.chunks[c-1].put(ce, ep)
	// Interleave the chunk's explicit beliefs: node i's blocks·w layout
	// row holds request 0..c-1's w-wide rows back to back.
	explicit := ce.ein
	if c == 1 {
		explicit = ep.rm.input(ce.ein, reqs[chunk[0]].E.Matrix().Data())
	} else {
		for bi, ri := range chunk {
			ep.rm.in(ce.ein, reqs[ri].E.Matrix().Data(), c, bi)
		}
	}
	ce.eng.ResetFast()
	ce.eng.SetExplicit(explicit)
	iters, delta, converged, runErr := ce.eng.RunContext(ctx, ep.op.maxIter, ep.op.tol, nil)
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
			dst = beliefs.New(ep.n, ep.k) //lsbp:ignore hotpath-noalloc -- a nil Dst is the caller opting out of zero-alloc
		}
		ep.rm.out(dst.Matrix().Data(), state, c, bi)
		resp[ri].Beliefs = dst
	}
	if runErr != nil && ctx.Err() != nil {
		// Only a dead context condemns the chunks that follow; a
		// numeric failure is this chunk's alone.
		return fmt.Errorf("core: %v batch: %w", s.method, runErr)
	}
	return nil
}

// ---------------------------------------------------------------------------
// BP and SBP

// graphState is one per-solve BP or SBP workspace, built on one epoch's
// table: a BP engine (its directed-edge layout and message buffers) or
// an SBP runner (which caches its geodesic ordering), plus layout-order
// scratch for the explicit rows and the beliefs (nil under the identity
// map, where the caller's matrices serve as they stand; an Update's
// re-solve builds the explicit rows there too, see solveSet).
type graphState struct {
	bp       *bp.Engine
	sbp      *sbp.Runner
	ein, out *beliefs.Residual
	ep       *epoch
}

// bind reports whether the state was built on ep: BP's directed-edge
// layout and SBP's geodesic cache belong to one table, so a state built
// on another one is rebuilt.
//
//lsbp:hotpath
func (st *graphState) bind(ep *epoch) bool { return st.ep == ep }

// graphSolver serves the message-passing methods, BP and SBP, on the
// epoch's layout-order row-block table: the table the kernel methods
// serve from and Update commits. BP passes one message pair per
// adjacent pair of the table (parallel edges collapse, as they do in
// the adjacency) and rescales explicit residuals too large to be valid
// priors per solve (bpSafeScale; Lemma 12 keeps the classification).
// SBP runs on the unscaled Hˆo; each runner reuses its geodesic
// ordering across solves with an unchanged explicit node set, and Solve
// reports the caller-order geodesic numbers in Result.Geodesics. The
// row map carries belief rows between caller and layout order.
type graphSolver struct {
	*counters
	states *statePool[*graphState]
}

// newGraphSolver creates the (empty) state pool of a BP or SBP solver;
// opts are BP's iteration options.
func newGraphSolver(c *counters, opts bp.Options) *graphSolver {
	s := &graphSolver{counters: c}
	s.states = newStatePool(func(ep *epoch) (*graphState, error) {
		st := &graphState{ep: ep}
		var err error
		if c.method == MethodBP {
			st.bp, err = bp.NewEngine(ep.rows, ep.h, opts)
		} else {
			st.sbp, err = sbp.NewRunner(ep.rows, ep.h)
		}
		if err != nil {
			return nil, err
		}
		if !ep.rm.identity() {
			st.ein, st.out = beliefs.New(ep.n, ep.k), beliefs.New(ep.n, ep.k)
		}
		return st, nil
	}, (*graphState).bind)
	return s
}

func (s *graphSolver) prime(ep *epoch) error {
	st, err := s.states.get(ep)
	if err != nil {
		return err
	}
	s.states.put(st, ep)
	return nil
}

func (s *graphSolver) advance(ep *epoch) { s.states.advance(ep) }

func (s *graphSolver) closeAll() { s.states.closeAll() }

func (s *graphSolver) solve(ctx context.Context, ep *epoch, dst, e *beliefs.Residual, geo []int) (SolveInfo, error) {
	st, err := s.states.get(ep)
	if err != nil {
		return SolveInfo{}, err
	}
	defer s.states.put(st, ep)
	ein := e
	if st.ein != nil {
		ep.rm.in(st.ein.Matrix().Data(), e.Matrix().Data(), 1, 0)
		ein = st.ein
	}
	var maxAbs float64
	if st.bp != nil {
		// Row shuffles keep MaxAbs, so the caller's e gives the scale.
		maxAbs = e.Matrix().MaxAbs()
	}
	return s.run(ctx, ep, st, dst, ein, maxAbs, geo)
}

// solveSet answers the explicit set, the maintained problem an Update
// re-solves: the set's rows are scattered straight into the state's
// layout-order explicit rows (built here on first use under the
// identity map, where plain solves read the caller's matrix), and BP's
// scale comes from the set's largest |value|, so no caller-order
// request is built.
func (s *graphSolver) solveSet(ctx context.Context, ep *epoch, dst *beliefs.Residual, set *sparse.RowSet, geo []int) (SolveInfo, error) {
	st, err := s.states.get(ep)
	if err != nil {
		return SolveInfo{}, err
	}
	defer s.states.put(st, ep)
	if st.ein == nil {
		st.ein = beliefs.New(ep.n, ep.k)
	}
	set.Scatter(st.ein.Matrix().Data())
	return s.run(ctx, ep, st, dst, st.ein, set.MaxAbs(), geo)
}

// run solves the layout-order explicit rows ein on st into the
// caller-order dst (and geo, for SBP); maxAbs, the largest |value| of
// ein, sets BP's scale.
func (s *graphSolver) run(ctx context.Context, ep *epoch, st *graphState, dst, ein *beliefs.Residual, maxAbs float64, geo []int) (SolveInfo, error) {
	out := dst
	if st.out != nil {
		out = st.out
	}
	var info SolveInfo
	var err error
	if st.bp != nil {
		info.Iterations, info.Delta, info.Converged, err = st.bp.SolveInto(ctx, out, ein, bpSafeScale(maxAbs))
	} else {
		info.Iterations, err = st.sbp.SolveInto(ctx, out, ein)
		info.Converged = err == nil
		if err == nil {
			layout := st.sbp.Geodesics()
			for i := range geo {
				geo[i] = layout[ep.rm.at(i)]
			}
		}
	}
	if st.out != nil {
		ep.rm.out(dst.Matrix().Data(), st.out.Matrix().Data(), 1, 0)
	}
	return s.record(info, err)
}

// batch answers the requests one after another: BP and SBP have no
// fused multi-request kernel.
func (s *graphSolver) batch(ctx context.Context, ep *epoch, reqs []Request) []Response {
	resp := make([]Response, len(reqs))
	for i, req := range reqs {
		dst := req.Dst
		if dst == nil {
			dst = beliefs.New(ep.n, ep.k)
		}
		if err := ep.checkShapes(dst, req.E); err != nil {
			resp[i].Err = err
			continue
		}
		info, err := SolveInfo{}, s.admitCtx(ctx)
		if err == nil {
			info, err = s.solve(ctx, ep, dst, req.E, nil)
		}
		resp[i] = Response{Beliefs: dst, Info: info, Err: err}
	}
	return resp
}
