package lsbp

import (
	"repro/internal/core"
)

// Solver is the prepared serving surface shared by all methods: build
// it once per (graph, coupling, εH) with Prepare or a per-method
// constructor, then issue many solves for changing explicit beliefs.
// Preprocessed state — the CSR adjacency, weighted degrees, coupling
// flats, kernel workspaces, BP's directed-edge layout, SBP's geodesic
// ordering — is reused across solves, and every iterative loop honors
// context cancellation at round boundaries.
//
// Solvers are epoch-versioned: Update absorbs edge/belief streams
// (inserts, deletes, relabels) without re-preparing from scratch. For
// the kernel-backed methods a committed topology update copies only
// the row blocks it edits (a copy-on-write adjacency reusing the
// prepare-time reordering and partitions), moves the previous epoch's
// engines over, and swaps the new snapshot in RCU-style — in-flight
// solves drain on the old snapshot, new solves land on the new one —
// then re-solves in place on the maintained fixpoint, warm-started
// (fewer iterations after small deltas, same unique answer). When the
// cells that differ from the compaction base outgrow
// WithUpdatePolicy's threshold the commit replays reordering and
// partitioning on the current graph. Stats reports
// Epoch/Updates/Rebuilds/OverlayNNZ and the per-stage Update clocks.
//
// Solvers are safe for concurrent use: any number of goroutines may
// share one Solver (updates serialize internally); per-solve
// workspaces are recycled through per-epoch pools so the SolveInto
// path stays allocation-free in steady state, Stats is race-free, and
// Close is idempotent (later solves fail with ErrClosed) and drains
// in-flight solves and a pending update. The one carve-out is the
// incremental SBP state returned by Solve on an SBP solver
// (Result.SBP): it shares the epoch's graph, so prefer Update, which
// keeps the solver and graph consistent.
//
//	s, err := lsbp.PrepareLinBP(p, lsbp.WithWorkers(4))
//	if err != nil { ... }
//	defer s.Close()
//	res, err := s.Solve(ctx, e)             // fresh result + top assignment
//	info, err := s.SolveInto(ctx, dst, e)   // zero-allocation serving path
//	resps := s.SolveBatch(ctx, reqs)        // fused multi-request rounds
//	res, err = s.Update(ctx, lsbp.Update{   // absorb a delta, warm re-solve
//		AddEdges: []lsbp.Edge{{S: 1, T: 7, W: 1}}})
type Solver = core.Solver

// Update is one delta batch for Solver.Update: edge insertions,
// edge deletions (all parallel edges between a pair), and explicit
// belief installs/replacements. Additions apply before removals;
// the batch commits as one epoch.
type Update = core.Update

// UpdatePolicy tunes the dynamic plane's compaction threshold and
// warm-start behavior; see WithUpdatePolicy.
type UpdatePolicy = core.UpdatePolicy

// Option configures Prepare and the per-method constructors.
type Option = core.Option

// Request is one unit of work for Solver.SolveBatch; set Dst to reuse
// an output matrix and keep steady-state batches allocation-free.
type Request = core.Request

// Response is the outcome of one batch request.
type Response = core.Response

// SolveInfo carries per-solve diagnostics on the serving path.
type SolveInfo = core.SolveInfo

// SolverStats is a snapshot of a Solver's configuration and serving
// counters (solves, batches, iterations, non-convergences, cancels,
// and the effective εH).
type SolverStats = core.SolverStats

// FABP selects the binary (k = 2) scalar linearization of Appendix E
// as a fifth Method usable with Prepare and Solve.
const FABP = core.MethodFABP

// Sentinel errors of the solver API; match with errors.Is.
var (
	// ErrNotConverged wraps iterative solves that exhaust their
	// iteration budget. Prepared solvers return it alongside the last
	// iterate; the legacy Solve wrapper reports Result.Converged=false
	// instead.
	ErrNotConverged = core.ErrNotConverged
	// ErrDimensionMismatch wraps every shape inconsistency between the
	// graph, beliefs, couplings, and destination buffers.
	ErrDimensionMismatch = core.ErrDimensionMismatch
	// ErrInvalidCoupling wraps every coupling-matrix defect.
	ErrInvalidCoupling = core.ErrInvalidCoupling
	// ErrClosed wraps any use of a Solver after Close.
	ErrClosed = core.ErrClosed
	// ErrNonFinite wraps NaN/Inf values where the math requires finite
	// input (edge weights, explicit beliefs) and iterative solves whose
	// updates overflow (a diverging εH past the spectral bound).
	ErrNonFinite = core.ErrNonFinite
	// ErrCorruptState wraps durable solver state (snapshot or WAL) that
	// failed checksum or structural validation on Open.
	ErrCorruptState = core.ErrCorruptState
)

// Prepare validates the problem once and builds a prepared Solver for
// the method; see Solver for the serving contract.
func Prepare(p *Problem, m Method, opts ...Option) (Solver, error) {
	return core.Prepare(p, m, opts...)
}

// PrepareBP prepares a standard loopy BP solver (Section 2).
func PrepareBP(p *Problem, opts ...Option) (Solver, error) {
	return core.Prepare(p, core.MethodBP, opts...)
}

// PrepareLinBP prepares a LinBP solver (Eq. 4, echo cancellation on);
// combine with WithEchoCancellation(false) for LinBP*.
func PrepareLinBP(p *Problem, opts ...Option) (Solver, error) {
	return core.Prepare(p, core.MethodLinBP, opts...)
}

// PrepareSBP prepares a single-pass BP solver (Section 6). Its
// SolveInto/SolveBatch path caches the geodesic ordering across solves
// with an unchanged explicit node set; Solve materializes the full
// incremental state in Result.SBP.
func PrepareSBP(p *Problem, opts ...Option) (Solver, error) {
	return core.Prepare(p, core.MethodSBP, opts...)
}

// PrepareFABP prepares the binary (k = 2) scalar solver of Appendix E
// on the same Problem surface: explicit beliefs are n×2 residual rows
// and results come back as (b, −b) rows.
func PrepareFABP(p *Problem, opts ...Option) (Solver, error) {
	return core.Prepare(p, core.MethodFABP, opts...)
}

// WithWorkers sets the kernel worker count for the row-partitioned
// parallel pass (LinBP/LinBP*/FABP and their batches).
func WithWorkers(n int) Option { return core.WithWorkers(n) }

// WithMaxIter bounds the update rounds of iterative methods.
func WithMaxIter(n int) Option { return core.WithMaxIter(n) }

// WithTol sets the convergence tolerance (0 = method default; negative
// forces exactly MaxIter rounds, the paper's timing setup).
func WithTol(tol float64) Option { return core.WithTol(tol) }

// WithEchoCancellation selects LinBP (true) or LinBP* (false).
func WithEchoCancellation(on bool) Option { return core.WithEchoCancellation(on) }

// Reordering selects the prepare-time graph layout strategy of the
// locality optimizer; see WithReordering.
type Reordering = core.Reordering

// The selectable reorderings.
const (
	// ReorderAuto (the default) evaluates RCM and the degree sort with
	// a cheap edge-span heuristic, keeping the natural order unless one
	// of them wins; small cache-resident graphs always keep it.
	ReorderAuto = core.ReorderAuto
	// ReorderRCM forces reverse Cuthill–McKee.
	ReorderRCM = core.ReorderRCM
	// ReorderDegree forces the descending-degree hub-packing sort.
	ReorderDegree = core.ReorderDegree
	// ReorderNone keeps the caller's node order.
	ReorderNone = core.ReorderNone
)

// ParseReordering maps the spellings auto|rcm|degree|none onto
// Reordering values (for flags and config files).
func ParseReordering(name string) (Reordering, error) { return core.ParseReordering(name) }

// WithReordering selects the prepare-time node reordering: the graph
// layout is relabeled once for cache locality, every engine the solver
// prepares runs over the relabeled structure, and beliefs are permuted
// in/out transparently (callers keep their node ids, SolveInto stays
// allocation-free). Stats() reports the ordering chosen and the
// bandwidth before/after.
func WithReordering(r Reordering) Option { return core.WithReordering(r) }

// PartitionsAuto asks WithPartitions to size the partition-parallel
// plane from the graph and worker count (serving-scale graphs get one
// partition per worker; small graphs keep the unpartitioned plane).
const PartitionsAuto = core.PartitionsAuto

// WithPartitions selects the kernel's partition-parallel data plane for
// the kernel-backed methods (LinBP, LinBP*, FABP, and their batches):
// the layout-ordered adjacency is split into n contiguous nnz-balanced
// row blocks, and each prepared engine binds one persistent
// OS-thread-locked worker per block with first-touched private block
// state — one delta-merge/buffer-exchange step per round instead of
// span stealing. 0 (the default) disables the plane; PartitionsAuto
// sizes it automatically; BP and SBP ignore it. Stats() reports the
// partition count, cut edges, and nnz imbalance.
func WithPartitions(n int) Option { return core.WithPartitions(n) }

// Schedule selects the execution schedule of the kernel-backed methods
// (LinBP, LinBP*, FABP); see WithSchedule.
type Schedule = core.Schedule

// The selectable schedules.
const (
	// ScheduleRounds runs synchronous Jacobi rounds: every pass
	// advances all n rows. The default.
	ScheduleRounds = core.ScheduleRounds
	// ScheduleResidual runs the residual-scheduled push plane: rows
	// relax in largest-residual-first order and the solve costs what it
	// touches. The fixpoint matches the rounds schedule within the
	// tolerance budget ‖(I−M)⁻¹‖·tol, never bitwise.
	ScheduleResidual = core.ScheduleResidual
	// ScheduleAuto runs rounds for cold solves and batches, and the
	// residual plane for Update's localized re-solves seeded from
	// exactly the rows a delta touched.
	ScheduleAuto = core.ScheduleAuto
)

// ParseSchedule maps the spellings rounds|residual|auto onto Schedule
// values (for flags and config files).
func ParseSchedule(name string) (Schedule, error) { return core.ParseSchedule(name) }

// WithSchedule selects the execution schedule for the kernel-backed
// methods; BP and SBP ignore it. Stats().Schedule reports the choice,
// SolveInfo.RowsRelaxed/QueuePeak the residual plane's per-solve work.
func WithSchedule(s Schedule) Option { return core.WithSchedule(s) }

// WithUpdatePolicy sets the dynamic plane's policy for Solver.Update:
// the drift ratio that triggers a compaction rebuild (reordering +
// partitioning replayed on the current graph) and whether
// Update's re-solves warm-start from the previous fixpoint (the
// default) or run cold. Solvers that never see an Update ignore it.
func WithUpdatePolicy(p UpdatePolicy) Option { return core.WithUpdatePolicy(p) }

// WithAutoEpsilonH derives εH from the exact convergence criterion
// (half the Lemma 8 threshold) at preparation time, overriding
// Problem.EpsilonH; read the chosen value from Stats().EpsilonH.
func WithAutoEpsilonH() Option { return core.WithAutoEpsilonH() }

// DurabilityPolicy selects when the update WAL reaches stable
// storage; see the Sync* policies and WithDurability.
type DurabilityPolicy = core.DurabilityPolicy

// SyncPolicy is the fsync cadence of the update WAL.
type SyncPolicy = core.SyncPolicy

// The WAL fsync policies.
const (
	// SyncAlways flushes after every committed update (the default):
	// nothing acknowledged is ever lost.
	SyncAlways = core.SyncAlways
	// SyncInterval flushes every DurabilityPolicy.Interval updates; a
	// crash loses at most the last Interval-1 batches.
	SyncInterval = core.SyncInterval
	// SyncNever leaves flushing to the OS page cache.
	SyncNever = core.SyncNever
)

// WithDurability makes the prepared solver durable under dir: Prepare
// publishes a checksummed snapshot of the prepared state (format
// version, layout permutation, partition boundaries, compact-index
// CSR — each section independently CRC-32C protected, written via
// temp-file + atomic rename), and every Update is write-ahead-logged
// under the given policy before it commits. Prepare starts dir fresh;
// use Open to resume. Compaction rebuilds checkpoint the snapshot and
// rotate the log.
func WithDurability(dir string, pol DurabilityPolicy) Option {
	return core.WithDurability(dir, pol)
}

// Open resumes a Solver from the durable state WithDurability (or a
// previous Open) maintained under dir: the snapshot is memory-mapped
// and verified — no re-preparation, no reordering or εH search — the
// write-ahead log's intact prefix is replayed, and a fresh checkpoint
// is published. Corrupt state surfaces ErrCorruptState; a missing
// snapshot surfaces os.ErrNotExist. Options apply as in Prepare; a
// WithDurability option contributes its fsync policy (the directory
// is always dir).
func Open(dir string, opts ...Option) (Solver, error) { return core.Open(dir, opts...) }

// HasState reports whether dir holds a snapshot Open could resume
// from.
func HasState(dir string) bool { return core.HasState(dir) }
