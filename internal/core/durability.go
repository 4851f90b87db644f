// The durable serving plane: every prepared (or recovered) solver can
// persist its state under a directory as one checksummed snapshot
// plus a write-ahead log of update batches.
//
// Commit protocol (the invariant the crash matrix pins): an Update's
// batch is appended to the WAL — under the configured fsync policy —
// BEFORE any in-memory mutation. A crash at any point therefore
// leaves one of exactly two recoverable states: the batch is absent
// from the log (it never happened) or present (replay reapplies it);
// a half-applied batch is unrepresentable. Compaction rebuilds write
// a fresh checkpoint snapshot and rotate the log only after the
// rename is durable, so the log's records are always >= the
// snapshot's fold point.
//
// Open is the recovery path: load + verify the snapshot (cold start
// is a map-and-validate, not a re-Prepare — no reordering, no
// partitioning, no epsilon search), replay the intact WAL prefix into
// the dynamic state, commit it as one epoch, and checkpoint so the
// next crash replays nothing.
package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"

	"repro/internal/beliefs"
	"repro/internal/coupling"
	"repro/internal/dense"
	"repro/internal/durable"
	"repro/internal/errs"
	"repro/internal/graph"
	"repro/internal/order"
	"repro/internal/sparse"
)

// DurabilityPolicy selects when WAL appends reach stable storage; see
// the Sync* policies.
type DurabilityPolicy = durable.Policy

// SyncPolicy is the fsync cadence of the update WAL.
type SyncPolicy = durable.SyncPolicy

// The WAL fsync policies (re-exported from internal/durable).
const (
	// SyncAlways flushes after every committed update — nothing
	// acknowledged is ever lost. The default.
	SyncAlways = durable.SyncAlways
	// SyncInterval flushes every Policy.Interval updates; a crash
	// loses at most the last Interval-1 batches.
	SyncInterval = durable.SyncInterval
	// SyncNever leaves flushing to the OS page cache.
	SyncNever = durable.SyncNever
)

// ErrWALBroken (re-exported from internal/durable) reports that the
// write-ahead log is stickily unusable: an append failed in a way that
// could not be rolled back, so no further update can commit durably.
// The solver latches SolverStats.Degraded and keeps serving reads;
// every later Update fails wrapping this sentinel.
var ErrWALBroken = durable.ErrWALBroken

// WithDurability persists the prepared state into dir (created if
// needed) and write-ahead-logs every Update under the given policy.
// Prepare starts the directory fresh, overwriting any previous state;
// use Open to resume from existing state instead. When passed to
// Open, only the policy is honored (the directory is Open's
// argument).
func WithDurability(dir string, pol DurabilityPolicy) Option {
	return func(c *config) { c.durFS, c.durDir, c.durPol, c.durSet = durable.OS, dir, pol, true }
}

// WithDurabilityFS is WithDurability on an explicit filesystem — the
// hook the fault-injection harness uses to run the real commit path
// against a crashing, bit-flipping in-memory disk.
func WithDurabilityFS(fsys durable.FS, dir string, pol DurabilityPolicy) Option {
	return func(c *config) { c.durFS, c.durDir, c.durPol, c.durSet = fsys, dir, pol, true }
}

// HasState reports whether dir holds a snapshot a subsequent Open
// could resume from.
func HasState(dir string) bool { return durable.HasSnapshot(durable.OS, dir) }

// HasStateFS is HasState on an explicit filesystem.
func HasStateFS(fsys durable.FS, dir string) bool { return durable.HasSnapshot(fsys, dir) }

// durability is the dynSolver's durable half: the open WAL and the
// sequence number of the last logged update. Guarded by dynSolver.mu.
type durability struct {
	fs      durable.FS
	dir     string
	pol     durable.Policy
	wal     *durable.WAL
	seq     uint64
	release func() // snapshot mapping backing the recovered arrays
}

func (du *durability) close() error {
	var err error
	if du.wal != nil {
		err = du.wal.Close()
		du.wal = nil
	}
	if du.release != nil {
		du.release()
		du.release = nil
	}
	return err
}

// initDurability publishes the freshly prepared state and opens the
// WAL. Called once from Prepare, before the solver is returned.
func (d *dynSolver) initDurability() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	du := &durability{fs: d.cfg.durFS, dir: d.cfg.durDir, pol: d.cfg.durPol}
	img, err := d.snapshotImageLocked(du.seq)
	if err != nil {
		return err
	}
	if err := durable.WriteSnapshot(du.fs, du.dir, img); err != nil {
		return err
	}
	// A stale log from a previous incarnation must not replay over the
	// fresh snapshot: Prepare semantics are "start over".
	if err := du.fs.Truncate(durable.Join(du.dir, durable.WALFile), 0); err != nil && !errors.Is(err, os.ErrNotExist) {
		return fmt.Errorf("core: durability: reset wal: %w", err)
	}
	wal, err := durable.OpenWAL(du.fs, du.dir, du.pol)
	if err != nil {
		return err
	}
	du.wal = wal
	d.dur = du
	return nil
}

// appendWALLocked logs the batch as the next sequence number; on
// error nothing was committed and the Update must abort.
func (d *dynSolver) appendWALLocked(u Update, explicit []int) error {
	rec := recordFromUpdate(u, explicit, d.dur.seq+1, d.k)
	if err := d.dur.wal.Append(rec); err != nil {
		if d.dur.wal.Broken() != nil {
			// The failed append also poisoned the log (its rollback
			// truncate failed): no later update can commit durably.
			// Latch read-only mode now, not on the next attempt.
			d.degraded.Store(true)
		}
		return err
	}
	d.dur.seq++
	return nil
}

// checkpointLocked durably publishes the current maintained state and
// rotates the WAL. Rotation failure is non-fatal for correctness (the
// superseded records replay as already-covered) but is surfaced.
func (d *dynSolver) checkpointLocked() error {
	img, err := d.snapshotImageLocked(d.dur.seq)
	if err != nil {
		return err
	}
	if err := durable.WriteSnapshot(d.dur.fs, d.dur.dir, img); err != nil {
		return err
	}
	if d.dur.wal == nil { // recovery checkpoints before reopening the log
		return nil
	}
	if err := d.dur.wal.Rotate(); err != nil {
		if d.dur.wal.Broken() != nil {
			d.degraded.Store(true)
		}
		return err
	}
	return nil
}

// snapshotImageLocked assembles the durable image of the maintained
// state: the current adjacency as a flat CSR (the layout-order table of
// the kernel methods, or the caller-order graph of BP/SBP), the layout
// metadata, and the belief matrices in caller order. A kernel table is
// written straight from its blocks (sparse.RowBlocks.CompactArrays), so
// a checkpoint does not rebuild the int column index no table keeps.
func (d *dynSolver) snapshotImageLocked(seq uint64) (*durable.Snapshot, error) {
	img := &durable.Snapshot{
		Method:     uint32(d.method),
		Ordering:   d.info.ordering.Code(),
		N:          d.n,
		K:          d.k,
		EpsH:       d.eps,
		WALSeq:     seq,
		BandBefore: d.info.bandBefore,
		BandAfter:  d.info.bandAfter,
	}
	if d.kernelMethod() {
		img.RowPtr, img.ColIdx32, img.Vals = d.rows.CompactArrays()
	} else {
		img.GraphOrder = true
		g := d.g
		if g == nil {
			g = d.srcGraph
		}
		imageCSR(img, g.Adjacency())
	}
	if d.perm != nil {
		img.Perm = []int(d.perm)
	}
	img.PartStarts = d.partStarts
	img.HO = d.ho.Data()
	exp := d.exp
	if exp == nil {
		exp = d.srcExp
	}
	img.Explicit = exp.Matrix().Data()
	if d.kern != nil && d.kern.hasFix {
		img.Last = d.gatherLocked().Matrix().Data()
	}
	return img, nil
}

// imageCSR sets the image's adjacency sections from a flat CSR: the
// compact column index whenever the matrix fits it.
func imageCSR(img *durable.Snapshot, a *sparse.CSR) {
	rowPtr, colIdx, vals := a.Index()
	img.RowPtr, img.Vals = rowPtr, vals
	if _, ci32, ok := a.CompactIndex(); ok {
		img.ColIdx32 = ci32
	} else {
		img.ColIdx = colIdx
	}
}

// recordFromUpdate encodes the batch exactly as the apply path reads
// it: only the non-zero explicit rows (the list validateUpdate built)
// travel.
func recordFromUpdate(u Update, explicit []int, seq uint64, k int) *durable.Record {
	rec := &durable.Record{Seq: seq, K: k}
	if len(u.AddEdges) > 0 {
		rec.Adds = make([]durable.Edge, 0, len(u.AddEdges))
	}
	for _, e := range u.AddEdges {
		rec.Adds = append(rec.Adds, durable.Edge{S: uint32(e.S), T: uint32(e.T), W: e.W})
	}
	if len(u.RemoveEdges) > 0 {
		rec.Dels = make([]durable.Pair, 0, len(u.RemoveEdges))
	}
	for _, e := range u.RemoveEdges {
		rec.Dels = append(rec.Dels, durable.Pair{S: uint32(e.S), T: uint32(e.T)})
	}
	if len(explicit) > 0 {
		rec.Rows = make([]durable.BeliefRow, 0, len(explicit))
		vals := make([]float64, len(explicit)*k)
		for i, v := range explicit {
			row := vals[i*k : i*k+k : i*k+k]
			copy(row, u.SetExplicit.Row(v))
			rec.Rows = append(rec.Rows, durable.BeliefRow{Node: uint32(v), Row: row})
		}
	}
	return rec
}

// updateFromRecord is the replay-side inverse of recordFromUpdate.
func updateFromRecord(rec *durable.Record, n, k int) (Update, error) {
	var u Update
	for _, e := range rec.Adds {
		u.AddEdges = append(u.AddEdges, graph.Edge{S: int(e.S), T: int(e.T), W: e.W})
	}
	for _, p := range rec.Dels {
		u.RemoveEdges = append(u.RemoveEdges, graph.Edge{S: int(p.S), T: int(p.T)})
	}
	if len(rec.Rows) > 0 {
		if rec.K != k {
			return u, fmt.Errorf("core: wal record k=%d, solver k=%d: %w", rec.K, k, errs.ErrCorruptState)
		}
		exp := beliefs.New(n, k)
		for _, row := range rec.Rows {
			if int(row.Node) >= n {
				return u, fmt.Errorf("core: wal record node %d out of range n=%d: %w", row.Node, n, errs.ErrCorruptState)
			}
			exp.Set(int(row.Node), row.Row)
		}
		u.SetExplicit = exp
	}
	return u, nil
}

// Open resumes a solver from the durable state under dir: the
// snapshot is verified and adopted (no re-Prepare), the WAL's intact
// prefix is replayed and committed as one epoch, and a fresh
// checkpoint is published so the next open replays nothing. Options
// apply as in Prepare; a WithDurability option contributes its fsync
// policy (the directory is dir). Corrupt state surfaces
// ErrCorruptState; a missing snapshot surfaces os.ErrNotExist.
func Open(dir string, opts ...Option) (Solver, error) {
	return OpenFS(durable.OS, dir, opts...)
}

// OpenFS is Open on an explicit filesystem (fault-injection harness
// entry point).
func OpenFS(fsys durable.FS, dir string, opts ...Option) (Solver, error) {
	snap, err := durable.LoadSnapshot(fsys, dir)
	if err != nil {
		return nil, err
	}
	d, err := rebuildFromSnapshot(snap, fsys, dir, opts)
	if err != nil {
		snap.Close()
		return nil, err
	}
	if err := d.recoverLocked(snap); err != nil {
		d.dur.close()
		snap.Close() // idempotent if the recovery already owned it
		d.cur.Load().snap.Close()
		return nil, err
	}
	return d, nil
}

// rebuildFromSnapshot reconstitutes the dynSolver (without WAL
// replay) from a verified snapshot image.
func rebuildFromSnapshot(snap *durable.Snapshot, fsys durable.FS, dir string, opts []Option) (*dynSolver, error) {
	m := Method(snap.Method)
	switch m {
	case MethodBP, MethodLinBP, MethodLinBPStar, MethodSBP, MethodFABP:
	default:
		return nil, fmt.Errorf("core: open: snapshot method %d unknown: %w", snap.Method, errs.ErrCorruptState)
	}
	ordering, err := order.StrategyFromCode(snap.Ordering)
	if err != nil {
		return nil, fmt.Errorf("core: open: %v: %w", err, errs.ErrCorruptState)
	}
	var cfg config
	cfg.reorder = ordering
	for _, o := range opts {
		if o != nil {
			o(&cfg)
		}
	}
	cfg.durFS, cfg.durDir = fsys, dir
	if !cfg.durSet {
		cfg.durPol = durable.Policy{Sync: durable.SyncAlways}
	}

	n, k := snap.N, snap.K
	var perm order.Permutation
	if snap.Perm != nil {
		perm = order.Permutation(snap.Perm)
		if err := perm.Validate(n); err != nil {
			return nil, fmt.Errorf("core: open: %v: %w", err, errs.ErrCorruptState)
		}
	}
	if snap.PartStarts != nil {
		if err := order.ValidateStarts(snap.PartStarts, n); err != nil {
			return nil, fmt.Errorf("core: open: %v: %w", err, errs.ErrCorruptState)
		}
	}
	var a *sparse.CSR
	if snap.ColIdx32 != nil {
		a, err = sparse.NewCSRFromCompact(n, n, snap.RowPtr, snap.ColIdx32, snap.Vals)
	} else {
		a, err = sparse.NewCSRFromRaw(n, n, snap.RowPtr, snap.ColIdx, snap.Vals)
	}
	if err != nil {
		return nil, fmt.Errorf("core: open: %v: %w", err, errs.ErrCorruptState)
	}
	for _, w := range snap.Vals {
		if !(w > 0) || math.IsInf(w, 1) {
			return nil, fmt.Errorf("core: open: adjacency weight %v invalid: %w", w, errs.ErrCorruptState)
		}
	}
	for _, v := range snap.HO {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("core: open: coupling matrix holds %v: %w", v, errs.ErrCorruptState)
		}
	}
	ho := dense.New(k, k)
	copy(ho.Data(), snap.HO)
	// A private copy of the (possibly mapped) explicit section: the
	// first Update adopts it as the maintained beliefs.
	expM := dense.New(n, k)
	copy(expM.Data(), snap.Explicit)
	exp := beliefs.FromMatrix(expM)
	if err := exp.Validate(); err != nil {
		return nil, fmt.Errorf("core: open: explicit beliefs: %v: %w", err, errs.ErrCorruptState)
	}

	info := solverInfo{
		method: m, n: n, k: k, workers: cfg.workers, eps: snap.EpsH,
		ordering: ordering, bandBefore: snap.BandBefore, bandAfter: snap.BandAfter,
	}
	d := &dynSolver{method: m, cfg: cfg, ho: ho, srcExp: exp}
	var inner snapshot
	switch m {
	case MethodLinBP, MethodLinBPStar, MethodFABP:
		// The kernel methods serve straight from the stored layout CSR:
		// its epoch-0 row-block table aliases the (mapped) arrays, and
		// no caller-order graph is rebuilt.
		if snap.GraphOrder {
			return nil, fmt.Errorf("core: open: kernel method with graph-order matrix: %w", errs.ErrCorruptState)
		}
		if snap.PartStarts != nil {
			st := order.StatsForStarts(a, snap.PartStarts)
			info.partitions = st.Blocks()
			info.cutEdges = st.CutEdges
			info.imbalance = st.Imbalance
		}
		lay := kernelLayout{perm: perm, partStarts: snap.PartStarts}
		lay.rows, err = layoutRows(a, m != MethodLinBPStar)
		if err != nil {
			return nil, err
		}
		if m == MethodFABP {
			inner, err = newFABPSolverOn(snap.EpsH*ho.At(0, 0), info, cfg, lay)
		} else {
			inner, err = newLinBPSolverOn(coupling.Scale(ho, snap.EpsH), info, cfg, lay)
		}
		d.rows = lay.rows
	default:
		// BP and SBP keep a caller-order graph, rebuilt from the stored
		// matrix (undoing the layout permutation if the matrix is in
		// layout order). Parallel edges were already collapsed by the
		// original adjacency build; the sum-equivalent graph serves
		// every later rebuild identically.
		adj := a
		if !snap.GraphOrder && perm != nil {
			adj = a.Permute([]int(perm.Inverse()))
		}
		g := graph.New(n)
		g.ReserveEdges((adj.NNZ() + n) / 2)
		rp, ci, vs := adj.Index()
		for i := 0; i < n; i++ {
			for p := rp[i]; p < rp[i+1]; p++ {
				if j := ci[p]; j >= i {
					g.AddEdge(i, j, vs[p])
				}
			}
		}
		d.srcGraph = g
		if m == MethodBP {
			inner, err = newBPSolverOn(g.Clone(), ho, info, cfg, perm)
		} else {
			inner, err = newSBPSolverOn(g.Clone(), ho, info, perm)
		}
	}
	if err != nil {
		return nil, err
	}
	d.info, d.perm, d.partStarts = info, perm, snap.PartStarts
	d.n, d.k, d.eps = n, k, snap.EpsH
	d.cur.Store(&epochState{snap: inner})
	d.dur = &durability{fs: fsys, dir: dir, pol: cfg.durPol, seq: snap.WALSeq, release: nil}
	return d, nil
}

// recoverLocked replays the WAL's intact prefix into the maintained
// state, commits any topology change as one epoch, restores the
// warm-start fixpoint, and checkpoints.
func (d *dynSolver) recoverLocked(snap *durable.Snapshot) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.initDynState(); err != nil {
		return err
	}
	if kp := d.kern; kp != nil && snap.Last != nil {
		// Restore the warm-start fixpoint into the maintained state, in
		// layout order (BP and SBP keep none: they re-solve cold).
		b := make([]float64, d.n*kp.w)
		for i := 0; i < d.n; i++ {
			li := d.pm(i)
			if kp.w == 1 {
				b[li] = snap.Last[i*d.k]
			} else {
				copy(b[li*kp.w:li*kp.w+kp.w], snap.Last[i*d.k:i*d.k+d.k])
			}
		}
		kp.fix.SetBeliefs(b)
		kp.hasFix = true
	}
	changed := false
	lastSeq, replayed, err := durable.ReplayWAL(d.dur.fs, d.dur.dir, snap.WALSeq, func(rec *durable.Record) error {
		u, err := updateFromRecord(rec, d.n, d.k)
		if err != nil {
			return err
		}
		// The checksum proves integrity, not sanity: a foreign or
		// stale-schema record must fail recovery, not poison the state.
		rows, err := d.validateUpdate(u)
		if err != nil {
			return fmt.Errorf("core: wal replay seq %d: %v: %w", rec.Seq, err, errs.ErrCorruptState)
		}
		d.applyExplicitLocked(u.SetExplicit, rows)
		if d.applyTopologyLocked(u) {
			changed = true
		}
		return nil
	})
	if err != nil {
		return err
	}
	d.dur.seq = lastSeq
	d.updates.Store(int64(lastSeq))
	if changed {
		// One commit for the whole replayed suffix: per-record epochs
		// would publish O(replayed) snapshots for no reader.
		if err := d.swapSnapshotLocked(context.Background()); err != nil {
			return err
		}
	}
	// The mapped snapshot's arrays may now back the serving epoch;
	// hold the mapping until Close.
	d.dur.release = func() { snap.Close() }
	wal, err := durable.OpenWAL(d.dur.fs, d.dur.dir, d.dur.pol)
	if err != nil {
		return err
	}
	d.dur.wal = wal
	if replayed > 0 {
		if err := d.checkpointLocked(); err != nil {
			return fmt.Errorf("core: open: post-replay checkpoint: %w", err)
		}
	}
	return nil
}
