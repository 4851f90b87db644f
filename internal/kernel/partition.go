// The partition-parallel data plane. Where the span pool (kernel.go)
// lets any worker steal arbitrary nnz-balanced row chunks, partitioned
// mode binds each persistent worker to one fixed contiguous row block
// for the engine's whole lifetime:
//
//   - the worker locks its OS thread (runtime.LockOSThread), so on a
//     multi-socket host the scheduler cannot migrate it away from the
//     memory its block lives in;
//   - the worker itself allocates and writes private copies of the
//     row blocks its range covers (sparse.RowBlocks.PrivateCopy) and
//     its scratch — the first-touch initialization that places those
//     pages on the worker's NUMA node under the default kernel policy —
//     and after an epoch rebind re-copies only the blocks a commit
//     rewrote;
//   - each round the worker processes exactly its rows [lo, hi) with a
//     partition-local max-delta accumulator, and the engine performs
//     one merge/exchange step per round: fold the local deltas, swap
//     the belief buffers (the only cross-partition data exchange —
//     halo belief rows are read directly from the shared state).
//
// The row kernels executed per block are the very same methods the
// span pool runs, so partitioned results are bitwise identical to the
// serial and span-parallel planes (asserted by the equivalence tests).
package kernel

import (
	"fmt"
	"runtime"
	"sync"

	"repro/internal/errs"
	"repro/internal/sparse"
)

// partWorker is one partition-bound persistent worker: a fixed row
// block, a private sub-engine over the block's first-touched CSR copy,
// and the round-trigger/result channels of the per-round merge step.
type partWorker struct {
	lo, hi  int
	sub     *Engine   // private block view; shares the parent's Workspace
	scratch []float64 // worker-local scratch for the generic row kernel
	work    chan struct{}
	res     chan float64
	// src is the parent table the private copy was taken from; pending,
	// set by Rebind on an idle engine and published to the worker by
	// the next round's channel send, is the table to refresh from.
	src, pending *sparse.RowBlocks
}

// validPartitionStarts checks that starts is a contiguous ascending
// partition of [0, n).
func validPartitionStarts(starts []int, n int) error {
	if len(starts) < 2 {
		return fmt.Errorf("kernel: partition needs at least 2 boundaries, got %d: %w", len(starts), errs.ErrInvalidInput)
	}
	if starts[0] != 0 || starts[len(starts)-1] != n {
		return fmt.Errorf("kernel: partition spans [%d, %d), want [0, %d): %w", starts[0], starts[len(starts)-1], n, errs.ErrInvalidInput)
	}
	for i := 1; i < len(starts); i++ {
		if starts[i] < starts[i-1] {
			return fmt.Errorf("kernel: partition boundaries not ascending at index %d: %w", i, errs.ErrInvalidInput)
		}
	}
	return nil
}

// startPartWorkers lazily spawns the partition-bound workers on the
// first partitioned pass and blocks until every worker has built its
// private block state (so no round races a worker's initialization).
//
//lsbp:hotpath-init
func (e *Engine) startPartWorkers() {
	if e.partStarted {
		return
	}
	var ready sync.WaitGroup
	for p := 0; p+1 < len(e.partStarts); p++ {
		w := &partWorker{
			lo:   e.partStarts[p],
			hi:   e.partStarts[p+1],
			work: make(chan struct{}, 1),
			res:  make(chan float64, 1),
		}
		e.partWorkers = append(e.partWorkers, w)
		ready.Add(1)
		go w.run(e, &ready)
	}
	ready.Wait()
	e.partStarted = true
}

// run is the partition worker loop. All block-local state — the private
// row-block copy and the scratch row — is allocated and
// written here, on the locked OS thread that will use it every round,
// so first-touch page placement keeps it NUMA-local to this worker.
//
//lsbp:hotpath
func (w *partWorker) run(parent *Engine, ready *sync.WaitGroup) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	w.init(parent)
	ready.Done()
	for range w.work {
		if w.pending != nil {
			w.refresh()
		}
		w.res <- w.sub.rows(w.lo, w.hi, w.scratch)
	}
}

// refresh re-points the worker at a rebound parent's epoch, re-copying
// (on this thread, first-touch) only the blocks the commits since the
// last copy rewrote.
//
//lsbp:hotpath-init
func (w *partWorker) refresh() {
	priv := w.pending.PrivateCopy(w.lo, w.hi, w.sub.adj, w.src)
	w.sub.adj = priv
	w.src, w.pending = w.pending, nil
}

// init builds the worker's private block state. It runs exactly once,
// before the worker signals ready; with refresh it is the only
// allocating part of the worker's lifetime.
//
//lsbp:hotpath-init
func (w *partWorker) init(parent *Engine) {
	priv := parent.adj.PrivateCopy(w.lo, w.hi, nil, nil)
	sub := &Engine{
		adj:    priv,
		kern:   parent.kern,
		h:      parent.h,
		h2:     parent.h2,
		n:      parent.n,
		k:      parent.k,
		blocks: parent.blocks,
		wd:     parent.wd,
		echo:   parent.echo,
		// symA stays false: the push-based sparse round writes rows
		// outside the block and is licensed only on the parent.
		workers: 1,
		ws:      parent.ws,
		track:   true,
	}
	w.src = parent.adj
	w.scratch = make([]float64, scratchStride(parent.wd))
	w.sub = sub
}

// partPass runs one update round on the partitioned plane: trigger every
// partition worker on its own block, then fold the partition-local max
// deltas — the merge half of the round's single merge/exchange step (the
// exchange half is the caller's cur/next buffer swap, which publishes
// every block's new beliefs, halo rows included, to all partitions).
//
//lsbp:hotpath
func (e *Engine) partPass() float64 {
	e.startPartWorkers()
	for _, w := range e.partWorkers {
		// Per-round state sync; the channel send publishes these writes
		// to the worker before it starts its block.
		w.sub.e = e.e
		w.sub.track = e.track
		w.sub.act = e.act
		w.work <- struct{}{}
	}
	var delta float64
	for _, w := range e.partWorkers {
		if d := <-w.res; d > delta {
			delta = d
		}
	}
	return delta
}
