// Package bp implements standard loopy Belief Propagation (the
// sum-product algorithm) for pairwise Markov networks with a single
// class-coupling matrix, exactly as Section 2 of the paper defines it:
//
//	bs(i) ← (1/Zs)·es(i)·Π_{u∈N(s)} mus(i)                      (Eq. 1)
//	mst(i) ← (1/Zst)·Σ_j H(j,i)·es(j)·Π_{u∈N(s)\t} mus(j)       (Eq. 3)
//
// with messages normalized to sum to k (so they stay centered around 1,
// the convention the LinBP derivation builds on). This package is the
// baseline the paper compares LinBP and SBP against; it is deliberately
// a faithful message-passing implementation, including its cost profile
// (one message per directed edge per iteration) and its lack of
// convergence guarantees on loopy graphs.
//
// The directed-edge layout (two messages per undirected edge plus the
// incoming-message index) depends only on the graph's adjacency, so it
// is prepared once in an Engine and reused across solves; Run is the
// one-shot convenience wrapper. The layout has one undirected edge per
// adjacent pair: parallel edges collapse into their pair, as they do in
// the adjacency matrix.
package bp

import (
	"context"
	"fmt"
	"math"

	"repro/internal/beliefs"
	"repro/internal/dense"
	"repro/internal/errs"
	"repro/internal/graph"
	"repro/internal/sparse"
)

// Options tunes the BP iteration. The zero value selects defaults.
type Options struct {
	// MaxIter bounds the number of synchronous message rounds
	// (default 100).
	MaxIter int
	// Tol stops the iteration when no message entry changes by more
	// than Tol between rounds (default 1e-9). Set negative to force
	// exactly MaxIter rounds.
	Tol float64
}

func (o Options) withDefaults() Options {
	if o.MaxIter == 0 {
		o.MaxIter = 100
	}
	if o.Tol == 0 {
		o.Tol = 1e-9
	}
	return o
}

// Result carries the outcome of a BP run.
type Result struct {
	// Beliefs holds the final beliefs in residual (centered) form so
	// they are directly comparable with LinBP/SBP output.
	Beliefs *beliefs.Residual
	// Iterations is the number of message rounds executed.
	Iterations int
	// Converged reports whether the message fixpoint was reached
	// within Options.Tol.
	Converged bool
	// Delta is the final maximum message change.
	Delta float64
}

// Engine is a BP solver prepared once for a fixed adjacency and
// stochastic coupling matrix and reused across solves: the
// directed-edge layout and every message/product buffer are allocated
// at construction, so repeated solves only pay the message rounds
// themselves.
//
// An Engine is not safe for concurrent use. Unlike the kernel-backed
// engines it holds no pooled resources, so it has no Close.
type Engine struct {
	h    *dense.Matrix
	n, k int
	opts Options

	src, dst []int   // directed edge endpoints; reverse(d) = d^1
	incoming [][]int // node -> incoming directed edge ids

	prior     []float64 // uncentered priors, refreshed per solve
	msg, next []float64 // per-directed-edge messages
	logP, qs  []float64 // log-product and per-edge scratch
}

// NewEngine validates the shapes and builds the directed-edge layout
// over the symmetric adjacency table a: one undirected edge per stored
// pair i < j, in row order (edge weights do not enter BP's messages). A
// stored self-loop is rejected. h is the uncentered stochastic coupling
// matrix H of Problem 1.
func NewEngine(a *sparse.RowBlocks, h *dense.Matrix, opts Options) (*Engine, error) {
	opts = opts.withDefaults()
	n, k := a.Rows(), h.Rows()
	if h.Cols() != k {
		return nil, fmt.Errorf("bp: coupling matrix %dx%d is not square: %w", h.Rows(), h.Cols(), errs.ErrDimensionMismatch)
	}
	en := &Engine{
		h: h, n: n, k: k, opts: opts,
		src:      make([]int, 0, a.NNZ()),
		dst:      make([]int, 0, a.NNZ()),
		incoming: make([][]int, n),
		prior:    make([]float64, n*k),
		logP:     make([]float64, n*k),
		qs:       make([]float64, k),
	}
	// Directed edge layout: undirected edge idx -> directed 2*idx (s→t)
	// and 2*idx+1 (t→s).
	for i := 0; i < n; i++ {
		cols, _ := a.RowViewCompact(i)
		for _, j := range cols {
			switch t := int(j); {
			case t == i:
				return nil, fmt.Errorf("bp: self-loop at node %d not supported: %w", i, errs.ErrInvalidInput)
			case t > i:
				en.src = append(en.src, i, t)
				en.dst = append(en.dst, t, i)
			}
		}
	}
	en.msg = make([]float64, len(en.src)*k)
	en.next = make([]float64, len(en.src)*k)
	// Node i receives one message per stored neighbor, so its incoming
	// list is cut from one array at its row length and never regrows.
	inc := make([]int, a.NNZ())
	for i, off := 0, 0; i < n; i++ {
		deg := a.RowNNZ(i)
		en.incoming[i] = inc[off : off : off+deg]
		off += deg
	}
	for d := range en.dst {
		en.incoming[en.dst[d]] = append(en.incoming[en.dst[d]], d)
	}
	return en, nil
}

// Clone returns an engine sharing the prepared, immutable directed-edge
// layout (coupling, edge endpoints, incoming-message index) with
// fresh per-solve message and scratch buffers. It is the cheap way to
// hand each concurrent goroutine its own solve workspace without paying
// the layout construction again; the shared layout is read-only during
// solves, so clones may run concurrently.
func (en *Engine) Clone() *Engine {
	return &Engine{
		h: en.h, n: en.n, k: en.k, opts: en.opts,
		src: en.src, dst: en.dst, incoming: en.incoming,
		prior: make([]float64, len(en.prior)),
		msg:   make([]float64, len(en.msg)),
		next:  make([]float64, len(en.next)),
		logP:  make([]float64, len(en.logP)),
		qs:    make([]float64, len(en.qs)),
	}
}

// SolveInto runs BP for the explicit residual beliefs e and writes the
// final residual beliefs into out (n×k, overwritten). scale multiplies
// the explicit residuals before they become priors (1 for the verbatim
// run; Lemma 12 makes rescaling harmless for the classification and the
// core dispatcher uses it to keep priors valid). ctx is checked at
// every message round; on cancellation the solve aborts with ctx.Err()
// and out holds the beliefs implied by the last completed messages.
func (en *Engine) SolveInto(ctx context.Context, out *beliefs.Residual, e *beliefs.Residual, scale float64) (iters int, delta float64, converged bool, err error) {
	n, k := en.n, en.k
	if e.N() != n || e.K() != k {
		return 0, 0, false, fmt.Errorf("bp: belief matrix %dx%d does not match n=%d k=%d: %w", e.N(), e.K(), n, k, errs.ErrDimensionMismatch)
	}
	if out.N() != n || out.K() != k {
		return 0, 0, false, fmt.Errorf("bp: destination matrix %dx%d does not match n=%d k=%d: %w", out.N(), out.K(), n, k, errs.ErrDimensionMismatch)
	}
	// Uncentered priors, validated as probabilities.
	for s := 0; s < n; s++ {
		row := e.Row(s)
		for i := 0; i < k; i++ {
			p := 1/float64(k) + scale*row[i]
			if p < -1e-12 || p > 1+1e-12 {
				return 0, 0, false, fmt.Errorf("bp: node %d class %d: prior %v outside [0,1]; scale the explicit residuals down: %w", s, i, p, errs.ErrInvalidInput)
			}
			if p < 0 {
				p = 0
			}
			en.prior[s*k+i] = p
		}
	}
	// Messages, all initialized to the neutral 1 (centered default).
	msg, next := en.msg, en.next
	for i := range msg {
		msg[i] = 1
	}
	var done <-chan struct{}
	if ctx != nil {
		done = ctx.Done()
	}
	h, qs, logP := en.h, en.qs, en.logP
	for iter := 0; iter < en.opts.MaxIter; iter++ {
		if done != nil {
			select {
			case <-done:
				en.msg = msg // keep the last completed round's messages
				en.next = next
				en.finalBeliefs(out, msg)
				return iters, delta, false, ctx.Err()
			default:
			}
		}
		computeLogProducts(logP, en.prior, msg, en.incoming, n, k)
		var roundDelta float64
		for d := range en.src {
			rev := d ^ 1
			s := en.src[d]
			// q(j) = log( es(j)·Π_{u∈N(s)} mus(j) / mts(j) ): divide the
			// full product by the reverse message to exclude the target.
			maxq := math.Inf(-1)
			for j := 0; j < k; j++ {
				qs[j] = logP[s*k+j] - math.Log(msg[rev*k+j])
				if qs[j] > maxq {
					maxq = qs[j]
				}
			}
			if math.IsInf(maxq, -1) {
				maxq = 0 // whole product vanished; exp below yields zeros
			}
			var sum float64
			for i := 0; i < k; i++ {
				var v float64
				for j := 0; j < k; j++ {
					v += h.At(j, i) * math.Exp(qs[j]-maxq)
				}
				next[d*k+i] = v
				sum += v
			}
			// Normalize to sum k (Eq. 3's Zst), then track the change.
			if sum > 0 {
				sc := float64(k) / sum
				for i := 0; i < k; i++ {
					next[d*k+i] *= sc
				}
			}
			for i := 0; i < k; i++ {
				ch := math.Abs(next[d*k+i] - msg[d*k+i])
				if math.IsNaN(ch) {
					ch = math.Inf(1) // overflow: report divergence
				}
				if ch > roundDelta {
					roundDelta = ch
				}
			}
		}
		msg, next = next, msg
		iters = iter + 1
		delta = roundDelta
		if delta <= en.opts.Tol {
			converged = true
			break
		}
	}
	en.msg, en.next = msg, next
	en.finalBeliefs(out, msg)
	return iters, delta, converged, nil
}

// finalBeliefs evaluates Eq. 1 for the given messages, normalized to
// sum 1 and centered into residual form.
func (en *Engine) finalBeliefs(out *beliefs.Residual, msg []float64) {
	n, k := en.n, en.k
	computeLogProducts(en.logP, en.prior, msg, en.incoming, n, k)
	bm := out.Matrix()
	for s := 0; s < n; s++ {
		maxl := math.Inf(-1)
		for i := 0; i < k; i++ {
			if en.logP[s*k+i] > maxl {
				maxl = en.logP[s*k+i]
			}
		}
		row := bm.Row(s)
		var sum float64
		for i := 0; i < k; i++ {
			v := math.Exp(en.logP[s*k+i] - maxl)
			row[i] = v
			sum += v
		}
		for i := 0; i < k; i++ {
			row[i] = row[i]/sum - 1/float64(k)
		}
	}
}

// Run executes loopy BP on g with stochastic coupling matrix h (the
// uncentered H of Problem 1) and explicit beliefs e given in residual
// form. The uncentered prior 1/k + eˆs must be a valid probability
// vector for every node; nodes with zero residual rows get the uniform
// prior. Messages run on g's adjacency (see NewEngine): parallel edges
// collapse into one, and self-loops are rejected.
func Run(g *graph.Graph, e *beliefs.Residual, h *dense.Matrix, opts Options) (*Result, error) {
	a, err := sparse.NewRowBlocks(g.Adjacency(), nil)
	if err != nil {
		return nil, fmt.Errorf("bp: %v: %w", err, errs.ErrInvalidInput)
	}
	en, err := NewEngine(a, h, opts)
	if err != nil {
		return nil, err
	}
	if e.N() != g.N() {
		return nil, fmt.Errorf("bp: belief matrix %dx%d does not match n=%d k=%d: %w", e.N(), e.K(), g.N(), h.Rows(), errs.ErrDimensionMismatch)
	}
	res := &Result{Beliefs: beliefs.New(en.n, en.k)}
	res.Iterations, res.Delta, res.Converged, err = en.SolveInto(context.Background(), res.Beliefs, e, 1)
	if err != nil {
		return nil, err
	}
	return res, nil
}

// computeLogProducts fills logP with log(prior(s,j)) + Σ log(m_us(j))
// over incoming messages, the log of Eq. 1's unnormalized belief.
func computeLogProducts(logP, prior, msg []float64, incoming [][]int, n, k int) {
	for s := 0; s < n; s++ {
		for j := 0; j < k; j++ {
			logP[s*k+j] = math.Log(prior[s*k+j])
		}
		for _, d := range incoming[s] {
			for j := 0; j < k; j++ {
				logP[s*k+j] += math.Log(msg[d*k+j])
			}
		}
	}
}
